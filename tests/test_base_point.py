"""The base-point argmax kernel against the per-base-point loops it replaced.

The three reference loops below measure one witness per base point, exactly
as the stage-3 witness, the Cauchy-Schwarz step and the stage-6 cleanup did
before they shared ``analysis.base_point_argmax``.  The kernel must choose
the same base point (the first maximum), and the witnesses built from it
must have identical coefficients, denominators and exact correlations.
"""
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an
from hofa import fpspace
from hofa import mforms as mf
from hofa import pipeline as pl
from hofa import symmetrize as sym
from hofa.config import Budget
from hofa.cyclotomic import ring
from hofa.errors import BudgetExceeded
from hofa.fpspace import all_vectors, vec_index
from hofa.mforms import MultiaffineForm
from ringref import ref_phased_sum

KINDS = ("phase1", "phase2", "mu_zeros", "gauss_den2", "ones")
# Z[i] values meet only the phases of p = 2: Z[zeta_4] holds no odd roots of unity
GAUSSIAN = "gauss_den2"


def make_function(rng, p, n, kind):
    if kind == "phase1":
        return an.random_unimodular_exact(rng, p, n, 1)
    if kind == "phase2":
        return an.random_unimodular_exact(rng, p, n, 2)
    if kind == "mu_zeros":
        return an.random_mu_p_function(rng, p, n, zeros=True)
    if kind == "gauss_den2":  # values (a + b i) / 2 in Z[i] with |value| <= 1
        pairs = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (2, 0), (0, -2)]
        cols = [rng.choice(pairs) for _ in range(p**n)]
        return an.BoundedFunction(p, n, ring(2, 2), np.array(cols, dtype=np.int64).T, 2)
    return an.BoundedFunction.ones(p, n)


def random_phase(rng, p, n, slot_sets):
    """A multiaffine form on three slots with random components on ``slot_sets``."""
    comps = {s: mf.random_form(rng, p, n, len(s)) for s in slot_sets if s}
    comps[()] = rng.randrange(p)
    return MultiaffineForm.make(p, n, 3, comps)


TRIAFFINE = [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,), ()]
NO_TRILINEAR = TRIAFFINE[1:]


def cases():
    for p, ns in ((2, (1, 2, 3)), (3, (1, 2))):
        for n in ns:
            for kind in KINDS:
                if p == 2 or kind != GAUSSIAN:
                    yield p, n, kind


# -- the reference loops --


def ref_witness_from_function(f, phi):
    best = None
    for i, x0 in enumerate(all_vectors(f.p, f.n)):
        shifted = f.shift_arg(x0)
        col = f.ring.conj_arrays(f.coeffs[:, vec_index(f.p, x0)])
        const = an.BoundedFunction(f.p, f.n, f.ring, np.repeat(col[:, None], f.size, axis=1), f.den)
        b1 = shifted.mul(const)
        bs = (b1, shifted, shifted, shifted.conj(), shifted.conj(), shifted.conj(), shifted)
        val = sym.seven_correlation(bs, phi)
        if best is None or val.mag2() > best[0]:
            best = (val.mag2(), i, bs, val)
    return best[1:]


def ref_multiaffine_cs(phi, bs):
    T = mf.multilinear_part(phi)
    b7 = bs[6]
    best = None
    for i, s in enumerate(all_vectors(b7.p, b7.n)):
        bprime = sym._cs_witness_functions(b7.shift_arg(s), b7, s)
        val = sym.seven_correlation(bprime, T)
        if best is None or val.mag2() > best[0]:
            best = (val.mag2(), i, bprime, val)
    return best[1:]


def ref_fold_phases(fn, phase, slot, hfix, fixed_slot):
    p, n = phase.p, phase.n
    X = np.array(all_vectors(p, n), dtype=np.int64)
    hvec = np.asarray(hfix, dtype=np.int64)
    mat = pl._coeffs(phase, sorted((slot, fixed_slot)))
    cross = hvec @ mat @ X.T if fixed_slot < slot else X @ mat @ hvec
    expo = (X @ pl._coeffs(phase, (slot,)) + cross) % p
    return fn.mul(an.BoundedFunction.from_exponents(p, n, 1, expo))


def ref_cleanup_witness(g, phase, pair, fixed_slot):
    p, n = g.p, g.n
    a, b = pair
    B = mf.BilinearForm(p, n, pl._coeffs(phase, pair))
    best = None
    X = all_vectors(p, n)
    for i, x0 in enumerate(X):
        gx = g.shift_arg(x0)
        for j, hfix in enumerate(X):
            gxh = g.shift_arg(fpspace.vec_add(p, x0, hfix))
            corner = gx.mul(gxh.conj())
            fs = gx.conj().mul(gxh)
            fa = ref_fold_phases(corner, phase, a, hfix, fixed_slot)
            fb = ref_fold_phases(corner, phase, b, hfix, fixed_slot)
            val = sym.three_correlation(fa, fb, fs, B)
            if best is None or val.mag2() > best[0]:
                best = (val.mag2(), i * p**n + j, (fa, fb, fs), val)
    return best[1:]


# -- comparison helpers --


@contextmanager
def chosen_points():
    """Record every index base_point_argmax returns while the block runs."""
    got = []
    kernel = an.base_point_argmax

    def spy(*args, **kwargs):
        got.append(kernel(*args, **kwargs))
        return got[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sym, "base_point_argmax", spy)
        mp.setattr(an, "base_point_argmax", spy)
        yield got


def assert_same_functions(new, ref):
    assert len(new) == len(ref)
    for b, r in zip(new, ref):
        assert b.ring.N == r.ring.N and b.den == r.den
        assert np.array_equal(b.coeffs, r.coeffs)


def check_witness(f, phi):
    R = ring(f.p, 1)
    with chosen_points() as got:  # eps = 0, so the ledger entry holds for any witness
        w, _ = pl.witness_from_function(f, phi, an.CorrValue.from_sum(R, R.zero(), 1))
    i, bs, val = ref_witness_from_function(f, phi)
    assert got == [i]
    assert_same_functions(w.bs, bs)
    assert w.delta.mag2() == val.mag2()
    # multiaffine_cs reads this delta instead of measuring the witness again
    again = sym.seven_correlation(w.bs, phi)
    assert (w.delta.ring, w.delta.den, list(w.delta.num)) == (again.ring, again.den, list(again.num))


def check_cs(phi, bs):
    with chosen_points() as got:
        _, bprime, delta, _ = sym.multiaffine_cs(sym.CorrelationWitness.make(phi, bs))
    i, ref_bs, val = ref_multiaffine_cs(phi, bs)
    assert got == [i]
    assert_same_functions(bprime, ref_bs)
    assert delta.mag2() == val.mag2()


def check_cleanup(g, phase):
    for pair, fixed in (((1, 2), 0), ((0, 2), 1), ((0, 1), 2)):
        with chosen_points() as got:
            new = pl._cleanup_witness(g, phase, pair, fixed, Budget())
        i, ref, val = ref_cleanup_witness(g, phase, pair, fixed)
        assert got == [i]
        assert_same_functions(new, ref)
        B = mf.BilinearForm(g.p, g.n, pl._coeffs(phase, pair))
        assert sym.three_correlation(*new, B).mag2() == val.mag2()


# -- the tests --


@pytest.mark.parametrize("p,n,kind", list(cases()))
def test_stage3_witness_matches_reference(p, n, kind):
    rng = random.Random(f"witness {p} {n} {kind}")
    check_witness(make_function(rng, p, n, kind), random_phase(rng, p, n, TRIAFFINE))


@pytest.mark.parametrize("p,n,kind", list(cases()))
def test_cauchy_schwarz_witness_matches_reference(p, n, kind):
    rng = random.Random(f"cs {p} {n} {kind}")
    bs = tuple(make_function(rng, p, n, kind) for _ in range(7))
    check_cs(random_phase(rng, p, n, TRIAFFINE), bs)


@pytest.mark.parametrize("p,n,kind", list(cases()))
def test_cleanup_witness_matches_reference(p, n, kind):
    rng = random.Random(f"cleanup {p} {n} {kind}")
    check_cleanup(make_function(rng, p, n, kind), random_phase(rng, p, n, NO_TRILINEAR))


def test_constant_one_ties_pick_the_first_base_point():
    for p, n in ((2, 2), (3, 2)):
        ones = an.BoundedFunction.ones(p, n)
        R = ring(p, 1)
        tables = an.cube_corner_tables(R, dict.fromkeys(range(8), ones.embed(R).coeffs))
        zero = np.zeros((p**n,) * 3, dtype=np.int64)
        assert an.base_point_argmax(R, p, n, 4, tables, zero) == 0
        assert an.base_point_argmax(R, p, n, 4, tables, zero, nbase=2) == 0


def test_kernel_matches_the_unchunked_product():
    """Per-base-point sums of the whole corner product, argmax by hand."""
    rng = random.Random(5)
    for p, n, nbase in ((2, 2, 1), (2, 2, 2), (3, 1, 2), (2, 1, 3)):
        m = 2 if p == 2 else 1
        R, size = ring(p, m), p**n
        masks = [15] + rng.sample(range(1, 15), 5)  # 15 gives every variable an axis
        tables = {S: an.random_unimodular_exact(rng, p, n, m).coeffs for S in masks}
        expo = np.array([rng.randrange(p) for _ in range(size**3)]).reshape((size,) * 3)
        prod = an.corner_product(R, p, n, 4, tables)
        base = np.arange(size**4).reshape((size,) * 4) // size ** (4 - nbase)
        sums = ref_phased_sum(R, prod, expo * (R.N // p), [base == j for j in range(size**nbase)])
        assert sums.shape == (R.degree, size**nbase)
        keys = [an.CorrValue.from_sum(R, sums[:, j], 1).mag2() for j in range(size**nbase)]
        first = next(j for j, k in enumerate(keys) if all(k >= other for other in keys))
        assert an.base_point_argmax(R, p, n, 4, tables, expo, nbase=nbase) == first


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
)
def test_witnesses_match_reference_hypothesis(pn, kind, seed):
    p, n = pn
    if kind == GAUSSIAN and p != 2:
        kind = "mu_zeros"
    rng = random.Random(seed)
    f = make_function(rng, p, n, kind)
    check_witness(f, random_phase(rng, p, n, TRIAFFINE))
    check_cs(random_phase(rng, p, n, TRIAFFINE), (f,) * 6 + (make_function(rng, p, n, kind),))
    check_cleanup(f, random_phase(rng, p, n, NO_TRILINEAR))


def test_budget_exceeded_where_seven_correlation_raises():
    p, n = 2, 2
    f = an.random_mu_p_function(random.Random(3), p, n)
    phi = random_phase(random.Random(4), p, n, TRIAFFINE)
    phase = random_phase(random.Random(4), p, n, NO_TRILINEAR)
    step = p ** (3 * n) * 8
    tight = Budget(enum_cap=step - 1)
    with pytest.raises(BudgetExceeded):
        sym.seven_correlation((f,) * 7, phi, tight)
    with pytest.raises(BudgetExceeded):
        sym.derivative_witness(f, phi, tight)
    with pytest.raises(BudgetExceeded):
        pl._cleanup_witness(f, phase, (1, 2), 0, tight)
    exact = Budget(enum_cap=step)
    bs, val = sym.derivative_witness(f, phi, exact)
    assert val.mag2() == sym.seven_correlation(bs, phi).mag2()
    pl._cleanup_witness(f, phase, (1, 2), 0, exact)
