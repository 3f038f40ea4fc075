"""Phases as exponent tables: every operation on a phase keeps it an
exponent table and agrees with the same operation on its value table, the
coefficient planes are derived only when read, and the coset restriction
reads the same points as the per-point reference loop."""
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an
from hofa import fpspace
from hofa.cyclotomic import ring
from hofa.errors import DimensionMismatch, PreconditionError
from hofa.symmetrize import _cs_witness_functions
from oracles import coset_indices_reference
from ringref import ref_roots

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# (p, largest m, largest n): rings Z (m = 0) to Z[zeta_8], Z[zeta_9] and Z[zeta_5]
SPACES = {2: (3, 3), 3: (2, 2), 5: (1, 2)}


def _stripped(f):
    """f as a value table: its derived planes, without ``exps``."""
    return an.BoundedFunction(f.p, f.n, f.ring, f.coeffs, f.den)


def _same_function(phase, values):
    """``phase`` is still an exponent table, ``values`` a value table, and both
    hold the same values: same ring and den, equal derived planes."""
    assert phase.exps is not None and values.exps is None
    assert (phase.p, phase.n, phase.ring.N, phase.den) == (values.p, values.n, values.ring.N, values.den)
    assert np.array_equal(phase.coeffs, ref_roots(phase.ring, phase.exps))
    assert np.array_equal(phase.coeffs, values.coeffs)
    assert np.allclose(phase.to_complex_table(), values.to_complex_table())


@st.composite
def phase_pairs(draw):
    """Two random phases on one F_p^n, in rings of orders p^m1 and p^m2, with a seed."""
    p = draw(st.sampled_from(sorted(SPACES)))
    top_m, top_n = SPACES[p]
    n = draw(st.integers(1, top_n))
    fs = []
    for _ in range(2):
        m = draw(st.integers(0, top_m))
        exps = draw(st.lists(st.integers(0, p**m - 1), min_size=p**n, max_size=p**n))
        fs.append(an.BoundedFunction.from_exponents(p, n, m, exps))
    return fs[0], fs[1], draw(st.integers(0, 2**32))


class TestPhaseOperations:
    @settings(max_examples=60, deadline=None)
    @given(phase_pairs())
    def test_every_operation_matches_the_value_table(self, pair):
        f, g, seed = pair
        rng = random.Random(seed)
        p, n = f.p, f.n
        fv, gv = _stripped(f), _stripped(g)
        h = fpspace.random_vector(rng, p, n)
        U = fpspace.random_subspace(rng, p, n)
        target = ring(p, f.ring.m + 1)
        repl = {fpspace.random_vector(rng, p, n): rng.randrange(f.ring.N) for _ in range(2)}
        ops = {
            "embed": lambda a, b: a.embed(target),
            "conj": lambda a, b: a.conj(),
            "shift_arg": lambda a, b: a.shift_arg(h),
            "mul": lambda a, b: a.mul(b),
            "mult_derivative": lambda a, b: a.mult_derivative(h),
            "restrict_to_coset": lambda a, b: a.restrict_to_coset(U, h),
            "with_replaced_values": lambda a, b: a.with_replaced_values(repl),
        }
        for name, op in ops.items():
            _same_function(op(f, g), op(fv, gv))
        for got, want in zip(_cs_witness_functions(f.shift_arg(h), f, h), _cs_witness_functions(fv.shift_arg(h), fv, h)):
            _same_function(got, want)
        assert f.check_bounded() and fv.check_bounded()
        # a phase times a value table is a value table
        mixed = f.mul(gv)
        assert mixed.exps is None and np.array_equal(mixed.coeffs, f.mul(g).coeffs)

    def test_constructors_build_no_planes(self, monkeypatch):
        def derive(R, exps):  # pragma: no cover
            raise AssertionError("a phase derived its coefficient planes")

        monkeypatch.setattr(an, "_phase_coeffs", derive)
        f = an.BoundedFunction.from_exponents(3, 2, 2, range(9))
        g = an.BoundedFunction.ones(3, 2).mul(f).conj().shift_arg((1, 2)).embed(ring(3, 3))
        assert g.exps is not None and g.check_bounded()
        assert an.gowers_norm(g, 3).power_surd() is not None

    def test_planes_are_derived_once(self, monkeypatch):
        f = an.BoundedFunction.from_exponents(2, 3, 3, range(8))
        calls = []
        derive = an._phase_coeffs
        monkeypatch.setattr(an, "_phase_coeffs", lambda R, e: calls.append(1) or derive(R, e))
        assert f.coeffs is f.coeffs
        assert len(calls) == 1


class TestConstructorPairs:
    def test_consistent_pair_is_kept_as_the_exponent_table(self):
        R = ring(3, 2)
        exps = np.arange(9) * 4 % 9
        f = an.BoundedFunction(3, 2, R, R.roots_to_coeffs(exps), 1, exps=exps)
        assert np.array_equal(f.exps, exps) and f._coeffs is None
        assert np.array_equal(f.coeffs, ref_roots(R, exps))

    def test_mismatched_pair_raises(self):
        R = ring(2, 3)
        exps = np.arange(4)
        coeffs = R.roots_to_coeffs(exps).copy()
        coeffs[:, 2] = R.root(3)
        with pytest.raises(PreconditionError, match="different values"):
            an.BoundedFunction(2, 2, R, coeffs, 1, exps=exps)
        with pytest.raises(PreconditionError, match="different values"):
            an.BoundedFunction(2, 2, R, R.roots_to_coeffs(exps), 1, exps=(exps + 1) % 8)

    def test_exps_at_another_den_are_dropped(self):
        R = ring(2, 2)
        exps = np.array([0, 1, 2, 3])
        f = an.BoundedFunction(2, 2, R, 2 * R.roots_to_coeffs(exps), 2, exps=exps)
        assert f.exps is None and f.check_bounded()

    def test_a_function_needs_a_table(self):
        with pytest.raises(PreconditionError):
            an.BoundedFunction(2, 2, ring(2, 1))
        with pytest.raises(PreconditionError):
            an.BoundedFunction(2, 2, ring(2, 1), den=3, exps=np.zeros(4, dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            an.BoundedFunction.from_exponents(2, 2, 1, [0, 1, 1])


class TestCosetIndices:
    @pytest.mark.parametrize("p, n", [(2, 4), (3, 3)])
    def test_matches_the_per_point_loop(self, p, n):
        rng = random.Random(f"coset {p} {n}")
        # exponent table i -> i in Z[zeta_{p^n}]: a restriction's table is its point indices
        f = an.BoundedFunction.from_exponents(p, n, n, np.arange(p**n))
        fv = _stripped(f)
        for dim in range(n + 1):
            for _ in range(4):
                U, shift = fpspace.random_subspace(rng, p, n, dim), fpspace.random_vector(rng, p, n)
                want = coset_indices_reference(U, shift)
                got = f.restrict_to_coset(U, shift)
                assert got.n == dim and got.exps.tolist() == want
                assert np.array_equal(fv.restrict_to_coset(U, shift).coeffs, fv.coeffs[:, want])


def test_pipeline_pass_derives_no_planes_after_the_first(monkeypatch):
    """Past the first pass, which derives the inputs' planes for the report
    digest and keeps them, a seed-1 ``pipeline`` pass runs every phase on
    its exponent table alone, with the pinned digest."""
    wl = workloads.build("pipeline", 1)
    for op in wl.ops:
        op.run()
    calls = []
    derive = an._phase_coeffs
    monkeypatch.setattr(an, "_phase_coeffs", lambda R, e: calls.append(e.shape) or derive(R, e))
    texts = [op.canon(op.run()) for op in wl.ops]
    assert calls == []
    assert workloads.digest(texts) == "14a60cf0f678d0526e0e01f79ee7869d9bb77b065684a5ad1a242dbb84e66a54"
