"""The acceptance checks, runnable from the CLI (`hofa selftest`) and
wrapped one-to-one by tests/test_acceptance.py.

Each check returns a CheckResult; every tolerance is pinned here to its
stated value (almost all are exact / zero-tolerance).
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analysis, instances, integrate, mforms, pipeline, rank, symmetrize
from .analysis import BoundedFunction
from .cyclotomic import RealSurd
from .fpspace import all_vectors, vec_index
from .mforms import MultilinearForm, is_csm, is_ncsm, total_derivative
from .ncpoly import Monomial, NcPoly, random_poly
from .torus import TorusValue


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float


def _timed(name):
    def deco(fn):
        def wrapper(*a, **kw):
            t0 = time.time()
            ok, detail = fn(*a, **kw)
            return CheckResult(name, ok, detail, time.time() - t0)

        wrapper.check_name = name
        return wrapper

    return deco


@_timed("1 counting identity and nCSM census")
def check_counting(quick: bool = False):
    settings = [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 3, 1), (3, 3, 2)]
    for p, k, n in settings:
        rep = integrate.ncsm_count(p, n, k)
        if not rep.agreement:
            return False, f"monomial/pattern count mismatch at {(p, k, n)}"
        if rep.ncsm_size is None or not rep.ncsm_size_matches:
            return False, f"brute-force census mismatch at {(p, k, n)}: {rep}"
    special = integrate.ncsm_count(2, 2, 3)
    if special.ncsm_size != 8:
        return False, f"|nCSM^3(F_2^2)| = {special.ncsm_size} != 8"
    return True, f"{len(settings)} settings, census sizes verified"


@_timed("2 integration exactness on random nCSM inputs")
def check_integration(quick: bool = False):
    rng = random.Random(20240)
    count = 20 if quick else 100
    total = 0
    for p, k, ns in [(2, 3, (1, 2, 3)), (2, 4, (1, 2)), (3, 3, (1, 2))]:
        for n in ns:
            for _ in range(count):
                T = mforms.random_ncsm_form(rng, p, n, k)
                P = integrate.integrate_ncsm(T)
                D = total_derivative(P, k)
                if D != T:
                    return False, f"d^{k} P != T at {(p, k, n)}"
                if p ** (n * k) <= 4096:
                    if not np.array_equal(mforms.value_cube(T), mforms.value_cube(D)):
                        return False, f"tuple check failed at {(p, k, n)}"
                total += 1
    return True, f"{total} integrations, all exact"


@_timed("3 total-derivative membership (classical -> CSM, general -> nCSM)")
def check_membership(quick: bool = False):
    count = 40 if quick else 200
    settings = [(2, 3, 3), (2, 4, 2), (3, 3, 2), (3, 4, 2)]
    done = 0
    for p, k, n in settings:
        for i in range(count):
            Pc = random_poly(p, n, k, depth_allowed=False, seed=(p, k, n, i, "c"))
            if not is_csm(total_derivative(Pc, k)):
                return False, f"classical polynomial gave a non-CSM derivative at {(p, k, n)}"
            Pn = random_poly(p, n, k, depth_allowed=True, seed=(p, k, n, i, "n"))
            if not is_ncsm(total_derivative(Pn, k)):
                return False, f"polynomial gave a non-nCSM derivative at {(p, k, n)}"
            done += 2
    return True, f"{done} membership checks"


@_timed("4 Cauchy-Schwarz defect inequality, 500 instances")
def check_gt_defect(quick: bool = False):
    rng = random.Random(7311)
    count = 100 if quick else 500
    done = 0
    for i in range(count):
        p, n = rng.choice([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
        A = mforms.as_bilinear(mforms.random_form(rng, p, n, 2))
        bs = [analysis.random_mu_p_function(rng, p, n, zeros=(i % 4 == 0)) for _ in range(3)]
        res = symmetrize.gt_defect(A, *bs)
        if not res.holds:
            return False, f"bias(A - A^T) < delta^8 at instance {i} (p={p}, n={n})"
        done += 1
    return True, f"{done} instances, zero failures"


@_timed("5 defect/codimension ledgers on planted instances")
def check_ledgers(quick: bool = False):
    rng = random.Random(515)
    count = 10 if quick else 50
    # permutation-defect bounds (16 log and 8 log)
    for i in range(count):
        p, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        inst = instances.planted_instance(p, n, seed=(i, "pd"), style="general")
        pd = symmetrize.permutation_defects(inst.T, inst.witness)
        if not pd.all_hold():
            return False, f"permutation defect bound failed at instance {i}"
    # symmetric subspace codim <= 5r
    for i in range(count):
        p, n = rng.choice([(2, 3), (3, 2)])
        inst = instances.planted_instance(p, n, seed=(i, "ss"), style="general")
        U = symmetrize.symmetric_subspace(inst.T, inst.certs)
        if U.codim > 5 * inst.r:
            return False, f"codim {U.codim} > 5r = {5 * inst.r} at instance {i}"
    # p = 3 diagonal reduction: codim <= 1 and restriction classical
    for i in range(count):
        T = mforms.random_symmetric_form(rng, 3, rng.choice([1, 2, 3]), 3)
        U = symmetrize.csm_subspace_f3(T)
        if U.codim > 1 or not is_csm(mforms.restrict(T, U)):
            return False, f"diagonal reduction failed at instance {i}"
    # p = 2 nullspace reduction: codim <= 8 log2(1/delta)
    done = 0
    i = 0
    while done < count:
        T, w = instances.random_symmetric_with_ones_witness(2, rng.choice([2, 3]), seed=(i, "ns"))
        i += 1
        if not w.delta_positive():
            continue
        W, B, led = symmetrize.ncsm_subspace_f2(T, w)
        if not all(e.holds for e in led):
            return False, f"nullspace codim bound failed at instance {i}"
        if not is_ncsm(mforms.restrict(T, W)):
            return False, f"restriction not nCSM at instance {i}"
        done += 1
    return True, f"4 x {count} planted-instance ledgers, zero failures"


@_timed("6 symmetrization certificates (15r + 3 and 432 log)")
def check_symmetrization(quick: bool = False):
    rng = random.Random(616)
    count = 6 if quick else 25
    for i in range(count):
        inst = instances.planted_instance(3, 2, seed=(i, "p3"), style="single_linear")
        rep = symmetrize.symmetrize_classical(inst.T, inst.witness, certs=inst.certs)
        if len(rep.certificate) > 15 * inst.r + 3:
            return False, f"p=3 certificate too long at instance {i}"
        if not (rep.all_hold() and rep.verify() and is_csm(rep.output_form)):
            return False, f"p=3 report failed at instance {i}"
    for i in range(count):
        n = rng.choice([2, 3])
        inst = instances.planted_instance(2, n, seed=(i, "p2"), style="general")
        rep = symmetrize.symmetrize_nonclassical_p2(inst.T, inst.witness, certs=inst.certs)
        if not (rep.all_hold() and rep.verify() and is_ncsm(rep.output_form)):
            bad = [str(e) for e in rep.ledger if not e.holds]
            return False, f"p=2 report failed at instance {i}: {bad}"
    return True, f"2 x {count} constructed instances, certificates verified"


@_timed("7 rank consistency (256-tensor census, bilinear agreement)")
def check_rank(quick: bool = False):
    ranks, parents = rank.prank_table(2, 2, 3)
    if len(ranks) != 256:
        return False, f"census covers {len(ranks)} != 256 tensors"
    for key, r in ranks.items():
        T = MultilinearForm(2, 2, 3, np.frombuffer(key, dtype=np.int8).reshape(2, 2, 2).copy())
        bias = rank.analytic_rank(T).bias
        if bias < Fraction(1, 2**r):
            return False, "arank <= prank violated in the census"
        cert = rank.certificate_from_table(T, parents)
        if len(cert) != r or not rank.verify_certificate(cert).ok:
            return False, "census certificate mismatch"
    for p, n in [(2, 2), (3, 2)]:
        for coefs in itertools.product(range(p), repeat=n * n):
            B = MultilinearForm(p, n, 2, np.array(coefs).reshape(n, n))
            r = rank.bilinear_rank(mforms.as_bilinear(B))[0]
            if rank.analytic_rank(B).bias != Fraction(1, p**r):
                return False, f"analytic != matrix rank over F_{p}^{n}"
    return True, "census of 256 trilinear + exhaustive bilinear agreement"


def _u4_fixture(n: int = 3):
    P0 = NcPoly.make(2, n, TorusValue.zero(2), [Monomial(tuple(1 if i == 0 else 0 for i in range(n)), 2, 1)])
    return P0, BoundedFunction.from_poly_phase(P0)


@_timed("8 end-to-end pipeline (p=2 depth phase; p=3 classical cubic)")
def check_pipeline(quick: bool = False):
    P0, f = _u4_fixture(3)
    u4 = analysis.gowers_norm(f, 4)
    if u4.power_surd() != RealSurd(1):
        return False, "fixture U^4 norm is not exactly 1"
    opts = pipeline.PipelineOptions(strategy=pipeline.FromPolynomialGuess(P0))
    rep = pipeline.run_inverse_pipeline(f, Fraction(1, 2), opts)
    if not (rep.final_correlation.mag2_is_one() and rep.all_hold()):
        return False, "p=2 pipeline did not reach correlation 1 with a green ledger"
    if (rep.final_poly - P0).degree() > 2:
        return False, "p=2 output differs from the planted cubic beyond degree 2"
    P3 = NcPoly.from_classical(3, 2, {(2, 1): 1})
    f3 = BoundedFunction.from_poly_phase(P3)
    opts3 = pipeline.PipelineOptions(strategy=pipeline.FromPolynomialGuess(P3))
    rep3 = pipeline.run_inverse_pipeline(f3, Fraction(1, 2), opts3)
    if not (rep3.final_correlation.mag2_is_one() and rep3.classical and rep3.all_hold()):
        return False, "p=3 pipeline did not return a classical polynomial at correlation 1"
    return True, "both fixtures: correlation exactly 1, ledgers green"


@_timed("9 perturbation robustness (5% unimodular noise)")
def check_noise(quick: bool = False):
    P0, f = _u4_fixture(3)
    rng = random.Random(909)
    npts = max(1, round(0.05 * f.size))
    pts = rng.sample(list(all_vectors(2, 3)), npts)
    repl = {}
    for x in pts:
        orig = int(f.exps[vec_index(2, x)])
        t = rng.randrange(8)
        while t == orig:
            t = rng.randrange(8)
        repl[x] = t
    noisy = f.with_replaced_values(repl)
    harness_bound = analysis.correlation(noisy, P0)
    opts = pipeline.PipelineOptions(strategy=pipeline.FromPolynomialGuess(P0))
    rep = pipeline.run_inverse_pipeline(noisy, Fraction(1, 2), opts)
    if not rep.final_correlation.mag2() >= harness_bound.mag2():
        return False, "final correlation below the harness-computed bound"
    if not rep.final_correlation.mag2() >= RealSurd(Fraction(1, 4)):
        return False, "final correlation below 0.5"
    if not rep.all_hold():
        return False, "noisy-run ledger has failures"
    return True, (
        f"final {rep.final_correlation.modulus_float():.4f} >= "
        f"bound {harness_bound.modulus_float():.4f} >= 0.5"
    )


@_timed("10 performance: exact U^4 on F_2^8 < 10 s, cross-check at F_2^3")
def check_performance(quick: bool = False):
    rng = random.Random(1001)
    f = analysis.random_unimodular_exact(rng, 2, 8, 3)
    t0 = time.time()
    analysis.gowers_norm(f, 4)
    dt = time.time() - t0
    if dt >= 10.0:
        return False, f"U^4 on F_2^8 took {dt:.2f}s"
    f3 = analysis.random_unimodular_exact(rng, 2, 3, 3)
    a = analysis.gowers_norm(f3, 4).power_surd()
    b = analysis.direct_gowers_power(f3, 4).power_surd()
    if a != b:
        return False, "column-kernel and direct U^4 disagree at F_2^3"
    return True, f"U^4 on F_2^8 in {dt:.2f}s, direct cross-check exact"


ALL_CHECKS = [
    check_counting,
    check_integration,
    check_membership,
    check_gt_defect,
    check_ledgers,
    check_symmetrization,
    check_rank,
    check_pipeline,
    check_noise,
    check_performance,
]


def run_all(quick: bool = False):
    return [chk(quick=quick) for chk in ALL_CHECKS]
