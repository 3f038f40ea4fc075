import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hofa import analysis as an
from hofa import integrate
from hofa import mforms as mf
from hofa import pipeline as pl
from hofa import rank as rk
from hofa.config import DEFAULT_BUDGET
from hofa.cyclotomic import RealSurd, SurdPower, ring
from hofa.errors import BudgetExceeded, HofaError, InternalCheckError, PreconditionError
from hofa.fpspace import all_vectors, vec_index
from hofa.instances import defect_certificates_from_terms
from hofa.mforms import MultiaffineForm, MultilinearForm, total_derivative
from hofa.ncpoly import Monomial, NcPoly, random_poly
from hofa.rank import CertTerm
from hofa.symmetrize import form_cube, seven_correlation, slot_cube
from hofa.torus import TorusValue
from oracles import expanded_pow, g_extras_reference, g_table_reference
from ringref import ref_mul, ref_roots


def depth_cubic_fixture(n=3):
    P0 = NcPoly.make(
        2, n, TorusValue.zero(2), [Monomial(tuple(1 if i == 0 else 0 for i in range(n)), 2, 1)]
    )
    return P0, an.BoundedFunction.from_poly_phase(P0)


class TestFindTriaffine:
    def test_from_polynomial_guess_is_exact(self):
        for p, n, depth in [(2, 2, True), (3, 2, False)]:
            P0 = random_poly(p, n, 3, depth_allowed=depth, seed=(p, n))
            f = an.BoundedFunction.from_poly_phase(P0)
            phi, eps = pl.find_triaffine(f, pl.FromPolynomialGuess(P0))
            assert eps.mag2_is_one(), (p, n)
            assert mf.multilinear_part(phi) == -total_derivative(P0, 3)

    def test_ones_function(self):
        f = an.BoundedFunction.ones(2, 2)
        phi, eps = pl.find_triaffine(f, pl.FromPolynomialGuess(NcPoly.zero(2, 2)))
        assert eps.mag2_is_one()

    @pytest.mark.parametrize("p", [2, 3])
    def test_integer_valued_function_keeps_the_phase(self, p):
        """m = 0 (values in Z): the cube is measured in a ring with p-th roots."""
        T = mf.random_form(random.Random(1), p, 2, 3)
        ones = an.BoundedFunction.ones(p, 2)
        assert ones.ring.N == 1
        _, eps = pl.find_triaffine(ones, pl.SuppliedTriaffine(MultiaffineForm.from_multilinear(T)))
        assert eps.mag2() == seven_correlation((ones,) * 7, T).mag2()
        assert not eps.mag2_is_one()

    def test_exhaustive_matches_supplied_scan(self):
        P0 = random_poly(2, 2, 3, True, seed=5)
        f = an.BoundedFunction.from_poly_phase(P0)
        f = f.with_replaced_values({(0, 1): 5})  # corrupt one value
        phi, eps = pl.find_triaffine(f, pl.ExhaustiveTrilinear())
        # the exhaustive argmax must beat or match the planted guess
        _, eps_guess = pl.find_triaffine(f, pl.FromPolynomialGuess(P0))
        assert eps.mag2() >= eps_guess.mag2()
        # self-consistency: re-measuring the returned form gives the same value
        phi2, eps2 = pl.find_triaffine(f, pl.SuppliedTriaffine(phi))
        assert eps2.mag2() == eps.mag2()

    def test_exhaustive_search_reads_the_budget(self):
        f = an.BoundedFunction.ones(2, 2)  # trilinear form space 2^8
        with pytest.raises(BudgetExceeded):
            pl.find_triaffine(f, pl.ExhaustiveTrilinear(), replace(DEFAULT_BUDGET, prank_space_cap=255))

    def test_random_search_measures_honestly(self):
        rng = random.Random(9)
        f = an.random_mu_p_function(rng, 2, 2)
        phi, eps = pl.find_triaffine(f, pl.RandomSearch(tries=16, seed=3))
        _, eps_again = pl.find_triaffine(f, pl.SuppliedTriaffine(phi))
        assert eps.mag2() == eps_again.mag2()

    def test_search_without_candidates_raises_a_hofa_error(self):
        f = an.BoundedFunction.from_poly_phase(NcPoly.from_classical(3, 2, {(2, 1): 1}))  # x1^2 x2
        with pytest.raises(HofaError, match="no candidates"):
            pl.run_inverse_pipeline(f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.RandomSearch(tries=0)))


class TestDerandomize:
    def test_planted_r1(self):
        # a single rank-1 gamma: the indicator argmax must keep eps / p^2
        P0, f = depth_cubic_fixture(2)
        g_cube = pl.derivative_sum_cube(f)
        phase = MultiaffineForm.make(2, 2, 3, {})
        lin = np.array([1, 0], dtype=np.int64)
        bil = np.array([[1, 0], [0, 1]], dtype=np.int64)
        gamma = pl.GammaTerm((0,), lin, (1, 2), bil)
        eps = pl.measure_state(g_cube, phase, gammas=(gamma,))
        if eps.mag2() > RealSurd(Fraction(0)):
            c, xi, new_phase, measured, entries = pl.derandomize_indicator(
                g_cube, phase, (gamma,), eps, 1, pl._stage_bound_mag2(2, eps, 1, 2)
            )
            assert all(e.holds for e in entries)
            assert measured.mag2() * RealSurd(Fraction(16)) >= eps.mag2()

    def test_noop(self):
        P0, f = depth_cubic_fixture(2)
        g_cube = pl.derivative_sum_cube(f)
        phase = MultiaffineForm.make(2, 2, 3, {})
        eps = pl.measure_state(g_cube, phase)
        c, xi, new_phase, measured, entries = pl.derandomize_indicator(g_cube, phase, (), eps, 0, pl._stage_bound_mag2(2, eps, 0, 2))
        assert c is None and measured.mag2() == eps.mag2()


def _pin_g_cube(p):
    """Derivative cube of the depth cubic on F_2^2 or the classical cubic on F_3^2."""
    if p == 2:
        return pl.derivative_sum_cube(depth_cubic_fixture(2)[1])
    return pl.derivative_sum_cube(an.BoundedFunction.from_poly_phase(NcPoly.from_classical(3, 2, {(2, 1): 1})))


def _pin_rank1(g_cube, phase, terms):
    """Stage-5 derandomization of linear(h_slot) x bilinear(other pair) terms."""
    gammas = tuple(
        pl.GammaTerm((s,), np.array(lin), tuple(i for i in range(3) if i != s), np.array(bil))
        for s, lin, bil in terms
    )
    eps = pl.measure_state(g_cube, phase, gammas=gammas)
    bound = pl._stage_bound_mag2(phase.p, eps, len(terms), 2)
    return eps, pl.derandomize_indicator(g_cube, phase, gammas, eps, len(terms), bound)


def _pin_linear(g_cube, phase, terms):
    """Stage-6 derandomization of linear(h_s1) x linear(h_s2) terms."""
    gammas = [pl.GammaTerm((s1,), np.array(v1), (s2,), np.array(v2)) for s1, v1, s2, v2 in terms]
    eps = pl.measure_state(g_cube, phase, gammas=gammas)
    bound = pl._stage_bound_mag2(phase.p, eps, len(terms), 290)
    return eps, pl.derandomize_indicator(
        g_cube, phase, gammas, eps, len(terms), bound, DEFAULT_BUDGET, pl.CLEANUP_CLAIMS, 290
    )


_RANK1_BOUND = "[ok ] {} argmax: |corr| >= eps p^{{-2r}}: measured |corr|={}, bound eps*p^(-2r)={}"
_LINEAR_BOUND = "[ok ] second derandomization: |corr| >= eps p^{{-290 r}}: measured |corr|={}, bound eps*p^(-290r)={}"

# (p, routine, beta(0,1), alpha(2), terms) -> (|eps|^2, c, xi, |corr|^2, new phase, ledger)
DERANDOMIZE_PINS = [
    (
        (2, "rank1", [[0, 0], [1, 0]], [1, 1], [(1, [1, 0], [[0, 1], [0, 1]])]),
        (Fraction(1, 64), (1, 0), (0, 1), Fraction(1, 64),
         (0, [(2, [1, 1])], [((0, 1), [[0, 0], [1, 0]]), ((0, 2), [[0, 1], [0, 1]])]),
         [_RANK1_BOUND.format("indicator", "0.0625", "0.00195312"),
          _RANK1_BOUND.format("character", "0.125", "0.00195312")]),
    ),
    (
        (2, "rank1", [[1, 1], [0, 1]], [1, 1], [(1, [1, 1], [[0, 0], [1, 0]]), (0, [1, 0], [[1, 0], [0, 1]])]),
        (Fraction(1, 256), (0, 0, 0, 0), (1, 1, 1, 1), Fraction(1, 16),
         (0, [(0, [1, 0]), (1, [1, 1]), (2, [1, 1])],
          [((0, 1), [[1, 1], [0, 1]]), ((0, 2), [[0, 0], [1, 0]]), ((1, 2), [[1, 0], [0, 1]])]),
         [_RANK1_BOUND.format("indicator", "0.015625", "0.000244141"),
          _RANK1_BOUND.format("character", "0.25", "0.000244141")]),
    ),
    (
        (2, "linear", [[1, 1], [0, 1]], [1, 1], [(1, [1, 0], 2, [0, 1])]),
        (Fraction(1, 64), (1, 0), (0, 1), Fraction(1, 64),
         (0, [(2, [1, 0])], [((0, 1), [[1, 1], [0, 1]])]),
         [_LINEAR_BOUND.format("0.125", "1.58787e-263")]),
    ),
    (
        (2, "linear", [[0, 0], [1, 0]], [1, 1], [(1, [1, 0], 2, [1, 1]), (2, [1, 1], 0, [1, 0])]),
        (Fraction(1, 16), (0, 0, 0, 0), (0, 0, 1, 0), Fraction(1, 4),
         (0, [], [((0, 1), [[0, 0], [1, 0]])]),
         [_LINEAR_BOUND.format("0.5", "6.31746e-176")]),
    ),
    (
        (3, "rank1", [[0, 2], [2, 0]], [1, 2], [(1, [2, 2], [[0, 2], [0, 1]])]),
        (Fraction(100, 6561), (1, 0), (0, 1), Fraction(1, 81),
         (0, [(2, [1, 2])], [((0, 1), [[0, 2], [2, 0]]), ((0, 2), [[0, 2], [0, 1]])]),
         [_RANK1_BOUND.format("indicator", "0.037037", "0.00188168"),
          _RANK1_BOUND.format("character", "0.111111", "0.00188168")]),
    ),
    (
        (3, "rank1", [[0, 0], [0, 1]], [0, 2], [(2, [1, 1], [[2, 0], [2, 0]]), (2, [2, 0], [[1, 2], [1, 2]])]),
        (Fraction(4, 6561), (1, 0, 1, 0), (1, 0, 1, 1), Fraction(49, 729),
         (1, [], [((0, 1), [[1, 2], [1, 0]])]),
         [_RANK1_BOUND.format("indicator", "0.0452675", "1.50534e-05"),
          _RANK1_BOUND.format("character", "0.259259", "1.50534e-05")]),
    ),
    (
        (3, "linear", [[0, 1], [1, 0]], [0, 2], [(0, [2, 0], 2, [1, 2])]),
        (Fraction(1, 729), (1, 1), (0, 2), Fraction(16, 729),
         (1, [(2, [2, 0])], [((0, 1), [[0, 1], [1, 0]])]),
         [_LINEAR_BOUND.format("0.148148", "2.97266e-417")]),
    ),
    (
        (3, "linear", [[0, 2], [0, 1]], [0, 1], [(1, [2, 1], 2, [1, 0]), (1, [2, 0], 2, [2, 1])]),
        (Fraction(1, 2187), (0, 0, 0, 0), (0, 2, 0, 2), Fraction(25, 729),
         (0, [], [((0, 1), [[0, 2], [0, 1]])]),
         [_LINEAR_BOUND.format("0.185185", "1.1272e-486")]),
    ),
]


class TestDerandomizePinned:
    """Both derandomization stages on non-empty correction terms, pinned to
    recorded outputs: indicator value c, character xi, exact |corr|^2, the
    updated phase and the ledger lines.  Every case has a non-zero xi, so
    the phase update runs."""

    @pytest.mark.parametrize("case, expected", DERANDOMIZE_PINS)
    def test_pinned(self, case, expected):
        p, routine, beta, alpha, terms = case
        eps2, c_exp, xi_exp, corr2, (const, alphas, betas), ledger = expected
        comps = {(0, 1): MultilinearForm(p, 2, 2, np.array(beta)), (2,): MultilinearForm(p, 2, 1, np.array(alpha))}
        phase = MultiaffineForm.make(p, 2, 3, comps)
        run = _pin_rank1 if routine == "rank1" else _pin_linear
        eps, (c, xi, new_phase, measured, entries) = run(_pin_g_cube(p), phase, terms)
        assert eps.mag2() == RealSurd(eps2)
        assert (c, xi) == (c_exp, xi_exp)
        assert measured.mag2() == RealSurd(corr2)
        assert new_phase.constant() == const
        comps = [(tuple(sorted(s)), c.coeffs.tolist()) for s, c in new_phase.components]
        assert [(s[0], v) for s, v in comps if len(s) == 1] == alphas
        assert [(s, v) for s, v in comps if len(s) == 2] == betas
        assert all(len(s) < 3 for s, _ in comps)
        assert [str(e) for e in entries] == ledger


class TestStageBoundText:
    """The displayed bound eps * p^{-coeff r}: the float square root while its
    square is a normal float, log space below that, never 0 when positive.
    Expected strings are 60-digit decimal values printed to six digits."""

    @pytest.mark.parametrize(
        "p, num, den, r_len, coeff, text",
        [
            (2, 1, 8, 1, 2, "0.00195312"),  # 2^-9, a tie the float path rounds to even
            (2, 1, 8, 1, 290, "1.58787e-263"),
            (3, 4, 27, 2, 290, "2.75657e-278"),
            (2, 131820408025, 10**12, 2000, 2, "1e-1205"),  # 9.9999999e-1206: the mantissa carries
        ],
    )
    def test_against_decimal_values(self, p, num, den, r_len, coeff, text):
        eps = an.CorrValue.from_sum(ring(p, 1), np.array([num] + [0] * (p - 2)), den)
        assert pl._stage_bound_text(p, eps, r_len, coeff, pl._stage_bound_mag2(p, eps, r_len, coeff)) == text


def _reference_derandomize(g_cube, phase, gammas):
    """The per-candidate derandomization: each attained indicator value c and
    each character xi measured on its own against the whole cube.  Returns
    (c, its |corr| as printed, xi, |corr|^2, value table of the xi-phase)."""
    R, D, den = g_cube
    p, n = phase.p, phase.n
    full = (p**n,) * 3

    def measure(expo, mask):
        prod = ref_mul(R, D, ref_roots(R, (expo % p) * (R.N // p)))[:, mask]
        total = np.array([int(v) for v in prod.astype(object).sum(axis=1)])
        return an.CorrValue.from_sum(R, total, den * p ** (4 * n))

    base = form_cube(phase, p, n)
    comps = [np.broadcast_to(slot_cube(p, n, *fac), full) for gt in gammas for fac in gt.factors()]
    with_gammas = base + sum(comps[2 * i] * comps[2 * i + 1] for i in range(len(gammas)))
    best_c = None
    for c in itertools.product(range(p), repeat=len(comps)):
        mask = np.all([comp == ci for comp, ci in zip(comps, c)], axis=0)
        if mask.any():
            val = measure(with_gammas, mask)
            if best_c is None or val.mag2() > best_c[1].mag2():
                best_c = (c, val)
    c, c_val = best_c
    best = None
    everywhere = np.ones(full, dtype=bool)
    for xi in itertools.product(range(p), repeat=len(comps)):
        expo = base + sum(x * (comp - ci) for x, comp, ci in zip(xi, comps, c))
        val = measure(expo, everywhere)
        if best is None or val.mag2() > best[1].mag2():
            best = (xi, val, expo % p)
    xi, val, table = best
    return c, f"|corr|={c_val.modulus_float():.6g}", xi, val.mag2(), table


def _random_phase_and_gammas(rng, p, m, shape):
    """A random phase without trilinear part and m correction terms of one shape."""
    n = 2

    def vec(k):
        return rng.choices(range(p), k=n**k)

    comps = {pair: MultilinearForm(p, n, 2, np.reshape(vec(2), (n, n))) for pair in [(0, 1), (0, 2), (1, 2)]}
    comps.update({(s,): MultilinearForm(p, n, 1, np.array(vec(1))) for s in range(3)})
    comps[()] = rng.randrange(p)
    gammas = []
    for _ in range(m):
        if shape == "rank1":
            s = rng.randrange(3)
            rest = tuple(i for i in range(3) if i != s)
            gammas.append(pl.GammaTerm((s,), np.array(vec(1)), rest, np.reshape(vec(2), (n, n))))
        else:
            s1, s2 = rng.sample(range(3), 2)
            gammas.append(pl.GammaTerm((s1,), np.array(vec(1)), (s2,), np.array(vec(1))))
    return MultiaffineForm.make(p, n, 3, comps), gammas


class TestDerandomizeAgainstReference:
    """The transform argmax picks the same c and xi, reaches the same exact
    |corr|^2 and builds the same phase as measuring every candidate."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["rank1", "linear"])
    def test_matches_per_candidate_loop(self, p, m, shape):
        rng = random.Random(f"derandomize {p} {m} {shape}")
        f = an.random_unimodular_exact(rng, p, 2, 3 if p == 2 else 1)
        g_cube = pl.derivative_sum_cube(f)
        phase, gammas = _random_phase_and_gammas(rng, p, m, shape)
        eps = pl.measure_state(g_cube, phase, gammas=gammas)
        c, xi, new_phase, measured, entries = pl.derandomize_indicator(g_cube, phase, gammas, eps, m, pl._stage_bound_mag2(p, eps, m, 2))
        c_ref, c_text, xi_ref, corr2, table = _reference_derandomize(g_cube, phase, gammas)
        assert (c, xi) == (c_ref, xi_ref)
        assert entries[0].measured == c_text
        assert measured.mag2() == corr2
        assert np.array_equal(form_cube(new_phase, p, 2), table)
        assert all(len(s) < 3 for s, _ in new_phase.components)


class TestPipelineP2:
    def test_depth_cubic_fixture(self):
        P0, f = depth_cubic_fixture(3)
        assert an.gowers_norm(f, 4).power_surd() == RealSurd(1)
        rep = pl.run_inverse_pipeline(
            f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        )
        assert rep.final_correlation.mag2_is_one()
        assert rep.all_hold()
        assert (rep.final_poly - P0).degree() <= 2

    def test_report_determinism(self):
        P0, f = depth_cubic_fixture(2)
        opts = pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        r1 = pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
        r2 = pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
        assert r1.as_text() == r2.as_text()

    def test_threshold_gate(self):
        rng = random.Random(10)
        # fourth-root noise has U^4 < 1 (plain sign noise on F_2^3 cannot,
        # since every such function is a cubic phase there)
        for _ in range(50):
            f = an.random_unimodular_exact(rng, 2, 3, 2)
            if not an.gowers_norm(f, 4).power_surd() >= RealSurd(Fraction(99, 100)) ** 16:
                break
        else:  # pragma: no cover
            pytest.skip("no low-norm sample found")
        with pytest.raises(PreconditionError) as exc:
            pl.run_inverse_pipeline(
                f, Fraction(99, 100), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(NcPoly.zero(2, 3)))
            )
        assert "below the threshold" in str(exc.value)

    def test_end_to_end_soundness(self):
        P0, f = depth_cubic_fixture(2)
        rep = pl.run_inverse_pipeline(
            f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        )
        again = an.correlation(f, rep.final_poly)
        assert again.mag2() == rep.final_correlation.mag2()


def _supplied_planted_options(certs_by_perm=None):
    """Supplied phi = -d^3 P0 + x_1 * B(y, z) with planted defect certificates,
    or the map ``certs_by_perm`` makes of them."""
    P0 = random_poly(2, 2, 3, True, seed=2)
    f = an.BoundedFunction.from_poly_phase(P0)
    term = CertTerm(
        (0,),
        MultilinearForm(2, 2, 1, np.array([1, 0])),
        MultilinearForm(2, 2, 2, np.array([[1, 0], [1, 1]])),
    )
    T = -total_derivative(P0, 3) + MultilinearForm(2, 2, 3, term.tensor(3))
    certs = defect_certificates_from_terms(T, [term])
    opts = pl.PipelineOptions(
        strategy=pl.SuppliedTriaffine(MultiaffineForm.from_multilinear(T)),
        certs_by_perm=certs if certs_by_perm is None else certs_by_perm(certs),
    )
    return f, opts


def _supplied_planted_report():
    """The planted certificates' run: the symmetrization certificate is
    non-empty, so stage 5 removes real terms."""
    f, opts = _supplied_planted_options()
    return pl.run_inverse_pipeline(f, Fraction(1, 2), opts)


def _fixture_report(P0):
    f = an.BoundedFunction.from_poly_phase(P0)
    return pl.run_inverse_pipeline(f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0)))


# sha256 of the report text, recorded once; any change to a ledger line, a
# printed value or a serialized form shows here
REPORT_DIGESTS = {
    "depth cubic p=2 n=3": "87d25d1d2dbce54551d17f40bf5d1ef79f79e61c153cf897cca9d7300f22c9f6",
    "classical cubic p=3 n=2": "61c89b88d7461c85369923148889020e442413a3bbed075d98730f8210baab9b",
    "supplied with certificate terms": "8093d15741dfe2dc1548b06695aab670c67abc31865bda3906fab1909ed763be",
}


def _report_digest(rep) -> str:
    return hashlib.sha256(rep.as_text().encode()).hexdigest()


class TestReportPinned:
    def test_depth_cubic_p2_n3(self):
        rep = _fixture_report(depth_cubic_fixture(3)[0])
        assert _report_digest(rep) == REPORT_DIGESTS["depth cubic p=2 n=3"]

    def test_classical_cubic_p3_n2(self):
        rep = _fixture_report(NcPoly.from_classical(3, 2, {(2, 1): 1}))
        assert _report_digest(rep) == REPORT_DIGESTS["classical cubic p=3 n=2"]

    def test_supplied_with_certificate_terms(self):
        rep = _supplied_planted_report()
        assert "indicator argmax" in " | ".join(e.claim for e in rep.ledger)
        assert _report_digest(rep) == REPORT_DIGESTS["supplied with certificate terms"]


class TestPipelineP3:
    def test_classical_cubic(self):
        P0 = NcPoly.from_classical(3, 2, {(2, 1): 1})
        f = an.BoundedFunction.from_poly_phase(P0)
        rep = pl.run_inverse_pipeline(
            f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        )
        assert rep.final_correlation.mag2_is_one()
        assert rep.classical and rep.final_poly.is_classical()
        assert rep.all_hold()

    def test_another_classical_cubic(self):
        P0 = NcPoly.from_classical(3, 2, {(1, 2): 2, (1, 1): 1})
        f = an.BoundedFunction.from_poly_phase(P0)
        rep = pl.run_inverse_pipeline(
            f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        )
        assert rep.final_correlation.mag2_is_one() and rep.classical


    def test_nonclassical_cubic(self):
        # P0 = |x_1| / 9 + x_1 x_2 / 3 has U^4 = 1 and ninth-root values; the
        # quadratic oracle, classical at p = 3, reaches |corr|^2 = 0.71239, a
        # real element of Z[zeta_9]
        P0 = NcPoly.make(3, 2, TorusValue.zero(3), [Monomial((1, 0), 1, 1), Monomial((1, 1), 0, 1)])
        f = an.BoundedFunction.from_poly_phase(P0)
        assert f.ring.N == 9 and an.gowers_norm(f, 4).power_surd() == RealSurd(1)
        rep = pl.run_inverse_pipeline(
            f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        )
        assert rep.all_hold() and len(rep.ledger) == 39
        assert rep.classical and rep.final_poly == NcPoly.from_classical(3, 2, {(1, 1): 1})
        corr2 = rep.final_correlation.mag2()
        assert corr2 == an.correlation(f, rep.final_poly).mag2()
        assert corr2 == RealSurd.from_ring_element(ring(3, 2), [3, 1, -1, 0, -1, -2], 9)
        assert float(corr2) == pytest.approx(0.84402963**2, rel=1e-7)


class TestPipelineNoise:
    def test_noisy_fixture_meets_harness_bound(self):
        P0, f = depth_cubic_fixture(3)
        rng = random.Random(24)
        pts = rng.sample(list(all_vectors(2, 3)), 1)
        repl = {}
        for x in pts:
            orig = int(f.exps[vec_index(2, x)])
            t = rng.randrange(8)
            while t == orig:
                t = rng.randrange(8)
            repl[x] = t
        noisy = f.with_replaced_values(repl)
        bound = an.correlation(noisy, P0)
        rep = pl.run_inverse_pipeline(
            noisy, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        )
        assert rep.final_correlation.mag2() >= bound.mag2()
        assert rep.final_correlation.mag2() >= RealSurd(Fraction(1, 4))
        assert rep.all_hold()


class TestLedgerCompleteness:
    def test_all_stage_entries_present(self):
        P0, f = depth_cubic_fixture(2)
        rep = pl.run_inverse_pipeline(
            f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
        )
        claims = " | ".join(e.claim for e in rep.ledger)
        for needle in (
            "U^4 norm",
            "eps > 0",
            "delta^8",
            "128 log(1/eps)",
            "eps p^{-2r}",
            "eps p^{-290 r}",
            "octolinear",
            "Gowers-Cauchy-Schwarz",
            "||f w^P||_U3",
            "final correlation",
        ):
            assert needle in claims, needle
        assert rep.all_hold()


    @pytest.mark.parametrize("name", ["F_2^3 noisy", "F_3^2", "F_2^2 supplied"])
    def test_each_stage_bound_is_computed_once(self, monkeypatch, name):
        """One eps p^{-2r} and one eps p^{-290 r} per run, each raised once by
        the powers its checks take: the same report as before.  A bound is a
        RealSurd or, where |eps|^{2 (coeff + 1)} is the lesser, a SurdPower."""
        f, opts = _phase_runs()[name]
        want = pl.run_inverse_pipeline(f, Fraction(1, 2), opts).as_text()
        built, raised = [], []
        stage_bound = pl._stage_bound_mag2

        def spy_bound(*args):
            built.append((args[3], stage_bound(*args)))
            return built[-1][1]

        def spy_pow(pow_):
            def spy(self, k):
                raised.extend(coeff for coeff, b in built if b is self)
                return pow_(self, k)
            return spy

        monkeypatch.setattr(pl, "_stage_bound_mag2", spy_bound)
        for cls in (RealSurd, SurdPower):
            monkeypatch.setattr(cls, "__pow__", spy_pow(cls.__pow__))
        assert pl.run_inverse_pipeline(f, Fraction(1, 2), opts).as_text() == want
        assert [coeff for coeff, _ in built] == [2, 290]
        assert sorted(raised) == [2, 290]  # bound2^8 in the cleanup, bound290^4 for ||f w^P||_U3

    def test_a_seed1_pass_expands_only_ties(self, monkeypatch):
        """One seed-1 pass of the benchmark's pipeline workload, its digest
        unchanged, expands a power only where a comparison ties and the
        enclosures are not both points: 4 expansions, the two sides of two
        Gowers-Cauchy-Schwarz equalities (an irrational one in Z[zeta_8] and
        a rational one over 3^k), none with a coefficient or denominator past
        161 bits (the former bound290**4 alone had 22 419-bit coefficients).
        Deciding ties between point enclosures left 4 of the former 144
        expansions, the others being ties at eps = 1 and dyadic rationals."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        ops = workloads.build("pipeline", 1).ops
        expanded, in_ties = [], []
        exact, cmp_ = SurdPower.exact, SurdPower._cmp

        def spy_exact(self):
            expanded.append(exact(self))
            return expanded[-1]

        def spy_cmp(self, other):
            before = len(expanded)
            sign = cmp_(self, other)
            if len(expanded) > before:
                assert sign == 0, "an untied comparison expanded"
                in_ties.append(len(expanded) - before)
            return sign

        monkeypatch.setattr(SurdPower, "exact", spy_exact)
        monkeypatch.setattr(SurdPower, "_cmp", spy_cmp)
        texts = [op.canon(op.run()) for op in ops]
        assert workloads.digest(texts) == "14a60cf0f678d0526e0e01f79ee7869d9bb77b065684a5ad1a242dbb84e66a54"
        assert len(expanded) == sum(in_ties) == 4
        assert max(max(abs(int(c)).bit_length() for c in x.num) for x in expanded) <= 154
        assert max(x.den.bit_length() for x in expanded) <= 161


class TestLinearDerandomization:
    """Stage 6 end to end: phi = -d^3 P0 plus the asymmetric bilinear x_1 y_2 on
    slots (0, 1) leaves beta(0, 1) non-symmetric, so its cleanup certificate
    has terms and the linear x linear corrections run the second
    derandomization."""

    @staticmethod
    def inputs(p, n, seed):
        """The function and the options of one run."""
        P0 = random_poly(p, n, 3, p == 2, seed=seed)
        x1y2 = np.zeros((n, n), dtype=np.int64)
        x1y2[0, 1] = 1
        comps = {(0, 1, 2): -total_derivative(P0, 3), (0, 1): MultilinearForm(p, n, 2, x1y2)}
        phi = MultiaffineForm.make(p, n, 3, comps)
        return an.BoundedFunction.from_poly_phase(P0), pl.PipelineOptions(strategy=pl.SuppliedTriaffine(phi))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2)])
    def test_cleanup_terms_are_derandomized(self, monkeypatch, p, n, seed):
        f, opts = self.inputs(p, n, seed)
        cleanups, cleanup = [], pl.bilinear_cleanup

        def spy(*args, **kwargs):
            cleanups.append(cleanup(*args, **kwargs))
            return cleanups[-1]

        monkeypatch.setattr(pl, "bilinear_cleanup", spy)
        rep = pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
        assert len(cleanups) == 1 and len(cleanups[0].certs[(0, 1)]) > 0
        assert "second derandomization: |corr| >= eps p^{-290 r}" in [e.claim for e in rep.ledger]
        assert rep.all_hold(), [str(e) for e in rep.ledger if not e.holds]
        assert rep.final_correlation.mag2() == RealSurd(1)

    @pytest.mark.parametrize("p, n", [(2, 2), (3, 2)])
    def test_a_wrong_quadratic_integration_raises(self, monkeypatch, p, n):
        """The cleanup does not re-test d^2 Q = beta' itself: a wrong solution
        of the quadratic integration's linear system stops the run at the
        integrator's own postcondition."""
        f, opts = self.inputs(p, n, 0)
        inside, wrong = [], []
        cleanup, solve = pl.bilinear_cleanup, integrate._solve_mod_p

        def spy_cleanup(*args, **kwargs):
            inside.append(True)
            try:
                return cleanup(*args, **kwargs)
            finally:
                inside.pop()

        def wrong_solve(q, matrix, rhs):
            sol = solve(q, matrix, rhs)
            if inside and sol:
                sol = [(sol[0] + 1) % q] + list(sol[1:])
                assert [sum(a * x for a, x in zip(row, sol)) % q for row in matrix] != [b % q for b in rhs]
                wrong.append(sol)
            return sol

        monkeypatch.setattr(pl, "bilinear_cleanup", spy_cleanup)
        monkeypatch.setattr(integrate, "_solve_mod_p", wrong_solve)
        with pytest.raises(InternalCheckError, match="integration postcondition failed"):
            pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
        assert len(wrong) == 1


class TestPipelineF2n4:
    """n = 4 at p = 2 runs at the default budget: no Budget field binds."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_from_polynomial_guess(self, seed):
        rep = _fixture_report(random_poly(2, 4, 3, True, seed=seed))
        assert (rep.p, rep.n) == (2, 4)
        assert rep.all_hold(), [str(e) for e in rep.ledger if not e.holds]
        assert rep.final_correlation.mag2_is_one()

    def test_supplied_with_certificate_terms(self):
        P0 = random_poly(2, 4, 3, True, seed=2)
        f = an.BoundedFunction.from_poly_phase(P0)
        left = MultilinearForm(2, 4, 1, np.array([1, 0, 1, 0]))
        right = MultilinearForm(2, 4, 2, np.array([[1, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]]))
        term = CertTerm((0,), left, right)
        T = -total_derivative(P0, 3) + MultilinearForm(2, 4, 3, term.tensor(3))
        opts = pl.PipelineOptions(
            strategy=pl.SuppliedTriaffine(MultiaffineForm.from_multilinear(T)),
            certs_by_perm=defect_certificates_from_terms(T, [term]),
        )
        rep = pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
        assert rep.all_hold(), [str(e) for e in rep.ledger if not e.holds]
        assert len(rep.sym_report.certificate) > 0 and rep.sym_report.subspace.codim > 0
        assert "indicator argmax" in " | ".join(e.claim for e in rep.ledger)
        # the stage-3 entries read the biases the symmetrizer measured
        for pi, bias in rep.sym_report.defect_biases.items():
            assert bias == rk.analytic_rank(rep.T - mf.permute(rep.T, pi)).bias
        assert sum("128 log(1/eps)" in e.claim for e in rep.ledger) == 5


class TestOracleBudgetFailsFast:
    @pytest.mark.parametrize("p, n, ncand", [(3, 3, 3**9), (2, 5, 2**20)])
    def test_raises_before_stage_1(self, monkeypatch, p, n, ncand):
        def stage_1(*args, **kwargs):  # pragma: no cover
            raise AssertionError("stage 1 ran on an input over the oracle budget")

        monkeypatch.setattr(an, "gowers_norm", stage_1)
        P0 = random_poly(p, n, 3, p == 2, seed=1)
        f = an.BoundedFunction.from_poly_phase(P0)
        with pytest.raises(BudgetExceeded, match=f"^{ncand} quadratic candidates exceed the oracle budget$"):
            pl.run_inverse_pipeline(f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0)))


def _eighth_root_noise(f, seed):
    """f in Z[zeta_8] with about 5% of its points moved to another eighth root; still a phase."""
    f = f.embed(ring(2, 3))
    rng = random.Random(seed)
    repl = {}
    for x in rng.sample(list(all_vectors(f.p, f.n)), max(1, round(0.05 * f.size))):
        repl[x] = (int(f.exps[vec_index(f.p, x)]) + rng.randrange(1, 8)) % 8
    noisy = f.with_replaced_values(repl)
    assert noisy.exps is not None
    return noisy


def _phase_runs():
    """Pipeline inputs that are phases, with their options: the two guessed
    cubics over F_2^3 (one with eighth-root noise) and F_3^2, and a supplied
    phi with planted certificates, which runs the coset argmax."""
    P2, f2 = depth_cubic_fixture(3)
    P3 = NcPoly.from_classical(3, 2, {(2, 1): 1})
    P0 = random_poly(2, 2, 3, True, seed=2)
    term = CertTerm(
        (0,), MultilinearForm(2, 2, 1, np.array([1, 0])), MultilinearForm(2, 2, 2, np.array([[1, 0], [1, 1]]))
    )
    T = -total_derivative(P0, 3) + MultilinearForm(2, 2, 3, term.tensor(3))
    supplied = pl.PipelineOptions(
        strategy=pl.SuppliedTriaffine(MultiaffineForm.from_multilinear(T)),
        certs_by_perm=defect_certificates_from_terms(T, [term]),
    )
    return {
        "F_2^3": (f2, pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P2))),
        "F_2^3 noisy": (_eighth_root_noise(f2, 5), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P2))),
        "F_3^2": (an.BoundedFunction.from_poly_phase(P3), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P3))),
        "F_2^2 supplied": (an.BoundedFunction.from_poly_phase(P0), supplied),
    }


class TestExpandedReference:
    """Every report keeps its text when each power is expanded as soon as it
    is formed, as the former ``RealSurd.__pow__`` did
    (``oracles.expanded_pow``): only the cost of the ledger changed."""

    @staticmethod
    def _texts(monkeypatch, runs) -> tuple:
        fast = [run() for run in runs]
        with monkeypatch.context() as m:
            m.setattr(RealSurd, "__pow__", expanded_pow)
            slow = [run() for run in runs]
        return fast, slow

    @pytest.mark.parametrize("name", list(_phase_runs()))
    def test_phase_runs(self, monkeypatch, name):
        f, opts = _phase_runs()[name]
        fast, slow = self._texts(monkeypatch, [lambda: pl.run_inverse_pipeline(f, Fraction(1, 2), opts).as_text()])
        assert fast == slow

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_benchmark_seeds(self, monkeypatch, seed):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        ops = workloads.build("pipeline", seed).ops
        fast, slow = self._texts(monkeypatch, [lambda op=op: op.canon(op.run()) for op in ops])
        assert fast == slow


class TestPhasesSkipRingProducts:
    """Every corner average of a phase runs on its exponent tables."""

    @pytest.mark.parametrize("name", list(_phase_runs()))
    def test_no_corner_product(self, monkeypatch, name):
        def ring_path(*args, **kwargs):  # pragma: no cover
            raise AssertionError("a phase input reached the ring-product corner path")

        f, opts = _phase_runs()[name]
        monkeypatch.setattr(an, "corner_product", ring_path)
        rep = pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
        assert rep.all_hold()

    @pytest.mark.parametrize("name", list(_phase_runs()))
    def test_stripped_exponents_give_the_same_report(self, name):
        f, opts = _phase_runs()[name]
        stripped = an.BoundedFunction(f.p, f.n, f.ring, f.coeffs, f.den)
        fast = pl.run_inverse_pipeline(f, Fraction(1, 2), opts).as_text()
        assert pl.run_inverse_pipeline(stripped, Fraction(1, 2), opts).as_text() == fast


class TestCertificateMaps:
    """A supplied certificate map that cannot certify symmetry stops the
    pipeline with a PreconditionError naming the permutations."""

    @pytest.mark.parametrize("keep, missing", [
        ([], [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]),
        ([(1, 0, 2)], [(0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]),
        ([(1, 2, 0)], [(0, 2, 1), (1, 0, 2), (2, 1, 0)]),
    ])
    def test_maps_that_do_not_generate(self, keep, missing):
        f, opts = _supplied_planted_options(lambda certs: {pi: certs[pi] for pi in keep})
        with pytest.raises(PreconditionError, match="do not generate S_3") as exc:
            pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
        assert str(missing) in str(exc.value)

    def test_keys_that_are_not_permutations(self):
        f, opts = _supplied_planted_options(lambda certs: {**certs, (0, 1): certs[(1, 0, 2)]})
        with pytest.raises(PreconditionError, match=r"keys \[\(0, 1\)\] are not permutations"):
            pl.run_inverse_pipeline(f, Fraction(1, 2), opts)

    def test_the_generating_map_runs(self):
        f, opts = _supplied_planted_options()
        assert pl.run_inverse_pipeline(f, Fraction(1, 2), opts).all_hold()


class TestStackedCleanup:
    @pytest.mark.parametrize("p, n", [(2, 2), (3, 2)])
    def test_one_bias_call_and_one_verification_for_three_pairs(self, monkeypatch, p, n):
        """bilinear_cleanup ranks the three defects beta - beta^T together and
        verifies and bounds its nonempty certificates for beta - beta'
        together: phi = -d^3 P0 plus x_1 y_2 on every pair of slots leaves
        all three betas asymmetric."""
        P0 = random_poly(p, n, 3, p == 2, seed=1)
        f = an.BoundedFunction.from_poly_phase(P0)
        x1y2 = np.zeros((n, n), dtype=np.int64)
        x1y2[0, 1] = 1
        comps = {(0, 1, 2): -total_derivative(P0, 3)}
        comps.update({pair: MultilinearForm(p, n, 2, x1y2) for pair in [(0, 1), (0, 2), (1, 2)]})
        opts = pl.PipelineOptions(strategy=pl.SuppliedTriaffine(MultiaffineForm.make(p, n, 3, comps)))
        want = pl.run_inverse_pipeline(f, Fraction(1, 2), opts).as_text()
        ranked, verified, cleanups, inside = [], [], [], []
        ranks, verify, cleanup = rk.analytic_ranks, rk.verify_certificates, pl.bilinear_cleanup

        def spy_cleanup(*args, **kwargs):
            inside.append(True)
            try:
                cleanups.append(cleanup(*args, **kwargs))
                return cleanups[-1]
            finally:
                inside.pop()

        def spy(log, real):
            return lambda items, *a: (log.append(list(items)) if inside else None) or real(items, *a)

        monkeypatch.setattr(rk, "analytic_ranks", spy(ranked, ranks))
        monkeypatch.setattr(rk, "verify_certificates", spy(verified, verify))
        monkeypatch.setattr(pl, "bilinear_cleanup", spy_cleanup)
        assert pl.run_inverse_pipeline(f, Fraction(1, 2), opts).as_text() == want
        certs = list(cleanups[0].certs.values())
        assert all(len(cert) for cert in certs)
        assert [len(forms) for forms in ranked] == [3, 3]
        assert all(T.k == 2 for T in ranked[0])
        assert verified == [certs] and ranked[1] == [cert.claimed_form for cert in certs]


class TestGTableFromPhaseTables:
    @pytest.mark.parametrize("seed", [1, 5, 12])
    def test_matches_the_polynomial_sums(self, monkeypatch, seed):
        """Every g_S equals f times the phase of its summed polynomial: the same
        ring, denominator, coefficients and exponents, on every input of the
        benchmark's pipeline workload."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        seen, real = [], pl._assemble_g_table

        def spy(f, P, quads, linears):
            (gs, extras), ref = real(f, P, quads, linears), g_table_reference(f, P, quads, linears)
            assert extras == g_extras_reference(f.p, f.n, quads, linears)
            assert all(R_S.degree() <= 2 for R_S in extras.values())
            for S in range(8):
                a, b = gs[S], ref[S]
                assert (a.ring, a.den, a.exps is None) == (b.ring, b.den, b.exps is None)
                assert np.array_equal(a.coeffs, b.coeffs)
                assert a.exps is None or np.array_equal(a.exps, b.exps)
            seen.append(sorted({g.ring.N for g in gs.values()}))
            return gs, extras

        monkeypatch.setattr(pl, "_assemble_g_table", spy)
        for op in workloads.build("pipeline", seed).ops:
            op.run()
        assert len(seen) == 6


def _identity_runs(monkeypatch):
    """Every pipeline input the identity checks run on: ``_phase_runs()``, the
    ``TestLinearDerandomization`` inputs and the benchmark's pipeline seeds 1-8."""
    runs = [lambda f=f, opts=opts: pl.run_inverse_pipeline(f, Fraction(1, 2), opts) for f, opts in _phase_runs().values()]
    for p, n in [(2, 2), (2, 3), (3, 2)]:
        for seed in range(6):
            f, opts = TestLinearDerandomization.inputs(p, n, seed)
            runs.append(lambda f=f, opts=opts: pl.run_inverse_pipeline(f, Fraction(1, 2), opts))
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for seed in range(1, 9):
        runs += [op.run for op in workloads.build("pipeline", seed).ops]
    return runs


class TestReusedIdentities:
    """Stage 4's g-cube comes from f's cube and stage 7 measures one U^3 norm
    for the eight g_S: both against the quantities they replace."""

    def test_g_cube_and_u3_norms_match_the_direct_computation(self, monkeypatch):
        phased, assemble, gowers = pl._phased_cube, pl._assemble_g_table, an.gowers_norm
        cubes, tables, u3_calls = [], [], []

        def spy_cube(f_cube, g, S):
            R, D, den = phased(f_cube, g, S)
            R0, D0, den0 = pl.derivative_sum_cube(g)
            assert (R.N, den) == (R0.N, den0) and D.shape == D0.shape
            assert np.array_equal(D.astype(object), D0.astype(object))
            cubes.append((f_cube[0].N, R.N))
            return R, D, den

        def spy_table(*args):
            gs, extras = assemble(*args)
            u3 = [gowers(gs[S], 3).power_surd() for S in range(8)]
            assert all(v == u3[0] for v in u3)
            tables.append(len(gs))
            return gs, extras

        def spy_gowers(fn, d, *args):
            u3_calls.append(d)
            return gowers(fn, d, *args)

        monkeypatch.setattr(pl, "_phased_cube", spy_cube)
        monkeypatch.setattr(pl, "_assemble_g_table", spy_table)
        runs = _identity_runs(monkeypatch)
        monkeypatch.setattr(an, "gowers_norm", spy_gowers)
        for run in runs:
            rep = run()
            assert rep.all_hold()
        assert len(cubes) == len(tables) == len(runs) == 4 + 18 + 48
        assert u3_calls == [4, 3] * len(runs)  # stage 1's U^4, stage 7's one U^3
        assert {(3, 3), (4, 4), (4, 8), (8, 8)} <= set(cubes)  # (4, 8): f's cube embedded in g's ring

    @pytest.mark.parametrize("kind", ["phase", "mu_zeros", "gauss_den2", "object"])
    @pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2)])
    def test_phased_cube_is_the_derivative_cube(self, kind, p, n):
        """D_f w^{S} equals derivative_sum_cube(f w^P) for a cubic P with
        d^3 P = S, in ring, denominator and every entry, P with depth at p = 2."""
        rng = random.Random(f"cube {kind} {p} {n}")
        f = {
            "phase": lambda: an.random_unimodular_exact(rng, p, n, 1),
            "mu_zeros": lambda: an.random_mu_p_function(rng, p, n, zeros=True),
            "gauss_den2": lambda: an.BoundedFunction(p, n, ring(2, 2), np.array(
                [[rng.choice([-1, 0, 1]) for _ in range(p**n)] for _ in range(2)], dtype=np.int64), 2),
            "object": lambda: an.BoundedFunction(p, n, ring(p, 1), np.array(
                an.random_mu_p_function(rng, p, n).coeffs, dtype=object) * 2**40, 2**40),
        }[kind if p == 2 or kind != "gauss_den2" else "mu_zeros"]()
        for seed in range(3):
            P = random_poly(p, n, 3, p == 2, seed=(kind, p, n, seed))
            g = f.mul(an.BoundedFunction.from_poly_phase(P))
            R, D, den = pl._phased_cube(pl.derivative_sum_cube(f), g, total_derivative(P, 3))
            R0, D0, den0 = pl.derivative_sum_cube(g)
            assert (R.N, den, D.shape) == (R0.N, den0, D0.shape)
            assert np.array_equal(D.astype(object), D0.astype(object))

    @pytest.mark.parametrize("p, n, m, depth", [(2, 3, 1, False), (2, 3, 3, True), (3, 2, 1, False), (5, 2, 2, False)])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_degree_2_phase_keeps_the_u3_norm(self, p, n, m, depth, seed):
        """||g w^R||_U3 = ||g||_U3 for deg R <= 2, also with depth at p = 2, on
        phases and on the same functions without exponent tables."""
        rng = random.Random(f"u3 {p} {n} {m} {seed}")
        g = an.random_unimodular_exact(rng, p, n, m)
        R = random_poly(p, n, 2, depth, seed=(p, n, seed))
        if depth:  # plus |x_1| / 4, of degree 2 at depth 1
            R = R + NcPoly.make(2, n, TorusValue.zero(2), [Monomial((1,) + (0,) * (n - 1), 1, 1)])
        assert R.degree() <= 2 and R.is_classical() != depth
        gR = g.mul(an.BoundedFunction.from_poly_phase(R))
        for a, b in ((g, gR), (an.BoundedFunction(p, n, g.ring, g.coeffs, g.den),
                               an.BoundedFunction(p, n, gR.ring, gR.coeffs, gR.den))):
            assert an.gowers_norm(a, 3).power_surd() == an.gowers_norm(b, 3).power_surd()
        mu = an.random_mu_p_function(rng, p, n, zeros=True)
        assert an.gowers_norm(mu, 3).power_surd() == an.gowers_norm(mu.mul(an.BoundedFunction.from_poly_phase(R)), 3).power_surd()

    def test_a_cubic_extra_phase_is_caught(self, monkeypatch):
        """The degree check that lets one U^3 norm stand for all eight."""
        f, opts = _phase_runs()["F_2^3"]
        assemble = pl._assemble_g_table
        monkeypatch.setattr(pl, "_assemble_g_table", lambda f, P, quads, linears: assemble(
            f, P, {**quads, (1, 2): quads[(1, 2)] + P}, linears))
        with pytest.raises(InternalCheckError, match="degree above 2"):
            pl.run_inverse_pipeline(f, Fraction(1, 2), opts)
