import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an
from hofa import fpspace as fs
from hofa.errors import NotRepresentable
from hofa.ncpoly import MAX_DEPTH, Monomial, NcPoly, basis_tuples, interpolate, random_poly
from hofa.torus import TorusValue
from polyref import ref_interpolate, ref_phase_exps, ref_quadratic_candidates


def poly(p, n, monos, const=None):
    return NcPoly.make(p, n, const or TorusValue.zero(p), [Monomial(*m) for m in monos])


class TestTorusValue:
    def test_canonicalization(self):
        assert TorusValue.make(2, 2, 2) == TorusValue(2, 1, 1)
        assert TorusValue.make(2, 4, 2) == TorusValue(2, 0, 0)
        assert TorusValue.make(3, 9, 2) == TorusValue(3, 0, 0)

    def test_addition_exact(self):
        t = TorusValue.make(2, 1, 1) + TorusValue.make(2, 1, 2)
        assert t.as_fraction() == Fraction(3, 4)
        assert (t + t).as_fraction() == Fraction(1, 2)

    @given(st.integers(0, 63), st.integers(0, 3), st.integers(0, 63), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_group_laws(self, a, ma, b, mb):
        x = TorusValue.make(2, a, ma)
        y = TorusValue.make(2, b, mb)
        assert x + y == y + x
        assert (x + y) - y == x
        assert (x - x).is_zero()

    def test_fp_grid(self):
        assert TorusValue.from_fp(3, 2).as_fp() == 2
        with pytest.raises(ValueError):
            TorusValue.make(2, 1, 2).as_fp()


class TestEvaluate:
    def test_zero(self):
        Z = NcPoly.zero(2, 2)
        for x in fs.all_vectors(2, 2):
            assert Z.evaluate(x).is_zero()

    def test_single_monomial(self):
        P = poly(2, 1, [((1,), 1, 1)])  # |x1|/4
        assert P.evaluate((1,)).as_fraction() == Fraction(1, 4)

    def test_sum(self):
        P = poly(2, 2, [((1, 1), 0, 1), ((1, 0), 1, 1)])  # |x1||x2|/2 + |x1|/4
        assert P.evaluate((1, 1)).as_fraction() == Fraction(3, 4)


class TestDerivative:
    def test_constant(self):
        P = NcPoly.make(2, 2, TorusValue.make(2, 1, 2), [])
        assert P.add_derivative((1, 0)) == NcPoly.zero(2, 2)

    def test_depth_monomial(self):
        P = poly(2, 1, [((1,), 1, 1)])  # |x1|/4
        D = P.add_derivative((1,))
        assert D.evaluate((0,)).as_fraction() == Fraction(1, 4)
        assert D.evaluate((1,)).as_fraction() == Fraction(3, 4)
        # equals |x1|/2 + 1/4 in canonical form
        assert D.monomials == (Monomial((1,), 0, 1),)
        assert D.constant == TorusValue(2, 1, 2)

    def test_product_monomial(self):
        P = poly(2, 2, [((1, 1), 0, 1)])  # |x1||x2|/2
        D = P.add_derivative((1, 0))
        assert D == poly(2, 2, [((0, 1), 0, 1)])  # |x2|/2

    def test_degree_drop(self):
        rng = random.Random(3)
        for trial in range(40):
            p, n = rng.choice([(2, 2), (3, 2)])
            P = random_poly(p, n, rng.choice([1, 2, 3]), True, seed=trial)
            h = tuple(rng.randrange(p) for _ in range(n))
            if not any(h):
                continue
            D = P.add_derivative(h)
            if P.monomials:
                assert D.degree() <= P.degree() - 1 or D == NcPoly.zero(p, n)


class TestDegree:
    def test_examples(self):
        assert NcPoly.zero(2, 1).degree() == 0
        assert poly(2, 1, [((1,), 1, 1)]).degree() == 2
        assert poly(2, 1, [((1,), 2, 1)]).degree() == 3

    def test_higher_differences_vanish(self):
        rng = random.Random(11)
        for trial in range(15):
            p, n, k = rng.choice([(2, 2, 2), (2, 2, 3), (3, 2, 2)])
            P = random_poly(p, n, k, True, seed=trial + 40)
            d = P.degree()
            cur = P
            for _ in range(d + 1):
                h = tuple(rng.randrange(p) for _ in range(n))
                cur = cur.add_derivative(h)
            assert cur == NcPoly.zero(p, n)

    def test_degree_via_differencing_cross_check(self):
        # basis degree == smallest k with all (k+1)-fold basis differences zero
        rng = random.Random(5)
        for trial in range(10):
            p, n = rng.choice([(2, 2), (3, 1)])
            P = random_poly(p, n, 3, True, seed=trial + 90)
            d = P.degree()
            if d == 0:
                continue
            # some d-fold difference is nonzero
            found = False
            for _ in range(200):
                cur = P
                for _ in range(d):
                    cur = cur.add_derivative(tuple(rng.randrange(p) for _ in range(n)))
                if cur != NcPoly.zero(p, n):
                    found = True
                    break
            assert found


class TestClassical:
    def test_flags(self):
        assert poly(3, 2, [((2, 1), 0, 1)]).is_classical()
        assert not poly(2, 1, [((1,), 1, 1)]).is_classical()
        assert NcPoly.make(2, 1, TorusValue.make(2, 1, 1), []).is_classical()
        assert not NcPoly.make(2, 1, TorusValue.make(2, 1, 2), []).is_classical()

    def test_classical_values_on_grid(self):
        rng = random.Random(7)
        for trial in range(20):
            p, n = rng.choice([(2, 3), (3, 2)])
            P = random_poly(p, n, 3, depth_allowed=False, seed=trial)
            for x in fs.all_vectors(p, n):
                assert P.evaluate(x).m <= 1


class TestInterpolate:
    def test_zero_table(self):
        table = [TorusValue.zero(2)] * 4
        assert interpolate(2, 2, table) == NcPoly.zero(2, 2)

    def test_recovers_depth_monomial(self):
        P = poly(2, 1, [((1,), 1, 1)])
        assert interpolate(2, 1, P.value_table(), degree_bound=2) == P

    def test_round_trip_200(self):
        rng = random.Random(17)
        cases = [(2, n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)] + [
            (3, n, k) for n in (1, 2) for k in (1, 2, 3)
        ]
        for p, n, k in cases:
            for i in range(200 // len(cases) + 8):
                P = random_poly(p, n, k, True, seed=(p, n, k, i))
                assert interpolate(p, n, P.value_table(), degree_bound=max(k, P.degree())) == P

    def test_bound_violation_gives_witness(self):
        table = [
            TorusValue.make(2, x[0] * x[1], 1) for x in fs.all_vectors(2, 2)
        ]  # x1 x2 has degree 2
        with pytest.raises(NotRepresentable) as exc:
            interpolate(2, 2, table, degree_bound=1)
        h1, h2, xw = exc.value.witness

        def val(x):
            return table[fs.vec_index(2, x)]

        second = (
            val(fs.vec_add(2, fs.vec_add(2, xw, h1), h2))
            - val(fs.vec_add(2, xw, h1))
            - val(fs.vec_add(2, xw, h2))
            + val(xw)
        )
        assert not second.is_zero()


class TestRandomPoly:
    def test_deterministic(self):
        assert random_poly(2, 2, 3, True, seed=5) == random_poly(2, 2, 3, True, seed=5)

    def test_k0_constant(self):
        P = random_poly(3, 2, 0, True, seed=1)
        assert P.monomials == ()

    def test_tuple_count(self):
        assert len(basis_tuples(2, 3, 2, True)) == 8
        # k = 1: exactly n linear tuples
        assert len(basis_tuples(3, 1, 4, True)) == 4

    def test_classical_only(self):
        P = random_poly(2, 3, 3, depth_allowed=False, seed=9)
        assert P.is_classical()


def test_poly_algebra_consistency():
    rng = random.Random(23)
    for trial in range(15):
        p, n = rng.choice([(2, 2), (3, 2)])
        A = random_poly(p, n, 2, True, seed=(trial, 0))
        B = random_poly(p, n, 2, True, seed=(trial, 1))
        S = A + B
        for x in fs.all_vectors(p, n):
            assert S.evaluate(x) == A.evaluate(x) + B.evaluate(x)
        assert (S - B) == A


def test_deep_constant_is_rejected():
    with pytest.raises(ValueError):
        NcPoly.make(2, 1, TorusValue.make(2, 1, 80), [])
    assert NcPoly.make(2, 1, TorusValue.make(2, 1, MAX_DEPTH + 1), []).max_depth_exponent() == MAX_DEPTH + 1


@st.composite
def _space(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return p, draw(st.integers(1, 3))


@st.composite
def _polys_and_shift(draw, count):
    """``count`` sparse polynomials of any depth up to the cap on one F_p^n, and a shift."""
    p, n = draw(_space())
    point = st.tuples(*[st.integers(0, p - 1)] * n)
    mono = st.tuples(point, st.integers(0, MAX_DEPTH), st.integers(1, p - 1))
    polys = []
    for _ in range(count):
        monos = {(e, j): c for e, j, c in draw(st.lists(mono, max_size=8)) if any(e)}
        const = TorusValue.make(p, draw(st.integers(0, p ** (MAX_DEPTH + 1))), draw(st.integers(0, MAX_DEPTH + 1)))
        polys.append(NcPoly.make(p, n, const, [Monomial(e, j, c) for (e, j), c in monos.items()]))
    return p, n, polys, draw(point)


class TestCoefficientArrayKernel:
    """Every table operation against ``evaluate`` at every point, p in {2, 3, 5}."""

    @settings(max_examples=60, deadline=None)
    @given(_space(), st.integers(0, MAX_DEPTH + 1), st.randoms(use_true_random=False))
    def test_interpolate_reproduces_a_random_table(self, space, M, rnd):
        p, n = space
        table = [TorusValue.make(p, rnd.randrange(p**M), M) for _ in range(p**n)]
        P = interpolate(p, n, table)
        assert [P.evaluate(x) for x in fs.all_vectors(p, n)] == table == P.value_table()

    @settings(max_examples=60, deadline=None)
    @given(_polys_and_shift(2))
    def test_operations_match_torus_arithmetic(self, case):
        p, n, (P, Q), h = case
        S, D, N, Sh, Dh = P + Q, P - Q, -P, P.shift(h), P.add_derivative(h)
        for x in fs.all_vectors(p, n):
            px, pxh = P.evaluate(x), P.evaluate(fs.vec_add(p, x, h))
            assert S.evaluate(x) == px + Q.evaluate(x)
            assert D.evaluate(x) == px - Q.evaluate(x)
            assert N.evaluate(x) == -px
            assert Sh.evaluate(x) == pxh
            assert Dh.evaluate(x) == pxh - px

    @settings(max_examples=40, deadline=None)
    @given(_polys_and_shift(1), st.integers(0, MAX_DEPTH + 1))
    def test_coefficient_array_round_trip(self, case, M):
        p, n, (P,), _ = case
        M = max(M, P.max_depth_exponent())
        assert NcPoly.from_coeff_array(p, n, P.coeff_array(M), M) == P
        assert [TorusValue.make(p, v, M) for v in P.table(M).tolist()] == [P.evaluate(x) for x in fs.all_vectors(p, n)]

    def test_depth_exponent_outside_range(self):
        P = NcPoly.make(2, 1, TorusValue.zero(2), [Monomial((1,), 2, 1)])
        for M in (2, MAX_DEPTH + 2):
            with pytest.raises(ValueError):
                P.coeff_array(M)
        with pytest.raises(ValueError):
            interpolate(2, 1, [TorusValue.zero(2), TorusValue.make(2, 1, MAX_DEPTH + 2)])

    def test_repeated_monomial_is_rejected(self):
        # twice |x_1|/2 is the zero function; kept, it would compare unequal to zero with degree 1
        mono = Monomial((1,), 0, 1)
        with pytest.raises(ValueError, match="repeated monomial"):
            NcPoly.make(2, 1, TorusValue.zero(2), [mono, mono])
        with pytest.raises(ValueError, match="repeated monomial"):
            NcPoly(3, 2, TorusValue.zero(3), (Monomial((1, 0), 1, 1), Monomial((1, 0), 1, 2)))
        assert NcPoly.make(2, 1, TorusValue.zero(2), [mono, Monomial((1,), 1, 1)]).degree() == 2


SPACES = [(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (5, 1), (5, 2)]


class TestAgainstPointwiseReference:
    """The kernel against depth peeling and point-by-point loops (``polyref``)."""

    def test_interpolate_matches_depth_peeling(self):
        rng = random.Random(31)
        for p, n in SPACES:
            for M in range(MAX_DEPTH + 2):
                table = [TorusValue.make(p, rng.randrange(p**M), M) for _ in range(p**n)]
                assert interpolate(p, n, table) == ref_interpolate(p, n, table)

    def test_phase_exponents_match_pointwise(self):
        for p, n in SPACES:
            for k in range(5):
                P = random_poly(p, n, k, True, seed=(p, n, k))
                for conjugate in (False, True):
                    f = an.BoundedFunction.from_poly_phase(P, conjugate)
                    assert np.array_equal(f.exps, ref_phase_exps(P, conjugate))

    def test_quadratic_candidates_match_pointwise(self):
        for p, n in [(2, 1), (2, 3), (3, 2), (5, 2)]:
            for classical_only in (False, True):
                tuples, m, tables = an._quadratic_candidates(p, n, classical_only)
                rt, rm, rtables = ref_quadratic_candidates(p, n, classical_only)
                assert (tuples, m) == (rt, rm)
                assert all(t.dtype == np.int64 and np.array_equal(t, r) for t, r in zip(tables, rtables, strict=True))

    @pytest.mark.parametrize(
        "p, n, M, bound, seed, witness",
        [
            (2, 3, 3, 2, 1, ((0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 0))),
            (2, 4, 2, 3, 2, ((0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 0))),
            (3, 2, 2, 2, 3, ((0, 1), (0, 1), (0, 1), (0, 1))),
            (5, 2, 1, 3, 4, ((0, 1), (0, 1), (0, 1), (0, 1), (0, 0))),
        ],
    )
    def test_witnesses_are_pinned(self, p, n, M, bound, seed, witness):
        rng = random.Random(seed)
        table = [TorusValue.make(p, rng.randrange(p**M), M) for _ in range(p**n)]
        with pytest.raises(NotRepresentable) as exc:
            interpolate(p, n, table, degree_bound=bound)
        assert exc.value.witness == witness
