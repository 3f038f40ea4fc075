from fractions import Fraction
from operator import eq, ge, gt, le, lt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import cyclotomic
from hofa.cyclotomic import CycloRing, RealSurd, real_keys, ring, surd_sign
from ringref import ref_conj, ref_mul

# Z, Z[zeta_2] = Z, Z[i], Z[zeta_8], Z[zeta_16], Z[omega], Z[zeta_9]
RINGS = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]

# trailing shapes of the operand pairs: scalars, columns, the corner pair,
# unequal ndim both ways, and a column-kernel chunk
SHAPES = [
    ((), ()),
    ((8,), (8,)),
    ((1, 8, 8, 1), (1, 1, 1, 8)),
    ((8,), (3, 8)),
    ((5, 1, 4), (4,)),
    ((), (5,)),
    ((64, 128), (64, 128)),
]


def _operands(R, sa, sb, dtype, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(-50, 51, (R.degree,) + sa)
    B = rng.integers(-50, 51, (R.degree,) + sb)
    if dtype is object:  # entries past int64 in both factors
        return A.astype(object) * 2**70 + 1, B.astype(object) * 3**50 - 1
    return A.astype(dtype), B.astype(dtype)


class TestOneProduct:
    @pytest.mark.parametrize("p, m", RINGS)
    @pytest.mark.parametrize("sa, sb", SHAPES)
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_matches_einsum_reference(self, p, m, sa, sb, dtype):
        R = ring(p, m)
        A, B = _operands(R, sa, sb, dtype, 7 * p + m)
        got = R.mul_arrays(A, B)
        want = ref_mul(R, A, B)
        assert got.shape == want.shape and got.dtype == np.result_type(A, B)
        assert np.array_equal(got, want)
        assert np.array_equal(R.mul_arrays(B, A), want)

    @pytest.mark.parametrize("p, m", RINGS)
    def test_mag_squared_and_conj(self, p, m):
        R = ring(p, m)
        A, _ = _operands(R, (6,), (), np.int64, m)
        assert np.array_equal(R.conj_arrays(A), ref_conj(R, A))
        assert np.array_equal(R.conj_arrays(A[:, 0]), ref_conj(R, A[:, 0]))
        assert np.array_equal(R.mag_squared(A), ref_mul(R, A, ref_conj(R, A)))

    @pytest.mark.parametrize("p, m", [(2, 3), (3, 1), (3, 2)])
    def test_each_size_takes_its_branch(self, p, m):
        # small products fold the outer product of the planes by one matmul,
        # large ones accumulate the signed plane products; each branch is
        # poisoned in turn, and both give the same dtype
        for small, large in [((), (64, 128)), ((512,), (513,))]:
            for dtype in (np.int32, np.int64, object):
                R = CycloRing(p, m)
                a, b = _operands(R, small, small, np.int64, 1)
                A, B = _operands(R, large, large, np.int64, 2)
                a, b, A, B = (x.astype(dtype) for x in (a, b, A, B))
                R._terms = None
                assert np.array_equal(R.mul_arrays(a, b), ref_mul(R, a, b))
                with pytest.raises((TypeError, ValueError)):  # the poisoned table
                    R.mul_arrays(A, B)
                R = CycloRing(p, m)
                R._fold = None
                big = R.mul_arrays(A, B)
                assert np.array_equal(big, ref_mul(R, A, B))
                with pytest.raises((TypeError, ValueError)):  # the poisoned table
                    R.mul_arrays(a, b)
                assert big.dtype == ring(p, m).mul_arrays(a, b).dtype == np.result_type(dtype)


# -- RealSurd powers and comparisons against the square-and-multiply and
# subtract-then-sign code they replaced --


def _ref_pow(x: RealSurd, k: int) -> RealSurd:
    out, base = RealSurd(Fraction(1)), x
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _ref_sign_of_diff(x: RealSurd, y: RealSurd) -> int:
    return (x - y).sign()


_fractions = st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6)
_surds = st.builds(RealSurd, _fractions, st.one_of(st.just(Fraction(0)), _fractions))


class TestRealSurd:
    @settings(max_examples=60, deadline=None)
    @given(_surds, st.integers(0, 300))
    def test_pow_matches_square_and_multiply(self, x, k):
        got, want = x**k, _ref_pow(x, k)
        assert (got.a, got.b) == (want.a, want.b)

    @settings(max_examples=200, deadline=None)
    @given(_surds, _surds, st.integers(0, 300))
    def test_sign_of_diff_matches_subtraction(self, x, y, k):
        for u, v in ((x, y), (y, x), (x, x), (x**k, y**k), (x**k, x**k)):
            assert u.sign_of_diff(v) == _ref_sign_of_diff(u, v)
            assert (u == v, u < v, u <= v, u > v, u >= v) == tuple(
                f(_ref_sign_of_diff(u, v), 0) for f in (eq, lt, le, gt, ge)
            )

    def test_negative_powers(self):
        assert RealSurd(Fraction(-2, 3)) ** -3 == RealSurd(Fraction(-27, 8))
        with pytest.raises(ValueError):
            RealSurd(Fraction(1), Fraction(1)) ** -1

    def test_rational_comparisons_near_equality(self):
        big = Fraction(3**400 + 1, 2**600)
        assert RealSurd(big) > RealSurd(Fraction(3**400, 2**600))
        assert RealSurd(big).sign_of_diff(big) == 0 and RealSurd(big) == big
        # 3 - 2 sqrt 2 > 0 and 99 - 70 sqrt 2 > 0 sit within 0.18 and 0.008 of zero
        assert RealSurd(Fraction(3), Fraction(-2)).sign() == 1
        assert RealSurd(Fraction(-99), Fraction(70)).sign() == -1
        assert RealSurd(Fraction(0), Fraction(-1)).sign() == -1
        assert surd_sign(-(2**80), 2**80) == 1 and surd_sign(2**80, -(2**80)) == -1


# Z[zeta_5], Z[zeta_9], Z[zeta_16], Z[zeta_27]: real subfields of degree 2, 3, 4 and 9
SIGN_RINGS = [(5, 1), (3, 2), (2, 4), (3, 3)]


def _float_value(R, x) -> float:
    return float(sum(int(c) * np.cos(2 * np.pi * k / R.N) for k, c in enumerate(x)))


@st.composite
def _real_pairs(draw):
    """A ring, two real elements y conj y - z conj z of it, and their rotations by zeta^t."""
    R = ring(*draw(st.sampled_from(SIGN_RINGS)))
    elts = []
    for _ in range(2):
        y, z = (np.array(draw(st.lists(st.integers(-40, 40), min_size=R.degree, max_size=R.degree)), dtype=object)
                for _ in range(2))
        elts.append((y, z))
    return R, elts, draw(st.integers(0, R.N - 1))


class TestRealKeys:
    """One exact order on the real elements of every Z[zeta_N]."""

    @settings(max_examples=150, deadline=None)
    @given(_real_pairs())
    def test_order_matches_floats_where_the_margin_is_large(self, case):
        R, elts, t = case
        xs, rotated = [], []
        for y, z in elts:
            xs.append(R.mag_squared(y) - R.mag_squared(z))
            ty, tz = (R.mul_arrays(R.root(t).astype(object), v) for v in (y, z))
            rotated.append(R.mag_squared(ty) - R.mag_squared(tz))  # the same element, reached another way
        cols = np.stack(xs + rotated + [xs[0] - rotated[0]], axis=1)
        keys = real_keys(R, cols)
        assert keys[0] == keys[2] and keys[1] == keys[3] and keys[4] == 0
        vals = [_float_value(R, x) for x in xs]
        scale = 1e-9 * max(1, *(np.abs(x).sum() for x in xs))
        for i, v in enumerate(vals):
            if abs(v) > scale:
                assert (keys[i] > 0) == (v > 0)
        if abs(vals[0] - vals[1]) > scale:
            assert (keys[0] > keys[1]) == (vals[0] > vals[1])

    @pytest.mark.parametrize("p, m", SIGN_RINGS)
    def test_zero_only_after_reduction(self, p, m):
        R = ring(p, m)
        for t in range(R.N):
            # zeta^t (1 + omega + ... + omega^{p-1}) reduces to zero
            full = R.roots_to_coeffs(t + np.arange(p) * (R.N // p)).sum(axis=1)
            assert not full.any() and real_keys(R, full) == 0
        x = R.mag_squared(R.one() + R.root(1))
        assert real_keys(R, np.stack([x, x + full, x - x], axis=1)).tolist()[:2] == [real_keys(R, x)] * 2

    @pytest.mark.parametrize("p, m", SIGN_RINGS)
    def test_powers_below_one_stay_ordered(self, p, m):
        # u = zeta + zeta^-1 - 1 lies in (0, 1) for N >= 5 (2 cos(2 pi / 5) - 1 < 0, so N = 5 takes 1/phi):
        # u^k shrinks like |u|^k while its coefficients grow, the worst case for the precision
        R = ring(p, m)
        u = (R.root(1) + R.root(-1) - (R.one() if R.N > 5 else 0)).astype(object)
        powers = [R.one().astype(object)]
        for _ in range(120):
            powers.append(R.mul_arrays(powers[-1], u))
        keys = real_keys(R, np.stack(powers, axis=1))
        assert all(a > b > 0 for a, b in zip(keys, keys[1:]))
        assert all(real_keys(R, a - b) > 0 and real_keys(R, b - a) < 0 for a, b in zip(powers, powers[1:]))

    def test_classic_comparisons(self):
        R9 = ring(3, 2)
        x = R9.mag_squared(R9.one() + R9.root(1))  # 2 + 2 cos(2 pi / 9) = 3.53
        three, four = 3 * R9.one(), 4 * R9.one()
        assert real_keys(R9, x - three) > 0 and real_keys(R9, x - four) < 0

    def test_tables_agree_across_precisions(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_COS_TABLES", {})
        for p, m in SIGN_RINGS + [(2, 3), (3, 1)]:
            R = ring(p, m)
            low = cyclotomic._cos_table(R, 100)
            high = cyclotomic._cos_table(R, 3000)  # a rebuild at 3000 bits
            assert cyclotomic._COS_TABLES[R.N][0] == 3000
            assert all(abs(a - (b >> 2900)) <= 1 for a, b in zip(low, high))
            assert all(abs(a / 2**100 - np.cos(2 * np.pi * k / R.N)) < 1e-15 for k, a in enumerate(low))
            assert np.array_equal(cyclotomic._cos_table(R, 100), low)  # rounded down from the 3000-bit table
