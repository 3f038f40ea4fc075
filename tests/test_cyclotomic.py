import math
from fractions import Fraction
from operator import eq, ge, gt, le, lt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import cyclotomic
from hofa.cyclotomic import CycloRing, RealSurd, SurdPower, real_keys, ring
from ringref import RefSurd, ref_conj, ref_mul

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
    @pytest.mark.parametrize("sa, sb", SHAPES)
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_out_is_written_and_returned(self, p, m, sa, sb, dtype):
        R = ring(p, m)
        A, B = _operands(R, sa, sb, dtype, 3 * p + m)
        want = ref_mul(R, A, B)
        for fill in (0, 7):  # a reused buffer holds the last chunk's product
            out = np.full(want.shape, fill, dtype=np.result_type(A, B))
            assert R.mul_arrays(A, B, out=out) is out
            assert np.array_equal(out, want)

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


# -- RealSurd against the former a + b*sqrt(2) class, on the real elements of
# Z, Z[i], Z[omega] and Z[zeta_8], and on near-ties in every ring --

SURD_RINGS = [(2, 0), (2, 2), (3, 1), (2, 3)]


def _surd(R, a: Fraction, b: Fraction) -> RealSurd:
    """a + b sqrt2 (b = 0 outside Z[zeta_8]) as a real element of R over a common den."""
    den = math.lcm(a.denominator, b.denominator)
    elt = np.zeros(R.degree, dtype=object)
    elt[0] = a.numerator * (den // a.denominator)
    if R.N == 8:  # sqrt2 = zeta + zeta^7 = zeta - zeta^3
        elt[1] = b.numerator * (den // b.denominator)
        elt[3] = -elt[1]
    return RealSurd.from_ring_element(R, elt, den)


def _exact(x: RefSurd) -> Fraction:
    """a + b sqrt2 within a factor 1 +- 2^-200: with B bits in a and b, a nonzero
    a + b sqrt2 exceeds 2^(-3B), as den^2 (a^2 - 2 b^2) is a nonzero integer."""
    bits = max(abs(q.numerator).bit_length() + q.denominator.bit_length() for q in (x.a, x.b))
    K = 4 * bits + 200
    return x.a + x.b * Fraction(math.isqrt(2 << (2 * K)), 1 << K)


def _ref_pow(x: RealSurd, k: int) -> RealSurd:
    out, base = RealSurd(Fraction(1)), x
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


_fractions = st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6)


@st.composite
def _surd_pairs(draw):
    """A ring, and one value in it both as a RealSurd and as a RefSurd."""
    R = ring(*draw(st.sampled_from(SURD_RINGS)))
    a = draw(_fractions)
    b = draw(st.one_of(st.just(Fraction(0)), _fractions)) if R.N == 8 else Fraction(0)
    return R, _surd(R, a, b), RefSurd(a, b)


def _check_float(u, ref_u):
    """float(u) is float(a) for rational u, else a + b sqrt2 within 2^-50; past the float range both raise."""
    try:
        want = float(ref_u.a) if ref_u.b == 0 else float(_exact(ref_u))
    except OverflowError:
        with pytest.raises(OverflowError):
            float(u)
        return
    assert float(u) == (want if ref_u.b == 0 else pytest.approx(want, rel=2.0**-50, abs=0))


def _check_against_reference(u, ref_u, v, ref_v):
    s = (ref_u - ref_v).sign()
    assert (u == v, u < v, u <= v, u > v, u >= v) == tuple(f(s, 0) for f in (eq, lt, le, gt, ge))
    assert u.sign() == ref_u.sign()
    _check_float(u, ref_u)


class TestRealSurd:
    @settings(max_examples=60, deadline=None)
    @given(_surd_pairs(), st.integers(0, 300))
    def test_pow_matches_square_and_multiply(self, pair, k):
        R, x, ref = pair
        power = x**k
        got = power.exact()
        assert power == got == _ref_pow(x, k) == _surd(R, (ref**k).a, (ref**k).b)
        assert got.ring is (R if got.num[1:].any() else ring(2, 0)) and math.gcd(got.den, *got.num) == 1

    @settings(max_examples=200, deadline=None)
    @given(_surd_pairs(), _surd_pairs(), st.integers(0, 300))
    def test_sign_of_diff_matches_subtraction(self, x, y, k):
        (_, u, ref_u), (_, v, ref_v) = x, y
        for a, ref_a, b, ref_b in (
            (u, ref_u, v, ref_v), (v, ref_v, u, ref_u), (u, ref_u, u, ref_u),
            (u**k, ref_u**k, v**k, ref_v**k), (u**k, ref_u**k, u**k, ref_u**k),
        ):
            _check_against_reference(a, ref_a, b, ref_b)
        _check_float(u + v, ref_u + ref_v)
        R = x[0] if x[0].N == 8 else y[0]  # the other value is rational
        assert u * v == _surd(R, (ref_u * ref_v).a, (ref_u * ref_v).b)

    def test_negative_powers(self):
        assert RealSurd(Fraction(-2, 3)) ** -3 == RealSurd(Fraction(-27, 8))
        assert _surd(ring(2, 3), Fraction(5, 7), Fraction(0)) ** -2 == RealSurd(Fraction(49, 25))
        with pytest.raises(ValueError):
            _surd(ring(2, 3), Fraction(1), Fraction(1)) ** -1

    def test_rational_comparisons_near_equality(self):
        big = Fraction(3**400 + 1, 2**600)
        assert RealSurd(big) > RealSurd(Fraction(3**400, 2**600))
        assert (RealSurd(big) - big).sign() == 0 and RealSurd(big) == big
        # 3 - 2 sqrt 2 > 0 and 99 - 70 sqrt 2 > 0 sit within 0.18 and 0.008 of zero
        R8 = ring(2, 3)
        assert _surd(R8, Fraction(3), Fraction(-2)).sign() == 1
        assert _surd(R8, Fraction(-99), Fraction(70)).sign() == -1
        assert _surd(R8, Fraction(0), Fraction(-1)).sign() == -1
        assert _surd(R8, Fraction(-(2**80)), Fraction(2**80)).sign() == 1
        assert _surd(R8, Fraction(2**80), Fraction(-(2**80))).sign() == -1

    @pytest.mark.parametrize("k", [1, 2, 7, 100, 299, 300])
    def test_units_near_zero(self, k):
        # (1 - sqrt2)^k = (-1)^k (sqrt2 - 1)^k has norm +-1: the smallest nonzero
        # value its coefficients allow, so only the last precision step signs it
        x = _surd(ring(2, 3), Fraction(1), Fraction(-1)) ** k
        assert x.sign() == (-1) ** k
        assert float(x) == pytest.approx((-1) ** k * (math.sqrt(2) - 1) ** k, rel=1e-12)
        y = _surd(ring(2, 3), Fraction(99), Fraction(-70)) ** k  # 99 - 70 sqrt2 = (sqrt2 - 1)^6
        assert y == x**6 and RealSurd(0) < y < x * x

    def test_ninth_root_magnitudes(self):
        R9 = ring(3, 2)
        x = RealSurd.from_ring_element(R9, R9.mag_squared(R9.one() + R9.root(1)))  # 2 + 2 cos(2 pi / 9) = 3.53
        assert RealSurd(3) < x < RealSurd(4) and x != RealSurd(3)
        assert float(x) == pytest.approx(2 + 2 * math.cos(2 * math.pi / 9), rel=1e-15)
        assert x - x == RealSurd(0) and (x - 3) * RealSurd(Fraction(1, 2)) == x * Fraction(1, 2) - Fraction(3, 2)
        assert str(RealSurd.from_ring_element(R9, 3 * R9.one(), 9)) == "1/3"
        with pytest.raises(ValueError):
            RealSurd.from_ring_element(R9, R9.root(1))


# -- SurdPower: unexpanded powers against their expansion --

POWER_RINGS = [(2, 0), (2, 2), (2, 3), (3, 1), (3, 2)]  # Z, Z[i], Z[zeta_8], Z[omega], Z[zeta_9]
_dens = st.one_of(st.sampled_from([1, 2, 1024]), st.integers(1, 10**4))


@st.composite
def _bases(draw, R):
    """A non-negative RealSurd of R: |a|^2 / den (zero for a = 0), or a rational."""
    if draw(st.integers(0, 3)) == 0:
        return RealSurd(draw(st.fractions(min_value=0, max_value=10**3, max_denominator=10**4)))
    a = np.array(draw(st.lists(st.integers(-6, 6), min_size=R.degree, max_size=R.degree)), dtype=object)
    return RealSurd.from_ring_element(R, R.mag_squared(a), draw(_dens))


@st.composite
def _products(draw, R, max_k=1200):
    """q * prod b_i^k_i with up to three bases of R, and its factors."""
    factors = draw(st.lists(st.tuples(_bases(R), st.integers(0, max_k)), min_size=1, max_size=3))
    q = draw(st.fractions(min_value=Fraction(1, 10**3), max_value=10**3, max_denominator=10**3))
    return math.prod((b**k for b, k in factors), start=q), factors


def _ring_pairs(max_k=1200):
    return st.sampled_from(POWER_RINGS).flatmap(
        lambda pm: st.tuples(_products(ring(*pm), max_k), _products(ring(*pm), max_k))
    )


def _dyadic(end) -> RealSurd:
    m, e = end
    return RealSurd(Fraction(m) * Fraction(2) ** e)


@st.composite
def _point_powers(draw):
    """c b^k with c and b dyadic rationals small enough that the enclosure is
    the value itself (at most 64 mantissa bits at every step), and its value."""
    c = Fraction(draw(st.integers(-2**10, 2**10)), 2 ** draw(st.integers(0, 30)))
    b = Fraction(draw(st.integers(0, 2**15)), 2 ** draw(st.integers(0, 30)))
    k = draw(st.integers(1, 3))
    x = c * RealSurd(b) ** k
    lo, hi = x._enclosure()
    assert _dyadic(lo) == _dyadic(hi) == RealSurd(c * b**k)
    return x, c * b**k


def _sqrt2() -> RealSurd:
    """sqrt 2 = zeta_8 + zeta_8^-1, whose enclosure is never a point."""
    return RealSurd.from_ring_element(ring(2, 3), np.array([0, 1, 0, -1], dtype=object))


class TestSurdPower:
    """Each comparison and float() of an unexpanded power agrees with its
    expansion: enclosures decide where they are disjoint or both single
    points, so other ties and near-ties expand."""

    @settings(max_examples=120, deadline=None)
    @given(_point_powers(), st.integers(0, 7), st.integers(40, 100), st.booleans())
    def test_point_enclosures(self, xv, kind, t, up):
        """A point against a tie, a dyadic point, or a neighbour whose enclosure
        overlaps it but is no point: every comparison as on the expanded
        values, and point-vs-point comparisons expand nothing."""
        x, v = xv
        sign = 1 if up else -1
        y = [
            RealSurd(v),  # the same point, as a rational
            x * 1,  # the same point, as a power
            SurdPower(v / 4) * RealSurd(2) ** 2,  # the same value, as another power
            RealSurd(v + sign * Fraction(1, 2**t)),  # a nearby dyadic point
            RealSurd(v * (1 + Fraction(sign, 3 * 2**t))) if v else RealSurd(Fraction(sign, 3 * 2**t)),
            _sqrt2() * RealSurd(Fraction(sign, 2**t)) + v,  # an irrational neighbour
            RealSurd(v + sign * Fraction(1, 3 * 2**t)) ** 1,  # a non-dyadic neighbour, as a power
            (_sqrt2() * RealSurd(Fraction(sign, 2**t)) + v) ** 1,
        ][kind]
        ex, ey = x.exact(), y.exact() if isinstance(y, SurdPower) else y
        points = kind < 4
        expanded = []
        exact = SurdPower.exact
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SurdPower, "exact", lambda self: expanded.append(1) or exact(self))
            for f in (eq, lt, le, gt, ge):
                assert f(x, y) == f(ex, ey), (f, x, y)
                assert f(y, x) == f(ey, ex), (f, y, x)
        if points:
            assert expanded == []


    @settings(max_examples=80, deadline=None)
    @given(_ring_pairs())
    def test_order_matches_the_expanded_values(self, pair):
        (x, _), (y, _) = pair
        ex, ey = x.exact(), y.exact()
        for f in (eq, lt, le, gt, ge):
            want = f(ex, ey)
            assert f(x, y) == f(x, ey) == f(ex, y) == want
        assert x.sign() == ex.sign() and (x * y) == ex * ey

    @settings(max_examples=80, deadline=None)
    @given(_ring_pairs())
    def test_enclosures_contain_the_values(self, pair):
        for x, factors in pair:
            lo, hi = x._enclosure()
            assert _dyadic(lo) <= x.exact() <= _dyadic(hi)
            for b, _ in factors:
                lo, hi = b._enclosure()
                assert _dyadic(lo) <= b <= _dyadic(hi)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(POWER_RINGS).flatmap(lambda pm: st.tuples(_bases(ring(*pm)), _bases(ring(*pm)))),
           st.integers(1, 1200), st.integers(0, 1200))
    def test_ties_and_near_ties(self, bases, k, j):
        y, z = bases
        x = (y**k).exact()
        for tied in (x, y**k * 1, (y**k).exact() ** 1):
            assert y**k == tied and y**k <= tied and y**k >= tied and not y**k < tied and not y**k > tied
        twin = RealSurd.from_ring_element(y.ring, y.num, y.den)  # equal to y, not the same object
        assert y**k * z**j == z**j * twin**k
        if x != 0:
            above, below = x * Fraction(2**200 + 1, 2**200), x * Fraction(2**200 - 1, 2**200)
            assert y**k < above and y**k > below and above > y**k and below < y**k
            if z != 0:
                assert y**k * z**j < above * z**j and y**k * z**j > z**j * below

    @pytest.mark.parametrize("p, m", POWER_RINGS)
    def test_zero_bases(self, p, m):
        R = ring(p, m)
        zero = RealSurd.from_ring_element(R, R.zero().astype(object))
        y = RealSurd.from_ring_element(R, R.mag_squared(R.one() + R.root(1)), 3)
        assert zero**5 == 0 and zero**5 * y**7 == zero and zero**0 == 1
        assert zero**5 < y**1000 and y**1000 * zero**3 <= Fraction(0) and (zero**4).sign() == 0
        assert float(zero**9 * y**9) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(_ring_pairs(max_k=300))
    def test_float_is_the_nearest_double(self, pair):
        for x, _ in pair:
            ex = x.exact()
            try:
                want = float(ex)
            except OverflowError:
                with pytest.raises(OverflowError):
                    float(x)
                continue
            got = float(x)
            assert abs(got - want) <= math.ulp(want)
            if got == 0.0:
                assert ex <= RealSurd(Fraction(1, 2**1075))
            else:  # within half a unit of the last place, checked exactly
                below, above = (Fraction(math.nextafter(got, t)) for t in (-math.inf, math.inf))
                assert RealSurd((below + Fraction(got)) / 2) <= ex <= RealSurd((above + Fraction(got)) / 2)


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
