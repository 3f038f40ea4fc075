"""Exact arithmetic in Z[zeta_N] for N = p^m, and exact real magnitudes.

Ring elements are integer coefficient vectors in the power basis
1, zeta, ..., zeta^{d-1} with d = phi(N); reduction uses
Phi_{p^m}(x) = 1 + x^e + ... + x^{(p-1)e}, e = p^{m-1}.  Sums of roots of
unity, their conjugates and products therefore stay exact.  One product,
``CycloRing.mul_arrays``, multiplies elements and whole coefficient arrays
of any shape and dtype; it states the bound its partial sums stay within,
and callers on int64 check that bound or move to object dtype.

Real elements of every ring are ordered exactly by ``real_keys``: one
fixed-point evaluation of sum c_k cos(2 pi k / N) on Python integers, at a
precision that the norm of a nonzero element makes decisive.  ``RealSurd``
is the one exact real number, num / den with num a real element of any
Z[zeta_N]: its sign and ``float()`` read the same key, at a precision that
starts at 64 bits and doubles up to that of ``real_keys``.  Its powers are
``SurdPower`` products, kept unexpanded: each is ordered by a dyadic
enclosure where that decides, and expanded exactly where it does not.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import cos, sin, pi

import numpy as np


@lru_cache(maxsize=None)
def ring(p: int, m: int) -> "CycloRing":
    return CycloRing(p, m)


class CycloRing:
    """Z[zeta_{p^m}] with exact integer coefficient vectors."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.N = p**m
        self.degree = 1 if self.N == 1 else self.N - self.N // p  # phi(p^m)
        d, N = self.degree, self.N
        # REDUCE[t] = coefficient vector of zeta^t (t in 0..N-1)
        reduce_rows = np.zeros((N, d), dtype=np.int64)
        e = N // p if m >= 1 else 1
        for t in range(N):
            if t < d:
                reduce_rows[t, t] = 1
            else:
                # zeta^t = -sum_{l=0}^{p-2} zeta^{t-d+l*e}
                for l in range(p - 1):
                    reduce_rows[t, t - d + l * e] -= 1
        self._reduce = reduce_rows
        # product fold: basis_i * basis_j = zeta^{i+j}, column i*d + j of a (d, d^2) matrix,
        # and the same fold as signed terms (i, j, ((k, sign), ...))
        self._fold = np.ascontiguousarray(reduce_rows[np.add.outer(np.arange(d), np.arange(d)).ravel() % N].T)
        self._terms = [
            (ij // d, ij % d, tuple((int(k), int(col[k])) for k in np.flatnonzero(col)))
            for ij, col in enumerate(self._fold.T)
        ]
        # conjugation: zeta^i -> zeta^{N-i}
        self._conj = reduce_rows[(N - np.arange(d)) % N]

    # -- scalar element helpers (1-D int64 arrays of length degree) --

    def zero(self) -> np.ndarray:
        return np.zeros(self.degree, dtype=np.int64)

    def one(self) -> np.ndarray:
        z = self.zero()
        z[0] = 1
        return z

    def root(self, t: int) -> np.ndarray:
        """zeta^t as an element."""
        return self._reduce[t % self.N].copy()

    # -- operations on coefficient arrays of shape (degree, ...), 1-D elements included --

    def mul_arrays(self, A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Exact pointwise ring product of two (degree, ...) coefficient arrays.

        The trailing shapes broadcast as numpy aligns them (from the right);
        the result has dtype np.result_type(A, B).  Each coefficient of a
        product is a sum of the plane products A[i] B[j] with signs +-1, and
        every partial sum stays within degree^2 max|A| max|B|: exact on
        object dtype, and on an integer dtype wherever that bound fits, which
        callers on integer dtypes check.  With ``out`` (of the result's shape,
        not overlapping A or B) the product is written there and returned, so
        a loop over chunks can keep one buffer; the plane products are formed
        on the result's dtype and summed on that of ``out``, which may be
        wider.

        Up to 512 broadcast entries the outer product of the planes is folded
        by one (d x d^2) integer matmul; larger products add the signed plane
        products in place, through one plane of scratch per call.  Measured
        on a 2-vCPU Xeon with numpy 2.4: the matmul takes 10 us per scalar
        product in Z[zeta_8] against 55 us for the term loop, and the two
        cross between 512 and 1024 entries for degree 2 to 6; at 32768
        entries the matmul is 3 to 16 times slower.
        """
        d = self.degree
        if d == 1:
            return np.multiply(A, B, out=out)
        nd = max(A.ndim, B.ndim)
        sa = (1,) * (nd - A.ndim) + A.shape[1:]
        sb = (1,) * (nd - B.ndim) + B.shape[1:]
        shape = tuple(a if b == 1 else b for a, b in zip(sa, sb))  # numpy checks it in the product
        dt = np.result_type(A, B)
        if math.prod(shape) <= 512:
            prod = self._fold @ (A.reshape((d, 1) + sa) * B.reshape((1, d) + sb)).reshape(d * d, -1)
            if out is None:
                return prod.astype(dt, copy=False).reshape((d,) + shape)
            out[...] = prod.reshape((d,) + shape)
            return out
        if out is None:
            out = np.zeros((d,) + shape, dtype=dt)
        else:
            out[...] = 0
        prod = None
        for i, j, terms in self._terms:
            prod = np.multiply(A[i], B[j], out=prod)
            for k, sign in terms:
                if sign > 0:
                    out[k] += prod
                else:
                    out[k] -= prod
        return out

    def conj_arrays(self, A: np.ndarray) -> np.ndarray:
        return np.einsum("i...,ik->k...", A, self._conj)

    def roots_to_coeffs(self, exps: np.ndarray) -> np.ndarray:
        """One-hot encode zeta^{exps}: result shape (degree,) + exps.shape."""
        flat = self._reduce[np.asarray(exps) % self.N]  # exps.shape + (degree,)
        return np.moveaxis(flat, -1, 0)

    def mag_squared(self, a: np.ndarray) -> np.ndarray:
        """|a|^2 = a * conj(a), a real ring element (elementwise on arrays)."""
        return self.mul_arrays(a, self.conj_arrays(a))

    def to_complex(self, a: np.ndarray, den: int = 1) -> complex:
        """sum_k a_k zeta^k / den in floating point.  Where a coefficient or
        den passes 1023 bits, all of them are first shifted right by one
        number of bits, to 1023 bits for the largest, so each fits a float."""
        N = self.N
        a = [int(c) for c in a]
        shift = max(abs(c).bit_length() for c in a + [den]) - 1023
        if shift > 0:
            a, den = [c >> shift for c in a], den >> shift
        return sum(
            c * complex(cos(2 * pi * i / N), sin(2 * pi * i / N))
            for i, c in enumerate(a)
        ) / den

    def embed_matrix(self, target: "CycloRing") -> np.ndarray:
        """Matrix embedding this ring into a larger one (same p, bigger m; Z into any ring)."""
        if self.N > 1 and target.p != self.p or target.N % self.N:
            raise ValueError("no embedding between these rings")
        step = target.N // self.N
        M = np.zeros((self.degree, target.degree), dtype=np.int64)
        for i in range(self.degree):
            M[i] = target._reduce[(i * step) % target.N]
        return M

    def __repr__(self):
        return f"CycloRing(Z[zeta_{self.N}])"


def common_ring(r1: CycloRing, r2: CycloRing) -> CycloRing:
    if r1.p != r2.p:
        # only meeting point is the rationals; allow if either is trivial
        if r1.N == 1:
            return r2
        if r2.N == 1:
            return r1
        raise ValueError("cannot mix cyclotomic rings of different primes")
    return r1 if r1.N >= r2.N else r2


# N -> (B, cos(2 pi k / N) 2^B rounded, k < phi(N)), at the largest B built so far
_COS_TABLES: dict = {}


def _atan_inv(x: int, bits: int) -> int:
    """arctan(1/x) 2^bits by its Taylor series; floor(2^bits / x^(2k+1)) is
    exact, so each term errs by under a unit."""
    total, power, k, x2 = 0, (1 << bits) // x, 0, x * x
    while power:
        total += (-1) ** k * (power // (2 * k + 1))
        power //= x2
        k += 1
    return total


def _cos_table(rng: CycloRing, bits: int) -> np.ndarray:
    """Python integers T_k within 1 of cos(2 pi k / N) 2^bits, k < phi(N).

    One table is kept per N, at B >= bits, and rounded to ``bits``; a
    request past B rebuilds it at max(bits, 2B).  It is built at W = B + 32
    bits and rounded: pi by Machin's formula, then the Taylor series of cos
    at 2 pi k' / N in [0, pi], k' = min(k, N - k).  Every truncated term
    errs by under a unit: pi by under 4W units, theta^2 by under 25W, and
    cos, whose slope in theta^2 is at most 1/2 and whose series grows no
    error by more than cosh(pi) < 12, by under 12W + 12J units for J < W
    terms.  Below W = 2^25 that is within 2^30 units, so the table is within
    1/4 + 1/2 of a unit at B bits and within 1/2 + 3/8 after rounding to
    ``bits``.
    """
    N = rng.N
    B, table = _COS_TABLES.get(N, (0, None))
    if B < bits:
        B = max(bits, 64, 2 * B)
        W = B + 32
        pi = 16 * _atan_inv(5, W) - 4 * _atan_inv(239, W)
        table = []
        for k in range(rng.degree):
            theta = 2 * pi * min(k, N - k) // N
            theta2 = theta * theta >> W
            total = term = 1 << W
            j = 1
            while term:
                term = (term * theta2 >> W) // ((2 * j - 1) * 2 * j)
                total += (-1) ** j * term
                j += 1
            table.append((total + (1 << 31)) >> 32)
        table = np.array(table, dtype=object)
        _COS_TABLES[N] = B, table
    return table if B == bits else (table + (1 << (B - bits - 1))) >> (B - bits)


def _bits(rng: CycloRing, L: int) -> int:
    """A precision B at which the keys of ``real_keys`` sign every real
    element of ``rng`` whose L1 is at most L / 2 (see there)."""
    return (max(0, rng.degree // 2 - 1) + 1) * L.bit_length() + 2


def real_keys(rng: CycloRing, elts: np.ndarray) -> np.ndarray:
    """Python integers ordered exactly as the real (degree, ...) elements
    ``elts`` of ``rng``: equal elements get equal keys, and the sign of a
    key, and of a difference of keys, is the sign of the element, and of
    the difference of the elements.

    A nonzero real x in Z[zeta_N] lies in the real subfield, of degree
    e + 1 = phi(N)/2 (1 for N <= 2), where its norm is a nonzero integer;
    each of the e other conjugates is at most L1(x), the sum of
    |coefficients|, so |x| >= L1(x)^{-e}.  A key is sum_k c_k T_k with
    |T_k - cos(2 pi k / N) 2^B| <= 1, which errs from x 2^B by at most L1(x).
    With L at least twice the largest L1, bounding every element and every
    difference, and 2^B > 2 L^{e+1}, a nonzero difference x 2^B exceeds
    2L > L in size, so it keeps its sign; equal elements have equal
    coefficient vectors and so equal keys.
    """
    elts = np.asarray(elts, dtype=object)
    L = 2 * int(np.abs(elts.reshape(rng.degree, -1)).sum(axis=0).max(initial=0))
    return np.tensordot(_cos_table(rng, _bits(rng, L)), elts, 1)


def _key(rng: CycloRing, num: np.ndarray, margin: int) -> tuple:
    """(key, B): key = sum c_k T_k at B bits for the real element ``num``,
    with |key| > L1(num) 2^margin unless num = 0.  The key then has the sign
    of num, and key / 2^B is num within a factor 1 +- 2^(1 - margin).

    B starts at 64 and doubles.  The last step is the precision of
    ``real_keys`` for L = 2 L1(num), plus ``margin`` bits: there a nonzero
    num has |num 2^B| > 8 L1(num) 2^margin, so every nonzero num passes and
    the loop is exact.
    """
    L1 = int(np.abs(num).sum())
    last = _bits(rng, 2 * L1) + margin
    B = 64
    while True:
        B = min(B, last)
        key = int(np.dot(_cos_table(rng, B), num))
        if abs(key) > L1 << margin or B == last:
            return key, B
        B *= 2


# mantissa bits of an enclosure's ends, and the margin of the key it is read from
_P = 64
_ONE = Fraction(1)


def _round(m: int, e: int, up: bool) -> tuple:
    """m 2^e, m >= 0, to at most _P mantissa bits, rounded up or down."""
    s = m.bit_length() - _P
    if s <= 0:
        return m, e
    return (-(-m >> s) if up else m >> s), e + s


def _quotient(num: int, den: int, up: bool) -> tuple:
    """num / den, den > 0, as m 2^e: exact where den is a power of two, else
    with about _P bits in m, rounded up or down."""
    if not den & (den - 1):
        return num, 1 - den.bit_length()
    t = _P + den.bit_length() - num.bit_length()
    if t >= 0:
        num <<= t
    else:
        den <<= -t
    return (-(-num // den) if up else num // den), -t


def _dyadic_pow(m: int, e: int, k: int, up: bool) -> tuple:
    """(m 2^e)^k, m >= 0: exact for 0 and powers of two, else by repeated
    squaring, every product rounded up or down."""
    if not m & (m - 1):
        return (1, (e + m.bit_length() - 1) * k) if m else (0, 0)
    out = 1, 0
    while k:
        if k & 1:
            out = _round(out[0] * m, out[1] + e, up)
        k >>= 1
        if k:
            m, e = _round(m * m, 2 * e, up)
    return out


def _dyadic_lt(a: tuple, b: tuple) -> bool:
    """m 2^e < m' 2^e' for a = (m, e), b = (m', e')."""
    (m, e), (n, f) = a, b
    g = min(e, f)
    return m << (e - g) < n << (f - g)


@total_ordering
class RealSurd:
    """Exact real number num / den: num a real element of Z[zeta_N], for any
    N, on Python integers, and den > 0 an integer.  Rationals are kept in
    Z (N = 1), so they meet values of every ring.

    ``+ - *`` embed both operands in their ``common_ring`` and multiply by
    ``CycloRing.mul_arrays``; every result is reduced by the gcd of den and
    the coefficients.  ``**`` returns an unexpanded ``SurdPower``.
    Equality is a zero test of the cross-multiplied difference, exact
    because the power basis is a basis of Q(zeta_N); the order and
    ``float()`` read the key of ``_key``.  Each value keeps one dyadic
    enclosure, from which the ``SurdPower`` comparisons start.
    """

    __slots__ = ("ring", "num", "den", "_encl")

    def __init__(self, value):
        q = Fraction(value)
        self.ring, self.num, self.den = ring(2, 0), np.array([q.numerator], dtype=object), q.denominator
        self._encl = None

    @classmethod
    def _reduced(cls, rng: CycloRing, num: np.ndarray, den: int) -> "RealSurd":
        if not num[1:].any():  # a rational: kept in Z, which meets every ring
            rng, num = ring(2, 0), num[:1]
        g = math.gcd(den, *num)
        out = cls.__new__(cls)
        out.ring, out.num, out.den, out._encl = rng, num // g, den // g, None
        return out

    @classmethod
    def from_ring_element(cls, rng: CycloRing, elt: np.ndarray, den: int = 1) -> "RealSurd":
        """The real element elt / den of ``rng``; raises ValueError if elt is not real."""
        elt = np.asarray(elt, dtype=object)
        if not np.array_equal(rng.conj_arrays(elt), elt):
            raise ValueError("element is not real")
        return cls._reduced(rng, elt, den)

    def _pair(self, other) -> tuple:
        """The common ring, both numerators in it, and other as a RealSurd."""
        o = other if isinstance(other, RealSurd) else RealSurd(other)
        R = common_ring(self.ring, o.ring)
        a, b = (x.num if x.ring.N == R.N else x.num @ x.ring.embed_matrix(R) for x in (self, o))
        return R, a, b, o

    def __add__(self, other):
        R, a, b, o = self._pair(other)
        return RealSurd._reduced(R, a * o.den + b * self.den, self.den * o.den)

    def __sub__(self, other):
        return RealSurd._reduced(*self._diff(other))

    def __mul__(self, other):
        if isinstance(other, SurdPower):
            return NotImplemented
        R, a, b, o = self._pair(other)
        return RealSurd._reduced(R, R.mul_arrays(a, b), self.den * o.den)

    def __pow__(self, k: int) -> "SurdPower":
        """self^k, unexpanded; a negative k only for a nonzero rational.  A
        negative base moves its sign into the coefficient."""
        if k < 0:
            if self.ring.N > 1:
                raise ValueError("negative powers of an irrational RealSurd are not supported")
            return RealSurd(Fraction(self.den, int(self.num[0]))) ** -k
        if k and self._enclosure()[1][0] < 0:
            return SurdPower(Fraction((-1) ** k), ((RealSurd._reduced(self.ring, -self.num, self.den), k),))
        return SurdPower(_ONE, ((self, k),) if k else ())

    def _enclosure(self) -> tuple:
        """((m, e), (m', e')) with m 2^e <= self <= m' 2^e', kept once made:
        [key - L1(num), key + L1(num)] / (den 2^B) for the key of ``_key``
        at margin _P, which is num 2^B within L1(num) (a rational's key is
        num itself, exact, at B = 0), rounded outward.  Zero gets [0, 0];
        any other value an interval within a factor 1 +- 2^(2 - _P) of it,
        which excludes 0."""
        if self._encl is None:
            if self.ring.N == 1:
                key, B, err = int(self.num[0]), 0, 0
            else:
                key, B = _key(self.ring, self.num, _P)
                err = int(np.abs(self.num).sum())
            (lo, e), (hi, f) = _quotient(key - err, self.den, False), _quotient(key + err, self.den, True)
            self._encl = (lo, e - B), (hi, f - B)
        return self._encl

    def sign(self) -> int:
        key = int(self.num[0]) if self.ring.N == 1 else _key(self.ring, self.num, 0)[0]
        return (key > 0) - (key < 0)

    def _diff(self, other) -> tuple:
        """self - other as (ring, numerator, den), not reduced."""
        R, a, b, o = self._pair(other)
        return R, a * o.den - b * self.den, self.den * o.den

    def __eq__(self, other):
        if isinstance(other, SurdPower):
            return NotImplemented
        return not self._diff(other)[1].any()

    def __lt__(self, other):
        if isinstance(other, SurdPower):
            return NotImplemented
        R, num, _ = self._diff(other)
        return _key(R, num, 0)[0] < 0

    def __float__(self):
        key, B = _key(self.ring, self.num, 60)
        return key / (self.den << B)

    def __str__(self):
        if self.ring.N == 1:
            return str(Fraction(int(self.num[0]), self.den))
        return f"{list(self.num)}/{self.den} in Z[zeta_{self.ring.N}]"

    def __repr__(self):
        return f"RealSurd({self})"


def _ordered(test):
    """A SurdPower comparison: ``test`` of the sign of self - other, for other
    a RealSurd, a SurdPower or a rational."""
    def method(self, other):
        if not isinstance(other, (RealSurd, SurdPower)):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RealSurd(other)
        return test(self._cmp(other), 0)
    return method


class SurdPower:
    """Exact real number c * prod b_i^k_i, kept unexpanded: c a rational, each
    base b_i a non-negative ``RealSurd`` and k_i >= 1.  ``RealSurd.__pow__``
    makes one; ``*`` with RealSurds, rationals and SurdPowers and ``**``
    keep the form, a base met twice (the same object) adding its exponents.

    Order and equality against all three: the dyadic enclosures of both
    sides (``_enclosure``) decide when they are disjoint; otherwise both
    sides are expanded by ``exact()`` and compared by ``RealSurd``, so
    ties stay exact.  ``float()`` is the nearest double where both ends of
    the enclosure round to it, and the expanded value's ``float()``
    otherwise.
    """

    __slots__ = ("coeff", "factors", "_encl")

    def __init__(self, coeff, factors=()):
        self.coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
        self.factors = tuple(factors)  # ((base, k), ...)
        self._encl = None

    def exact(self) -> RealSurd:
        """The product expanded: the one place a power is expanded.  Rational
        bases are raised as Fractions, the others by repeated squaring in
        their ring."""
        n, d, out = self.coeff.numerator, self.coeff.denominator, None
        for b, k in self.factors:
            R, x = b.ring, b.num
            if R.N == 1:
                n, d = n * int(x[0]) ** k, d * b.den**k
                continue
            acc, e = R.one().astype(object), k
            while e:
                if e & 1:
                    acc = R.mul_arrays(acc, x)
                e >>= 1
                if e:
                    x = R.mul_arrays(x, x)
            power = RealSurd._reduced(R, acc, b.den**k)
            out = power if out is None else out * power
        rational = RealSurd._reduced(ring(2, 0), np.array([n], dtype=object), d)
        return rational if out is None else out * rational

    def _enclosure(self) -> tuple:
        """Dyadic bounds as ``RealSurd._enclosure``: |c| and each base's
        power, lower ends multiplied rounding down and upper ends rounding
        up (all ends are >= 0), then the sign of c."""
        if self._encl is None:
            n, d = abs(self.coeff.numerator), self.coeff.denominator
            lo, hi = _quotient(n, d, False), _quotient(n, d, True)
            for b, k in self.factors:
                (bl, el), (bh, eh) = b._enclosure()
                pl, ph = _dyadic_pow(bl, el, k, False), _dyadic_pow(bh, eh, k, True)
                lo, hi = _round(lo[0] * pl[0], lo[1] + pl[1], False), _round(hi[0] * ph[0], hi[1] + ph[1], True)
            self._encl = (lo, hi) if self.coeff.numerator >= 0 else ((-hi[0], hi[1]), (-lo[0], lo[1]))
        return self._encl

    def __mul__(self, other):
        if isinstance(other, RealSurd):
            other = other**1
        elif isinstance(other, (int, Fraction)):
            other = SurdPower(other)
        elif not isinstance(other, SurdPower):
            return NotImplemented
        merged = {}
        for b, k in self.factors + other.factors:
            merged[id(b)] = b, merged.get(id(b), (b, 0))[1] + k
        return SurdPower(self.coeff * other.coeff, merged.values())

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SurdPower":
        if k < 0:
            raise ValueError("negative powers of a SurdPower are not supported")
        return SurdPower(self.coeff**k, ((b, e * k) for b, e in self.factors if k))

    def _cmp(self, other) -> int:
        """The sign of self - other (a RealSurd or a SurdPower): on the
        enclosures when they are disjoint, else on the expanded values."""
        (alo, ahi), (blo, bhi) = self._enclosure(), other._enclosure()
        if _dyadic_lt(ahi, blo):
            return -1
        if _dyadic_lt(bhi, alo):
            return 1
        a, b = self.exact(), other.exact() if isinstance(other, SurdPower) else other
        return 0 if a == b else (a - b).sign()

    __eq__, __lt__, __le__ = _ordered(operator.eq), _ordered(operator.lt), _ordered(operator.le)
    __gt__, __ge__ = _ordered(operator.gt), _ordered(operator.ge)
    __hash__ = None

    def sign(self) -> int:
        return self._cmp(RealSurd(0))

    def __float__(self):
        try:  # each end m 2^e rounded to the nearest double, as an int quotient is
            lo, hi = (float(m << e) if e >= 0 else m / (1 << -e) for m, e in self._enclosure())
            if lo == hi:
                return lo
        except OverflowError:  # an end past the float range: the value decides
            pass
        return float(self.exact())

    def __str__(self):
        return " * ".join([str(self.coeff)] + [f"({b})^{k}" for b, k in self.factors])

    def __repr__(self):
        return f"SurdPower({self})"
