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
carries the rational and a + b*sqrt(2) values of the ledger bounds; it
reads Z (N in {1,2,3,4}), Z[sqrt(2)] (N = 8) and rational elements of
Z[zeta_9], and raises ``ExactOrderUnsupported`` on anything else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import cos, sin, pi, sqrt

import numpy as np

from .errors import HofaError


class ExactOrderUnsupported(HofaError, NotImplementedError):
    """A real value asked of ``RealSurd`` outside Q and Q(sqrt 2)."""


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

    def mul_arrays(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Exact pointwise ring product of two (degree, ...) coefficient arrays.

        The trailing shapes broadcast as numpy aligns them (from the right);
        the result has dtype np.result_type(A, B).  Each coefficient of a
        product is a sum of the plane products A[i] B[j] with signs +-1, and
        every partial sum stays within degree^2 max|A| max|B|: exact on
        object dtype, and on int64 wherever that bound fits, which callers
        on int64 check.

        Up to 512 broadcast entries the outer product of the planes is folded
        by one (d x d^2) integer matmul; larger products add the signed plane
        products in place.  Measured on a 2-vCPU Xeon with numpy 2.4: the
        matmul takes 10 us per scalar product in Z[zeta_8] against 55 us for
        the term loop, and the two cross between 512 and 1024 entries for
        degree 2 to 6; at 32768 entries the matmul is 3 to 16 times slower.
        """
        d = self.degree
        if d == 1:
            return A * B
        nd = max(A.ndim, B.ndim)
        sa = (1,) * (nd - A.ndim) + A.shape[1:]
        sb = (1,) * (nd - B.ndim) + B.shape[1:]
        shape = tuple(a if b == 1 else b for a, b in zip(sa, sb))  # numpy checks it in the product
        dt = np.result_type(A, B)
        if math.prod(shape) <= 512:
            out = self._fold @ (A.reshape((d, 1) + sa) * B.reshape((1, d) + sb)).reshape(d * d, -1)
            return out.astype(dt, copy=False).reshape((d,) + shape)
        out = np.zeros((d,) + shape, dtype=dt)
        for i, j, terms in self._terms:
            prod = A[i] * B[j]
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

    def to_complex(self, a: np.ndarray) -> complex:
        N = self.N
        return sum(
            int(c) * complex(cos(2 * pi * i / N), sin(2 * pi * i / N))
            for i, c in enumerate(a)
        )

    def embed_matrix(self, target: "CycloRing") -> np.ndarray:
        """Matrix embedding this ring into a larger one (same p, bigger m)."""
        if target.p != self.p or target.N % self.N != 0:
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
                term = term * theta2 // ((2 * j - 1) * 2 * j << W)
                total += (-1) ** j * term
                j += 1
            table.append((total + (1 << 31)) >> 32)
        table = np.array(table, dtype=object)
        _COS_TABLES[N] = B, table
    return table if B == bits else (table + (1 << (B - bits - 1))) >> (B - bits)


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
    e = max(0, rng.degree // 2 - 1)
    return np.tensordot(_cos_table(rng, (e + 1) * L.bit_length() + 2), elts, 1)


def real_parts(rng: CycloRing, elts: np.ndarray) -> tuple:
    """(a, b) with a + b*sqrt(2) the real (degree, ...) elements ``elts``:
    c0 in Z, Z[i], Z[omega] and, where rational, Z[zeta_9]; c0 + c1 sqrt2 in
    Z[zeta_8].  Raises ValueError on a non-real element and
    ExactOrderUnsupported where no exact order is supported."""
    N = rng.N
    if N == 8:
        if np.any(elts[2]) or np.any(elts[3] != -elts[1]):
            raise ValueError("element is not real")
        return elts[0], elts[1]
    if N in (3, 4) and np.any(elts[1]) or N == 9 and not np.array_equal(rng.conj_arrays(elts), elts):
        raise ValueError("element is not real")
    if N not in (1, 2, 3, 4, 9) or np.any(elts[1:]):  # the real subfield of Q(zeta_9) is cubic
        raise ExactOrderUnsupported(f"no exact real order on this element of Z[zeta_{N}]")
    return elts[0], elts[0] * 0


@dataclass(frozen=True)
class RealSurd:
    """Exact real number a + b*sqrt(2) with rational a, b.

    Covers every real value the exact comparisons in this toolkit need:
    rational magnitudes (b = 0) and Z[zeta_8] magnitudes.
    """

    a: Fraction
    b: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "RealSurd":
        if isinstance(value, RealSurd):
            return value
        return cls(Fraction(value))

    @classmethod
    def from_ring_element(cls, rng: CycloRing, elt: np.ndarray, den: int = 1) -> "RealSurd":
        """Interpret a *real* ring element exactly; raises if unsupported."""
        a, b = real_parts(rng, np.asarray(elt))
        return cls(Fraction(int(a), den), Fraction(int(b), den))

    def __add__(self, other):
        o = RealSurd.of(other)
        return RealSurd(self.a + o.a, self.b + o.b)

    def __sub__(self, other):
        o = RealSurd.of(other)
        return RealSurd(self.a - o.a, self.b - o.b)

    def __mul__(self, other):
        o = RealSurd.of(other)
        return RealSurd(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __pow__(self, k: int):
        if self.b == 0:  # a reduced numerator and denominator stay coprime: no gcd
            return RealSurd(self.a**k)
        if k < 0:
            raise ValueError("negative powers of a + b*sqrt(2) with b != 0 are not supported")
        # (x + y sqrt2) / d, raised on integers and reduced once at the end
        d = math.lcm(self.a.denominator, self.b.denominator)
        x, y = self.a.numerator * (d // self.a.denominator), self.b.numerator * (d // self.b.denominator)
        X, Y, e = 1, 0, k
        while e:
            if e & 1:
                X, Y = X * x + 2 * Y * y, X * y + Y * x
            x, y = x * x + 2 * y * y, 2 * x * y
            e >>= 1
        return RealSurd(Fraction(X, d**k), Fraction(Y, d**k))

    def sign(self) -> int:
        return surd_sign(self.a, self.b)

    def __eq__(self, other):
        return self.sign_of_diff(other) == 0

    def sign_of_diff(self, other) -> int:
        o = RealSurd.of(other)
        # the difference times the positive product of the four denominators,
        # on integers: cross-multiplied, with no Fraction reduced
        da = self.a.numerator * o.a.denominator - o.a.numerator * self.a.denominator
        db = self.b.numerator * o.b.denominator - o.b.numerator * self.b.denominator
        return surd_sign(da * self.b.denominator * o.b.denominator, db * self.a.denominator * o.a.denominator)

    def __ge__(self, other):
        return self.sign_of_diff(other) >= 0

    def __gt__(self, other):
        return self.sign_of_diff(other) > 0

    def __le__(self, other):
        return self.sign_of_diff(other) <= 0

    def __lt__(self, other):
        return self.sign_of_diff(other) < 0

    def __hash__(self):
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(2)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt(2)"


def surd_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2) for rational (or integer) a and b."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    d = a * a - 2 * b * b  # opposite signs: a dominates iff a^2 > 2 b^2
    return sa * ((d > 0) - (d < 0))
