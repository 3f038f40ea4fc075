"""Exact arithmetic in Z[zeta_N] for N = p^m, and exact real magnitudes.

Ring elements are integer coefficient vectors in the power basis
1, zeta, ..., zeta^{d-1} with d = phi(N); reduction uses
Phi_{p^m}(x) = 1 + x^e + ... + x^{(p-1)e}, e = p^{m-1}.  Sums of roots of
unity, their conjugates and products therefore stay exact.

Squared magnitudes |z|^2 are real; for every ring this toolkit exercises
with ordered comparisons they land in Z (N in {1,2,3,4}) or Z[sqrt(2)]
(N = 8), where ``RealSurd`` compares exactly.  Deeper rings (zeta_9,
zeta_16) still get exact equality tests; asking them for an exact *order*
raises instead of silently rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import cos, sin, pi, sqrt

import numpy as np

from .errors import HofaError


class ExactOrderUnsupported(HofaError, NotImplementedError):
    """Ordered comparison requested in a real subfield beyond Q(sqrt 2)."""


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
        # product fold: basis_i * basis_j = zeta^{i+j}
        self._mul_table = np.zeros((d, d, d), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                self._mul_table[i, j] = reduce_rows[(i + j) % N]
        # conjugation: zeta^i -> zeta^{N-i}
        conj = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            conj[i] = reduce_rows[(N - i) % N]
        self._conj = conj
        self._root_matrices: dict = {}

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

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self._mul_table)

    def conj(self, a: np.ndarray) -> np.ndarray:
        return a @ self._conj

    def root_matrix(self, t: int) -> np.ndarray:
        """Matrix of multiplication by zeta^t acting on coefficient columns."""
        t %= self.N
        cached = self._root_matrices.get(t)
        if cached is not None:
            return cached
        d = self.degree
        M = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            M[:, i] = self._reduce[(t + i) % self.N]
        self._root_matrices[t] = M
        return M

    # -- vectorized operations on coefficient arrays of shape (degree, ...) --

    def mul_arrays(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Pointwise ring product of two (degree, ...) coefficient arrays."""
        return np.einsum("i...,j...,ijk->k...", A, B, self._mul_table)

    def conj_arrays(self, A: np.ndarray) -> np.ndarray:
        return np.einsum("i...,ik->k...", A, self._conj)

    def roots_to_coeffs(self, exps: np.ndarray) -> np.ndarray:
        """One-hot encode zeta^{exps}: result shape (degree,) + exps.shape."""
        flat = self._reduce[np.asarray(exps) % self.N]  # exps.shape + (degree,)
        return np.moveaxis(flat, -1, 0)

    def mag_squared(self, a: np.ndarray) -> np.ndarray:
        """|a|^2 = a * conj(a), a real ring element."""
        return self.mul(a, self.conj(a))

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
        coeffs = [int(c) for c in elt]
        den = Fraction(den)
        N = rng.N
        if N in (1, 2):
            return cls(Fraction(coeffs[0]) / den)
        if N == 4:  # basis 1, i
            if coeffs[1] != 0:
                raise ValueError("element is not real")
            return cls(Fraction(coeffs[0]) / den)
        if N == 3:  # basis 1, w ; real iff w-coefficient 0
            if coeffs[1] != 0:
                raise ValueError("element is not real")
            return cls(Fraction(coeffs[0]) / den)
        if N == 8:  # basis 1, z, z^2, z^3; real iff c2 = 0 and c3 = -c1
            if coeffs[2] != 0 or coeffs[3] != -coeffs[1]:
                raise ValueError("element is not real")
            return cls(Fraction(coeffs[0]) / den, Fraction(coeffs[1]) / den)
        if N == 9:  # real elements generally live in a cubic field
            conj = rng.conj(elt)
            if not np.array_equal(conj, elt):
                raise ValueError("element is not real")
            if all(c == 0 for c in coeffs[1:]):
                return cls(Fraction(coeffs[0]) / den)
            raise ExactOrderUnsupported(
                "real subfield of Q(zeta_9) has no exact order support"
            )
        raise ExactOrderUnsupported(f"no exact real extraction for N={N}")

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
        out = RealSurd(Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else (-1 if a * a < 2 * b * b else 0)
        return -1 if a * a > 2 * b * b else (1 if a * a < 2 * b * b else 0)

    def __eq__(self, other):
        return self.sign_of_diff(other) == 0

    def sign_of_diff(self, other) -> int:
        return (self - RealSurd.of(other)).sign()

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


ZERO_SURD = RealSurd(Fraction(0))
ONE_SURD = RealSurd(Fraction(1))
