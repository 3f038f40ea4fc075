"""Non-classical polynomials P : F_p^n -> R/Z in the canonical monomial basis.

A polynomial is a constant plus a sum of monomials

    c * |x_1|^{i_1} ... |x_n|^{i_n} / p^{j+1}   (mod 1),

with 0 <= i_l <= p-1, depth j >= 0, c in {1, ..., p-1} and |.| the standard
map F_p -> {0, ..., p-1}.  With M = ``max_depth_exponent()`` the same
polynomial is one integer array A of shape (p,)*n over Z/p^M,

    P(x) = sum_e A[e] |x|^e / p^M   (mod 1),

with A[0] the constant and the base-p digit of A[e] at p^(M-1-j) the
coefficient of the depth-j monomial with exponents e; both forms are
unique.  The p x p matrix V[x, e] = x^e has a unit determinant, so V along
each axis maps A to the value table and V^{-1} mod p^M maps a table back
(interpolation).  Sums and negations are integer operations on A; shifts
and derivatives roll the table and interpolate.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fpspace
from .errors import DimensionMismatch, NotRepresentable
from .fpspace import Vec, all_vectors, check_prime
from .torus import TorusValue

MAX_DEPTH = 6  # depth cap: desk-scale degrees k <= 5 need j <= (k-1)/(p-1) <= 4


@dataclass(frozen=True)
class Monomial:
    exponents: tuple  # i_1..i_n, each in 0..p-1, not all zero
    depth: int  # j >= 0; denominator is p^(j+1)
    coeff: int  # c in 1..p-1

    def degree(self, p: int) -> int:
        return sum(self.exponents) + self.depth * (p - 1)


def monomial_sort_key(p: int):
    return lambda m: (m.degree(p), m.depth, m.exponents)


@dataclass(frozen=True)
class NcPoly:
    p: int
    n: int
    constant: TorusValue
    monomials: tuple  # canonically sorted Monomials with coeff != 0

    def __post_init__(self):
        check_prime(self.p)
        if self.constant.m > MAX_DEPTH + 1:
            raise ValueError(f"constant depth exponent {self.constant.m} exceeds cap {MAX_DEPTH + 1}")
        for mono in self.monomials:
            if len(mono.exponents) != self.n:
                raise DimensionMismatch("monomial exponent length != n")
            if not (0 < mono.coeff < self.p):
                raise ValueError("monomial coefficient out of range")
            if not all(0 <= i < self.p for i in mono.exponents):
                raise ValueError("monomial exponent out of range")
            if sum(mono.exponents) == 0:
                raise ValueError("constant monomials belong in the constant")
            if mono.depth > MAX_DEPTH:
                raise ValueError(f"depth {mono.depth} exceeds cap {MAX_DEPTH}")

    @classmethod
    def make(cls, p: int, n: int, constant: TorusValue, monomials) -> "NcPoly":
        monos = tuple(sorted((m for m in monomials if m.coeff % p != 0), key=monomial_sort_key(p)))
        return cls(p, n, constant, monos)

    @classmethod
    def zero(cls, p: int, n: int) -> "NcPoly":
        return cls(p, n, TorusValue.zero(p), ())

    @classmethod
    def from_classical(cls, p: int, n: int, coeffs: dict, constant: int = 0) -> "NcPoly":
        """Classical polynomial from {exponent tuple: coefficient} mod p."""
        monos = [
            Monomial(tuple(e), 0, c % p)
            for e, c in coeffs.items()
            if c % p != 0 and sum(e) > 0
        ]
        return cls.make(p, n, TorusValue.from_fp(p, constant % p), monos)

    @classmethod
    def from_coeff_array(cls, p: int, n: int, A, M: int) -> "NcPoly":
        """The polynomial sum_e A[e] |x|^e / p^M, A of shape (p,)*n with int64 entries (any sign)."""
        flat, pts = (np.asarray(A, dtype=np.int64) % p**M).reshape(-1).tolist(), all_vectors(p, n)
        # the digit of A[e] at p^(M-1-j) is the depth-j coefficient; make() drops zero digits
        monos = [
            Monomial(pts[i], j, a // p ** (M - 1 - j) % p) for i, a in enumerate(flat) if i and a for j in range(M)
        ]
        return cls.make(p, n, TorusValue.make(p, flat[0], M), monos)

    def degree(self) -> int:
        return max((m.degree(self.p) for m in self.monomials), default=0)

    def is_classical(self) -> bool:
        return all(m.depth == 0 for m in self.monomials) and self.constant.m <= 1

    def max_depth_exponent(self) -> int:
        """Largest denominator exponent p^m among all values of the polynomial."""
        m = self.constant.m
        for mono in self.monomials:
            m = max(m, mono.depth + 1)
        return m

    def coeff_array(self, M: int) -> np.ndarray:
        """The array A over Z/p^M of the module docstring, shape (p,)*n, int64;
        M runs from ``max_depth_exponent()`` to MAX_DEPTH + 1."""
        if not self.max_depth_exponent() <= M <= MAX_DEPTH + 1:
            raise ValueError(f"depth exponent {M} is outside {self.max_depth_exponent()}..{MAX_DEPTH + 1}")
        A = np.zeros((self.p,) * self.n, dtype=np.int64)
        A[(0,) * self.n] = self.constant.scaled_num(M)
        for mono in self.monomials:
            A[mono.exponents] += mono.coeff * self.p ** (M - 1 - mono.depth)
        return A

    def table(self, M: int) -> np.ndarray:
        """P(x) * p^M mod p^M for every x in all_vectors order (int64)."""
        return _along_axes(_vandermonde(self.p, M, False), self.coeff_array(M), self.p**M).reshape(-1)

    def evaluate(self, x: Vec) -> TorusValue:
        """P at one point, monomial by monomial: the scalar reference for ``table``."""
        if len(x) != self.n:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.n}")
        total = self.constant
        for mono in self.monomials:
            prod = mono.coeff
            for xi, e in zip(x, mono.exponents):
                prod *= int(xi) ** e
            total = total + TorusValue.make(self.p, prod, mono.depth + 1)
        return total

    def value_table(self) -> list:
        M = self.max_depth_exponent()
        return [TorusValue.make(self.p, v, M) for v in self.table(M).tolist()]

    def shift(self, h: Vec) -> "NcPoly":
        """x -> P(x + h): the table rolled by -h along each axis, re-canonicalized."""
        if len(h) != self.n:
            raise DimensionMismatch(f"shift has length {len(h)}, expected {self.n}")
        M = self.max_depth_exponent()
        table = np.roll(self.table(M).reshape((self.p,) * self.n), [-int(c) for c in h], axis=tuple(range(self.n)))
        return _from_table(self.p, self.n, table, M)

    def add_derivative(self, h: Vec) -> "NcPoly":
        """Delta_h P(x) = P(x+h) - P(x), re-canonicalized."""
        return self.shift(h) - self

    def _plus(self, other: "NcPoly", sign: int) -> "NcPoly":
        if (self.p, self.n) != (other.p, other.n):
            raise DimensionMismatch("mixed ambient spaces")
        M = max(self.max_depth_exponent(), other.max_depth_exponent())
        return NcPoly.from_coeff_array(self.p, self.n, self.coeff_array(M) + sign * other.coeff_array(M), M)

    def __add__(self, other: "NcPoly") -> "NcPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "NcPoly":
        return NcPoly.zero(self.p, self.n) - self

    def __str__(self) -> str:
        parts = [str(self.constant)] if not self.constant.is_zero() else []
        for m in self.monomials:
            vars_ = "".join(
                f"|x{i+1}|^{e}" if e > 1 else f"|x{i+1}|"
                for i, e in enumerate(m.exponents)
                if e
            )
            parts.append(f"{m.coeff}*{vars_}/{self.p}^{m.depth+1}")
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _vandermonde(p: int, M: int, inverse: bool) -> np.ndarray:
    """V[x, e] = x^e mod p^M (x, e in 0..p-1), or V^{-1} mod p^M: the inverse
    mod p lifted by Newton steps X -> X (2 - V X), each doubling the precision."""
    mod = p**M
    V = np.array([[x**e for e in range(p)] for x in range(p)], dtype=np.int64)
    if not inverse:
        return V % mod
    X = np.array(fpspace.mat_inverse(p, (V % p).tolist()), dtype=np.int64)
    prec = 1
    while prec < M:
        X = X @ ((2 * np.eye(p, dtype=np.int64) - V @ X) % mod) % mod
        prec *= 2
    return X % mod


def _along_axes(mat: np.ndarray, arr: np.ndarray, mod: int) -> np.ndarray:
    """``mat`` (p x p, entries in 0..mod-1) applied along every axis of ``arr``, mod ``mod``.

    With mod = p^M, M <= MAX_DEPTH + 1 and |arr| < mod, every axis product
    sums p terms below p^(2M) <= 5^14, so it stays below 5^15 < 2^35 on int64.
    """
    for _ in range(arr.ndim):  # contract the leading axis, append the new one last
        arr = np.tensordot(arr, mat, axes=(0, 1)) % mod
    return arr


def _from_table(p: int, n: int, table: np.ndarray, M: int) -> NcPoly:
    """The polynomial with values table[x] / p^M, ``table`` of shape (p,)*n."""
    return NcPoly.from_coeff_array(p, n, _along_axes(_vandermonde(p, M, True), table, p**M), M)


def interpolate(p: int, n: int, table, degree_bound: int | None = None) -> NcPoly:
    """Unique canonical polynomial whose value table is ``table``.

    ``table`` is a sequence of TorusValue indexed in all_vectors order.
    Raises NotRepresentable (with a nonzero higher-difference witness) if a
    degree bound is given and the table needs degree > degree_bound.
    """
    if len(table) != p**n:
        raise DimensionMismatch(f"table has {len(table)} entries, expected {p}^{n}")
    M = max((tv.m for tv in table), default=0)
    if M > MAX_DEPTH + 1:
        raise ValueError(f"depth exponent {M} exceeds cap {MAX_DEPTH + 1}")
    scaled = np.array([tv.scaled_num(M) for tv in table], dtype=np.int64).reshape((p,) * n)
    poly = _from_table(p, n, scaled, M)
    if degree_bound is not None and poly.degree() > degree_bound:
        witness = _difference_witness(poly, degree_bound)
        raise NotRepresentable(
            f"table requires degree {poly.degree()} > bound {degree_bound}", witness=witness
        )
    return poly


def _difference_witness(poly: NcPoly, k: int):
    """Shifts (h_1, ..., h_{k+1}) and a point x with a nonzero difference.

    Exists whenever degree(poly) > k: greedily pick shifts that drop the
    degree by exactly one, so after k+1 differences the table is nonzero.
    """
    p, n = poly.p, poly.n
    pts = all_vectors(p, n)
    zero = NcPoly.zero(p, n)
    shifts = []
    for _ in range(k + 1):
        target = poly.degree() - 1  # >= 0: poly has degree > k - (shifts so far)
        for h in pts[1:]:  # the first shift that drops the degree by one
            diff = poly.add_derivative(h)
            if diff != zero and diff.degree() == target:
                break
        else:  # pragma: no cover
            raise NotRepresentable("witness search failed; table is lower degree than claimed")
        shifts.append(h)
        poly = diff
    return tuple(shifts) + (pts[int(np.flatnonzero(poly.table(poly.max_depth_exponent()))[0])],)


def basis_tuples(p: int, k: int, n: int, depth_allowed: bool = True):
    """All (exponents, depth) with 0 < sum(i) <= k - j(p-1), canonical order."""
    out = []
    max_j = (k - 1) // (p - 1) if k >= 1 else -1
    if not depth_allowed:
        max_j = min(max_j, 0)
    for j in range(max_j + 1):
        for expts in itertools.product(range(p), repeat=n):
            s = sum(expts)
            if 0 < s <= k - j * (p - 1):
                out.append((expts, j))
    return out


def degree_exactly_tuples(p: int, k: int, n: int, classical_only: bool = False):
    """All (exponents, depth) with sum(i) = k - j(p-1) exactly (degree k)."""
    return [
        (e, j)
        for (e, j) in basis_tuples(p, k, n, depth_allowed=not classical_only)
        if sum(e) + j * (p - 1) == k
    ]


def stable_seed(seed) -> int:
    """Deterministic integer seed from arbitrary (reprable) seed data."""
    if isinstance(seed, int):
        return seed
    import hashlib

    return int.from_bytes(hashlib.sha256(repr(seed).encode()).digest()[:8], "big")


def random_poly(p: int, n: int, k: int, depth_allowed: bool, seed) -> NcPoly:
    """Uniform over canonical representations of degree <= k; deterministic per seed."""
    rng = random.Random(stable_seed(seed))
    tuples = basis_tuples(p, k, n, depth_allowed)
    monomials = []
    for expts, j in tuples:
        c = rng.randrange(p)
        if c:
            monomials.append(Monomial(expts, j, c))
    max_m = 1 + max((j for _, j in tuples), default=0) if depth_allowed else 1
    const = TorusValue.make(p, rng.randrange(p**max_m), max_m)
    return NcPoly.make(p, n, const, monomials)
