"""Bounded functions on F_p^n, exact Gowers norms, correlations, and the
U^2 / U^3 inverse oracles.

Exact mode stores a function as an integer coefficient array over
Z[zeta_{p^m}] with a common denominator, so multiplicative derivatives,
character sums and Gowers-norm powers are exact ring elements; magnitude
comparisons go through ``RealSurd`` (rational or a + b*sqrt(2)) and never
through floats, and every argmax over candidate sums through one exact
kernel, ``first_max``.  One in-place character transform serves every
exact path (a Walsh-Hadamard butterfly for p = 2, a radix-3 butterfly on
the coefficient planes for p = 3).  Exact U^2..U^4 norms run one column
kernel: the transform of f, of each d_h f, or of each d_{h1} d_{h2} f
with symmetric shifts folded together, then sum |tau|^4, on int64 only
where a stated bound allows and on Python integers elsewhere.  Every phased
sum of a corner product runs one grouped kernel, ``phased_sum``: the
entries are summed per (label, exponent) class from one sort, and only the
class sums meet the roots of unity; ``base_point_argmax`` feeds it chunks
of the product with the base points as labels.  Float mode (complex tables)
exists for p = 5 demonstrations only.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache

import numpy as np

from . import fpspace
from .config import DEFAULT_BUDGET, Budget
from .cyclotomic import CycloRing, ExactOrderUnsupported, RealSurd, common_ring, real_parts, ring, surd_sign
from .errors import BudgetExceeded, DimensionMismatch, InternalCheckError, PreconditionError
from .fpspace import Subspace, Vec, all_vectors, vec_add, vec_index
from .ncpoly import Monomial, NcPoly, basis_tuples
from .torus import TorusValue


_INT64_MAX = 2**63 - 1


@lru_cache(maxsize=None)
def _shift_table(p: int, n: int) -> np.ndarray:
    """SHIFT[i, j] = index of (x_i + x_j) in all_vectors order."""
    size = p**n
    idx = np.arange(size)
    digits = np.empty((n, size), dtype=np.int64)
    rem = idx.copy()
    for a in range(n - 1, -1, -1):
        digits[a] = rem % p
        rem //= p
    # recombine digit-wise sums; first coordinate most significant
    acc = np.zeros((size, size), dtype=np.int64)
    for a in range(n):
        s = (digits[a][:, None] + digits[a][None, :]) % p
        acc = acc * p + s
    return acc


def corner_product(R: CycloRing, p: int, n: int, m: int, tables: dict, rows=None) -> np.ndarray:
    """Exact prod_S tables[S](sum of the variables in S) over (F_p^n)^m.

    ``tables`` maps bitmasks S over m index variables (bit i = variable i)
    to (degree, p^n) coefficient arrays in ring R; the result has shape
    (degree,) + (p^n,) * m, one axis per variable.  These are the corner
    products behind Gowers-Cauchy-Schwarz averages.  With ``rows``, the
    first variable runs over those indices only.

    Each ring product stays within degree^2 times its factors' largest
    coefficients, so the product, any sum of its entries, and one more
    product by a root of unity stay within degree^(2k) times the k tables'
    largest coefficients times the number of entries.  Past int64 that
    bound moves the tables to object dtype; ``phased_sum`` checks its own.
    """
    size = p**n
    bound = (size if rows is None else len(rows)) * size ** (m - 1) * R.degree ** (2 * len(tables))
    for tab in tables.values():
        bound *= int(np.abs(tab).max(initial=0))
    if bound > _INT64_MAX:
        tables = {S: tab.astype(object) for S, tab in tables.items()}
    sh = _shift_table(p, n)
    axes = [np.arange(size).reshape((1,) * i + (size,) + (1,) * (m - 1 - i)) for i in range(m)]
    if rows is not None:
        axes[0] = np.asarray(rows).reshape((-1,) + (1,) * (m - 1))
    prod = None
    for S, tab in sorted(tables.items()):
        idx = None
        for i in range(m):
            if S >> i & 1:
                idx = axes[i] if idx is None else sh[idx, axes[i]]
        factor = tab[:, idx]
        prod = factor if prod is None else R.mul_arrays(prod, factor)
    return prod


def phased_sum(R: CycloRing, p: int, prod: np.ndarray, expo: np.ndarray, den: int, labels=None, groups=None):
    """Exact sum of prod * omega_p^expo over all entries, divided by den.

    ``prod`` is a (degree, ...) coefficient array in ring R and ``expo`` an
    F_p exponent table broadcasting to its trailing shape.  With ``labels``,
    an integer table in range(``groups``) broadcasting the same way, the
    (degree, groups) array of the sums over each label, over the same den.

    The entries are summed per class (label, expo mod p): one stable argsort
    of the class keys, then ``np.add.reduceat`` over the runs of equal keys,
    so memory stays O(entries).  Only the groups x p class sums are
    multiplied by omega_p^t = zeta^{tN/p}, in one ring product, and added
    over t.  A class sum stays within entries max|prod|, its product by a
    root within degree^2 times that, and the sum over t within
    p degree^2 entries max|prod|; the sums run on int64 while that bound
    fits and on Python integers past it.
    """
    if R.N % p:
        raise PreconditionError(f"ring Z[zeta_{R.N}] has no {p}-th roots of unity")
    d, shape = prod.shape[0], prod.shape[1:]
    key = np.broadcast_to(np.asarray(expo) % p, shape)
    if labels is None:
        groups = 1
    else:
        key = np.broadcast_to(labels, shape) * p + key
    flat = prod.reshape(d, -1)
    if flat.dtype != object and p * d * d * flat.shape[1] * int(np.abs(flat).max(initial=0)) > _INT64_MAX:
        flat = flat.astype(object)
    order = np.argsort(key, axis=None, kind="stable")
    keys = key.reshape(-1)[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))  # one start per non-empty class
    sums = np.zeros((d, groups * p), dtype=flat.dtype)
    sums[:, keys[starts]] = np.add.reduceat(flat[:, order], starts, axis=1)
    roots = R.roots_to_coeffs(np.arange(p) * (R.N // p))  # (degree, p)
    sums = R.mul_arrays(sums.reshape(d, groups, p), roots[:, None, :]).sum(axis=2).astype(object)
    return CorrValue.from_sum(R, sums[:, 0], den) if labels is None else sums


def first_max(R: CycloRing, sums: np.ndarray) -> int:
    """Index of the first candidate of largest |.|^2 among the columns of a
    (degree, C) array of exact sums in R over one shared denominator.

    The squares are taken once, on Python integers, and compared exactly
    where ``real_parts`` reads them: in Z (N <= 4, rational squares in
    Z[zeta_9]) and in Z[sqrt 2] (N = 8).  The shared denominator does not
    change the order.
    """
    if sums.shape[1] == 0:
        raise PreconditionError("no candidates to maximise over")
    a, b = real_parts(R, R.mag_squared(np.asarray(sums, dtype=object)))
    if np.any(b):  # Z[zeta_8]: |z|^2 = a + b sqrt2
        a, b = a.tolist(), b.tolist()
        key = cmp_to_key(lambda i, j: surd_sign(a[i] - a[j], b[i] - b[j]))
    else:
        key = a.tolist().__getitem__
    return max(range(sums.shape[1]), key=key)  # max keeps the first of equal keys


def cube_corner_tables(R: CycloRing, tables: dict) -> dict:
    """corner_product tables over (x, h1, h2, h3) for the multiplicative
    derivative pattern: tables[S] sits at x + h_S (S a bitmask over the
    h's), conjugated when |S| is even."""
    return {1 | S << 1: (R.conj_arrays(t) if bin(S).count("1") % 2 == 0 else t) for S, t in tables.items()}


def base_point_argmax(
    R: CycloRing, p: int, n: int, m: int, tables: dict, expo, nbase: int = 1, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Index of the first base point maximising |sum prod * omega_p^expo|^2.

    ``prod`` is the corner_product of ``tables`` over m variables, summed
    per base point: a value of the first ``nbase`` variables, indexed in
    all_vectors order with the first variable major.  ``expo`` is an F_p
    exponent table over the variables after the first.  The maximum is at
    least the average over base points; ties keep the first.  The product
    is built a chunk of first-variable values at a time, max(1,
    _CHUNK_ENTRIES // p^{(m-1)n}) of them, and each chunk's base-point sums
    come from one ``phased_sum`` with the base points as labels.
    """
    size = p**n
    step = size ** (m - 1)
    if step * 8 > budget.enum_cap:
        raise BudgetExceeded("base-point argmax step too large")
    per_row = size ** (nbase - 1)
    # the base point of each entry of one first-variable value, over the other nbase - 1 variables
    base = np.arange(step).reshape((size,) * (m - 1)) // size ** (m - nbase)
    rows = max(1, _CHUNK_ENTRIES // step)
    sums = []
    for lo in range(0, size, rows):
        chunk = np.arange(lo, min(size, lo + rows))
        prod = corner_product(R, p, n, m, tables, rows=chunk)
        labels = (chunk - lo).reshape((-1,) + (1,) * (m - 1)) * per_row + base
        sums.append(phased_sum(R, p, prod, expo, 1, labels, len(chunk) * per_row))
    return first_max(R, np.concatenate(sums, axis=1))


def shift_indices(p: int, n: int, h: Vec) -> np.ndarray:
    """Array mapping index(x) -> index(x + h)."""
    return _shift_table(p, n)[vec_index(p, h)]


@dataclass(frozen=True)
class BoundedFunction:
    """A table of complex values on F_p^n with sup-norm <= 1.

    Exact mode: ``coeffs`` has shape (ring.degree, p^n) and value(x) =
    (sum_i coeffs[i, x] zeta^i) / den.  Float mode: ``values`` is a
    complex array and ``ring`` is None.
    """

    p: int
    n: int
    ring: CycloRing | None
    coeffs: np.ndarray | None = field(compare=False)
    den: int = 1
    values: np.ndarray | None = field(default=None, compare=False)
    # exponent table when the function is a pure root-of-unity phase;
    # carried so Gowers norms can run on integer exponent arithmetic
    exps: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.ring is not None:
            R, c = self.ring, self.coeffs
            if c.shape != (R.degree, self.p**self.n):
                raise DimensionMismatch("coefficient array has wrong shape")
            # a product or |.|^2 of two values stays within (p - 1) degree^2 max|coeff|^2
            # (conjugates within (p - 1) max|coeff|); past int64 the table is kept on Python integers
            if c.dtype != object and (R.p - 1) * R.degree**2 * int(np.abs(c).max(initial=0)) ** 2 > _INT64_MAX:
                object.__setattr__(self, "coeffs", c.astype(object))

    # -- constructors --

    @classmethod
    def ones(cls, p: int, n: int) -> "BoundedFunction":
        R = ring(p, 0)
        c = np.ones((1, p**n), dtype=np.int64)
        return cls(p, n, R, c, 1, exps=np.zeros(p**n, dtype=np.int64))

    @classmethod
    def from_exponents(cls, p: int, n: int, m: int, exps) -> "BoundedFunction":
        """Unimodular function zeta_{p^m}^{exps[x]}."""
        R = ring(p, m)
        exps = np.asarray(exps, dtype=np.int64) % R.N
        if exps.shape != (p**n,):
            raise DimensionMismatch("exponent table has wrong length")
        return cls(p, n, R, R.roots_to_coeffs(exps).astype(np.int64), 1, exps=exps)

    @classmethod
    def from_poly_phase(cls, P: NcPoly, conjugate: bool = False) -> "BoundedFunction":
        """The polynomial phase e^{2 pi i P(x)} (conjugated if requested)."""
        m = max(1, P.max_depth_exponent())
        t = P.table(m)
        return cls.from_exponents(P.p, P.n, m, -t if conjugate else t)

    @classmethod
    def from_complex_values(cls, p: int, n: int, values) -> "BoundedFunction":
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != (p**n,):
            raise DimensionMismatch("value table has wrong length")
        if (np.abs(vals) > 1 + 1e-9).any():
            raise PreconditionError("function exceeds sup-norm 1")
        return cls(p, n, None, None, 1, vals)

    # -- basic data access --

    @property
    def exact(self) -> bool:
        return self.ring is not None

    @property
    def size(self) -> int:
        return self.p**self.n

    def value_complex(self, x: Vec) -> complex:
        i = vec_index(self.p, x)
        if self.exact:
            return self.ring.to_complex(self.coeffs[:, i]) / self.den
        return complex(self.values[i])

    def to_complex_table(self) -> np.ndarray:
        if not self.exact:
            return self.values.copy()
        N = self.ring.N
        roots = np.array(
            [complex(math.cos(2 * math.pi * i / N), math.sin(2 * math.pi * i / N)) for i in range(self.ring.degree)]
        )
        return (roots @ self.coeffs) / self.den

    def check_bounded(self) -> bool:
        """Exact sup-norm check where the ring supports it, float otherwise."""
        if not self.exact:
            return bool((np.abs(self.values) <= 1 + 1e-9).all())
        d2 = self.ring.mag_squared(self.coeffs)
        den2 = self.den**2
        try:
            a, b = real_parts(self.ring, d2)  # |value|^2 = (a + b sqrt 2) / den^2, b = 0 outside Z[zeta_8]
        except ExactOrderUnsupported:  # one column at a time, float where a column has no exact order
            bound = RealSurd(Fraction(den2))
            for col in range(d2.shape[1]):
                try:
                    if RealSurd.from_ring_element(self.ring, d2[:, col]) > bound:
                        return False
                except ExactOrderUnsupported:
                    if abs(self.ring.to_complex(d2[:, col])) > den2 + 1e-6:
                        return False
            return True
        rational = b == 0
        if (a[rational] > den2).any():
            return False
        return all(surd_sign(int(x) - den2, int(y)) <= 0 for x, y in zip(a[~rational], b[~rational]))

    # -- exact-mode arithmetic --

    def embed(self, target: CycloRing) -> "BoundedFunction":
        if not self.exact:
            raise PreconditionError("cannot embed a float-mode function")
        if target.N == self.ring.N:
            return self
        M = self.ring.embed_matrix(target)
        step = target.N // self.ring.N
        new_exps = (self.exps * step) % target.N if self.exps is not None else None
        return BoundedFunction(self.p, self.n, target, (self.coeffs.T @ M).T, self.den, exps=new_exps)

    def conj(self) -> "BoundedFunction":
        if self.exact:
            new_exps = (-self.exps) % self.ring.N if self.exps is not None else None
            return BoundedFunction(
                self.p, self.n, self.ring, self.ring.conj_arrays(self.coeffs), self.den, exps=new_exps
            )
        return BoundedFunction(self.p, self.n, None, None, 1, np.conj(self.values))

    def shift_arg(self, h: Vec) -> "BoundedFunction":
        """x -> f(x + h)."""
        sh = shift_indices(self.p, self.n, h)
        if self.exact:
            new_exps = self.exps[sh] if self.exps is not None else None
            return BoundedFunction(self.p, self.n, self.ring, self.coeffs[:, sh], self.den, exps=new_exps)
        return BoundedFunction(self.p, self.n, None, None, 1, self.values[sh])

    def mul(self, other: "BoundedFunction") -> "BoundedFunction":
        if (self.p, self.n) != (other.p, other.n):
            raise DimensionMismatch("functions on different spaces")
        if self.exact and other.exact:
            R = common_ring(self.ring, other.ring)
            a, b = self.embed(R), other.embed(R)
            new_exps = None
            if a.exps is not None and b.exps is not None:
                new_exps = (a.exps + b.exps) % R.N
            return BoundedFunction(
                self.p, self.n, R, R.mul_arrays(a.coeffs, b.coeffs), a.den * b.den, exps=new_exps
            )
        va = self.to_complex_table() if self.exact else self.values
        vb = other.to_complex_table() if other.exact else other.values
        return BoundedFunction(self.p, self.n, None, None, 1, va * vb)

    def mult_derivative(self, h: Vec) -> "BoundedFunction":
        """d_h f(x) = f(x+h) * conj(f(x)); 1-bounded, exact when f is."""
        return self.shift_arg(h).mul(self.conj())

    def restrict_to_coset(self, U: Subspace, shift: Vec) -> "BoundedFunction":
        """The function c -> f(shift + U.basis . c) on F_p^{dim U}."""
        cols = [
            vec_index(self.p, vec_add(self.p, shift, fpspace.embed_from_subspace(U, c)))
            for c in all_vectors(self.p, U.dim)
        ]
        if self.exact:
            new_exps = self.exps[cols] if self.exps is not None else None
            return BoundedFunction(self.p, U.dim, self.ring, self.coeffs[:, cols], self.den, exps=new_exps)
        return BoundedFunction(self.p, U.dim, None, None, 1, self.values[cols])

    def with_replaced_values(self, replacements: dict) -> "BoundedFunction":
        """Exact-mode pointwise replacement {x: exponent in current ring}."""
        if not self.exact:
            raise PreconditionError("float mode not supported here")
        c = self.coeffs.copy()
        new_exps = self.exps.copy() if self.exps is not None and self.den == 1 else None
        for x, t in replacements.items():
            c[:, vec_index(self.p, x)] = self.ring.root(t) * self.den
            if new_exps is not None:
                new_exps[vec_index(self.p, x)] = t % self.ring.N
        return BoundedFunction(self.p, self.n, self.ring, c, self.den, exps=new_exps)

    def restricted_exps(self) -> np.ndarray | None:
        return self.exps if (self.exps is not None and self.den == 1) else None


# -- exact scalar results --


@dataclass(frozen=True)
class CorrValue:
    """An exact complex average S / den with |.|^2 available exactly."""

    ring: CycloRing | None
    num: np.ndarray | None  # ring element
    den: int
    float_value: complex

    @classmethod
    def from_sum(cls, R: CycloRing, num: np.ndarray, den: int) -> "CorrValue":
        return cls(R, num, den, R.to_complex(num) / den)

    @classmethod
    def from_float(cls, z: complex) -> "CorrValue":
        return cls(None, None, 1, complex(z))

    @property
    def exact(self) -> bool:
        return self.ring is not None

    def _num_mag2(self) -> np.ndarray:
        """|num|^2 on Python integers: the square of an int64 sum can pass int64."""
        return self.ring.mag_squared(np.asarray(self.num, dtype=object))

    def mag2(self) -> RealSurd:
        """|value|^2 as an exact RealSurd; raises if the ring cannot order."""
        if not self.exact:
            raise ExactOrderUnsupported("float-mode correlation")
        return RealSurd.from_ring_element(self.ring, self._num_mag2(), self.den**2)

    def modulus_float(self) -> float:
        return abs(self.float_value)

    def mag2_is_one(self) -> bool:
        if not self.exact:
            return abs(abs(self.float_value) - 1) < 1e-9
        one = np.zeros(self.ring.degree, dtype=object)
        one[0] = self.den**2
        return np.array_equal(self._num_mag2(), one)

    def __str__(self):
        return f"|{self.float_value:.6g}|"


@dataclass(frozen=True)
class GowersNormValue:
    """Exact 2^d-th power of a U^d norm, with float norm for reporting."""

    d: int
    ring: CycloRing | None
    power_num: tuple  # ring element as a tuple of ints (real value)
    power_den: int
    float_power: float

    @classmethod
    def from_parts(cls, d: int, R: CycloRing, num, den: int) -> "GowersNormValue":
        num = np.asarray(num)
        if not np.array_equal(R.conj_arrays(num), num):
            raise InternalCheckError("Gowers norm power is not real")
        return cls(d, R, tuple(int(v) for v in num), den, R.to_complex(num).real / den)

    @classmethod
    def from_float(cls, d: int, value: float) -> "GowersNormValue":
        return cls(d, None, (), 1, float(value))

    @property
    def exact(self) -> bool:
        return self.ring is not None

    def power_surd(self) -> RealSurd:
        if not self.exact:
            raise ExactOrderUnsupported("float-mode norm")
        return RealSurd.from_ring_element(self.ring, np.array(self.power_num, dtype=object), self.power_den)

    def norm_float(self) -> float:
        return max(self.float_power, 0.0) ** (1.0 / (1 << self.d))

    def is_one(self) -> bool:
        if not self.exact:
            return abs(self.float_power - 1.0) < 1e-9
        num = np.array(self.power_num, dtype=object)
        one = np.zeros_like(num)
        one[0] = self.power_den
        return np.array_equal(num, one)

    def __str__(self):
        return f"U^{self.d} = {self.norm_float():.6g}"


# -- exact character transform --


def _wht_inplace(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform over axis 1 of a (planes, 2^n, columns) array.

    The transform axis is outermost within a plane, so every butterfly
    runs over contiguous blocks of at least one row of columns.
    """
    planes, size, cols = a.shape
    h = 1
    while h < size:
        v = a.reshape(planes, size // (2 * h), 2, h * cols)
        x0 = v[:, :, 0]
        x1 = v[:, :, 1]
        tmp = x0 - x1
        x0 += x1
        x1[...] = tmp
        h *= 2
    return a


def _radix3_inplace(a: np.ndarray, sign: int) -> np.ndarray:
    """Character transform sum_x a(x) omega^{sign <chi, x>} over axis 1 of a
    (planes, 3^n, columns) array of Z[zeta_{3^m}] coefficient planes, m >= 1.

    With e = 3^{m-1} and z = A + zeta^e B (A, B the low and high halves of
    the planes), omega = zeta^e acts as omega z = -B + zeta^e (A - B).  Each
    butterfly maps (x0, x1, x2) to x0 + x1 + x2, t + w and t - (v + w), with
    v = x1 - x2, t = x0 - x2 and w = omega v; these are x0 + omega^{+-1} x1 +
    omega^{-+1} x2.  Every intermediate is a ring element no larger in any
    embedding than a stage output, which bounds its coefficients.
    """
    planes, size, cols = a.shape
    e = planes // 2
    h = 1
    while h < size:
        v3 = a.reshape(planes, size // (3 * h), 3, h * cols)
        x0, x1, x2 = v3[:, :, 0], v3[:, :, 1], v3[:, :, 2]
        v = x1 - x2
        t = x0 - x2
        w = np.empty_like(v)
        w[:e] = -v[e:]
        w[e:] = v[:e] - v[e:]
        x0 += x1
        x0 += x2
        v += w
        y_plus = t + w  # x0 + omega x1 + omega^2 x2
        t -= v  # x0 + omega^2 x1 + omega x2
        x1[...], x2[...] = (y_plus, t) if sign > 0 else (t, y_plus)
        h *= 3
    return a


def _transform_inplace(R: CycloRing, p: int, a: np.ndarray, sign: int) -> np.ndarray:
    """Exact character transform over axis 1 of (degree, p^n, columns) planes in R."""
    if not a.flags.c_contiguous:  # the butterflies write through reshaped views
        raise InternalCheckError("in-place transform needs a C-contiguous array")
    if p == 2:
        return _wht_inplace(a)
    if p != 3:
        raise PreconditionError(f"exact transform unsupported for p={p}")
    if R.N % 3:
        raise PreconditionError(f"ring Z[zeta_{R.N}] has no cube roots of unity")
    return _radix3_inplace(a, sign)


def char_transform(fn: BoundedFunction, sign: int = -1) -> np.ndarray:
    """tau[chi] = sum_x f_num(x) * omega_p^{sign <chi, x>}, chi in vector order."""
    return _transform_array(fn.ring, fn.p, fn.n, fn.coeffs, sign)


def _transform_array(R: CycloRing, p: int, n: int, coeffs: np.ndarray, sign: int) -> np.ndarray:
    """The character transform along the last axis of a (degree, ..., p^n) array.

    An integer input stays on int64 only when every coefficient of the
    transform fits: a value z has |s(z)| <= sum |coeff| in every embedding s,
    its transform at most p^n times that, and each coefficient of an element
    is at most sqrt(p - 1) times its largest embedding; otherwise the
    transform runs on object dtype.
    """
    d, size = coeffs.shape[0], p**n
    a = coeffs.reshape(d, -1, size).transpose(0, 2, 1)
    dt = object
    if a.dtype != object and a.size:
        top = d * size * int(np.abs(a).max())
        dt = np.int64 if (p - 1) * top * top <= _INT64_MAX**2 else object
    a = np.array(a, dtype=dt, order="C")
    _transform_inplace(R, p, a, sign)
    return a.transpose(0, 2, 1).reshape(coeffs.shape)


# -- exact Gowers norms: one column kernel --

# transform entries per ring plane in one chunk of columns; a chunk's int64
# intermediates then take a few hundred kB at any n
_CHUNK_ENTRIES = 1 << 15


def _modulus_bound_sq(R: CycloRing, coeffs: np.ndarray) -> int:
    """An integer M2 with |s(z)|^2 <= M2 for every value z and embedding s.

    |s(z)|^2 = s(z conj z) is at most the sum of |coefficients| of z conj z:
    exact for Z, Z[i] and Z[omega], and 1 for roots of unity in any ring.
    That sum stays within degree^3 (p - 1) max|coeff|^2, or runs on object
    dtype.
    """
    c = coeffs
    if c.dtype != object:
        top = int(np.abs(c).max(initial=0))
        if R.degree**3 * (R.p - 1) * top * top > _INT64_MAX:
            c = c.astype(object)
    return int(np.abs(R.mag_squared(c)).sum(axis=0).max(initial=0))


def _derivative_orbits(p: int, n: int, d: int) -> tuple:
    """Representative shifts of the U^d columns, with the number of shifts each stands for.

    Column (h_1, ..., h_{d-2}) is d_{h_1} ... d_{h_{d-2}} f.  For d = 4 it is
    symmetric in (h1, h2), and for every d the shifts -h give the column
    x -> conj(g(x - h_1 - ... - h_{d-2})), whose transform has the same |tau|^2
    values as ring elements.  So each orbit of shifts under swapping and
    joint negation contributes its size times one column.  Returns the index
    arrays of the representatives (one per shift, all_vectors order) and the
    orbit sizes.
    """
    size = p**n
    if d == 2:
        return (), np.ones(1, dtype=np.int64)
    if d == 3:
        hs, weights = (np.arange(size),), np.ones(size, dtype=np.int64)
    else:
        h1, h2 = np.triu_indices(size)
        hs, weights = (h1, h2), np.where(h1 == h2, 1, 2)
    if p == 2:  # -h = h
        return hs, weights
    neg = _shift_table(p, n).argmin(axis=1)  # x + neg[x] = 0
    key = hs[0] * size + hs[-1]
    negs = neg[np.array(hs)]
    nkey = negs.min(axis=0) * size + negs.max(axis=0)  # the negated shifts, sorted
    keep = key <= nkey
    return tuple(h[keep] for h in hs), (weights * np.where(key == nkey, 1, 2))[keep]


def _exponent_columns(R: CycloRing, p: int, n: int, exps: np.ndarray, hs: tuple, dtype):
    """Column source of a phase zeta^exps: coefficient planes of zeta^E for the
    exponent E of each derivative column, read from one table."""
    N = R.N
    # ext[:, t] holds the coefficients of zeta^(t - 2N) for 0 <= t < 4N
    ext = R._reduce[np.arange(-2 * N, 2 * N) % N].T.astype(dtype)
    if not hs:
        return lambda part: np.take(ext, exps[:, None] + 2 * N, axis=1)
    sh = _shift_table(p, n)
    esh = exps[sh]  # esh[x, h] = e(x + h)
    # the sign of e(x) in the column's exponent, plus the 2N offset into ext
    base = (2 * N + (-1) ** len(hs) * exps)[:, None]

    def columns(part):
        if len(hs) == 1:
            E = esh[:, hs[0][part]]
        else:
            a, b = hs[0][part], hs[1][part]
            E = esh[:, sh[a, b]]
            E -= esh[:, a]
            E -= esh[:, b]
        E += base
        return np.take(ext, E, axis=1)

    return columns


def _value_columns(R: CycloRing, p: int, n: int, coeffs: np.ndarray, hs: tuple):
    """Column source of ring values: first-derivative table D[:, x, h] =
    f(x + h) conj f(x), and d_{h1} d_{h2} f(x) = D(x + h1, h2) conj D(x, h2)."""
    if not hs:
        return lambda part: coeffs[:, :, None]
    sh = _shift_table(p, n)
    cc = R.conj_arrays(coeffs)
    if len(hs) == 1:
        return lambda part: R.mul_arrays(np.take(coeffs, sh[:, hs[0][part]], axis=1), cc[:, :, None])
    D = R.mul_arrays(coeffs[:, sh], cc[:, :, None])
    Dc = R.conj_arrays(D)
    size = p**n

    def columns(part):
        a, b = hs[0][part], hs[1][part]
        # D(x + a, b) through one flat index: a gather with two index arrays is slower
        return R.mul_arrays(np.take(D.reshape(R.degree, -1), sh[:, a] * size + b, axis=1), Dc[:, :, b])

    return columns


# |z|^2 for z = sum a_i zeta^i as quadratic forms in the a_i, terms (i, j, sign):
# Z, Z[i] and Z[omega] give one integer A; Z[zeta_8] gives A + B*sqrt2
_MAG2_FORMS = {
    1: ([(0, 0, 1)],),
    2: ([(0, 0, 1)],),
    3: ([(0, 0, 1), (0, 1, -1), (1, 1, 1)],),
    4: ([(0, 0, 1), (1, 1, 1)],),
    8: ([(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)], [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)]),
}


def _mag4_sums(R: CycloRing, tau: np.ndarray, weights: np.ndarray, dtype) -> tuple:
    """Weighted sum of sum_chi |tau|^4 over all columns, as ring coefficients.

    ``tau`` holds the transform of each ring-coefficient plane, shape
    (degree, p^n, columns); column j counts ``weights[j]`` times.  |tau|^2 has
    a closed form (``_MAG2_FORMS``) for Z, Z[i], Z[omega] and Z[zeta_8], where
    |z|^2 = A + B*sqrt2 and |z|^4 = (A^2 + 2 B^2) + 2AB*sqrt2.  Other rings sum
    the Gram matrix of the |tau|^2 planes and fold it with zeta^{i+j}.  Each
    column is summed on ``dtype``, then weighted on ``weights``' dtype;
    ``_kernel_dtypes`` bounds both.
    """

    def total(x, y):
        return int(weights @ np.einsum("xc,xc->c", x, y))

    def form(terms):  # products cast plane by plane, accumulated in place
        out = np.multiply(tau[terms[0][0]], tau[terms[0][1]], dtype=dtype)
        for i, j, sign in terms[1:]:
            (np.add if sign > 0 else np.subtract)(out, np.multiply(tau[i], tau[j], dtype=dtype), out=out)
        return out

    forms = _MAG2_FORMS.get(R.N)
    if forms is None:
        m2 = R.mag_squared(tau.astype(dtype))
        gram = np.zeros((R.degree, R.degree), dtype=object)
        for i, j in zip(*np.triu_indices(R.degree)):
            gram[i, j] = gram[j, i] = total(m2[i], m2[j])
        return tuple(int(c) for c in R._fold @ gram.ravel())  # the product's fold, zeta^{i+j}
    A = form(forms[0])
    if R.N != 8:
        return (total(A, A),) + (0,) * (R.degree - 1)
    B = form(forms[1])
    c1 = 2 * total(A, B)
    return (total(A, A) + 2 * total(B, B), c1, 0, -c1)


def _kernel_dtypes(p: int, n: int, degree: int, K: int, step: int, weight: int) -> tuple:
    """dtypes of the column kernel: (values, transform planes, column sums, chunk sums).

    Every column g on F_p^n has |s(g(x))|^2 <= K in every embedding s; chunks
    hold ``step`` columns of weight at most ``weight``.  The transform has
    |s(tau)| <= p^n sqrt K, and sum_chi |s(tau)|^4 <= p^{4n} K^2 (Parseval).
    The trace form of Z[zeta_{p^m}] is at least p^{m-1} times the square
    norm on the power basis, so a coefficient of an element is at most
    sqrt(p - 1) times its largest embedding, and a column's sum of |tau|^4,
    as closed forms or as a Gram matrix of the |tau|^2 planes, stays within
    (p - 1) p^{4n} K^2.  A ring product stays within degree^2 times the
    largest coefficients of its factors, so columns, transforms and |tau|^2
    stay within (p - 1) degree^2 p^{2n} K.  The planes take the narrowest
    integer type that holds sqrt((p - 1) K) p^n; a stage that passes int64
    runs on object dtype, and so does everything after it.
    """
    size = p**n
    if (p - 1) * degree**2 * size**2 * K > _INT64_MAX:
        return object, object, object, object
    top = math.isqrt((p - 1) * K * size**2) + 1
    planes = next(dt for dt in (np.int16, np.int32, np.int64) if np.iinfo(dt).max >= top)
    col_bound = (p - 1) * size**4 * K**2
    if col_bound > _INT64_MAX:
        return np.int64, planes, object, object
    return np.int64, planes, np.int64, np.int64 if step * weight * col_bound <= _INT64_MAX else object


def _gowers_columns(fn: BoundedFunction, d: int) -> GowersNormValue:
    """Exact ||f||_{U^d}^{2^d}, d in {2, 3, 4}, over one column kernel.

    Every U^2 base case is one column g on F_p^n: f itself (d = 2), d_h f
    (d = 3), or d_{h1} d_{h2} f (d = 4), one column per orbit of
    ``_derivative_orbits``.  Columns go through the character transform in
    chunks, in place, and sum_chi |tau|^4 is summed with the orbit sizes as
    weights.  A phase carrying ``exps`` builds its columns from exponents,
    anything else from ring products of its values.  With |s(f(x))|^2 <= M2
    in every embedding s, a column has |s(g)|^2 <= M2^(2^(d-2)), which
    ``_kernel_dtypes`` turns into the dtype of each stage.
    """
    p, n, R = fn.p, fn.n, fn.ring
    size = p**n
    exps = fn.restricted_exps()
    M2 = 1 if exps is not None else _modulus_bound_sq(R, fn.coeffs)
    hs, weights = _derivative_orbits(p, n, d)
    # value columns carry int64 gathers and ring products on every plane:
    # 2 * degree times narrower chunks keep their memory near the exponent path's
    step = max(1, _CHUNK_ENTRIES // (size if exps is not None else 2 * size * R.degree))
    K = M2 ** (1 << (d - 2))
    values_dt, plane_dt, sum_dt, acc_dt = _kernel_dtypes(p, n, R.degree, K, step, int(weights.max()))
    weights = weights.astype(acc_dt)
    if exps is not None:
        columns = _exponent_columns(R, p, n, exps, hs, plane_dt)
    else:
        columns = _value_columns(R, p, n, fn.coeffs.astype(values_dt), hs)
    total = [0] * R.degree
    for start in range(0, len(weights), step):
        part = slice(start, start + step)
        tau = _transform_inplace(R, p, np.ascontiguousarray(columns(part), dtype=plane_dt), -1)
        for i, c in enumerate(_mag4_sums(R, tau, weights[part], sum_dt)):
            total[i] += c
    return GowersNormValue.from_parts(d, R, np.array(total, dtype=object), size ** (d + 2) * fn.den ** (1 << d))


def _with_pth_roots(fn: BoundedFunction) -> BoundedFunction:
    """fn in a ring with p-th roots of unity, which the transform needs for odd p."""
    return fn.embed(common_ring(fn.ring, ring(fn.p, 1))) if fn.p % 2 and fn.ring.N % fn.p else fn


def gowers_norm(
    fn: BoundedFunction, d: int, budget: Budget = DEFAULT_BUDGET
) -> GowersNormValue:
    """Exact U^d norm, as its 2^d-th power, for d in {2, 3, 4}.

    Each power is a sum of |tau|^4 over the character transforms of one
    column per derivative shift (``_gowers_columns``): f for U^2, d_h f for
    U^3, d_{h1} d_{h2} f for U^4, with symmetric shifts folded together.
    Phases carrying ``exps`` build their columns from exponent tables,
    other exact functions from ring products.  Float-mode functions, and
    exact ones for d > 4, average U^{d-1}(d_h f)^{2^{d-1}} over all shifts h.
    """
    if d < 2:
        raise PreconditionError("Gowers norms need d >= 2")
    p, n = fn.p, fn.n
    work = p ** ((d - 2) * n) * p**n * max(n, 1)
    if work > budget.gowers_cap:
        raise BudgetExceeded(f"U^{d} work {work} exceeds budget {budget.gowers_cap}")
    if not fn.exact:
        return GowersNormValue.from_float(d, _float_gowers_power(fn, d))
    fn = _with_pth_roots(fn)
    if d <= 4:
        return _gowers_columns(fn, d)
    # object coefficients keep the derivatives exact at any size
    fn = BoundedFunction(p, n, fn.ring, fn.coeffs.astype(object), fn.den, exps=fn.exps)
    total = sum(np.array(gowers_norm(fn.mult_derivative(h), d - 1, budget).power_num, dtype=object)
                for h in all_vectors(p, n))
    return GowersNormValue.from_parts(d, fn.ring, total, p ** ((d + 2) * n) * fn.den ** (1 << d))


def _float_gowers_power(fn: BoundedFunction, d: int) -> float:
    vals = fn.to_complex_table()
    p, n = fn.p, fn.n
    sh = _shift_table(p, n)

    def power(v, dd):
        if dd == 2:
            tau = _float_transform(p, n, v)
            return float((np.abs(tau) ** 4).sum() / p ** (4 * n))
        return float(np.mean([power(v[sh[vec_index(p, h)]] * np.conj(v), dd - 1) for h in all_vectors(p, n)]))

    return power(vals, d)


def _float_transform(p: int, n: int, vals: np.ndarray) -> np.ndarray:
    w = np.exp(-2j * np.pi / p)
    arr = vals.reshape((p,) * n)
    F = np.array([[w ** (i * j) for j in range(p)] for i in range(p)])
    for axis in range(n):
        arr = np.tensordot(F, arr, axes=([1], [axis]))
        arr = np.moveaxis(arr, 0, axis)
    return arr.reshape(-1)


def direct_gowers_power(fn: BoundedFunction, d: int, budget: Budget = DEFAULT_BUDGET):
    """Definition-chasing oracle: average the full 2^d-corner product.

    Exact functions run on object (Python integer) coefficients, so no
    product or sum can wrap.
    """
    p, n = fn.p, fn.n
    if p ** ((d + 1) * n) > budget.enum_cap:
        raise BudgetExceeded("direct Gowers sum too large")
    if fn.exact:
        fn = BoundedFunction(p, n, fn.ring, fn.coeffs.astype(object), fn.den)

    def rec(g: BoundedFunction, depth: int):
        if depth == 0:
            if g.exact:
                return g.coeffs.astype(object).sum(axis=1), g.den
            return g.values.sum(), 1
        acc = None
        den = None
        for h in all_vectors(p, n):
            num, dd = rec(g.mult_derivative(h), depth - 1)
            acc = num if acc is None else acc + num
            den = dd
        return acc, den * p**n

    num, den = rec(fn, d)
    if fn.exact:
        return GowersNormValue.from_parts(d, fn.ring, np.asarray(num, dtype=object), den * p**n)
    return GowersNormValue.from_float(d, (num / (den * p**n)).real)


# -- correlations and inverse oracles --


def correlation(fn: BoundedFunction, P: NcPoly) -> CorrValue:
    """|E_x f(x) e^{-2 pi i P(x)}| data, exact for exact inputs."""
    if (fn.p, fn.n) != (P.p, P.n):
        raise DimensionMismatch("function and polynomial on different spaces")
    phase = BoundedFunction.from_poly_phase(P, conjugate=True)
    prod = fn.mul(phase)
    if prod.exact:
        return CorrValue.from_sum(prod.ring, prod.coeffs.sum(axis=1), prod.den * fn.size)
    return CorrValue.from_float(prod.values.mean())


def average(fn: BoundedFunction) -> CorrValue:
    if fn.exact:
        return CorrValue.from_sum(fn.ring, fn.coeffs.sum(axis=1), fn.den * fn.size)
    return CorrValue.from_float(fn.values.mean())


def u2_inverse(fn: BoundedFunction) -> tuple[Vec, CorrValue]:
    """Exact argmax character: chi maximizing |E f(x) omega^{-<chi, x>}|.

    Also asserts the Plancherel bound corr^2 >= ||f||_{U^2}^4.
    """
    if not fn.exact:
        tau = _float_transform(fn.p, fn.n, fn.values) / fn.size
        best = int(np.argmax(np.abs(tau)))
        return all_vectors(fn.p, fn.n)[best], CorrValue.from_float(tau[best])
    fn = _with_pth_roots(fn)
    R = fn.ring
    tau = char_transform(fn, sign=-1)
    best = first_max(R, tau)
    corr = CorrValue.from_sum(R, tau[:, best], fn.size * fn.den)
    u2 = gowers_norm(fn, 2)
    try:
        if not (corr.mag2() >= u2.power_surd()):  # pragma: no cover
            raise InternalCheckError("Plancherel bound corr^2 >= U2^4 failed")
    except ExactOrderUnsupported:  # pragma: no cover
        pass
    return all_vectors(fn.p, fn.n)[best], corr


@lru_cache(maxsize=None)
def _quadratic_candidates(p: int, n: int, classical_only: bool):
    """Monomial tuples of degree <= 2 and their exponent tables, ring depth."""
    tuples = basis_tuples(p, 2, n, depth_allowed=not classical_only)
    m = 1 + max((j for _, j in tuples), default=0)
    zero = TorusValue.zero(p)
    return tuples, m, [NcPoly(p, n, zero, (Monomial(e, j, 1),)).table(m) for e, j in tuples]


def _candidate_exponents(p: int, n: int, tuples, m: int, tables):
    """Every candidate coefficient tuple, in itertools.product order, and the
    exponent table of its quadratic phase over Z/p^m, one row per candidate."""
    cands = list(itertools.product(range(p), repeat=len(tuples)))
    C = np.array(cands, dtype=np.int64).reshape(len(cands), len(tuples))
    return cands, C @ np.array(tables, dtype=np.int64).reshape(len(tuples), p**n) % p**m


def u3_inverse_bruteforce(
    fn: BoundedFunction,
    classical_only: bool = False,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[NcPoly, CorrValue]:
    """Exact argmax over all degree-<=2 polynomials mod constants.

    Enumeration over the canonical quadratic coefficient tuples; every
    candidate's correlation sum comes from one ring product of f with the
    conjugate candidate phases, chunked by ``_CHUNK_ENTRIES``, and the first
    maximum in enumeration order wins (``first_max``).  This is an oracle
    by enumeration, not a proof-driven inverse theorem.
    """
    p, n = fn.p, fn.n
    tuples, m, tables = _quadratic_candidates(p, n, classical_only)
    ncand = p ** len(tuples)
    if ncand > budget.quad_oracle_cap:
        raise BudgetExceeded(f"{ncand} quadratic candidates exceed the oracle budget")
    cands, exps = _candidate_exponents(p, n, tuples, m, tables)
    if not fn.exact:
        return _u3_oracle_float(fn, tuples, m, cands, exps)
    R = common_ring(fn.ring, ring(p, m))
    coeffs = fn.embed(R).coeffs
    # a candidate's sum stays within degree^2 size max|f|
    if R.degree**2 * fn.size * int(np.abs(coeffs).max(initial=0)) > _INT64_MAX:
        coeffs = coeffs.astype(object)
    exps = exps * (R.N // p**m)
    step = max(1, _CHUNK_ENTRIES // fn.size)
    sums = np.concatenate([
        R.mul_arrays(coeffs[:, None], R.roots_to_coeffs(-exps[i : i + step])).sum(axis=2)
        for i in range(0, len(cands), step)
    ], axis=1)
    best = first_max(R, sums)
    Q = _poly_from_candidate(p, n, tuples, cands[best])
    return Q, CorrValue.from_sum(R, sums[:, best], fn.size * fn.den)


def _poly_from_candidate(p, n, tuples, cand) -> NcPoly:
    monos = [Monomial(e, j, c) for (e, j), c in zip(tuples, cand) if c]
    return NcPoly.make(p, n, TorusValue.zero(p), monos)


def _u3_oracle_float(fn, tuples, m, cands, exps):
    z = (fn.to_complex_table() * np.exp(-2j * np.pi * exps / fn.p**m)).mean(axis=1)
    best = int(np.argmax(np.abs(z)))  # the first maximum
    return _poly_from_candidate(fn.p, fn.n, tuples, cands[best]), CorrValue.from_float(z[best])


def octolinear_average(gs: dict, budget: Budget = DEFAULT_BUDGET) -> CorrValue:
    """E_{x,h1,h2,h3} of the eight-corner product of the g_S.

    ``gs`` maps subset bitmasks S of {h1, h2, h3} (bit i = h_{i+1}) to
    functions; the factor at corner x + h_S is conjugated when |S| is even.
    """
    f0 = gs[0]
    p, n = f0.p, f0.n
    if p ** (4 * n) > budget.enum_cap:
        raise BudgetExceeded("octolinear sum too large")
    R = f0.ring
    for g in gs.values():
        R = common_ring(R, g.ring)
    emb = {S: (g.embed(R) if g.exact else None) for S, g in gs.items()}
    if any(v is None for v in emb.values()):
        raise PreconditionError("octolinear average requires exact functions")
    tabs = cube_corner_tables(R, {S: emb[S].coeffs for S in range(8)})
    den = 1
    for S in range(8):
        den *= emb[S].den
    prod = corner_product(R, p, n, 4, tabs)
    total = prod.sum(axis=1).reshape(R.degree, -1).astype(object).sum(axis=1)
    return CorrValue.from_sum(R, total, den * p ** (4 * n))


def gcs_check(gs: dict, avg: CorrValue, budget: Budget = DEFAULT_BUDGET):
    """|average| <= prod_S ||g_S||_{U^3}: returns (holds, norms)."""
    norms = {S: gowers_norm(g, 3, budget) for S, g in gs.items()}
    lhs = avg.mag2() ** 8
    rhs = RealSurd(Fraction(1))
    for S in range(8):
        rhs = rhs * norms[S].power_surd() ** 2
    return bool(lhs <= rhs), norms


# -- random generators for tests --


def random_mu_p_function(rng, p: int, n: int, zeros: bool = False) -> BoundedFunction:
    exps = [rng.randrange(p) for _ in range(p**n)]
    f = BoundedFunction.from_exponents(p, n, 1, exps)
    if zeros:
        c = f.coeffs.copy()
        for i in range(p**n):
            if rng.random() < 0.2:
                c[:, i] = 0
        f = BoundedFunction(p, n, f.ring, c, 1)
    return f


def random_unimodular_exact(rng, p: int, n: int, m: int) -> BoundedFunction:
    N = p**m
    return BoundedFunction.from_exponents(p, n, m, [rng.randrange(N) for _ in range(p**n)])
