"""Bounded functions on F_p^n, exact Gowers norms, correlations, and the
U^2 / U^3 inverse oracles.

A function is an integer coefficient array over Z[zeta_{p^m}] with a
common denominator, so multiplicative derivatives, character sums and
Gowers-norm powers are exact ring elements for every p.  Magnitudes are
compared exactly, never through floats: the sup-norm check and every
argmax over candidate sums order real ring elements by
``cyclotomic.real_keys``, the argmaxes through one kernel, ``first_max``,
and every other comparison is one of ``cyclotomic.RealSurd``.
One in-place character transform serves every path: a Walsh-Hadamard
butterfly for p = 2, a radix-3 butterfly on the coefficient planes for
p = 3, and a radix-p butterfly on them for p >= 5, where multiplying by
omega = zeta^{p^{m-1}} shifts blocks of planes.  Exact U^2..U^4 norms run
one column kernel: the transform of f, of each d_h f, or of each
d_{h1} d_{h2} f with symmetric shifts folded together, then sum |tau|^4,
each stage on the narrowest fixed-width integers a stated bound allows
and on Python integers past it.  Ring values and phases in Z[zeta_{2^m}] read those columns
from one first-derivative table T(x, h) = f(x + h) conj f(x), other
phases, every one at odd p, from their exponents.  At p = 2 a U^4 column of independent shifts a, b is
transformed on a complement of span(a, b), a quarter of the space, and
its sum of |tau|^4 read from that transform W as 16 sum (|W + conj W|^4 +
|W - conj W|^4), on the real coordinates of the two halves.  Both sums
square each entry to a real element w and sum w^2, through one table of
products on the real subfield.  Every
measurement of a function against a phase sums through one kernel,
``phased_sum``: the corner averages (the seven- and three-function
witnesses, the derivative cube, the octolinear identity, all through
``_corner_sums``), the pipeline's g-cube measurements, the U^3 oracle and
``correlation``.  Its phases are exponents of zeta_N, N the ring's order,
on two table kinds: a phase carrying ``exps`` is an exponent table (a
corner product adds them), whose (label, exponent mod N) classes one
``np.bincount`` counts; other values are coefficient planes, summed per
class by ``np.add.at``.  Only the class sums meet the roots of unity, in
one integer contraction; ``base_point_argmax`` feeds chunks to it, one
corner product per chunk for several phases.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fpspace
from .config import DEFAULT_BUDGET, Budget
from .cyclotomic import CycloRing, RealSurd, common_ring, real_keys, ring
from .errors import BudgetExceeded, DimensionMismatch, InternalCheckError, PreconditionError
from .fpspace import Subspace, Vec, all_vectors, vec_add, vec_index
from .ncpoly import Monomial, NcPoly, basis_tuples
from .torus import TorusValue


_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1
_VALUE_DTYPES = ((np.int16, 2**15 - 1), (np.int32, _INT32_MAX), (np.int64, _INT64_MAX))


@lru_cache(maxsize=None)
def _shift_table(p: int, n: int) -> np.ndarray:
    """SHIFT[i, j] = index of (x_i + x_j) in all_vectors order.

    At p = 2 the index bits are the coordinates, so the table is one XOR of
    the indices and takes no temporary of its size; at odd p it recombines
    the digit-wise sums."""
    size = p**n
    idx = np.arange(size)
    if p == 2:
        return np.bitwise_xor.outer(idx, idx)
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


def _corner_factors(p: int, n: int, m: int, tables: dict, rows=None):
    """The factors of a corner product, of either table kind: each table at
    the sum of the variables in its bitmask, one axis per variable."""
    size = p**n
    sh = _shift_table(p, n)
    axes = [np.arange(size).reshape((1,) * i + (size,) + (1,) * (m - 1 - i)) for i in range(m)]
    if rows is not None:
        axes[0] = np.asarray(rows).reshape((-1,) + (1,) * (m - 1))
    for S, tab in sorted(tables.items()):
        idx = None
        for i in range(m):
            if S >> i & 1:
                idx = axes[i] if idx is None else sh[idx, axes[i]]
        yield tab[..., idx]


def corner_product(R: CycloRing, p: int, n: int, m: int, tables: dict, rows=None) -> np.ndarray:
    """Exact prod_S tables[S](sum of the variables in S) over (F_p^n)^m.

    ``tables`` maps bitmasks S over m index variables (bit i = variable i) to
    (degree, p^n) coefficient arrays in ring R; the result has shape (degree,)
    + (p^n,) * m, one axis per variable: the corner products of values behind
    ``_corner_sums``, which adds the exponent tables of phases instead.  With
    ``rows``, the first variable runs over those indices only.

    Each ring product stays within degree^2 times its factors' largest
    coefficients, so the product and any sum of its entries stay within
    degree^(2k) times the k tables' largest coefficients times the number
    of entries.  Past int64 that bound moves the tables to object dtype;
    ``phased_sum`` checks its own.
    """
    size = p**n
    bound = (size if rows is None else len(rows)) * size ** (m - 1) * R.degree ** (2 * len(tables))
    for tab in tables.values():
        bound *= int(np.abs(tab).max(initial=0))
    if bound > _INT64_MAX:
        tables = {S: tab.astype(object) for S, tab in tables.items()}
    prod = None
    for factor in _corner_factors(p, n, m, tables, rows):
        prod = factor if prod is None else R.mul_arrays(prod, factor)
    return prod


def phased_sum(R: CycloRing, prod, expo, labels=0, groups: int = 1) -> np.ndarray:
    """The (degree, groups) exact sums of prod * zeta^expo per label, N = R.N.

    ``prod`` is a (degree, ...) coefficient array in ring R, or None for 1 at
    every entry; ``expo`` is an exponent table in Z/N and ``labels`` an
    integer table in range(``groups``), all three broadcasting to one shape
    of entries.

    A phase's classes (label, expo mod N) are counted by one ``np.bincount``;
    coefficient planes are summed per class by ``np.add.at``, one plane at a
    time.  Both fold with zeta^0, ..., zeta^(N-1) once, one integer
    contraction with the coefficients of zeta^(i+t) for plane i and class t,
    each 0 or +-1.  A class sum stays within entries max|prod|, and a folded
    coefficient within degree entries max|prod| (the classes split the
    entries); the sums run on int64 while that bound fits and on Python
    integers past it.
    """
    N, d = R.N, 1 if prod is None else prod.shape[0]
    key = np.asarray(expo) % N + np.asarray(labels) * N
    if prod is None:
        sums = np.bincount(key.reshape(-1), minlength=groups * N)[None]
    else:
        shape = np.broadcast_shapes(key.shape, prod.shape[1:])
        key = np.broadcast_to(key, shape).reshape(-1)
        lead = (1,) * (len(shape) + 1 - prod.ndim)  # the trailing shapes align from the right
        flat = np.broadcast_to(prod.reshape((d,) + lead + prod.shape[1:]), (d,) + shape).reshape(d, -1)
        if flat.dtype != object and d * flat.shape[1] * int(np.abs(flat).max(initial=0)) > _INT64_MAX:
            flat = flat.astype(object)
        sums = np.zeros((d, groups * N), dtype=flat.dtype)
        for plane, row in zip(sums, flat):
            np.add.at(plane, key, row)
    fold = R._reduce[np.add.outer(np.arange(d), np.arange(N)).ravel() % N]  # row i N + t: zeta^(i+t)
    return (sums.reshape(d, groups, N).transpose(1, 0, 2).reshape(groups, d * N) @ fold).T


def _corner_sums(R: CycloRing, p: int, n: int, m: int, tables: dict, expo, labels=0, groups: int = 1, rows=None):
    """The (degree, groups) exact sums of corner_product(tables) * omega_p^expo
    per label, or with ``expo`` None the product summed over the first
    variable, one column per point of the others: the one kernel of every
    corner average.  ``rows`` is as in ``corner_product``.

    A (degree, p^n) table is a coefficient table of ring R.  A 1-D table is
    an exponent table t in Z/N, N = R.N, of zeta^t, negated for a conjugate.
    The corner product (``_corner_terms``) goes to ``phased_sum`` with the
    F_p exponent ``expo`` scaled by N/p.
    """
    size = p**n
    if expo is None:
        expo, labels, groups = 0, np.arange(size ** (m - 1)).reshape((size,) * (m - 1)), size ** (m - 1)
    else:
        expo = _zeta_exponent(R, p, expo)
    prod, summed = _corner_terms(R, p, n, m, tables, rows)
    return phased_sum(R, prod, summed + expo, labels, groups)


def _zeta_exponent(R: CycloRing, p: int, expo) -> np.ndarray:
    """An F_p exponent table of omega_p as one of zeta_N, N = R.N."""
    if R.N % p:
        raise PreconditionError(f"ring Z[zeta_{R.N}] has no {p}-th roots of unity")
    return np.asarray(expo) * (R.N // p)


def _corner_terms(R: CycloRing, p: int, n: int, m: int, tables: dict, rows=None) -> tuple:
    """The corner product of ``tables`` as ``phased_sum``'s (prod, expo): None
    and the sum of the exponent tables when every table is one, else
    ``corner_product`` and 0."""
    if any(t.ndim > 1 for t in tables.values()):
        return corner_product(R, p, n, m, tables, rows=rows), 0
    return None, sum(_corner_factors(p, n, m, tables, rows))


def _kernel_tables(fns) -> list:
    """Exponent tables of functions in one ring when all are phases, else their coefficient arrays."""
    exps = [f.restricted_exps() for f in fns]
    return exps if all(e is not None for e in exps) else [f.coeffs for f in fns]


def first_max(R: CycloRing, sums: np.ndarray) -> int:
    """Index of the first candidate of largest |.|^2 among the columns of a
    (degree, C) array of exact sums in R over one shared denominator.

    The squares are taken once, on int64 where ``mul_arrays``' bound
    degree^2 max|sums| max|conj sums| fits (conj sums at most degree
    coefficients +-1, so degree max|sums| must fit first), else on Python
    integers, and ordered exactly in every ring by ``real_keys``, whose keys
    tie exactly where the squares do; the first of equal keys wins.  The
    shared denominator does not change the order.
    """
    if sums.shape[1] == 0:
        raise PreconditionError("no candidates to maximise over")
    if sums.dtype != object:
        top = max(int(sums.max()), -int(sums.min()))
        if R.degree * top <= _INT64_MAX:
            conj = R.conj_arrays(sums)
            if R.degree**2 * top * max(int(conj.max()), -int(conj.min())) <= _INT64_MAX:
                return int(np.argmax(real_keys(R, R.mul_arrays(sums, conj))))
    return int(np.argmax(real_keys(R, R.mag_squared(np.asarray(sums, dtype=object)))))


def cube_corner_tables(R: CycloRing, tables: dict) -> dict:
    """corner_product tables over (x, h1, h2, h3) for the multiplicative
    derivative pattern: tables[S] sits at x + h_S (S a bitmask over the
    h's), conjugated when |S| is even, which negates an exponent table."""
    conj = {S: bin(S).count("1") % 2 == 0 for S in tables}
    return {1 | S << 1: (-t if t.ndim == 1 else R.conj_arrays(t)) if conj[S] else t for S, t in tables.items()}


def base_point_argmax(
    R: CycloRing, p: int, n: int, m: int, tables: dict, expos, nbase: int = 1, budget: Budget = DEFAULT_BUDGET
) -> list:
    """Per table of ``expos``, the index of the first base point maximising
    |sum prod * omega_p^expo|^2.

    ``prod`` is the corner_product of ``tables`` over m variables, summed
    per base point: a value of the first ``nbase`` variables, indexed in
    all_vectors order with the first variable major.  Each of ``expos`` is
    an F_p exponent table over the variables after the first.  The maximum
    is at least the average over base points; ties keep the first.  The
    product is built a chunk of first-variable values at a time, max(1,
    _CHUNK_ENTRIES // p^{(m-1)n}) of them, once per chunk for all tables
    (``_corner_terms``), and each table's base-point sums come from one
    ``phased_sum`` with the base points as labels.
    """
    size = p**n
    step = size ** (m - 1)
    if step * 8 > budget.enum_cap:
        raise BudgetExceeded("base-point argmax step too large")
    per_row = size ** (nbase - 1)
    # the base point of each entry of one first-variable value, over the other nbase - 1 variables
    base = np.arange(step).reshape((size,) * (m - 1)) // size ** (m - nbase)
    rows = max(1, _CHUNK_ENTRIES // step)
    expos = [_zeta_exponent(R, p, expo) for expo in expos]
    sums = [[] for _ in expos]
    for lo in range(0, size, rows):
        chunk = np.arange(lo, min(size, lo + rows))
        labels = (chunk - lo).reshape((-1,) + (1,) * (m - 1)) * per_row + base
        prod, summed = _corner_terms(R, p, n, m, tables, rows=chunk)
        for out, expo in zip(sums, expos):
            out.append(phased_sum(R, prod, summed + expo, labels, len(chunk) * per_row))
    return [first_max(R, np.concatenate(out, axis=1)) for out in sums]


def shift_indices(p: int, n: int, h: Vec) -> np.ndarray:
    """Array mapping index(x) -> index(x + h)."""
    return _shift_table(p, n)[vec_index(p, h)]


@dataclass(frozen=True)
class BoundedFunction:
    """A table of complex values on F_p^n with sup-norm <= 1: ``coeffs``
    has shape (ring.degree, p^n) and value(x) = (sum_i coeffs[i, x] zeta^i)
    / den.
    """

    p: int
    n: int
    ring: CycloRing
    coeffs: np.ndarray = field(compare=False)
    den: int = 1
    # exponent table when the function is a pure root-of-unity phase;
    # carried so Gowers norms can run on integer exponent arithmetic
    exps: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
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

    # -- basic data access --

    @property
    def exact(self) -> bool:
        """Always True: every function is exact."""
        return True

    @property
    def size(self) -> int:
        return self.p**self.n

    def value_complex(self, x: Vec) -> complex:
        return self.ring.to_complex(self.coeffs[:, vec_index(self.p, x)], self.den)

    def to_complex_table(self) -> np.ndarray:
        N = self.ring.N
        roots = np.array(
            [complex(math.cos(2 * math.pi * i / N), math.sin(2 * math.pi * i / N)) for i in range(self.ring.degree)]
        )
        return (roots @ self.coeffs) / self.den

    def check_bounded(self) -> bool:
        """Exact sup-norm check: den^2 - |value|^2 >= 0 at every point, signed by ``real_keys``."""
        slack = -self.ring.mag_squared(self.coeffs).astype(object)
        slack[0] += self.den**2
        return bool((real_keys(self.ring, slack) >= 0).all())

    # -- arithmetic --

    def embed(self, target: CycloRing) -> "BoundedFunction":
        if target.N == self.ring.N:
            return self
        M = self.ring.embed_matrix(target)
        step = target.N // self.ring.N
        new_exps = (self.exps * step) % target.N if self.exps is not None else None
        return BoundedFunction(self.p, self.n, target, (self.coeffs.T @ M).T, self.den, exps=new_exps)

    def conj(self) -> "BoundedFunction":
        new_exps = (-self.exps) % self.ring.N if self.exps is not None else None
        return BoundedFunction(self.p, self.n, self.ring, self.ring.conj_arrays(self.coeffs), self.den, exps=new_exps)

    def shift_arg(self, h: Vec) -> "BoundedFunction":
        """x -> f(x + h)."""
        sh = shift_indices(self.p, self.n, h)
        new_exps = self.exps[sh] if self.exps is not None else None
        return BoundedFunction(self.p, self.n, self.ring, self.coeffs[:, sh], self.den, exps=new_exps)

    def mul(self, other: "BoundedFunction") -> "BoundedFunction":
        if (self.p, self.n) != (other.p, other.n):
            raise DimensionMismatch("functions on different spaces")
        R = common_ring(self.ring, other.ring)
        a, b = self.embed(R), other.embed(R)
        new_exps = None
        if a.exps is not None and b.exps is not None:
            new_exps = (a.exps + b.exps) % R.N
        return BoundedFunction(self.p, self.n, R, R.mul_arrays(a.coeffs, b.coeffs), a.den * b.den, exps=new_exps)

    def mult_derivative(self, h: Vec) -> "BoundedFunction":
        """d_h f(x) = f(x+h) * conj(f(x)); 1-bounded and exact."""
        return self.shift_arg(h).mul(self.conj())

    def restrict_to_coset(self, U: Subspace, shift: Vec) -> "BoundedFunction":
        """The function c -> f(shift + U.basis . c) on F_p^{dim U}."""
        cols = [
            vec_index(self.p, vec_add(self.p, shift, fpspace.embed_from_subspace(U, c)))
            for c in all_vectors(self.p, U.dim)
        ]
        new_exps = self.exps[cols] if self.exps is not None else None
        return BoundedFunction(self.p, U.dim, self.ring, self.coeffs[:, cols], self.den, exps=new_exps)

    def with_replaced_values(self, replacements: dict) -> "BoundedFunction":
        """Pointwise replacement {x: exponent in current ring}."""
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

    ring: CycloRing
    num: np.ndarray  # ring element
    den: int
    float_value: complex
    _mag2: RealSurd | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_sum(cls, R: CycloRing, num: np.ndarray, den: int) -> "CorrValue":
        return cls(R, num, den, R.to_complex(num, den))

    def mag2(self) -> RealSurd:
        """|value|^2 as an exact RealSurd, computed once (on Python integers:
        the square of an int64 sum can pass int64) and kept."""
        if self._mag2 is None:
            sq = self.ring.mag_squared(np.asarray(self.num, dtype=object))
            object.__setattr__(self, "_mag2", RealSurd.from_ring_element(self.ring, sq, self.den**2))
        return self._mag2

    def modulus_float(self) -> float:
        return abs(self.float_value)

    def mag2_is_one(self) -> bool:
        return self.mag2() == RealSurd(1)

    def __str__(self):
        return f"|{self.float_value:.6g}|"


@dataclass(frozen=True)
class GowersNormValue:
    """Exact 2^d-th power of a U^d norm, with float norm for reporting."""

    d: int
    ring: CycloRing
    power_num: tuple  # ring element as a tuple of ints (real value)
    power_den: int
    float_power: float
    _power: RealSurd | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_parts(cls, d: int, R: CycloRing, num, den: int) -> "GowersNormValue":
        num = np.asarray(num)
        if not np.array_equal(R.conj_arrays(num), num):
            raise InternalCheckError("Gowers norm power is not real")
        return cls(d, R, tuple(int(v) for v in num), den, R.to_complex(num, den).real)

    def power_surd(self) -> RealSurd:
        """The power as an exact RealSurd, made once and kept (with the
        enclosure its comparisons read)."""
        if self._power is None:
            power = RealSurd.from_ring_element(self.ring, np.array(self.power_num, dtype=object), self.power_den)
            object.__setattr__(self, "_power", power)
        return self._power

    def norm_float(self) -> float:
        return max(self.float_power, 0.0) ** (1.0 / (1 << self.d))

    def __str__(self):
        return f"U^{self.d} = {self.norm_float():.6g}"


def _scratch():
    """``buffer(name, shape, dtype)`` for one column-kernel call: the named
    scratch array of that shape and dtype, reallocated only when a request
    needs another dtype or more entries than it has, so a chunk loop
    allocates no large array.  It is overwritten by the next request of its
    name; the column sources, the sum and the transform use distinct
    names.  The last view of each name is kept, so a request like
    the last one costs two lookups."""
    arrays, views = {}, {}

    def buffer(name, shape, dtype):
        last = views.get(name)
        if last is not None and last[0] == shape and last[1] is dtype:
            return last[2]
        count = math.prod(shape)
        if name not in arrays or arrays[name].dtype != dtype or arrays[name].size < count:
            views[name] = arrays[name] = None  # no longer kept: freed once its last view is dropped
            arrays[name] = np.empty(count, dtype=dtype)
        views[name] = (shape, dtype, arrays[name][:count].reshape(shape))
        return views[name][2]

    return buffer


# -- exact character transform --


def _wht_inplace(a: np.ndarray, buffer=None) -> np.ndarray:
    """Walsh-Hadamard transform over axis 1 of a (planes, 2^n, columns) array.

    The transform axis is outermost within a plane, so every butterfly
    runs over contiguous blocks of at least one row of columns.  The
    differences go through one array of ``buffer`` (``_scratch``).
    """
    planes, size, cols = a.shape
    tmp = (buffer or _scratch())("transform", (a.size // 2,), a.dtype)
    h = 1
    while h < size:
        v = a.reshape(planes, size // (2 * h), 2, h * cols)
        x0 = v[:, :, 0]
        x1 = v[:, :, 1]
        diff = np.subtract(x0, x1, out=tmp.reshape(x0.shape))
        x0 += x1
        x1[...] = diff
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


def _radixp_inplace(a: np.ndarray, p: int, sign: int) -> np.ndarray:
    """Character transform sum_x a(x) omega^{sign <chi, x>} over axis 1 of a
    (planes, p^n, columns) array of Z[zeta_{p^m}] coefficient planes, m >= 1.

    With e = p^{m-1}, the planes split into p - 1 blocks of e, and z =
    sum_j omega^j B_j with omega = zeta^e.  The butterflies work on p
    blocks, the last one zero at the start: there omega^k z is the cyclic
    shift of the blocks by k, so y_s = sum_t omega^{sign st} x_t is a sum of
    shifted blocks.  Since 1 + omega + ... + omega^{p-1} = 0, the power basis
    is read back at the end as B_j - B_{p-1}.  After each stage a block is a
    sum of at most p^stage input blocks, within the bound on the output's
    coefficients that the callers check.
    """
    planes, size, cols = a.shape
    e = planes // (p - 1)
    x = np.zeros((p, e, size, cols), dtype=a.dtype)
    x[: p - 1] = a.reshape(p - 1, e, size, cols)
    h = 1
    while h < size:
        v = x.reshape(p, e, size // (p * h), p, h * cols)
        y = np.zeros_like(v)
        for s in range(p):
            for t in range(p):
                k = sign * s * t % p  # y_s gains omega^k x_t: block j of x_t lands on block j + k
                y[k:, :, :, s] += v[: p - k, :, :, t]
                y[:k, :, :, s] += v[p - k :, :, :, t]
        x = y.reshape(p, e, size, cols)
        h *= p
    np.subtract(x[: p - 1], x[p - 1], out=a.reshape(p - 1, e, size, cols))
    return a


def _transform_inplace(R: CycloRing, p: int, a: np.ndarray, sign: int, buffer=None) -> np.ndarray:
    """Exact character transform over axis 1 of (degree, p^n, columns) planes
    in R; at p = 2 through the scratch of ``buffer`` (``_scratch``) if given."""
    if not a.flags.c_contiguous:  # the butterflies write through reshaped views
        raise InternalCheckError("in-place transform needs a C-contiguous array")
    if p == 2:
        return _wht_inplace(a, buffer)
    if R.N % p:
        raise PreconditionError(f"ring Z[zeta_{R.N}] has no {p}-th roots of unity")
    return _radix3_inplace(a, sign) if p == 3 else _radixp_inplace(a, p, sign)


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


@lru_cache(maxsize=None)
def _pivot_rows(n: int) -> np.ndarray:
    """Column i n + j, i != j: the 2^(n-2) points of F_2^n with bits i and j zero,
    row c being c with a zero bit inserted at the lower position, then the higher."""
    i, j = np.divmod(np.arange(n * n), n)
    r = np.arange(1 << (n - 2))[:, None]
    for bit in (1 << np.minimum(i, j), 1 << np.maximum(i, j)):
        r = (r & (bit - 1)) | ((r & -bit) << 1)
    return r


def _pivot_keys(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The column i n + j of ``_pivot_rows`` for each pair of independent
    shifts a, b at p = 2: bit i is the lowest set bit of a, and bit j the
    lowest set bit of b' in {b, a ^ b} with bit i clear (frexp reads both
    exactly), so C = {x : bit i = bit j = 0} has F_2^n = span(a, b) + C."""
    low_a = a & -a
    b2 = np.where(b & low_a, a ^ b, b)
    return (np.frexp(low_a)[1] - 1) * n + np.frexp(b2 & -b2)[1] - 1


def _complement_rows(n: int, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of the quarter columns at p = 2: for independent shifts a, b (one
    pair per column), the (2^(n-2), columns) indices of C of ``_pivot_keys``,
    in order of c, gathered from ``_pivot_rows`` into ``out`` if given.  The
    U^4 kernel caches the keys with its column sets (``_column_sets``)."""
    return np.take(_pivot_rows(n), _pivot_keys(n, a, b), axis=1, out=out, mode="clip")  # "clip" takes no copy


def _half_coordinates(W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The real coordinates of W + conj W and of (W - conj W) / i, for W in
    Z[zeta_N], N = 2^m (planes on axis 0), written to ``out`` and returned.

    Both are real elements, and with h = degree / 2 their coordinates are
    taken on the basis e_0 = 1, e_k = zeta^k + zeta^-k (0 < k < h) of the
    real subfield.  conj zeta^k = -zeta^{degree - k}, so W + conj W = 2 W_0 +
    sum_k (W_k - W_{degree-k}) e_k, and W - conj W = 2 W_h zeta^h + sum_k
    (W_k + W_{degree-k}) (zeta^k + zeta^{degree-k}); dividing by i = zeta^h
    sends zeta^k + zeta^{degree-k} to e_{h-k}, so (W - conj W) / i = 2 W_h +
    sum_k (W_{h-k} + W_{h+k}) e_k.  Plane 2k of ``out`` is coordinate k of
    the plus half, plane 2k + 1 that of the minus half: in Z[zeta_8] (2 W_0,
    2 W_2, W_1 - W_3, W_1 + W_3) on the basis (1, sqrt2), in Z[i] (2 W_0,
    2 W_1).  In Z (degree 1) W is real, and the one plane is 2 W.  The sums
    are formed on the dtype of ``out``, which may be wider than W's, or
    narrower where the caller's bound allows (object W on integer planes).
    """
    d, kw = W.shape[0], {"dtype": out.dtype, "casting": "unsafe"}
    np.add(W[0], W[0], out=out[0], **kw)
    if d > 1:
        h = d // 2
        np.add(W[h], W[h], out=out[1], **kw)
        np.subtract(W[1:h], W[:h:-1], out=out[2::2], **kw)
        np.add(W[h - 1 : 0 : -1], W[h + 1 :], out=out[3::2], **kw)
    return out


def _exponent_columns(R: CycloRing, p: int, n: int, exps: np.ndarray, d: int, dtype, buffer=None):
    """Column source of the U^3 and U^4 columns of a phase zeta^exps whose
    order N = R.N is not a power of two (every phase at odd p): coefficient
    planes of zeta^E for the exponent E of each derivative column, summed
    from the gathers esh[x, h] = e(x + h) and read from the coefficients of
    zeta^(t - 2N), 0 <= t < 4N.

    ``columns(shifts)`` takes one chunk's shift arrays.  Index sums, gathers
    and planes go to arrays of ``buffer`` (``_scratch``), so a chunk loop
    allocates no large array here: a returned column is overwritten by the
    next call."""
    buffer = buffer or _scratch()
    N, size = R.N, p**n
    # ext[:, t] holds the coefficients of zeta^(t - 2N) for 0 <= t < 4N
    ext = R._reduce[np.arange(-2 * N, 2 * N) % N].T.astype(dtype)
    sh = _shift_table(p, n)
    esh = exps[sh]  # esh[x, h] = e(x + h)
    # the sign of e(x) in the column's exponent, plus the 2N offset into ext
    base = (2 * N + (-1) ** d * exps)[:, None]

    def columns(shifts, pivots=None):
        shape = (size, len(shifts[0]))
        E = buffer("index", shape, esh.dtype)
        if len(shifts) == 1:
            np.take(esh, shifts[0], axis=1, out=E, mode="clip")
        else:
            a, b = shifts
            np.take(esh, sh[a, b], axis=1, out=E, mode="clip")
            e = buffer("index 2", shape, esh.dtype)
            E -= np.take(esh, a, axis=1, out=e, mode="clip")
            E -= np.take(esh, b, axis=1, out=e, mode="clip")
        E += base
        return np.take(ext, E, axis=1, out=buffer("planes", (R.degree,) + shape, dtype), mode="clip")

    return columns


def _derivative_columns(R: CycloRing, p: int, n: int, f: np.ndarray, d: int, dtype, buffer=None, quarter_dtype=None):
    """Column source of ring values (``f`` their (degree, p^n) coefficients)
    and of phases (``f`` their exponent table; past U^2 only those in
    Z[zeta_{2^m}]): f itself for U^2, else one first-derivative table T(x,
    h) = f(x + h) conj f(x), read as d_h f(x) = T(x, h) and d_a d_b f(x) =
    T(x + a, b) conj T(x, b), where conj T(x, b) = T(x + b, -b).

    ``columns(shifts, pivots)`` takes one chunk's shift arrays and returns
    its transform planes on ``dtype``.  A quarter column (p = 2, d = 4 only)
    comes with its pivot key (``_pivot_keys``, cached by ``_column_sets``):
    it is read on the rows of ``_pivot_rows`` that the key selects, one
    gather, as its half coordinates (``_half_coordinates``) on
    ``quarter_dtype`` (default ``dtype``).  One routine indexes T at (x + s)
    p^n + h: x + s is x ^ s at p = 2, where it moves the index of T(x + a, b)
    to that of T(x + b, b) in place, and a shift-table entry at odd p.  For a
    phase T is the table De = e(x + h) - e(x) mod N of 4^n bytes (int64 past
    N = 256), a product of two entries their sum, masked by N - 1 and read
    from zeta^0..zeta^(N-1): two byte gathers where the exponents would take
    four.  For values T is the coefficient table D and a product the ring
    product (``CycloRing.mul_arrays``), on the dtype of ``f``, which
    ``_kernel_dtypes`` chooses to hold every coefficient of f, T and their
    products and every partial sum forming them; full columns are
    multiplied straight into planes at least as wide, quarter columns into
    one product array whose half coordinates go to the planes.  At d = 3 D is not built,
    each column being f(x + h) conj f(x) from one gather and one product.
    Index sums, gathers, products and planes go to arrays of ``buffer``
    (``_scratch``), so a chunk loop allocates no large array here: a
    returned column is overwritten by the next call."""
    buffer = buffer or _scratch()
    size, phase, N = p**n, f.ndim == 1, R.N
    quarter_dtype = quarter_dtype or dtype
    roots = R._reduce.T.astype(dtype)  # roots[:, t]: the coefficients of zeta^t
    if d == 2:  # a new C-contiguous array per call, which the transform overwrites
        return lambda shifts, pivots=None: (np.take(roots, f, axis=1) if phase else np.array(f, dtype, order="C"))[:, :, None]
    sh = _shift_table(p, n)
    neg = sh.argmin(axis=1) if p > 2 else None  # x + neg[x] = 0
    x_rows = np.arange(size)[:, None] * size
    if phase:
        if d == 4:
            quarter_roots = R._reduce.T.astype(quarter_dtype)
            half = _half_coordinates(quarter_roots, np.empty_like(quarter_roots))
        e = (f & (N - 1)).astype(np.uint8 if N <= 256 else np.int64)
        T = e[sh]
        T -= e[:, None]  # on uint8 mod 256, which N divides
        T = T.ravel()
    else:
        cc = R.conj_arrays(f).astype(f.dtype)[:, :, None]
        T = R.mul_arrays(f[:, sh], cc).reshape(R.degree, -1) if d == 4 else f

    def index(rows, s, h):  # the flat index (x + s) p^n + h of T for each row x, where rows hold x p^n
        if p == 2:  # any flat index (y, k) moves to (y + s, k + h), also in place
            step = (s << n) | h
            return np.bitwise_xor(rows, step, out=buffer("index", (len(rows), len(step)), np.intp))
        at = np.take(sh, s, axis=1, out=buffer("index", (size, len(s)), np.intp), mode="clip")  # all rows x
        at *= size
        at += h
        return at

    def gather(name, at):
        return np.take(T, at, axis=-1, out=buffer(name, T.shape[:-1] + at.shape, T.dtype), mode="clip")

    def product(g, h, quarter):  # the planes of the ring product g h, or with quarter its half coordinates
        if not quarter and np.can_cast(T.dtype, dtype):  # the planes hold every partial sum
            return R.mul_arrays(g, h, out=buffer("planes", g.shape, dtype))
        prod = R.mul_arrays(g, h, out=buffer("product", g.shape, T.dtype))
        planes = buffer("planes", g.shape, quarter_dtype if quarter else dtype)
        if quarter:
            return _half_coordinates(prod, planes)
        planes[...] = prod
        return planes

    def columns(shifts, pivots=None):
        b, quarter = shifts[-1], pivots is not None
        if d == 3 and not phase:  # f(x + h) conj f(x)
            g = gather("gather", np.take(sh, b, axis=1, out=buffer("index", (size, len(b)), np.intp), mode="clip"))
            return product(g, cc, False)
        a, rows = shifts[0] if d == 4 else 0, x_rows
        if quarter:
            rows = np.take(_pivot_rows(n), pivots, axis=1, out=buffer("index", (size // 4, len(b)), np.intp), mode="clip")
            rows <<= n
        at = index(rows, a, b)  # in place on the quarter rows
        g = gather("gather", at)
        if d == 4:  # conj T(x, b) = T(x + b, -b): at p = 2, (x + a, b) moved by (a + b, 0)
            conj = gather("gather 2", index(at, a ^ b, 0) if p == 2 else index(rows, b, neg[b]))
            if not phase:
                return product(g, conj, quarter)
            g = np.add(g, conj, out=g)
        E = np.bitwise_and(g, N - 1, out=buffer("index", g.shape, np.intp))  # mod N, also where the sum wrapped
        out = buffer("planes", (R.degree,) + E.shape, quarter_dtype if quarter else dtype)
        return np.take(half if quarter else roots, E, axis=1, out=out, mode="clip")

    return columns


def _column_dot(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> int:
    """sum_j weights[j] sum_r x[r, j] y[r, j]; int32 columns are summed on int64."""
    return int(weights @ np.einsum("xc,xc->c", x, y, dtype=np.int64 if x.dtype == np.int32 else None))


def _real_cos(h: int, t: int) -> dict:
    """b_t = zeta^t + zeta^-t in Z[zeta_{4h}] on the basis e_0 = 1, e_k =
    zeta^k + zeta^-k (0 < k < h) of the real subfield, as {k: coefficient}:
    b_0 = 2, b_h = 0 and b_t = -b_{2h-t} for h < t < 2h."""
    if t == h:
        return {}
    return {0: 2} if t == 0 else {t: 1} if t < h else {2 * h - t: -1}


@lru_cache(maxsize=None)
def _real_squares(h: int) -> tuple:
    """Squaring on the basis e of ``_real_cos``: for each j <= k, the terms
    (m, c) of (2 if j < k else 1) e_j e_k = sum c e_m, so that (sum_j z_j
    e_j)^2 = sum_{j <= k} z_j z_k sum c e_m; e_j e_k = b_{j+k} + b_{|j-k|}."""
    squares = []
    for j, k in zip(*np.triu_indices(h)):
        j, k, terms = int(j), int(k), {}
        for product in [{k: 1}] if j == 0 else [_real_cos(h, j + k), _real_cos(h, k - j)]:
            for m, c in product.items():
                terms[m] = terms.get(m, 0) + (2 if j < k else 1) * c
        squares.append((j, k, tuple((m, c) for m, c in terms.items() if c)))
    # in order of the last coordinate each pair reaches, so that the pairs adding to
    # coordinate 0 come first: in Z[zeta_8] two stacked planes are alive at a time
    return tuple(sorted(squares, key=lambda sq: (max(m for m, _ in sq[2]), sq[0], sq[1])))


@lru_cache(maxsize=None)
def _mag2_terms(N: int) -> tuple | None:
    """|z|^2 for z = sum_i z_i zeta^i in Z[zeta_N] as the terms (i, j, ((m,
    c), ...)) of sum_{i <= j} z_i z_j sum c e_m, on the basis e of
    ``_real_cos``: in Z[zeta_{2^m}], |z|^2 = sum_i z_i^2 + sum_{i < j} z_i
    z_j b_{j-i}, and in Z[omega] the one coordinate z_0^2 - z_0 z_1 + z_1^2.
    None in other rings."""
    if N == 3:
        return ((0, 0, ((0, 1),)), (0, 1, ((0, -1),)), (1, 1, ((0, 1),)))
    if N & (N - 1):
        return None
    degree = max(N // 2, 1)
    terms = ((int(i), int(j), {0: 1} if i == j else _real_cos(max(degree // 2, 1), j - i))
             for i, j in zip(*np.triu_indices(degree)))
    return tuple((i, j, tuple(c.items())) for i, j, c in terms if c)


def _mag4_sums(R: CycloRing, tau: np.ndarray, weights: np.ndarray, dtype, buffer=None, half: bool = False) -> tuple:
    """Weighted sum of sum_chi |tau|^4 over all columns, or with ``half`` of
    sum_phi (|W + conj W|^4 + |W - conj W|^4), as ring coefficients.

    ``tau`` holds the transform of each ring-coefficient plane, shape
    (degree, rows, columns), or with ``half`` that of the half coordinates
    (``_half_coordinates``); column j counts ``weights[j]`` times.  Each
    entry squares to a real element w with h = degree / 2 coordinates on the
    basis e of ``_real_cos``: w = |tau|^2 by ``_mag2_terms``, or w = z^2 by
    ``_real_squares`` for z a half, real up to a factor i, so that |z|^4 =
    z^4.  Coordinate k of both halves lies in planes 2k and 2k + 1, so one
    view stacks the halves and one pass squares both.  Then sum w^2 comes
    from the column sums of the products of the coordinates of w, squared by
    ``_real_squares``.  Rings other than Z[zeta_{2^m}] and Z[omega] sum the
    Gram matrix of the |tau|^2 planes and fold it with zeta^(i+j).  The
    products are formed on ``dtype`` in arrays of ``buffer`` (``_scratch``),
    each column summed on it (on int64 for int32 products), then weighted on
    ``weights``' dtype; ``_kernel_dtypes`` bounds all three.
    """
    buffer = buffer or _scratch()
    d, cols = tau.shape[0], tau.shape[-1]
    h = max(d // 2, 1)
    terms = _real_squares(h) if half else _mag2_terms(R.N)
    if terms is None:  # |tau|^2 = tau conj(tau), conj(tau) from one matmul of the planes, both in the scratch
        planes = tau.reshape(d, -1)
        conj = np.matmul(R._conj.T.astype(dtype), planes, out=buffer("gram conj", planes.shape, dtype))
        m2 = R.mul_arrays(tau, conj.reshape(tau.shape), out=buffer("gram squares", tau.shape, dtype))
        gram = np.zeros((d, d), dtype=object)
        for i, j in zip(*np.triu_indices(d)):
            gram[i, j] = gram[j, i] = _column_dot(weights, m2[i], m2[j])
        return tuple(int(c) for c in R._fold @ gram.ravel())  # the product's fold, zeta^{i+j}
    z = tau.reshape(h, -1, cols) if half else tau  # with half, z[k]: coordinate k of both halves, stacked
    shape, prod, started = z.shape[1:], None, set()  # started: coordinates of w holding their first term
    z, w = list(z), list(buffer("squares", (h,) + shape, dtype))  # the plane views, taken once
    for j, k, coords in terms:
        (m, c), single = coords[0], len(coords) == 1
        if single and m not in started:  # the product is its coordinate's first term
            np.multiply(z[j], z[k], dtype=dtype, out=w[m])
            if c != 1:
                w[m] *= c
            started.add(m)
            continue
        prod = np.multiply(z[j], z[k], dtype=dtype, out=buffer("square terms", shape, dtype) if prod is None else prod)
        for m, c in coords:
            if m not in started:
                np.multiply(prod, c, out=w[m])
                started.add(m)
                continue
            t = prod if abs(c) == 1 else np.multiply(
                prod, abs(c), out=prod if single else buffer("scaled terms", shape, dtype))
            (np.add if c > 0 else np.subtract)(w[m], t, out=w[m])
    w4 = [0] * h
    for j, k, coords in _real_squares(h):
        s = _column_dot(weights, w[j], w[k])
        for m, c in coords:
            w4[m] += c * s
    return tuple(w4 + [0] * (d > 1) + [-c for c in w4[:0:-1]])  # e_k = zeta^k - zeta^(degree-k)


def _kernel_dtypes(p: int, n: int, degree: int, K: int, step: int, weight: int, q: int | None = None) -> tuple:
    """dtypes of the column kernel: (values, transform planes, squares, column
    sums, chunk sums).

    Every column g on F_p^n has |s(g(x))|^2 <= K in every embedding s; chunks
    hold ``step`` columns of weight at most ``weight``.  The quarter-size U^4
    columns at p = 2 pass K' = ceil(K / 4) with the same n.  Their half
    coordinates are exactly the nonzero planes of the stacked halves W +-
    conj W, up to sign and order, and the coordinates of z^2 those of |.|^2
    on the halves; the halves have |s(.)| <= 2^(n-1) sqrt K <= 2^n sqrt K',
    and their sum of |.|^4, sum |tau|^4 / 16, is at most 2^(4n) K'^2, so
    every bound below holds for them as stated.  Their values come from the
    same products as the full-size columns' and keep K's dtype; before the
    transform the coordinates of g +- conj g are at most 2 sqrt K <= 2^(n-1)
    sqrt K (n >= 2).  The transform has
    |s(tau)| <= p^n sqrt K, and sum_chi |s(tau)|^4 <= p^{4n} K^2 (Parseval).
    The ring is Z[zeta_{q^m}], q = p unless ``q`` says otherwise (a ring of
    odd order at p = 2).  Its trace form is at least q^{m-1} times the square
    norm on the power basis, so a coefficient of an element is at most
    sqrt(q - 1) times its largest embedding, and a column's sum of |tau|^4,
    on the coordinates of |tau|^2 or as a Gram matrix of its planes, stays
    within (q - 1) p^{4n} K^2.  A ring product stays within degree^2 times the
    largest coefficients of its factors, so columns, transforms and |tau|^2
    stay within (q - 1) degree^2 p^{2n} K.  The planes take the narrowest
    integer type that holds sqrt((q - 1) K) p^n; a stage that passes int64
    runs on object dtype, and so does everything after it.

    The values are f, the first-derivative table T and the ring products
    that form T and the columns (``_derivative_columns``).  Every such
    product has two factors with |s(.)|^2 <= sqrt K: values of f, whose
    |s(f)|^2 <= M2 is sqrt K at d = 3 and K^(1/4) at d = 4, or entries of T,
    with |s(T)|^2 <= M2^2 = sqrt K at d = 4.  A coefficient is at most
    sqrt(q - 1) <= sqrt(degree) times the largest embedding, so
    every coefficient of a factor is at most (degree^2 K)^(1/4), and every
    partial sum of a product at most V = degree^3 sqrt K, which also holds
    f's own coefficients at d = 2 (K = M2).  The values take the narrowest
    of int16, int32 and int64 that holds V.

    The squares, the coordinates of w = |tau|^2 or w = z^2 in ``_mag4_sums``,
    are sums of at most degree^2 products of two plane coefficients, so they
    and every partial sum forming them also stay within (q - 1) degree^2
    p^{2n} K.  Where that fits int32 they are formed on int32 and each column
    summed on int64 (then (q - 1) p^{4n} K^2 < 2^62); past it on the dtype of
    the column sums.
    """
    size, q = p**n, q or p
    square_bound = (q - 1) * degree**2 * size**2 * K
    value_sq = degree**6 * K  # V^2
    values = next((dt for dt, top in _VALUE_DTYPES if value_sq <= top * top), None)
    if square_bound > _INT64_MAX or values is None:
        return (object,) * 5
    top = math.isqrt((q - 1) * K * size**2) + 1
    planes = np.int16 if top < 2**15 else np.int32 if top <= _INT32_MAX else np.int64
    col_bound = (q - 1) * size**4 * K**2
    if col_bound > _INT64_MAX:
        return values, planes, object, object, object
    squares = np.int32 if square_bound <= _INT32_MAX else np.int64
    return values, planes, squares, np.int64, np.int64 if step * weight * col_bound <= _INT64_MAX else object


def _chunk_divisor(p: int, degree: int, values) -> int:
    """How many times narrower than ``_CHUNK_ENTRIES`` entries per plane a
    chunk of whole-space columns is; quarter columns take four times as
    many.  Exponent columns (``values`` None) at p = 2 keep int64 index sums
    beside their planes, in half-size chunks.  Value columns keep index sums
    too, and gathers and products of ``degree`` planes on ``values``: their
    chunks are narrower again by the bytes of those planes over 8, those of
    the index sums."""
    if values is None:
        return 2 if p == 2 else 1
    return 2 * max(1, degree * np.dtype(values).itemsize // 8)


@lru_cache(maxsize=None)
def _column_sets(p: int, n: int, d: int, N: int) -> tuple:
    """The U^d columns as sets of (shifts, weights, pivot keys), built once
    per (p, n, d, N) and read-only: one set of every orbit of
    ``_derivative_orbits``, but at p = 2, d = 4 in Z[zeta_N], N = 2^m, the
    independent pairs a, b as a quarter-size set (see ``_gowers_columns``),
    first, with the key of each pair's complement rows (``_pivot_keys``),
    and the pairs a = 0 or a = b on their own.  A set of whole-space
    columns has no keys (None)."""
    hs, weights = _derivative_orbits(p, n, d)
    sets = ((hs, weights, None),)
    if p == 2 and d == 4 and (N & (N - 1)) == 0:
        q = (hs[0] != 0) & (hs[0] != hs[1])
        quarter = tuple(h[q] for h in hs)
        sets = ((quarter, weights[q], _pivot_keys(n, *quarter)), (tuple(h[~q] for h in hs), weights[~q], None))
    for shifts, w, keys in sets:
        for a in shifts + (w,) + (() if keys is None else (keys,)):
            a.setflags(write=False)
    return sets


def _gowers_columns(fn: BoundedFunction, d: int) -> GowersNormValue:
    """Exact ||f||_{U^d}^{2^d}, d in {2, 3, 4}, over one column kernel.

    Every U^2 base case is one column g on F_p^n: f itself (d = 2), d_h f
    (d = 3), or d_{h1} d_{h2} f (d = 4), one column per orbit of
    ``_derivative_orbits``.  Columns go through the character transform in
    chunks, in place, and sum_chi |tau|^4 is summed with the orbit sizes as
    weights (``_mag4_sums``).  Ring values and phases in Z[zeta_{2^m}] read
    their derivative columns from one first-derivative table
    (``_derivative_columns``), other phases, every one at odd p, from
    gathers of their exponents (``_exponent_columns``).
    With |s(f(x))|^2 <= M2
    in every embedding s, a column has |s(g)|^2 <= K = M2^(2^(d-2)), which
    ``_kernel_dtypes`` turns into the dtype of each stage: ring values, their
    first-derivative table and its products on the narrowest integer dtype
    that holds V = degree^3 sqrt K.  The chunk width follows from the dtypes
    (``_chunk_divisor``): a chunk of whole-space columns holds
    ``_CHUNK_ENTRIES`` entries per plane, over 2 for phases at p = 2 and
    over 2 max(1, degree bytes(values) / 8) for values, so int16 values in
    Z[i] or Z[zeta_8] take the chunks of phases at p = 2, and int64 values
    chunks 2 degree times narrower.  The column source, the transform and
    the sums keep their arrays in one scratch per call (``_scratch``), so no
    chunk allocates a large array.

    At p = 2 the U^4 columns of independent shifts a, b (every pair but
    a = 0 and a = b) run on a quarter of the space.  g = d_a d_b f is
    g(x) = f(x + a + b) conj f(x + a) conj f(x + b) f(x); the shift x -> x + a
    + b permutes these four factors, and x -> x + a swaps the conjugated pair
    with the other, so g(x + a + b) = g(x) and g(x + a) = conj g(x).  With C
    the complement of span(a, b) of ``_pivot_keys`` and x = c + u, u in
    {0, a, b, a + b}, the values of g on c + u are g(c), conj g(c), conj g(c)
    and g(c), so
        tau(chi) = sum_c (-1)^{chi.c} (g(c) (1 + (-1)^{chi.(a+b)})
                                       + conj g(c) ((-1)^{chi.a} + (-1)^{chi.b})).
    Both brackets vanish when chi.a != chi.b; otherwise tau(chi) = 2 (W(phi)
    + (-1)^{chi.a} conj W(phi)), W the transform of g on C and phi = chi on
    C, and each (phi, chi.a) is one chi.  Hence sum_chi |tau|^4 = 16 sum_phi
    (|W + conj W|^4 + |W - conj W|^4).  The transform on C has real kernels
    +-1, so W +- conj W are the transforms of g +- conj g.  One half is a
    real element z, the other i times one, each given by degree / 2
    coordinates on a basis of the real subfield (``_half_coordinates``; in
    Z, one plane and no minus half), and |z|^4 = z^4.  So the quarter
    columns read the half coordinates of g on C (degree planes of 2^(n-2)
    rows), transform them, sum z^4 over both halves (``_mag4_sums`` with
    ``half``) and fold by 16.  Each half has |s(.)| <= 2^(n-1) sqrt K and
    they sum to sum |s(tau)|^4 / 16 <= 2^(4n) (K / 4)^2, so K' = ceil(K / 4)
    on all of F_2^n bounds their dtypes.  The 2^(n+1) - 1 other columns, and
    every column at odd p or d < 4, run on the whole space.
    """
    p, n, R = fn.p, fn.n, fn.ring
    size = p**n
    exps = fn.restricted_exps()
    M2 = 1 if exps is not None else _modulus_bound_sq(R, fn.coeffs)
    K = M2 ** (1 << (d - 2))
    values_dt, source_dt = _kernel_dtypes(p, n, R.degree, K, 1, 1, R.p)[:2]
    quarter_dt = _kernel_dtypes(p, n, R.degree, -(-K // 4), 1, 1, R.p)[1]
    step = max(1, _CHUNK_ENTRIES // (size * _chunk_divisor(p, R.degree, None if exps is not None else values_dt)))
    buffer = _scratch()  # one call's scratch: the column source's, the transform's and the sums'
    if exps is not None and d > 2 and R.N & (R.N - 1):  # the table's exponents are masked by N - 1
        columns = _exponent_columns(R, p, n, exps, d, source_dt, buffer)
    else:
        table = fn.coeffs.astype(values_dt) if exps is None else exps
        columns = _derivative_columns(R, p, n, table, d, source_dt, buffer, quarter_dt)
    total = np.zeros(R.degree, dtype=object)
    for shifts, w, keys in _column_sets(p, n, d, R.N):
        if not len(w):
            continue
        # a quarter column has a quarter of the rows: 4 * step of them fill a chunk's scratch
        quarter = keys is not None
        bound, cols = (-(-K // 4), 4 * step) if quarter else (K, step)
        square_dt, _, acc_dt = _kernel_dtypes(p, n, R.degree, bound, cols, int(w.max()), R.p)[2:]
        w = w.astype(acc_dt, copy=False)
        for start in range(0, len(w), cols):
            part = slice(start, start + cols)
            g = columns(tuple(h[part] for h in shifts), keys[part] if quarter else None)
            tau = _transform_inplace(R, p, g, -1, buffer)
            sums = _mag4_sums(R, tau, w[part], square_dt, buffer, quarter)
            total += (16 if quarter else 1) * np.array(sums, dtype=object)
    return GowersNormValue.from_parts(d, R, total, size ** (d + 2) * fn.den ** (1 << d))


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
    other functions from ring products.  For d > 4 it averages
    U^{d-1}(d_h f)^{2^{d-1}} over all shifts h.
    """
    if d < 2:
        raise PreconditionError("Gowers norms need d >= 2")
    p, n = fn.p, fn.n
    work = p ** ((d - 2) * n) * p**n * max(n, 1)
    if work > budget.gowers_cap:
        raise BudgetExceeded(f"U^{d} work {work} exceeds budget {budget.gowers_cap}")
    fn = _with_pth_roots(fn)
    if d <= 4:
        return _gowers_columns(fn, d)
    # object coefficients keep the derivatives exact at any size
    fn = BoundedFunction(p, n, fn.ring, fn.coeffs.astype(object), fn.den, exps=fn.exps)
    total = sum(np.array(gowers_norm(fn.mult_derivative(h), d - 1, budget).power_num, dtype=object)
                for h in all_vectors(p, n))
    return GowersNormValue.from_parts(d, fn.ring, total, p ** ((d + 2) * n) * fn.den ** (1 << d))


def direct_gowers_power(fn: BoundedFunction, d: int, budget: Budget = DEFAULT_BUDGET):
    """Definition-chasing oracle: average the full 2^d-corner product.

    It runs on object (Python integer) coefficients, so no product or sum
    can wrap.
    """
    p, n = fn.p, fn.n
    if p ** ((d + 1) * n) > budget.enum_cap:
        raise BudgetExceeded("direct Gowers sum too large")
    fn = BoundedFunction(p, n, fn.ring, fn.coeffs.astype(object), fn.den)

    def rec(g: BoundedFunction, depth: int):
        if depth == 0:
            return g.coeffs.astype(object).sum(axis=1), g.den
        acc = None
        den = None
        for h in all_vectors(p, n):
            num, dd = rec(g.mult_derivative(h), depth - 1)
            acc = num if acc is None else acc + num
            den = dd
        return acc, den * p**n

    num, den = rec(fn, d)
    return GowersNormValue.from_parts(d, fn.ring, num, den * p**n)


# -- correlations and inverse oracles --


def correlation(fn: BoundedFunction, P: NcPoly) -> CorrValue:
    """E_x f(x) e^{-2 pi i P(x)}, exactly: one ``phased_sum`` against -P's exponent table."""
    if (fn.p, fn.n) != (P.p, P.n):
        raise DimensionMismatch("function and polynomial on different spaces")
    m = max(1, P.max_depth_exponent())
    R = common_ring(fn.ring, ring(P.p, m))
    sums = _function_sums(R, fn.embed(R), -P.table(m) * (R.N // P.p**m))
    return CorrValue.from_sum(R, sums[:, 0], fn.den * fn.size)


def _function_sums(R: CycloRing, f: BoundedFunction, expo, labels=0, groups: int = 1) -> np.ndarray:
    """``phased_sum`` of f, a function in ring R, times zeta^expo: on f's
    exponent table when f is a phase (``_kernel_tables``), else on its coefficients."""
    t = _kernel_tables([f])[0]
    return phased_sum(R, None, t + expo, labels, groups) if t.ndim == 1 else phased_sum(R, t, expo, labels, groups)


def average(fn: BoundedFunction) -> CorrValue:
    return CorrValue.from_sum(fn.ring, fn.coeffs.sum(axis=1), fn.den * fn.size)


def u2_inverse(fn: BoundedFunction) -> tuple[Vec, CorrValue]:
    """Exact argmax character: chi maximizing |E f(x) omega^{-<chi, x>}|.

    Also checks the Plancherel bound corr^2 >= ||f||_{U^2}^4 exactly.
    """
    fn = _with_pth_roots(fn)
    R = fn.ring
    tau = char_transform(fn, sign=-1)
    best = first_max(R, tau)
    corr = CorrValue.from_sum(R, tau[:, best], fn.size * fn.den)
    if not corr.mag2() >= gowers_norm(fn, 2).power_surd():  # pragma: no cover
        raise InternalCheckError("Plancherel bound corr^2 >= U2^4 failed")
    return all_vectors(fn.p, fn.n)[best], corr


@lru_cache(maxsize=None)
def _quadratic_candidates(p: int, n: int, classical_only: bool):
    """Monomial tuples of degree <= 2 and their exponent tables, ring depth."""
    tuples = basis_tuples(p, 2, n, depth_allowed=not classical_only)
    m = 1 + max((j for _, j in tuples), default=0)
    zero = TorusValue.zero(p)
    return tuples, m, [NcPoly(p, n, zero, (Monomial(e, j, 1),)).table(m) for e, j in tuples]


def check_oracle_budget(p: int, n: int, classical_only: bool, budget: Budget = DEFAULT_BUDGET) -> None:
    """Raise ``BudgetExceeded`` when ``u3_inverse_bruteforce`` on F_p^n would
    enumerate more than ``budget.quad_oracle_cap`` candidates."""
    ncand = p ** len(basis_tuples(p, 2, n, depth_allowed=not classical_only))
    if ncand > budget.quad_oracle_cap:
        raise BudgetExceeded(f"{ncand} quadratic candidates exceed the oracle budget")


def u3_inverse_bruteforce(
    fn: BoundedFunction,
    classical_only: bool = False,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[NcPoly, CorrValue]:
    """Exact argmax over all degree-<=2 polynomials mod constants.

    Enumeration over the canonical quadratic coefficient tuples; the
    candidates' correlation sums come from ``phased_sum`` of f against the
    conjugate candidate phases, a chunk of max(1, ``_CHUNK_ENTRIES`` // p^n)
    candidates at a time as labels, and the first maximum in enumeration
    order wins (``first_max``).  This is an oracle by enumeration, not a
    proof-driven inverse theorem.
    """
    p, n = fn.p, fn.n
    check_oracle_budget(p, n, classical_only, budget)
    tuples, m, tables = _quadratic_candidates(p, n, classical_only)
    # every candidate coefficient tuple, in itertools.product order, and its phase's exponent table over Z/p^m
    cands = list(itertools.product(range(p), repeat=len(tuples)))
    C = np.array(cands, dtype=np.int64).reshape(len(cands), len(tuples))
    exps = C @ np.array(tables, dtype=np.int64).reshape(len(tuples), p**n)
    R, step = common_ring(fn.ring, ring(p, m)), max(1, _CHUNK_ENTRIES // fn.size)
    chunks = (-exps[i : i + step] * (R.N // p**m) for i in range(0, len(cands), step))
    f = fn.embed(R)
    sums = np.concatenate([_function_sums(R, f, c, np.arange(len(c))[:, None], len(c)) for c in chunks], axis=1)
    best = first_max(R, sums)
    Q = NcPoly.make(p, n, TorusValue.zero(p), [Monomial(e, j, c) for (e, j), c in zip(tuples, cands[best]) if c])
    return Q, CorrValue.from_sum(R, sums[:, best], fn.size * fn.den)


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
    emb = [gs[S].embed(R) for S in range(8)]
    tabs = cube_corner_tables(R, dict(enumerate(_kernel_tables(emb))))
    total = _corner_sums(R, p, n, 4, tabs, None).astype(object).sum(axis=1)
    return CorrValue.from_sum(R, total, math.prod(g.den for g in emb) * p ** (4 * n))


def gcs_check(avg: CorrValue, norms: dict) -> bool:
    """|average| <= prod_S ||g_S||_{U^3}, ``norms`` mapping each of the eight
    bitmasks S to ||g_S||_{U^3} (a ``GowersNormValue``).

    Checked exactly as |average|^16 <= prod_S (||g_S||_{U^3}^8)^2, both
    sides unexpanded ``SurdPower`` products.  The pipeline passes one norm
    for all eight: each g_S is g w^{R_S} with deg R_S <= 2, and
    d^3 R_S = 0 leaves every U^3 norm equal to ||g||_{U^3}."""
    rhs = math.prod((norms[S].power_surd() ** 2 for S in range(8)), start=RealSurd(1))
    return bool(avg.mag2() ** 8 <= rhs)


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
