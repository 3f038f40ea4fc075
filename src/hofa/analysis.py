"""Bounded functions on F_p^n, exact Gowers norms, correlations, and the
U^2 / U^3 inverse oracles.

A function has one of two representations, fixed by its input.  A phase
(``from_exponents``, ``from_poly_phase``, ``ones``) is an exponent table of
zeta_{p^m}, and products, conjugates, shifts, embeddings and restrictions
of phases are exponent arithmetic.  Any other function (loaded from text,
Z[i] values, a copy without ``exps``) is an integer coefficient array over
Z[zeta_{p^m}] with a common denominator, combined by ring products.  A
phase's coefficient planes are derived on their first read and kept; the
kernels read its exponent table instead.  Either way multiplicative
derivatives, character sums and Gowers-norm powers are exact ring elements
for every p.  Magnitudes are
compared exactly, never through floats: the sup-norm check and every
argmax over candidate sums order real ring elements by
``cyclotomic.real_keys``, the argmaxes through one kernel, ``first_max``,
and every other comparison is one of ``cyclotomic.RealSurd``.
One in-place character transform of ``transform`` serves every path: a
Walsh-Hadamard butterfly for p = 2, a radix-3 butterfly on the coefficient
planes for p = 3, and a radix-p butterfly on them for p >= 5.  Exact
U^2..U^4 norms run one column kernel: the transform of f, of each d_h f,
or of each d_{h1} d_{h2} f, one column per orbit of shifts under swapping
them and negating each (orbits of up to 8 pairs at odd p), then sum
|tau|^4, each stage on the narrowest fixed-width integers a stated bound
allows (transform planes from int8, squares from int16) and on Python
integers past it; a phase's constant columns (first shift 0) are counted,
not built; the column sums of the squares are
float64 BLAS dots wherever a chunk's bound shows every partial sum an
integer of at most 2^53, and integer sums past it.  Ring values and phases
read those columns from one first-derivative table T(x, h) = f(x + h)
conj f(x).  At p = 2 a U^4 column of independent shifts a, b is
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
from .fpspace import Subspace, Vec, all_vectors, vec_index
from .ncpoly import Monomial, NcPoly, basis_tuples
from .torus import TorusValue
from .transform import _coordinate_weight, _scratch, _transform_inplace


_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1
_FLOAT_EXACT = 2**53  # float64 holds every integer of at most this absolute value
_INT_DTYPES = ((np.int8, 2**7 - 1), (np.int16, 2**15 - 1), (np.int32, _INT32_MAX), (np.int64, _INT64_MAX))
_VALUE_DTYPES = _INT_DTYPES[1:]


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
    exps = [f.exps for f in fns]
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


def _phase_coeffs(R: CycloRing, exps: np.ndarray) -> np.ndarray:
    """The (degree, p^n) coefficient planes of the phase zeta^exps: the one
    place a phase's planes are derived from its exponent table."""
    return R.roots_to_coeffs(exps).astype(np.int64)


@dataclass(frozen=True, init=False)
class BoundedFunction:
    """A table of complex values on F_p^n with sup-norm <= 1, in one of two
    representations, chosen by the constructor's input.

    * A *phase* is an exponent table ``exps`` at den 1: value(x) =
      zeta^{exps[x]}, zeta = zeta_N, N = ring.N.  ``from_exponents``,
      ``from_poly_phase``, ``ones`` and every operation on phases keep it as
      that table alone, by exponent arithmetic.  Its ``coeffs`` are derived
      from ``exps`` (``_phase_coeffs``) on their first read and then kept; no
      kernel reads them.
    * A *value table* is ``coeffs`` of shape (ring.degree, p^n) over a
      common denominator ``den``: value(x) = (sum_i coeffs[i, x] zeta^i) /
      den.  Loaded files, Z[i] values and copies without ``exps`` are
      value tables, and ring products combine them.

    Given both at den 1, ``coeffs`` must equal the phase's planes, and the
    function is kept as the phase; given at another den, ``exps`` is dropped.
    """

    p: int
    n: int
    ring: CycloRing
    den: int = 1
    # the exponent table of a phase, None for a value table
    exps: np.ndarray | None = field(default=None, compare=False)
    _coeffs: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __init__(self, p: int, n: int, ring: CycloRing, coeffs: np.ndarray | None = None, den: int = 1, exps=None):
        R, size = ring, p**n
        if den != 1:
            exps = None
        if exps is not None:
            exps = np.asarray(exps)
            if exps.shape != (size,):
                raise DimensionMismatch("exponent table has wrong length")
            if coeffs is not None and not np.array_equal(coeffs, _phase_coeffs(R, exps)):
                raise PreconditionError("coefficients and exponent table give different values")
            coeffs = None
        elif coeffs is None:
            raise PreconditionError("a function needs coefficients, or an exponent table at den 1")
        elif coeffs.shape != (R.degree, size):
            raise DimensionMismatch("coefficient array has wrong shape")
        # a product or |.|^2 of two values stays within (p - 1) degree^2 max|coeff|^2
        # (conjugates within (p - 1) max|coeff|); past int64 the table is kept on Python integers
        elif coeffs.dtype != object and (R.p - 1) * R.degree**2 * int(np.abs(coeffs).max(initial=0)) ** 2 > _INT64_MAX:
            coeffs = coeffs.astype(object)
        for name, value in (("p", p), ("n", n), ("ring", R), ("den", den), ("exps", exps), ("_coeffs", coeffs)):
            object.__setattr__(self, name, value)

    # -- constructors --

    @classmethod
    def ones(cls, p: int, n: int) -> "BoundedFunction":
        return cls(p, n, ring(p, 0), exps=np.zeros(p**n, dtype=np.int64))

    @classmethod
    def from_exponents(cls, p: int, n: int, m: int, exps) -> "BoundedFunction":
        """Unimodular function zeta_{p^m}^{exps[x]}."""
        R = ring(p, m)
        return cls(p, n, R, exps=np.asarray(exps, dtype=np.int64) % R.N)

    @classmethod
    def from_poly_phase(cls, P: NcPoly, conjugate: bool = False) -> "BoundedFunction":
        """The polynomial phase e^{2 pi i P(x)} (conjugated if requested)."""
        m = max(1, P.max_depth_exponent())
        t = P.table(m)
        return cls.from_exponents(P.p, P.n, m, -t if conjugate else t)

    def _phase(self, exps: np.ndarray, R: CycloRing | None = None) -> "BoundedFunction":
        """The phase zeta^exps on this function's space, in R or this ring."""
        return BoundedFunction(self.p, self.n, self.ring if R is None else R, exps=exps)

    # -- basic data access --

    @property
    def coeffs(self) -> np.ndarray:
        """The (degree, p^n) coefficient planes; a phase's are derived on first read and kept."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", _phase_coeffs(self.ring, self.exps))
        return self._coeffs

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
        """Exact sup-norm check: den^2 - |value|^2 >= 0 at every point, signed
        by ``real_keys``; a phase holds by construction, its values being
        roots of unity."""
        if self.exps is not None:
            return True
        slack = -self.ring.mag_squared(self.coeffs).astype(object)
        slack[0] += self.den**2
        return bool((real_keys(self.ring, slack) >= 0).all())

    # -- arithmetic: exponent arithmetic on phases, ring arithmetic on value tables --

    def embed(self, target: CycloRing) -> "BoundedFunction":
        if target.N == self.ring.N:
            return self
        if self.exps is not None:
            return self._phase(self.exps * (target.N // self.ring.N), target)
        M = self.ring.embed_matrix(target)
        return BoundedFunction(self.p, self.n, target, (self.coeffs.T @ M).T, self.den)

    def conj(self) -> "BoundedFunction":
        if self.exps is not None:
            return self._phase(-self.exps % self.ring.N)
        return BoundedFunction(self.p, self.n, self.ring, self.ring.conj_arrays(self.coeffs), self.den)

    def shift_arg(self, h: Vec) -> "BoundedFunction":
        """x -> f(x + h)."""
        return self._take(shift_indices(self.p, self.n, h), self.n)

    def _take(self, idx: np.ndarray, n: int) -> "BoundedFunction":
        """The function i -> f(idx[i]) on F_p^n."""
        if self.exps is not None:
            return BoundedFunction(self.p, n, self.ring, exps=self.exps[idx])
        return BoundedFunction(self.p, n, self.ring, self.coeffs[:, idx], self.den)

    def mul(self, other: "BoundedFunction") -> "BoundedFunction":
        if (self.p, self.n) != (other.p, other.n):
            raise DimensionMismatch("functions on different spaces")
        R = common_ring(self.ring, other.ring)
        a, b = self.embed(R), other.embed(R)
        if a.exps is not None and b.exps is not None:
            return self._phase((a.exps + b.exps) % R.N, R)
        return BoundedFunction(self.p, self.n, R, R.mul_arrays(a.coeffs, b.coeffs), a.den * b.den)

    def mult_derivative(self, h: Vec) -> "BoundedFunction":
        """d_h f(x) = f(x+h) * conj(f(x)); 1-bounded and exact."""
        return self.shift_arg(h).mul(self.conj())

    def restrict_to_coset(self, U: Subspace, shift: Vec) -> "BoundedFunction":
        """The function c -> f(shift + U.basis . c) on F_p^{dim U}: one
        contraction of the coefficient vectors c with the basis, read as
        ``all_vectors`` indices."""
        p, n = self.p, self.n
        basis = np.array(U.basis, dtype=np.int64).reshape(U.dim, n)
        pts = (fpspace.points(p, U.dim) @ basis + np.asarray(shift, dtype=np.int64)) % p
        return self._take(pts @ p ** np.arange(n - 1, -1, -1), U.dim)

    def with_replaced_values(self, replacements: dict) -> "BoundedFunction":
        """Pointwise replacement {x: exponent in current ring}."""
        if self.exps is not None:
            exps = self.exps.copy()
            for x, t in replacements.items():
                exps[vec_index(self.p, x)] = t % self.ring.N
            return self._phase(exps)
        c = self.coeffs.copy()
        for x, t in replacements.items():
            c[:, vec_index(self.p, x)] = self.ring.root(t) * self.den
        return BoundedFunction(self.p, self.n, self.ring, c, self.den)

    def restricted_exps(self) -> np.ndarray | None:
        """``exps``, under the name ``perfbench/layertrace.py`` reads."""
        return self.exps


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


# -- exact character transform --


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
    symmetric in (h1, h2).  Each shift's sign is a symmetry on its own:
    d_{-b} f = conj(d_b f)(. - b), and the other derivatives commute with
    conjugation and translation, so negating b turns the column g into
    x -> conj(g(x - b)), whose transform has the same |tau|^2 values as
    ring elements, permuted.  So each orbit of shifts under swapping and
    negating any of them contributes its size times one column: at odd p
    and d = 4 the orbit of (a, b) is {+-a} x {+-b} and its swap, of size 1,
    4 or 8.  Its representative, its least sorted tuple in index order, has
    each shift the lesser of h and -h, and the pairs a <= b of
    ``triu_indices`` with that property are one per orbit.  Returns the
    index arrays of the representatives (one per shift, all_vectors order)
    and the orbit sizes.
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
    keep = np.logical_and.reduce([h <= neg[h] for h in hs])
    for h in hs:  # the sign of each nonzero shift doubles the orbit
        weights = weights << (h != 0)
    return tuple(h[keep] for h in hs), weights[keep]


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


@lru_cache(maxsize=None)
def _root_rows(R: CycloRing, length: int) -> np.ndarray:
    """Row t: the coefficients of zeta^(t mod N), 0 <= t < length; read-only."""
    rows = R._reduce[np.arange(length) % R.N]
    rows.setflags(write=False)
    return rows


def _derivative_columns(R: CycloRing, p: int, n: int, f: np.ndarray, d: int, dtype, buffer=None, quarter_dtype=None):
    """Column source of ring values (``f`` their (degree, p^n) coefficients)
    and of phases (``f`` their exponent table): f itself for U^2, else one
    first-derivative table T(x, h) = f(x + h) conj f(x), read as d_h f(x) =
    T(x, h) and d_a d_b f(x) = T(x + a, b) conj T(x, b).

    ``columns(shifts, pivots)`` takes one chunk's shift arrays and returns
    its transform planes on ``dtype``.  A quarter column (p = 2, d = 4 only)
    comes with its pivot key (``_pivot_keys``, cached by ``_column_sets``):
    it is read on the rows of ``_pivot_rows`` that the key selects, one
    gather, as its half coordinates (``_half_coordinates``) on
    ``quarter_dtype`` (default ``dtype``).  One routine indexes T at (x + s)
    p^n + h: x + s is x ^ s at p = 2, where it moves the index of T(x + a, b)
    to that of T(x + b, b) = conj T(x, b) in place, and a shift-table entry
    at odd p.  For a phase T is the table De = e(x + h) - e(x) mod N, a
    product of two entries their sum, read from one table of roots whose
    entry t is zeta^(t mod N).  T is on uint8 where the sum of two entries
    stays in range(256) or wraps by a multiple of N (N <= 128, T reduced
    mod N, or N | 256), with 256 roots, else on uint64, reduced, with 2N
    roots; d_h f is one column of T, and at odd p conj T(x, b) = -T(x, b)
    one column of the negated table.  For values T is the coefficient table
    D and a product the ring product (``CycloRing.mul_arrays``), on the
    dtype of ``f``, which ``_kernel_dtypes`` chooses to hold every
    coefficient of f, T and their products and every partial sum forming
    them; conj T(x, b) = T(x + b, -b) at odd p; full columns are multiplied
    straight into planes at least as wide, quarter columns into one product
    array whose half coordinates go to the planes.  At d = 3 D is not
    built, each column being f(x + h) conj f(x) from one gather and one
    product.  Index sums, gathers, products and planes go to arrays of
    ``buffer`` (``_scratch``), so a chunk loop allocates no large array
    here: a returned column is overwritten by the next call."""
    buffer = buffer or _scratch()
    size, phase, N = p**n, f.ndim == 1, R.N
    quarter_dtype = quarter_dtype or dtype
    wraps = N <= 128 or 256 % N == 0  # a phase's table on uint8
    root_rows = _root_rows(R, 256 if wraps else 2 * N)
    roots = root_rows.T.astype(dtype)  # roots[:, t]: the coefficients of zeta^(t mod N)
    if d == 2:  # a new C-contiguous array per call, which the transform overwrites
        return lambda shifts, pivots=None: (np.take(roots, f, axis=1) if phase else np.array(f, dtype, order="C"))[:, :, None]
    sh = _shift_table(p, n)
    x_rows = np.arange(size)[:, None] * size
    if phase:
        if d == 4:
            quarter_roots = root_rows.T.astype(quarter_dtype)
            half = _half_coordinates(quarter_roots, np.empty_like(quarter_roots))
        dt = np.uint8 if wraps else np.uint64  # unsigned: t - N wraps past t where t < N
        T2 = np.take((f % N).astype(dt), sh)
        T2 += ((-f) % N).astype(dt)[:, None]
        if 256 % N:  # reduced mod N: two entries sum below 2N, which the roots cover
            np.minimum(T2, T2 - N, out=T2)
        T = T2.ravel()
        if p > 2 and d == 4:  # conj T = -T as N - T, in (0, N] (T is reduced, N odd): sums stay below 2N
            neg_T = N - T2
    else:
        neg = sh.argmin(axis=1) if p > 2 else None  # x + neg[x] = 0
        cc = R.conj_arrays(f).astype(f.dtype)[:, :, None]
        T = R.mul_arrays(f[:, sh], cc).reshape(R.degree, -1) if d == 4 else f

    def column(name, table, h):  # the columns h of a (p^n, p^n) table
        return np.take(table, h, axis=1, out=buffer(name, (size, len(h)), table.dtype), mode="clip")

    def index(rows, s, h):  # the flat index (x + s) p^n + h of T for each row x, where rows hold x p^n
        if p == 2:  # any flat index (y, k) moves to (y + s, k + h), also in place
            step = (s << n) | h
            return np.bitwise_xor(rows, step, out=buffer("index", (len(rows), len(step)), np.intp))
        at = column("index", sh, s)  # all rows x
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
            return product(gather("gather", column("index", sh, b)), cc, False)
        if d == 3:  # T(x, b)
            g = column("gather", T2, b)
        else:
            a, rows = shifts[0], x_rows
            if quarter:
                rows = np.take(_pivot_rows(n), pivots, axis=1, out=buffer("index", (size // 4, len(b)), np.intp), mode="clip")
                rows <<= n
            at = index(rows, a, b)  # in place on the quarter rows
            g = gather("gather", at)
            if p == 2:  # conj T(x, b) = T(x + b, b): (x + a, b) moved by (a + b, 0)
                conj = gather("gather 2", index(at, a ^ b, 0))
            elif phase:  # conj T(x, b) = -T(x, b)
                conj = column("gather 2", neg_T, b)
            else:  # conj T(x, b) = T(x + b, -b)
                conj = gather("gather 2", index(rows, b, neg[b]))
            if not phase:
                return product(g, conj, quarter)
            g = np.add(g, conj, out=g)
        E = buffer("index", g.shape, np.intp)
        E[...] = g
        out = buffer("planes", (R.degree,) + E.shape, quarter_dtype if quarter else dtype)
        return np.take(half if quarter else roots, E, axis=1, out=out, mode="clip")

    return columns


# float64 entries of a block of ``_pair_sums``: the bytes of a chunk's index
# sums at p = 2
_FLOAT_BLOCK = _CHUNK_ENTRIES // 2


def _pair_sums(planes: np.ndarray, pairs, runs, dtypes, buffer) -> list:
    """sum over ``runs`` (weight, start, stop) of weight sum_{r, start <= c <
    stop} planes[j, r, c] planes[k, r, c], for each (j, k) of ``pairs``, as
    Python integers; ``dtypes`` are the (squares, column sums, chunk sums)
    of ``_kernel_dtypes``.

    On float64 column sums each run is copied to float64 a block of rows at
    a time, about ``_FLOAT_BLOCK`` entries, into bytes the column
    source's index sums and the transform have left (``_SHARED_SCRATCH`` of
    ``transform``), and each run and pair of a block is one BLAS dot.
    ``_kernel_dtypes`` takes that tier only where every entry, every product
    and every partial sum of every pair is an integer of absolute value at
    most 2^53, so each dot is exact in any summation order, with or without
    fused multiply-adds, and converts back to an integer exactly.  Otherwise
    each column is summed on the column sums' dtype (int32 squares on int64)
    and the columns of a run on the chunk sums'.  The weights multiply Python
    integers.
    """
    _, column_dt, chunk_dt = dtypes
    sums = [0] * len(pairs)
    if column_dt is not np.float64:
        for i, (j, k) in enumerate(pairs):
            col = np.einsum("xc,xc->c", planes[j], planes[k], dtype=column_dt)
            sums[i] = sum(weight * int(col[start:stop].sum(dtype=chunk_dt)) for weight, start, stop in runs)
        return sums
    count, rows, cols = planes.shape
    block = buffer("float block", (min(planes.size, max(_FLOAT_BLOCK, count * cols)),), np.float64)
    for weight, start, stop in runs:
        step = max(1, _FLOAT_BLOCK // (count * (stop - start)))  # rows per block
        for lo in range(0, rows, step):
            part = planes[:, lo : lo + step, start:stop]
            run = block[: part.size].reshape(part.shape)
            np.copyto(run, part)
            for i, (j, k) in enumerate(pairs):
                sums[i] += weight * int(np.vdot(run[j], run[k]))
    return sums


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


def _mag4_sums(R: CycloRing, tau: np.ndarray, runs, dtypes, buffer=None, half: bool = False) -> tuple:
    """Weighted sum of sum_chi |tau|^4 over all columns, or with ``half`` of
    sum_phi (|W + conj W|^4 + |W - conj W|^4), as ring coefficients.

    ``tau`` holds the transform of each ring-coefficient plane, shape
    (degree, rows, columns), or with ``half`` that of the half coordinates
    (``_half_coordinates``); ``runs`` (weight, start, stop) cover its
    columns, each of which counts ``weight`` times.  Each entry squares to
    a real element w with h = degree / 2 coordinates on the basis e of
    ``_real_cos``: w = |tau|^2 by ``_mag2_terms``, or w = z^2 by
    ``_real_squares`` for z a half, real up to a factor i, so that |z|^4 =
    z^4.  Coordinate k of both halves lies in planes 2k and 2k + 1, so one
    view stacks the halves and one pass squares both.  Then sum w^2 comes
    from the weighted sums of the products of pairs of coordinates of w
    (``_pair_sums``), squared by ``_real_squares``.  Rings other than
    Z[zeta_{2^m}] and Z[omega] sum the Gram matrix of the |tau|^2 planes the
    same way and fold it with zeta^(i+j).  ``dtypes`` are the (squares,
    column sums, chunk sums) of ``_kernel_dtypes``: the products are formed
    on the squares' dtype in arrays of ``buffer`` (``_scratch``) and summed
    by ``_pair_sums``.
    """
    buffer = buffer or _scratch()
    dtype = dtypes[0]
    d, cols = tau.shape[0], tau.shape[-1]
    h = max(d // 2, 1)
    terms = _real_squares(h) if half else _mag2_terms(R.N)
    if terms is None:  # |tau|^2 = tau conj(tau), conj(tau) from one matmul of the planes, both in the scratch
        planes = tau.reshape(d, -1)
        conj = np.matmul(R._conj.T.astype(dtype), planes, out=buffer("gram conj", planes.shape, dtype))
        m2 = R.mul_arrays(tau, conj.reshape(tau.shape), out=buffer("gram squares", tau.shape, dtype))
        pairs = list(zip(*np.triu_indices(d)))
        gram = np.zeros((d, d), dtype=object)
        for (i, j), s in zip(pairs, _pair_sums(m2, pairs, runs, dtypes, buffer)):
            gram[i, j] = gram[j, i] = s
        return tuple(int(c) for c in R._fold @ gram.ravel())  # the product's fold, zeta^{i+j}
    z = tau.reshape(h, -1, cols) if half else tau  # with half, z[k]: coordinate k of both halves, stacked
    shape, prod, started = z.shape[1:], None, set()  # started: coordinates of w holding their first term
    squares = buffer("squares", (h,) + shape, dtype)
    z, w = list(z), list(squares)  # the plane views, taken once
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
    squared = _real_squares(h)
    for (_, _, coords), s in zip(squared, _pair_sums(squares, [(j, k) for j, k, _ in squared], runs, dtypes, buffer)):
        for m, c in coords:
            w4[m] += c * s
    return tuple(w4 + [0] * (d > 1) + [-c for c in w4[:0:-1]])  # e_k = zeta^k - zeta^(degree-k)


@lru_cache(maxsize=4096)
def _kernel_dtypes(
    p: int, n: int, degree: int, K: int, step: int, weight: int, q: int | None = None, quarter: bool = False
) -> tuple:
    """dtypes of the column kernel: (values, transform planes, squares, column
    sums, chunk sums).

    Every column g on F_p^n has |s(g(x))|^2 <= K in every embedding s; chunks
    hold ``step`` columns of weight at most ``weight``.  The ring is
    Z[zeta_{q^m}], q = p unless ``q`` says otherwise (a ring of odd order at
    p = 2).  Its trace form is at least q^{m-1} times the square norm on the
    power basis, so a coefficient of an element is at most sqrt(q - 1) times
    its largest embedding.

    The planes.  A whole-space column's transform has |s(tau)| <= p^n sqrt
    K, and so has every array a butterfly stage writes (``transform``), so
    each plane coefficient is at most B = sqrt((q - 1) K) p^n.  With
    ``quarter`` the columns are the U^4 quarter columns at p = 2 in
    Z[zeta_{2^m}] (``_gowers_columns``): the half coordinates of g +- conj g
    on 2^(n-2) rows, |s(g +- conj g)| <= 2 sqrt K.  The Walsh-Hadamard
    stages keep the halves within 2^(n-1) sqrt K, and a coordinate on the
    basis e of ``_real_cos`` is a power-basis coefficient up to sign, at
    most the largest embedding, so B = 2^(n-1) sqrt K (n >= 2).  Before the
    transform a coefficient of g or of its halves is at most 2 sqrt K <= B.
    The planes take the narrowest of int8, int16, int32 and int64 that holds
    floor(B), the largest integer within B.

    The squares are the coordinates of w = |tau|^2 (``_mag2_terms``) or w =
    z^2 on the halves (``_real_squares``) in ``_mag4_sums``, each coordinate
    summed from its terms c z_j z_k with |z_j z_k| <= B^2, so every product
    and partial sum forming it stays within S = B^2 times the coordinate's
    sum of |c| (``_coordinate_weight``).  In Z[omega] the one coordinate is
    summed in order, z_0^2, z_0^2 - z_0 z_1 = |z|^2 - z_1^2, |z|^2, and
    |z|^2 = |s(tau)|^2 <= p^{2n} K, so there S = max(B^2, p^{2n} K).  They
    take the narrowest of int16, int32 and int64 that holds S.  Other rings
    sum a Gram matrix of the planes of |tau|^2, sums of at most degree^2
    products of two plane coefficients: within degree^2 B^2, on int32 where
    that fits, past it on int64.  Where degree^2 B^2 passes int64 every
    stage runs on object dtype.

    The values are f, the first-derivative table T and the ring products
    that form T and the columns (``_derivative_columns``).  Every such
    product has two factors with |s(.)|^2 <= sqrt K: values of f, whose
    |s(f)|^2 <= M2 is sqrt K at d = 3 and K^(1/4) at d = 4, or entries of T,
    with |s(T)|^2 <= M2^2 = sqrt K at d = 4.  A coefficient is at most
    sqrt(q - 1) <= sqrt(degree) times the largest embedding, so
    every coefficient of a factor is at most (degree^2 K)^(1/4), and every
    partial sum of a product at most V = degree^3 sqrt K, which also holds
    f's own coefficients at d = 2 (K = M2).  The values take the narrowest
    of int16, int32 and int64 that holds V; quarter columns are formed by
    the same products.

    The column sums are sum_x w_j(x) w_k(x) over a chunk for pairs (j, k) of
    planes (``_pair_sums``): of the coordinates of w on the basis e of
    ``_real_cos`` in Z[zeta_{2^m}] and Z[omega], or of |tau|^2 on the power
    basis (the Gram fold).  Each column bounds the absolute sum, not only
    the signed one: sum_x |w_j w_k| <= sum_x (w_j^2 + w_k^2) / 2 <= sum_x
    sum_l w_l^2, and that stays within (q - 1) p^{4n} K^2 on both bases.
    On the power basis the trace form gives sum_l w_l^2 <= q^{1-m} sum_s
    s(w)^2, and s(|tau|^2) = |s(tau)|^2, with sum_chi |s(tau)|^4 <= p^{4n}
    K^2 (Parseval), so a column's sum is at most q^{1-m} degree p^{4n} K^2
    = (q - 1) p^{4n} K^2.  On the basis e a real
    w = w_0 + sum_k w_k (zeta^k - zeta^{degree-k}) has power coefficients
    w_0 and +-w_k, so sum_l w_l^2 is at most their sum of squares, which is
    sum_s s(w)^2 / degree in Z[zeta_{2^m}]; there s(w) = |s(tau)|^2, or for
    the half coordinates s(w) = s(z)^2 with sum_s s(z)^4 over both halves
    sum_s |s(tau)|^4 / 16, so the column stays within p^{4n} K^2, or 2^(4n)
    K^2 / 16 on the halves.  In Z[omega] w = |tau|^2 is its own one
    coordinate and its value in either embedding, so the column stays
    within p^{4n} K^2 there too.  So where the chunk's bound step weight
    times a column's is at most 2^53, every square, every product w_j w_k
    and every partial sum of them in any order is an integer of absolute
    value at most 2^53, which float64 holds exactly: the column sums run on
    float64 (BLAS dots) and the weighted chunk sums on int64.  Past it each
    column is summed on int64 where its bound fits, and the weighted chunk
    on int64 while step weight times that fits, else on Python integers.
    """
    size, q = p**n, q or p
    plane_sq = K * 4**n // 4 if quarter else (q - 1) * K * size**2  # B^2
    square_bound = degree**2 * plane_sq
    values = next((dt for dt, top in _VALUE_DTYPES if degree**6 * K <= top * top), None)
    if square_bound > _INT64_MAX or values is None:
        return (object,) * 5
    B = math.isqrt(plane_sq)
    planes = next(dt for dt, top in _INT_DTYPES if B <= top)
    col_bound = size**4 * K**2 // 16 if quarter else (q - 1) * size**4 * K**2
    if col_bound > _INT64_MAX:
        return values, planes, object, object, object
    N = degree * q // (q - 1)  # the ring's order, up to Z = Z[zeta_2]
    terms = _real_squares(max(degree // 2, 1)) if quarter else _mag2_terms(N)
    if terms is None:
        squares = np.int32 if square_bound <= _INT32_MAX else np.int64
    else:
        S = max(B * B, size**2 * K) if N == 3 else B * B * _coordinate_weight(terms)
        squares = next(dt for dt, top in _VALUE_DTYPES if S <= top)
    chunk_bound = step * weight * col_bound
    if chunk_bound <= _FLOAT_EXACT:
        return values, planes, squares, np.float64, np.int64
    return values, planes, squares, np.int64, np.int64 if chunk_bound <= _INT64_MAX else object


def _chunk_divisor(p: int, degree: int, values) -> int:
    """How many times narrower than ``_CHUNK_ENTRIES`` entries per plane a
    chunk of whole-space columns is; quarter columns take four times as
    many.  Phase columns (``values`` None) keep int64 index sums beside
    their planes, in half-size chunks at p = 2; at odd p they keep whole
    chunks, as a radix-p butterfly stage works on runs of p^stage times the
    columns and slows down on shorter runs (U^4 on F_3^5 takes 15% longer
    in half-size chunks).  Value columns keep index sums too, and gathers and
    products of ``degree`` planes on ``values``: their chunks are narrower
    again by the bytes of those planes over 8, those of the index sums."""
    if values is None:
        return 2 if p == 2 else 1
    return 2 * max(1, degree * np.dtype(values).itemsize // 8)


@lru_cache(maxsize=None)
def _column_sets(p: int, n: int, d: int, N: int, phase: bool = False) -> tuple:
    """The U^d columns as sets of (shifts, runs, pivot keys), built once per
    (p, n, d, N, phase) and read-only: the orbits of ``_derivative_orbits``,
    but at p = 2, d = 4 in Z[zeta_N], N = 2^m, the independent pairs a, b as
    a quarter-size set (see ``_gowers_columns``), first, with the key of
    each pair's complement rows (``_pivot_keys``), and the pairs a = 0 or a
    = b on their own.  Each set is sorted by orbit size, stably, into runs
    (weight, start, stop) of columns that all count ``weight`` times, an
    integer: at p = 2 the quarter columns are one run of weight 2 and the
    others runs of weights 1 and 2; at odd p the weights are 1 and 2 at
    d = 3, and 1, 4 and 8 at d = 4.  A set of whole-space columns has no
    keys (None); at d = 2 the one column of f has no shifts either.  For a
    ``phase`` (d >= 3) the columns of first shift 0 are the constant 1, as
    d_0 g = |g|^2 = 1, and are not built: they come last, as the set (None,
    ((their total weight, 0, 1),), None)."""
    hs, weights = _derivative_orbits(p, n, d)
    quarter = p == 2 and d == 4 and (N & (N - 1)) == 0
    q = (hs[0] != 0) & (hs[0] != hs[1]) if quarter else np.zeros(len(weights), dtype=bool)
    const = (hs[0] == 0) if phase and d > 2 else np.zeros(len(weights), dtype=bool)
    sets = []
    for part, keyed in ((q, True), (~q & ~const, False)):
        idx = np.flatnonzero(part)
        if not len(idx):
            continue
        if (weights[idx[1:]] < weights[idx[:-1]]).any():  # one copy of each array, in order of weight
            idx = idx[np.argsort(weights[idx], kind="stable")]
        shifts, w = tuple(h[idx] for h in hs), weights[idx]
        keys = _pivot_keys(n, *shifts) if keyed else None
        for a in shifts + (() if keys is None else (keys,)):
            a.setflags(write=False)
        cuts = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist(), len(w)]
        sets.append((shifts, tuple((int(w[a]), a, b) for a, b in zip(cuts, cuts[1:])), keys))
    if const.any():
        sets.append((None, ((int(weights[const].sum()), 0, 1),), None))
    return tuple(sets)


def _gowers_columns(fn: BoundedFunction, d: int) -> GowersNormValue:
    """Exact ||f||_{U^d}^{2^d}, d in {2, 3, 4}, over one column kernel.

    Every U^2 base case is one column g on F_p^n: f itself (d = 2), d_h f
    (d = 3), or d_{h1} d_{h2} f (d = 4), one column per orbit of
    ``_derivative_orbits``.  Columns go through the character transform in
    chunks, in place, and sum_chi |tau|^4 is summed per chunk
    (``_mag4_sums``), each run of one orbit size in ``_column_sets`` weighted
    by that size.  Ring values and phases read their derivative columns from
    one first-derivative table (``_derivative_columns``).  With |s(f(x))|^2
    <= M2 in every embedding s, a column has |s(g)|^2 <= K = M2^(2^(d-2)), which
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
    they sum to sum |s(tau)|^4 / 16 <= 2^(4n) K^2 / 16, the bounds of
    ``_kernel_dtypes`` with ``quarter``.  The 2^(n+1) - 1 other columns, and
    every column at odd p or d < 4, run on the whole space.  A phase's
    columns of first shift 0 are the constant 1 (d_0 g = |g|^2), whose
    transform is p^n at chi = 0 and 0 elsewhere: they add p^{4n} times their
    total weight without being built (``_column_sets``): at p = 2 the 2^n
    U^4 columns a = 0 of those 2^(n+1) - 1.
    """
    p, n, R = fn.p, fn.n, fn.ring
    size = p**n
    exps = fn.exps
    M2 = 1 if exps is not None else _modulus_bound_sq(R, fn.coeffs)
    K = M2 ** (1 << (d - 2))
    values_dt, source_dt = _kernel_dtypes(p, n, R.degree, K, 1, 1, R.p)[:2]
    quarter_dt = _kernel_dtypes(p, n, R.degree, K, 1, 1, R.p, True)[1]
    step = max(1, _CHUNK_ENTRIES // (size * _chunk_divisor(p, R.degree, None if exps is not None else values_dt)))
    buffer = _scratch()  # one call's scratch: the column source's, the transform's and the sums'
    table = fn.coeffs.astype(values_dt) if exps is None else exps
    columns = _derivative_columns(R, p, n, table, d, source_dt, buffer, quarter_dt)
    total = np.zeros(R.degree, dtype=object)
    for shifts, runs, keys in _column_sets(p, n, d, R.N, exps is not None):
        if shifts is None:  # a phase's constant columns: tau is p^n at chi = 0 and 0 elsewhere
            total[0] += runs[0][0] * size**4
            continue
        # a quarter column has a quarter of the rows: 4 * step of them fill a chunk's scratch
        quarter = keys is not None
        cols = 4 * step if quarter else step
        dtypes = _kernel_dtypes(p, n, R.degree, K, cols, max(w for w, _, _ in runs), R.p, quarter)[2:]
        for start in range(0, runs[-1][2], cols):
            part = slice(start, start + cols)
            g = columns(tuple(h[part] for h in shifts), keys[part] if quarter else None)
            tau = _transform_inplace(R, p, g, -1, buffer)
            # the chunk's columns as runs of one weight
            within = tuple((w, max(a, start) - start, min(b, start + cols) - start)
                           for w, a, b in runs if start < b and a < start + cols)
            sums = _mag4_sums(R, tau, within, dtypes, buffer, quarter)
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
    U^3, d_{h1} d_{h2} f for U^4, one column per orbit of shifts under
    swapping them and negating each (``_derivative_orbits``), weighted by
    the orbit's size.  Phases carrying ``exps`` build their columns from
    exponent tables, other functions from ring products.  For d > 4 it
    averages U^{d-1}(d_h f)^{2^{d-1}} over all shifts h, once for each pair
    {h, -h} with weight 2: d_{-h} f = conj(d_h f)(. - h) has the same norm.
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
    if fn.exps is None:  # object coefficients keep the derivatives of values exact at any size
        fn = BoundedFunction(p, n, fn.ring, fn.coeffs.astype(object), fn.den)
    vecs = all_vectors(p, n)
    hs, weights = _derivative_orbits(p, n, 3)  # h and -h once, as d_{-h} f = conj(d_h f)(. - h)
    total = sum(w * np.array(gowers_norm(fn.mult_derivative(vecs[h]), d - 1, budget).power_num, dtype=object)
                for h, w in zip(hs[0].tolist(), weights.tolist()))
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
