"""Reference ring arithmetic for the tests, independent of ``hofa.cyclotomic``.

Powers of zeta are reduced by long division by Phi_{p^m}, and products use
an einsum over the d x d x d fold table, so the kernels under test are
checked against arithmetic that shares none of their code.  The one
exceptions are former code kept as references: ``ref_column_power``, the
full-size U^d column loop of ``hofa.analysis``, its phase columns from
gathers of the exponents and its shifts folded by ``ref_orbits`` (swapping
and joint negation only), for its quarter-size U^4 columns, the
first-derivative table and the orbits under negating each shift on its
own, ``ref_quarter_exponents``, the former four-gather quarter rows of its
exponent columns, for that table's quarter rows,
``ref_complement_rows``, the former ``analysis._complement_rows``, for the
pivot keys cached with the column sets, and ``RefSurd`` with
``ref_surd_sign``, the former a + b*sqrt(2) ``RealSurd`` of
``hofa.cyclotomic``, for the one exact real number there.
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from hofa import analysis as an


@lru_cache(maxsize=None)
def ref_reduce(p: int, m: int) -> np.ndarray:
    """Row t: the coefficients of x^t mod Phi_{p^m}(x), 0 <= t < p^m."""
    N = p**m
    if N == 1:  # Phi_1 = x - 1
        return np.ones((1, 1), dtype=np.int64)
    e = N // p
    d = N - e
    rows = np.zeros((N, d), dtype=np.int64)
    for t in range(N):
        poly = [0] * max(t + 1, d)
        poly[t] = 1
        for top in range(t, d - 1, -1):  # Phi = sum_{l < p} x^{l e} is monic of degree d
            c = poly[top]
            if c:
                for l in range(p):
                    poly[top - d + l * e] -= c
        rows[t] = poly[:d]
    return rows


def ref_mul(R, A, B):
    """The einsum product over the fold table basis_i * basis_j = zeta^{i+j}."""
    red = ref_reduce(R.p, R.m)
    d = red.shape[1]
    table = red[(np.arange(d)[:, None] + np.arange(d)) % R.N]
    return np.einsum("i...,j...,ijk->k...", A, B, table)


def ref_conj(R, A):
    """zeta^i -> zeta^{-i} on (degree, ...) coefficient arrays."""
    red = ref_reduce(R.p, R.m)
    return np.einsum("i...,ik->k...", A, red[(R.N - np.arange(red.shape[1])) % R.N])


def ref_roots(R, exps):
    """zeta^{exps} as a (degree,) + exps.shape coefficient array."""
    return np.moveaxis(ref_reduce(R.p, R.m)[np.asarray(exps) % R.N], -1, 0)


def ref_phased_sum(R, prod, expo, masks=None):
    """Per-entry reference for ``analysis.phased_sum``: every entry times its
    own root zeta_N^expo (N = R.N) in a full ring product, ``prod`` None
    standing for 1 at every entry, summed on Python integers, over all
    entries or under each boolean mask; the raw (degree,) or (degree,
    len(masks)) sums."""
    roots = ref_roots(R, expo).astype(object)
    if prod is None:
        prod = ref_roots(R, np.zeros(np.shape(expo), dtype=np.int64))
    prod = ref_mul(R, np.asarray(prod, dtype=object), roots)
    if masks is None:
        return prod.reshape(prod.shape[0], -1).sum(axis=1)
    return np.stack([prod[:, np.broadcast_to(mask, prod.shape[1:])].sum(axis=1) for mask in masks], axis=1)


def ref_first_max(R, sums):
    """The former ``analysis.first_max``, for N in {1, 2, 3, 4, 8}: each
    |S|^2 read as a + b sqrt2 (b = 0 outside Z[zeta_8]) on Python integers,
    the first maximum kept by a pairwise scan that signs each difference
    from its square, a^2 against 2 b^2."""
    if R.N not in (1, 2, 3, 4, 8):
        raise ValueError("the reference orders Z, Z[i], Z[omega] and Z[zeta_8] only")
    sums = np.asarray(sums, dtype=object)
    sq = ref_mul(R, sums, ref_conj(R, sums))
    a, b = sq[0], (sq[1] if R.N == 8 else sq[0] * 0)

    def sign(x, y):  # of x + y sqrt2
        sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
        if sx * sy >= 0:
            return sx or sy
        d = x * x - 2 * y * y
        return sx * ((d > 0) - (d < 0))

    best = 0
    for j in range(1, sums.shape[1]):
        if sign(a[j] - a[best], b[j] - b[best]) > 0:
            best = j
    return best


def ref_orbits(p, n, d):
    """The former ``analysis._derivative_orbits``: the U^d shifts (one
    index array per shift) up to swapping (d = 4) and joint negation, each
    representative the lesser of its sorted tuple and its negation's, with
    the orbit sizes 1, 2 or 4."""
    size = p**n
    if d == 2:
        return (), np.ones(1, dtype=np.int64)
    if d == 3:
        hs, weights = (np.arange(size),), np.ones(size, dtype=np.int64)
    else:
        h1, h2 = np.triu_indices(size)
        hs, weights = (h1, h2), np.where(h1 == h2, 1, 2)
    digits = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).reshape(size, n)
    neg = (-digits % p) @ p ** np.arange(n - 1, -1, -1)  # the index of -x
    key = hs[0] * size + hs[-1]
    negs = neg[np.array(hs)]
    nkey = negs.min(axis=0) * size + negs.max(axis=0)
    keep = key <= nkey
    return tuple(h[keep] for h in hs), (weights * np.where(key == nkey, 1, 2))[keep]


def ref_column_power(fn, d):
    """The former ``analysis._gowers_columns`` loop, d in {2, 3, 4}: every
    orbit of derivative shifts of ``ref_orbits`` transformed on all of
    F_p^n, its sum of |tau|^4 weighted by the orbit size, with the dtypes of
    ``_kernel_dtypes`` at the columns' bound K but the column sums always on
    integers; returns the ``GowersNormValue``.  A phase's column is zeta^E
    for E(x) = e(x + a + b) - e(x + a) - e(x + b) + e(x) (d = 4; e(x + h) -
    e(x) for d = 3), from gathers of its exponents."""
    p, n, R = fn.p, fn.n, fn.ring
    size = p**n
    exps = fn.restricted_exps()
    M2 = 1 if exps is not None else an._modulus_bound_sq(R, fn.coeffs)
    hs, weights = ref_orbits(p, n, d)
    step = max(1, an._CHUNK_ENTRIES // (size if exps is not None else 2 * size * R.degree))
    K = M2 ** (1 << (d - 2))
    values_dt, plane_dt, _, sum_dt, acc_dt = an._kernel_dtypes(p, n, R.degree, K, step, int(weights.max()))
    sum_dt = object if sum_dt is object else np.int64  # integer squares and column sums, never the float tier
    if exps is None:
        columns = an._derivative_columns(R, p, n, fn.coeffs.astype(values_dt), d, plane_dt)
    else:
        sh, x = an._shift_table(p, n), np.arange(size)[:, None]

        def columns(shifts):
            if d == 2:
                return ref_roots(R, exps[x])
            if d == 3:
                return ref_roots(R, exps[sh[x, shifts[0]]] - exps[x])
            xa, xb = sh[x, shifts[0]], sh[x, shifts[1]]
            return ref_roots(R, exps[sh[xa, shifts[1]]] - exps[xa] - exps[xb] + exps[x])
    total = [0] * R.degree
    for start in range(0, len(weights), step):
        part = slice(start, start + step)
        cols = np.ascontiguousarray(columns(tuple(h[part] for h in hs)), dtype=plane_dt)
        tau = an._transform_inplace(R, p, cols, -1)
        runs = tuple((int(w), c, c + 1) for c, w in enumerate(weights[part]))  # each column its own run
        for i, c in enumerate(an._mag4_sums(R, tau, runs, (sum_dt, sum_dt, acc_dt))):
            total[i] += c
    return an.GowersNormValue.from_parts(d, R, np.array(total, dtype=object), size ** (d + 2) * fn.den ** (1 << d))


def ref_complement_rows(n, a, b):
    """The former ``analysis._complement_rows``: rows of the quarter columns
    at p = 2, for independent shifts a, b (one pair per column), the
    (2^(n-2), columns) indices of C of ``_pivot_keys``, in order of c,
    gathered from ``_pivot_rows``."""
    return np.take(an._pivot_rows(n), an._pivot_keys(n, a, b), axis=1)


def ref_quarter_exponents(R, n, exps, a, b):
    """The former quarter rows of the exponent column source: on the rows
    c of ``ref_complement_rows``, E(c) = e(c ^ a ^ b) - e(c ^ a) - e(c ^ b) +
    e(c) from four gathers of the exponents, and the half coordinates of
    zeta^E (``_half_coordinates``), shape (degree, 2^(n-2), columns)."""
    rows = ref_complement_rows(n, a, b)
    E = exps[rows ^ a ^ b] - exps[rows ^ a] - exps[rows ^ b] + exps[rows]
    roots = ref_roots(R, E)
    return an._half_coordinates(roots, np.empty_like(roots))


def ref_surd_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2) for rational (or integer) a and b."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    d = a * a - 2 * b * b  # opposite signs: a dominates iff a^2 > 2 b^2
    return sa * ((d > 0) - (d < 0))


@dataclass(frozen=True)
class RefSurd:
    """The former ``RealSurd``: a + b*sqrt(2) with rational a, b, the real
    elements of Q, Q(i), Q(omega) and Q(zeta_8)."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __add__(self, o):
        return RefSurd(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return RefSurd(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return RefSurd(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __pow__(self, k: int):
        if self.b == 0:
            return RefSurd(self.a**k)
        d = math.lcm(self.a.denominator, self.b.denominator)
        x, y = self.a.numerator * (d // self.a.denominator), self.b.numerator * (d // self.b.denominator)
        X, Y, e = 1, 0, k
        while e:
            if e & 1:
                X, Y = X * x + 2 * Y * y, X * y + Y * x
            x, y = x * x + 2 * y * y, 2 * x * y
            e >>= 1
        return RefSurd(Fraction(X, d**k), Fraction(Y, d**k))

    def sign(self) -> int:
        return ref_surd_sign(self.a, self.b)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2)
