"""Exact linear algebra and enumeration over V = F_p^n  (p in {2, 3, 5}).

Vectors and linear-form coefficient rows are tuples of ints in
{0, ..., p-1}; all arithmetic is mod p and exact.  Subspaces carry a
reduced-echelon basis together with a canonical list of vanishing linear
forms, so equality of subspaces is plain representational equality and
every pipeline construction built on them is deterministic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetExceeded, DimensionMismatch

SUPPORTED_PRIMES = (2, 3, 5)

Vec = tuple  # length-n tuple of ints in {0, ..., p-1}


def check_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; supported primes are {SUPPORTED_PRIMES}")


def unit_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def vec_add(p: int, x: Vec, y: Vec) -> Vec:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths {len(x)} != {len(y)}")
    return tuple((a + b) % p for a, b in zip(x, y))


def dot(p: int, a: Vec, x: Vec) -> int:
    """Evaluate the linear form with coefficients ``a`` at ``x``."""
    if len(a) != len(x):
        raise DimensionMismatch(f"form length {len(a)} != vector length {len(x)}")
    return sum(ai * xi for ai, xi in zip(a, x)) % p


@lru_cache(maxsize=None)
def all_vectors(p: int, n: int) -> tuple[Vec, ...]:
    """All of F_p^n in lexicographic order (first coordinate most significant)."""
    return tuple(itertools.product(range(p), repeat=n))


@lru_cache(maxsize=None)
def points(p: int, n: int) -> np.ndarray:
    """``all_vectors(p, n)`` as a read-only (p^n, n) int64 matrix, one row per point."""
    X = np.array(all_vectors(p, n), dtype=np.int64).reshape(p**n, n)
    X.flags.writeable = False
    return X


def vec_index(p: int, x: Vec) -> int:
    """Position of ``x`` in the ``all_vectors`` order."""
    idx = 0
    for a in x:
        idx = idx * p + a
    return idx


def rref(p: int, rows) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form mod p.

    Returns the nonzero rows (as tuples) and the pivot column indices.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    n = len(mat[0])
    for r in mat:
        if len(r) != n:
            raise DimensionMismatch("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % p != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c] % p, -1, p)
        mat[r] = [(inv * v) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p != 0:
                f = mat[i][c] % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def mat_rank(p: int, rows) -> int:
    return len(rref(p, rows)[0])


def stack_ranks(p: int, mats: np.ndarray) -> np.ndarray:
    """Rank mod p of each matrix of a (B, rows, cols) stack, by one
    Gauss-Jordan elimination run on the whole stack (on a copy, exact in
    int64).

    Column by column, every matrix takes its first row not yet used as a
    pivot with a nonzero entry there, and clears that column in every other
    row with the entry's inverse; a matrix with no such row is left as it
    is.  Pivot rows are marked, not moved, and the rank counts them.
    """
    a = np.asarray(mats, dtype=np.int64) % p
    B, nrows, ncols = a.shape
    rank = np.zeros(B, dtype=np.int64)
    used = np.zeros((B, nrows), dtype=bool)
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    mat = np.arange(B)
    for c in range(ncols if nrows else 0):
        col = a[:, :, c]
        cand = (col != 0) & ~used
        piv = cand.argmax(axis=1)
        found = cand[mat, piv]
        factor = col * inv[col[mat, piv]][:, None] % p  # zero where no pivot was found
        factor[mat, piv] = 0
        a = (a - factor[:, :, None] * a[mat, piv][:, None, :]) % p
        used[mat, piv] |= found
        rank += found
    return rank


def nullspace_basis(p: int, rows, n: int) -> list[Vec]:
    """Canonical (re-echelonized) basis of {x : row . x = 0 for all rows}."""
    red, pivots = rref(p, rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = (-row[f]) % p
        basis.append(tuple(v))
    return rref(p, basis)[0]


def mat_inverse(p: int, rows) -> list[Vec]:
    """Inverse of a square matrix mod p (rows of the inverse)."""
    n = len(rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = rref(p, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [tuple(row[n:]) for row in red]


def solve_linear(p: int, rows, rhs) -> Vec | None:
    """One solution x of rows . x = rhs, or None if inconsistent."""
    n = len(rows[0]) if rows else len(rhs) * 0
    aug = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    red, pivots = rref(p, aug)
    for row, c in zip(red, pivots):
        if c == n:  # 0 = 1 row
            return None
    x = [0] * n
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n in canonical (reduced echelon) representation."""

    p: int
    n: int
    basis: tuple[Vec, ...]
    vanishing_forms: tuple[Vec, ...]

    def __post_init__(self):
        check_prime(self.p)
        for v in self.basis:
            if len(v) != self.n:
                raise DimensionMismatch("basis vector has wrong length")
        for L in self.vanishing_forms:
            if len(L) != self.n:
                raise DimensionMismatch("vanishing form has wrong length")
        if len(self.basis) + len(self.vanishing_forms) != self.n:
            raise ValueError("dim + codim != n")
        for L in self.vanishing_forms:
            for v in self.basis:
                if dot(self.p, L, v) != 0:
                    raise ValueError("vanishing form does not annihilate basis")

    @classmethod
    def from_basis(cls, p: int, n: int, vectors) -> "Subspace":
        rows, _ = rref(p, [tuple(v) for v in vectors])
        forms = nullspace_basis(p, rows, n)
        return cls(p, n, tuple(rows), tuple(forms))

    @classmethod
    def full(cls, p: int, n: int) -> "Subspace":
        return cls.from_basis(p, n, [unit_vec(n, i) for i in range(n)])

    @classmethod
    def zero_space(cls, p: int, n: int) -> "Subspace":
        return cls.from_basis(p, n, [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return len(self.vanishing_forms)

    def contains(self, v: Vec) -> bool:
        return all(dot(self.p, L, v) == 0 for L in self.vanishing_forms)


def kernel(p: int, n: int, rows) -> Subspace:
    """Common zero set of the given linear forms, as a canonical Subspace."""
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch("linear form has wrong length")
    basis = nullspace_basis(p, rows, n)
    forms, _ = rref(p, rows)
    return Subspace(p, n, tuple(basis), tuple(forms))


def complement(U: Subspace) -> Subspace:
    """Deterministic complement spanned by the non-pivot coordinates of U."""
    _, pivots = rref(U.p, U.basis)
    free = [c for c in range(U.n) if c not in pivots]
    return Subspace.from_basis(U.p, U.n, [unit_vec(U.n, c) for c in free])


def enumerate_subspace(U: Subspace, budget: Budget = DEFAULT_BUDGET):
    """Yield each element of U exactly once.

    Order is lexicographic in the basis coefficients (last basis vector
    varies fastest), so the zero vector always comes first.
    """
    size = U.p ** U.dim
    if size > budget.enum_cap:
        raise BudgetExceeded(f"p^dim = {size} exceeds enumeration cap {budget.enum_cap}")
    for coeffs in itertools.product(range(U.p), repeat=U.dim):
        v = [0] * U.n
        for c, b in zip(coeffs, U.basis):
            for i in range(U.n):
                v[i] = (v[i] + c * b[i]) % U.p
        yield tuple(v)


def subspace_intersection(U: Subspace, W: Subspace) -> Subspace:
    return kernel(U.p, U.n, list(U.vanishing_forms) + list(W.vanishing_forms))


def embed_from_subspace(U: Subspace, coeffs: Vec) -> Vec:
    """Map U-basis coordinates to the ambient space."""
    v = [0] * U.n
    for c, b in zip(coeffs, U.basis):
        for i in range(U.n):
            v[i] = (v[i] + c * b[i]) % U.p
    return tuple(v)


def compose_subspace(U: Subspace, inner: Subspace) -> Subspace:
    """Given ``inner`` expressed in U-basis coordinates, return it as a
    subspace of the ambient space of U."""
    if inner.n != U.dim:
        raise DimensionMismatch("inner subspace does not live in U-coordinates")
    vectors = [embed_from_subspace(U, b) for b in inner.basis]
    return Subspace.from_basis(U.p, U.n, vectors)


def random_vector(rng, p: int, n: int) -> Vec:
    return tuple(rng.randrange(p) for _ in range(n))


def random_subspace(rng, p: int, n: int, dim: int | None = None) -> Subspace:
    """A random subspace of dimension ``dim``, or of a random one."""
    if dim is None:
        dim = rng.randrange(n + 1)
    if not 0 <= dim <= n:
        raise DimensionMismatch(f"no subspace of dimension {dim} in F_{p}^{n}")
    vectors = [random_vector(rng, p, n) for _ in range(dim + 2)]
    while (U := Subspace.from_basis(p, n, vectors)).dim < dim:
        vectors.append(random_vector(rng, p, n))
    while U.dim > dim:
        U = Subspace.from_basis(p, n, list(U.basis)[: U.dim - 1])
    return U
