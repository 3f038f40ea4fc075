"""Multilinear and multiaffine forms on (F_p^n)^k as dense coefficient tensors.

A k-linear form is T(x_1, ..., x_k) = sum_j c_j x_{1,j_1} ... x_{k,j_k};
the tensor of coefficients determines everything.  The symmetry, nCSM and
CSM predicates are decided by the multiplicity-pattern characterization:
grouping index tuples j by the vector i(j) of coordinate multiplicities,

  * symmetric  <=>  c constant on each i-class;
  * nCSM       <=>  c constant on each i'-class, where i' reduces each
                    nonzero multiplicity into {1, ..., p-1} mod (p-1);
  * CSM        <=>  symmetric and c = 0 whenever some multiplicity >= p.

Direct evaluation of the defining repeated-variable identities is kept in
the test suite as an independent oracle for these pattern checks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fpspace
from .errors import DimensionMismatch, InternalCheckError, PreconditionError
from .fpspace import Subspace, Vec, check_prime
from .ncpoly import NcPoly
from .torus import TorusValue

TENSOR_CAP = 1 << 24  # max n^k coefficient count


def _as_tensor(p: int, n: int, k: int, coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.int64) % p
    if arr.shape != (n,) * k:
        raise DimensionMismatch(f"tensor shape {arr.shape} != {(n,) * k}")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class MultilinearForm:
    p: int
    n: int
    k: int
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self):
        check_prime(self.p)
        if self.n**self.k > TENSOR_CAP:
            raise DimensionMismatch(f"n^k = {self.n ** self.k} exceeds tensor cap")
        object.__setattr__(self, "coeffs", _as_tensor(self.p, self.n, self.k, self.coeffs))

    # frozen dataclass equality must look at tensor contents
    def __eq__(self, other):
        return (
            isinstance(other, MultilinearForm)
            and (self.p, self.n, self.k) == (other.p, other.n, other.k)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.k, self.coeffs.tobytes()))

    @classmethod
    def zero(cls, p: int, n: int, k: int) -> "MultilinearForm":
        return cls(p, n, k, np.zeros((n,) * k, dtype=np.int8))

    @classmethod
    def from_entries(cls, p: int, n: int, k: int, entries: dict) -> "MultilinearForm":
        t = np.zeros((n,) * k, dtype=np.int64)
        for idx, c in entries.items():
            t[tuple(idx)] = c % p
        return cls(p, n, k, t)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def eval(self, *args: Vec) -> int:
        if len(args) != self.k:
            raise DimensionMismatch(f"expected {self.k} arguments, got {len(args)}")
        cur = self.coeffs.astype(np.int64)
        for x in args:
            if len(x) != self.n:
                raise DimensionMismatch("argument has wrong dimension")
            cur = np.tensordot(cur, np.asarray(x, dtype=np.int64), axes=([0], [0])) % self.p
        return int(cur)

    def __add__(self, other: "MultilinearForm") -> "MultilinearForm":
        self._check_same(other)
        return MultilinearForm(self.p, self.n, self.k, self.coeffs.astype(np.int64) + other.coeffs)

    def __sub__(self, other: "MultilinearForm") -> "MultilinearForm":
        self._check_same(other)
        return MultilinearForm(self.p, self.n, self.k, self.coeffs.astype(np.int64) - other.coeffs)

    def __neg__(self) -> "MultilinearForm":
        return MultilinearForm(self.p, self.n, self.k, -self.coeffs.astype(np.int64))

    def scale(self, c: int) -> "MultilinearForm":
        return MultilinearForm(self.p, self.n, self.k, c * self.coeffs.astype(np.int64))

    def _check_same(self, other):
        if (self.p, self.n, self.k) != (other.p, other.n, other.k):
            raise DimensionMismatch("forms live on different spaces")

    def entries(self):
        for idx in itertools.product(range(self.n), repeat=self.k):
            c = int(self.coeffs[idx])
            if c:
                yield idx, c


class BilinearForm(MultilinearForm):
    """k = 2 specialization; coefficient tensor is the matrix."""

    def __init__(self, p: int, n: int, coeffs):
        super().__init__(p, n, 2, coeffs)

    @property
    def matrix(self) -> np.ndarray:
        return self.coeffs


def as_bilinear(T: MultilinearForm) -> BilinearForm:
    if T.k != 2:
        raise DimensionMismatch("not a bilinear form")
    return BilinearForm(T.p, T.n, T.coeffs)


def permute(T: MultilinearForm, perm) -> MultilinearForm:
    """Right action: eval(permute(T, pi), x_1..x_k) = eval(T, x_{pi(1)}, ..., x_{pi(k)}).

    ``perm`` is a 0-indexed tuple with pi(i) = perm[i].
    """
    if sorted(perm) != list(range(T.k)):
        raise ValueError("not a permutation of the slots")
    inv = [0] * T.k
    for i, v in enumerate(perm):
        inv[v] = i
    return MultilinearForm(T.p, T.n, T.k, np.transpose(T.coeffs, axes=inv))


def compose_perms(pi, sigma):
    """Left-to-right composition (pi . sigma)(i) = sigma(pi(i)).

    This is the convention under which ``permute`` is a right action:
    permute(permute(T, pi), sigma) == permute(T, compose_perms(pi, sigma)).
    """
    return tuple(sigma[pi[i]] for i in range(len(pi)))


S3 = tuple(itertools.permutations(range(3)))
TRANSPOSITIONS_3 = ((1, 0, 2), (2, 1, 0), (0, 2, 1))


@lru_cache(maxsize=None)
def _multiplicity_classes(n: int, k: int, p: int):
    """Group the n^k index tuples by i-pattern and by i'-pattern.

    Returns (i_class_ids, iprime_class_ids, patterns) where the class id
    arrays are flat over the tensor in C order, and patterns[class_id]
    is the multiplicity vector of an i-class representative.
    """
    i_ids = {}
    ip_ids = {}
    i_of = np.empty(n**k, dtype=np.int64)
    ip_of = np.empty(n**k, dtype=np.int64)
    i_patterns = []
    for flat, idx in enumerate(itertools.product(range(n), repeat=k)):
        mult = [0] * n
        for j in idx:
            mult[j] += 1
        mult_t = tuple(mult)
        if mult_t not in i_ids:
            i_ids[mult_t] = len(i_ids)
            i_patterns.append(mult_t)
        i_of[flat] = i_ids[mult_t]
        red = tuple(0 if c == 0 else (c - 1) % (p - 1) + 1 for c in mult)
        if red not in ip_ids:
            ip_ids[red] = len(ip_ids)
        ip_of[flat] = ip_ids[red]
    return i_of, ip_of, tuple(i_patterns)


@lru_cache(maxsize=None)
def _class_leads(n: int, k: int, p: int):
    """Per flat entry: the flat index of the first entry of its i-class and
    of its i'-class, and whether its i-pattern has a multiplicity >= p."""
    i_of, ip_of, patterns = _multiplicity_classes(n, k, p)
    # class ids count up from 0 in C order, so unique's first indices line up with them
    leads = tuple(np.unique(ids, return_index=True)[1][ids] for ids in (i_of, ip_of))
    return leads + (np.array([max(pat, default=0) >= p for pat in patterns], dtype=bool)[i_of],)


def _constant_on_classes(values: np.ndarray, lead: np.ndarray):
    """None if every entry equals the first entry of its class (flat index
    lead[j]), else the pair (lead[j], j) for the first j that does not."""
    bad = values != values[lead]
    if not bad.any():
        return None
    j = int(bad.argmax())
    return int(lead[j]), j


def _index_tuple(T: MultilinearForm, flat: int) -> tuple:
    return tuple(int(i) for i in np.unravel_index(flat, (T.n,) * T.k))


def is_symmetric(T: MultilinearForm) -> bool:
    i_lead, _, _ = _class_leads(T.n, T.k, T.p)
    return _constant_on_classes(T.coeffs.reshape(-1), i_lead) is None


def is_ncsm(T: MultilinearForm) -> bool:
    """Non-classical symmetric multilinear: the image class of d^k on all polys."""
    return ncsm_witness(T) is None


def is_csm(T: MultilinearForm) -> bool:
    """Classical symmetric multilinear: the image class of d^k on classical polys."""
    return csm_witness(T) is None


def ncsm_witness(T: MultilinearForm):
    """Index-tuple pair violating the nCSM pattern condition, or None."""
    _, ip_lead, _ = _class_leads(T.n, T.k, T.p)
    w = _constant_on_classes(T.coeffs.reshape(-1), ip_lead)
    return None if w is None else (_index_tuple(T, w[0]), _index_tuple(T, w[1]))


def csm_witness(T: MultilinearForm):
    """("asymmetric", pair) or ("repeated-variable value nonzero", index tuple)
    violating the CSM pattern condition, or None."""
    flat = T.coeffs.reshape(-1)
    i_lead, _, repeated = _class_leads(T.n, T.k, T.p)
    w = _constant_on_classes(flat, i_lead)
    if w is not None:
        return ("asymmetric", _index_tuple(T, w[0]), _index_tuple(T, w[1]))
    bad = repeated & (flat != 0)
    return ("repeated-variable value nonzero", _index_tuple(T, int(bad.argmax()))) if bad.any() else None


# -- evaluation-based oracles for the predicates (used by tests and counts) --

VALUE_CUBE_POINTS = 1 << 20  # largest value cube the oracles build


def value_cube(T: MultilinearForm) -> np.ndarray:
    """Full value table of T over all argument tuples, axes indexed by points."""
    size = T.p**T.n
    if size**T.k > VALUE_CUBE_POINTS:
        raise PreconditionError("evaluation oracle budget exceeded")
    return _pullback(T.coeffs, fpspace.points(T.p, T.n).T, T.p)


def eval_many(T: MultilinearForm, args: np.ndarray) -> np.ndarray:
    """T at each of S argument tuples at once; ``args`` has shape (S, k, n)."""
    args = np.asarray(args, dtype=np.int64)
    if args.shape[1:] != (T.k, T.n):
        raise DimensionMismatch(f"argument block {args.shape[1:]} != {(T.k, T.n)}")
    cur = np.broadcast_to(T.coeffs.astype(np.int64), (len(args),) + T.coeffs.shape)
    for i in range(T.k):  # contract the leading slot axis, sample by sample
        cur = np.einsum("sj...,sj->s...", cur, args[:, i]) % T.p
    return cur


def is_symmetric_eval(T: MultilinearForm) -> bool:
    cube = value_cube(T)
    return all(
        np.array_equal(cube, np.transpose(cube, pi))
        for pi in itertools.permutations(range(T.k))
    )


def _repeated_first(cube: np.ndarray, p: int) -> np.ndarray:
    """Values with the first argument repeated p times: T(h1 x p, h2, ...)."""
    k = cube.ndim
    letters = "abcdefghij"
    src = letters[0] * p + letters[1 : k - p + 1]
    dst = letters[0 : k - p + 1]
    return np.einsum(f"{src}->{dst}", cube)


def _repeated_second(cube: np.ndarray, p: int) -> np.ndarray:
    """Values with the second argument repeated p times: T(h1, h2 x p, ...)."""
    k = cube.ndim
    letters = "abcdefghij"
    src = letters[0] + letters[1] * p + letters[2 : k - p + 1]
    dst = letters[0 : k - p + 1]
    return np.einsum(f"{src}->{dst}", cube)


def is_ncsm_eval(T: MultilinearForm) -> bool:
    """Direct check of symmetry plus the repeated-variable identity.

    The extra identity compares the form with h_1 repeated p times against
    the form with h_2 repeated p times; it needs k - p + 1 >= 2 distinct
    variables and is vacuous otherwise.
    """
    if not is_symmetric_eval(T):
        return False
    r = T.k - T.p + 1
    if r < 2:
        return True
    cube = value_cube(T)
    return np.array_equal(_repeated_first(cube, T.p), _repeated_second(cube, T.p))


def is_csm_eval(T: MultilinearForm) -> bool:
    if not is_symmetric_eval(T):
        return False
    r = T.k - T.p + 1
    if r < 1:
        return True
    cube = value_cube(T)
    return not _repeated_first(cube, T.p).any()


# -- total derivative --


def total_derivative(P: NcPoly, k: int) -> MultilinearForm:
    """d^k P as a k-linear form: the k-fold additive derivative at 0.

    Entry idx is the alternating sum over subsets S of P(sum_{i in S}
    e_{idx_i}); all n^k entries are summed at once from P's value table, as
    exact numerators over the common denominator p^M.  The sum always lands
    on the (1/p)-grid, which is identified with F_p; any off-grid value
    signals a bug.
    """
    if P.degree() > k:
        raise PreconditionError(f"degree {P.degree()} exceeds k = {k}")
    p, n = P.p, P.n
    M = max(P.max_depth_exponent(), 1)
    mod = p**M
    # the summands are < mod and there are 2^k of them
    dtype = np.int64 if (mod << k) < 1 << 62 else object
    # onehot[i, idx, j] = [idx_i == j] over the n^k index grid
    grid = np.indices((n,) * k).reshape(k, n**k)
    onehot = (grid[:, :, None] == np.arange(n)).astype(np.int64)
    masks = range(1 << k)
    # pts[S, idx] = sum_{i in S} e_{idx_i}, a point of F_p^n
    pts = np.stack([onehot[[i for i in range(k) if S >> i & 1]].sum(axis=0) % p for S in masks])
    vals = P.table(M).astype(dtype)[pts @ p ** np.arange(n - 1, -1, -1)]  # by all_vectors index
    signs = np.array([(-1) ** (k - bin(S).count("1")) for S in masks], dtype=np.int64)
    total = (signs.astype(dtype) @ vals) % mod
    off = np.flatnonzero(total % (mod // p))
    if len(off):  # pragma: no cover
        idx = tuple(int(i) for i in np.unravel_index(off[0], (n,) * k))
        raise InternalCheckError(f"total derivative off the 1/p grid at {idx}: {total[off[0]]}/{mod}")
    return MultilinearForm(p, n, k, (total // (mod // p)).astype(np.int64).reshape((n,) * k))


def total_derivative_at(P: NcPoly, hs, x: Vec) -> TorusValue:
    """(Delta_{h_1} ... Delta_{h_k} P)(x) by the alternating-sum definition."""
    p = P.p
    k = len(hs)
    total = TorusValue.zero(p)
    for S in range(1 << k):
        pt = x
        for i in range(k):
            if S >> i & 1:
                pt = fpspace.vec_add(p, pt, hs[i])
        v = P.evaluate(pt)
        total = total + (v if (-1) ** (k - bin(S).count("1")) > 0 else -v)
    return total


# -- restriction / extension / basis change --


def restrict(T: MultilinearForm, U: Subspace) -> MultilinearForm:
    """T restricted to U, expressed in U-basis coordinates."""
    if U.n != T.n or U.p != T.p:
        raise DimensionMismatch("subspace does not match the form's space")
    B = np.array(U.basis, dtype=np.int64).reshape(U.dim, U.n)
    return MultilinearForm(T.p, U.dim, T.k, _pullback(T.coeffs, B.T, T.p))


def extend(S_U: MultilinearForm, U: Subspace, W: Subspace) -> MultilinearForm:
    """Extend a form on U (in U-coordinates) to V by S(u + w, ...) = S_U(u, ...).

    W must be a complement of U; the extension vanishes whenever any
    argument lies in W, and it preserves symmetry / nCSM / CSM membership.
    """
    p, n = U.p, U.n
    if S_U.n != U.dim:
        raise DimensionMismatch("form is not in U-coordinates")
    if U.dim + W.dim != n or fpspace.subspace_intersection(U, W).dim != 0:
        raise PreconditionError("W is not a complement of U")
    rows = list(U.basis) + list(W.basis)
    Cinv = fpspace.mat_inverse(p, rows)  # x = coords . C with C rows = (basis U, basis W)
    Cinv_arr = np.array(Cinv, dtype=np.int64)
    # projection onto U-coordinates along W: (pi x)_a = sum_j P_mat[a, j] x_j
    P_mat = Cinv_arr[:, : U.dim].T % p
    ext = MultilinearForm(p, n, S_U.k, _pullback(S_U.coeffs, P_mat, p))
    for pred in (is_symmetric, is_ncsm, is_csm):
        if pred(S_U) and not pred(ext):  # pragma: no cover
            raise InternalCheckError(f"extension lost {pred.__name__}")
    return ext


def _pullback(coeffs: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """Tensor of (x_1..x_k) -> S(M x_1, ..., M x_k); M shape (dim_S, n):
    ``_pullbacks`` of one tensor."""
    return _pullbacks(np.asarray(coeffs)[..., None], M, p)[0]


def _pullbacks(stack: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """``_pullback`` of every tensor of a (dim_S, ..., dim_S, B) stack, the
    stack axis last; the result has shape (B, n, ..., n).

    One matmul per slot contracts the leading slot axis with M and puts the
    new axis last: after k slots the stack axis leads and the new axes
    follow in slot order.  The shapes are explicit, so dim_S = 0 or n = 0
    give zero-size axes."""
    d, n = M.shape
    cur = np.asarray(stack, dtype=np.int64)
    B, k = cur.shape[-1], cur.ndim - 1
    for i in range(k):
        cur = (cur.reshape(d, d ** (k - 1 - i) * n**i * B).T @ M) % p
    return cur.reshape((B,) + (n,) * k)


def change_of_dual_basis(T: MultilinearForm, A_rows) -> np.ndarray:
    """Coefficients of T in the dual basis alpha_i(x) = (A x)_i.

    Returns T' with T(x_1..x_k) = sum T'[i] prod alpha_{i_l}(x_l), i.e.
    T = pullback(T', A), so T' = pullback(T, A^{-1}).
    """
    Ainv = fpspace.mat_inverse(T.p, A_rows)
    Ainv_arr = np.array(Ainv, dtype=np.int64)
    return _pullback(T.coeffs, Ainv_arr % T.p, T.p)


# -- multiaffine forms --


@dataclass(frozen=True)
class MultiaffineForm:
    """One multilinear component per subset of the k slots; affine per slot."""

    p: int
    n: int
    k: int
    components: tuple  # tuple of (frozenset slots, MultilinearForm on those slots)

    def __post_init__(self):
        check_prime(self.p)
        if self.k > 4:
            raise DimensionMismatch("multiaffine arity capped at 4")
        seen = set()
        for slots, comp in self.components:
            if slots in seen:
                raise ValueError("duplicate component subset")
            seen.add(slots)
            if comp.k != len(slots) or comp.n != self.n or comp.p != self.p:
                raise DimensionMismatch("component shape mismatch")

    @classmethod
    def make(cls, p: int, n: int, k: int, comps: dict) -> "MultiaffineForm":
        items = []
        for slots, comp in comps.items():
            fs = frozenset(slots)
            if isinstance(comp, MultilinearForm):
                if not comp.is_zero():
                    items.append((fs, comp))
            else:  # the empty subset: a constant in F_p
                if len(fs) != 0:
                    raise ValueError("non-form component must be the constant")
                if comp % p:
                    items.append((fs, MultilinearForm(p, n, 0, np.array(comp % p))))
        items.sort(key=lambda it: (len(it[0]), sorted(it[0])))
        return cls(p, n, k, tuple(items))

    @classmethod
    def from_multilinear(cls, T: MultilinearForm) -> "MultiaffineForm":
        return cls.make(T.p, T.n, T.k, {tuple(range(T.k)): T})

    def component(self, slots) -> MultilinearForm | None:
        fs = frozenset(slots)
        for s, comp in self.components:
            if s == fs:
                return comp
        return None

    def constant(self) -> int:
        c = self.component(())
        return int(c.coeffs) if c is not None else 0

    def eval(self, *args: Vec) -> int:
        if len(args) != self.k:
            raise DimensionMismatch("wrong number of arguments")
        total = 0
        for slots, comp in self.components:
            if len(slots) == 0:
                total += int(comp.coeffs)
            else:
                total += comp.eval(*(args[i] for i in sorted(slots)))
        return total % self.p


def multilinear_part(phi: MultiaffineForm) -> MultilinearForm:
    comp = phi.component(tuple(range(phi.k)))
    if comp is None:
        return MultilinearForm.zero(phi.p, phi.n, phi.k)
    return comp


def green_tao_average(T: MultilinearForm) -> MultilinearForm:
    """The S_3-average (1/6) sum_pi T_pi.  Requires 6 invertible, so p >= 5."""
    if T.k != 3:
        raise DimensionMismatch("S_3 averaging needs a trilinear form")
    if T.p in (2, 3):
        raise PreconditionError(
            f"averaging over S_3 divides by 6, which is not invertible mod {T.p}"
        )
    inv6 = pow(6, -1, T.p)
    acc = np.zeros_like(T.coeffs, dtype=np.int64)
    for pi in S3:
        acc += permute(T, pi).coeffs
    return MultilinearForm(T.p, T.n, T.k, inv6 * acc)


def random_form(rng, p: int, n: int, k: int) -> MultilinearForm:
    t = np.array([rng.randrange(p) for _ in range(n**k)], dtype=np.int64).reshape((n,) * k)
    return MultilinearForm(p, n, k, t)


def random_symmetric_form(rng, p: int, n: int, k: int) -> MultilinearForm:
    i_of, _, _ = _multiplicity_classes(n, k, p)
    nclasses = int(i_of.max()) + 1 if len(i_of) else 0
    vals = [rng.randrange(p) for _ in range(nclasses)]
    flat = np.array([vals[c] for c in i_of], dtype=np.int64)
    return MultilinearForm(p, n, k, flat.reshape((n,) * k))


def random_ncsm_form(rng, p: int, n: int, k: int) -> MultilinearForm:
    _, ip_of, _ = _multiplicity_classes(n, k, p)
    nclasses = int(ip_of.max()) + 1 if len(ip_of) else 0
    vals = [rng.randrange(p) for _ in range(nclasses)]
    flat = np.array([vals[c] for c in ip_of], dtype=np.int64)
    return MultilinearForm(p, n, k, flat.reshape((n,) * k))
