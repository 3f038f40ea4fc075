"""Exact rank theory for multilinear forms: analytic rank, matrix rank,
certified partition-rank upper bounds, and exhaustive search at tiny sizes.

The bias of a k-linear form,

    bias(T) = E_{h_1..h_k} omega^{T(h_1, ..., h_k)} = p^{-arank(T)},

is always a nonnegative rational: averaging the character sum over the
first slot leaves the density of tuples whose first-slot slice form
vanishes.  Everything here is computed as exact Fractions; the float
arank is derived for reporting only.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import fpspace, mforms
from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetExceeded, DimensionMismatch, InternalCheckError, PreconditionError
from .fpspace import Subspace, all_vectors
from .mforms import MultilinearForm


@dataclass(frozen=True)
class RankResult:
    bias: Fraction
    arank: float

    @classmethod
    def from_bias(cls, p: int, bias: Fraction) -> "RankResult":
        ar = math.inf if bias == 0 else -math.log(bias) / math.log(p)
        return cls(bias, ar)


def naive_bias(T: MultilinearForm, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    """Character-sum oracle: counts each value of T over all p^{nk} tuples.

    The nonzero values appear equally often (scaling any slot permutes
    them), which is checked; the sum then telescopes to (N_0 - N_*) / p^{nk}.
    """
    p, n, k = T.p, T.n, T.k
    total = p ** (n * k)
    if total > budget.enum_cap:
        raise BudgetExceeded(f"p^(nk) = {total} exceeds enumeration cap")
    counts = [0] * p
    vecs = all_vectors(p, n)
    for args in itertools.product(vecs, repeat=k):
        counts[T.eval(*args)] += 1
    if len(set(counts[1:])) > 1:
        raise InternalCheckError(f"nonzero form values are not equidistributed: {counts}")
    return Fraction(counts[0] - (counts[1] if p > 1 else 0), total)


def bilinear_rank(B: MultilinearForm) -> tuple[int, Subspace, Subspace]:
    """Matrix rank with left and right nullspaces (as subspaces of V)."""
    if B.k != 2:
        raise DimensionMismatch("bilinear rank needs k = 2")
    rows = [tuple(int(c) for c in row) for row in B.coeffs]
    r = fpspace.mat_rank(B.p, rows)
    # right nullspace: {y : B(x, y) = 0 for all x} = kernel of the rows
    right = fpspace.kernel(B.p, B.n, rows)
    cols = [tuple(int(c) for c in col) for col in B.coeffs.T]
    left = fpspace.kernel(B.p, B.n, cols)
    return r, left, right


def analytic_rank(T: MultilinearForm, budget: Budget = DEFAULT_BUDGET) -> RankResult:
    """Exact bias / analytic rank via bilinear slice ranks.

    Contracts the first k-2 slots with explicit vectors and uses
    E omega^{B} = p^{-rank B} on each bilinear slice; for k = 2 this is a
    single rank computation, and for k = 1 the bias is 1 or 0.
    """
    p, n, k = T.p, T.n, T.k
    if k == 0:
        return RankResult.from_bias(p, Fraction(1) if int(T.coeffs) % p == 0 else Fraction(0))
    if k == 1:
        return RankResult.from_bias(p, Fraction(1) if T.is_zero() else Fraction(0))
    outer = p ** (n * (k - 2))
    if outer * (n**3) > budget.enum_cap:
        raise BudgetExceeded("slice enumeration exceeds budget")
    vecs = all_vectors(p, n)
    total = Fraction(0)
    for head in itertools.product(vecs, repeat=k - 2):
        cur = T.coeffs.astype(np.int64)
        for x in head:
            cur = np.tensordot(cur, np.asarray(x, dtype=np.int64), axes=([0], [0])) % p
        r = fpspace.mat_rank(p, [tuple(int(c) for c in row) for row in cur])
        total += Fraction(1, p**r)
    return RankResult.from_bias(p, total / outer)


def arank_ceil(p: int, bias: Fraction) -> int:
    """Smallest integer s with p^{-s} <= bias (exact)."""
    if bias <= 0:
        raise ValueError("zero bias has infinite analytic rank")
    s = 0
    scaled = bias
    while scaled < 1:
        scaled *= p
        s += 1
    return s


# -- partition-rank certificates --


@dataclass(frozen=True)
class CertTerm:
    """One partition-rank-1 term: left(x_I) * right(x_{[k] \\ I})."""

    slots: tuple  # sorted slot indices of I (0-based), proper nonempty subset
    left: MultilinearForm  # arity |I|
    right: MultilinearForm  # arity k - |I|

    def slot_order(self, k: int) -> list:
        """The slots of I, then the complement: the axis order of left (x) right."""
        return list(self.slots) + [i for i in range(k) if i not in self.slots]

    def tensor(self, k: int) -> np.ndarray:
        """Full coefficient tensor of the term, axes in slot order."""
        p = self.left.p
        out = np.multiply.outer(self.left.coeffs.astype(np.int64), self.right.coeffs)
        return (np.moveaxis(out, range(k), self.slot_order(k)) % p).astype(np.int8)


@dataclass(frozen=True)
class RankCertificate:
    """Explicit decomposition certifying prank(claimed_form) <= len(terms)."""

    claimed_form: MultilinearForm
    terms: tuple

    def __post_init__(self):
        k = self.claimed_form.k
        for t in self.terms:
            if not (0 < len(t.slots) < k):
                raise ValueError("term subset must be proper and nonempty")
            if t.left.k != len(t.slots) or t.right.k != k - len(t.slots):
                raise DimensionMismatch("factor arities do not match the subset")

    def __len__(self) -> int:
        return len(self.terms)

    def reconstruct(self) -> MultilinearForm:
        f = self.claimed_form
        acc = np.zeros((f.n,) * f.k, dtype=np.int64)
        for t in self.terms:
            acc = (acc + t.tensor(f.k)) % f.p
        return MultilinearForm(f.p, f.n, f.k, acc)

    def linear_factors(self):
        """All single-slot factors appearing in the terms, as coefficient rows."""
        out = []
        for t in self.terms:
            if len(t.slots) == 1:
                out.append(tuple(int(c) for c in t.left.coeffs))
            if t.right.k == 1:
                out.append(tuple(int(c) for c in t.right.coeffs))
        return out


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    mode: str  # "exhaustive" or "sampled"
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def empty_certificate(T: MultilinearForm) -> RankCertificate:
    return RankCertificate(T, ())


def certified_cube(cert: RankCertificate) -> np.ndarray:
    """Value cube of the certified sum sum_t left(x_I) right(x_{[k] \\ I}) mod p,
    axes indexed by points like ``mforms.value_cube``."""
    f = cert.claimed_form
    p, k = f.p, f.k
    acc = np.zeros((p**f.n,) * k, dtype=np.int64)
    for t in cert.terms:
        prod = np.multiply.outer(mforms.value_cube(t.left), mforms.value_cube(t.right))
        acc = (acc + np.moveaxis(prod, range(k), t.slot_order(k))) % p
    return acc


def certified_values(cert: RankCertificate, args: np.ndarray) -> np.ndarray:
    """The certified sum at each argument tuple; ``args`` has shape (S, k, n)."""
    f = cert.claimed_form
    acc = np.zeros(len(args), dtype=np.int64)
    for t in cert.terms:
        order = t.slot_order(f.k)
        left = mforms.eval_many(t.left, args[:, order[: len(t.slots)]])
        right = mforms.eval_many(t.right, args[:, order[len(t.slots) :]])
        acc = (acc + left * right) % f.p
    return acc


def verify_certificate(
    cert: RankCertificate,
    sample_points: int = 10_000,
    budget: Budget = DEFAULT_BUDGET,
    rng=None,
) -> VerifyResult:
    """Re-evaluate the certified sum against the claimed form.

    Tensor reconstruction is always compared exactly; on small spaces the
    certified sum is also evaluated at every argument tuple (as one value
    cube), otherwise at a seeded sample of tuples and the result is flagged
    as sampled.  The witness is the first failing tuple in
    ``itertools.product`` order, or in sample order.
    """
    f = cert.claimed_form
    if cert.reconstruct() != f:
        diff = (cert.reconstruct().coeffs.astype(np.int64) - f.coeffs) % f.p
        idx = tuple(int(i) for i in np.argwhere(diff)[0])
        return VerifyResult(False, "exhaustive", witness=idx)
    p, n, k = f.p, f.n, f.k
    vecs = all_vectors(p, n)
    if p ** (n * k) <= min(budget.enum_cap, 1 << 16):
        bad = np.flatnonzero(certified_cube(cert) != mforms.value_cube(f))
        if len(bad):
            pos = np.unravel_index(bad[0], (len(vecs),) * k)
            return VerifyResult(False, "exhaustive", witness=tuple(vecs[int(i)] for i in pos))
        return VerifyResult(True, "exhaustive")
    import random as _random

    rng = rng or _random.Random(0)
    picks = [rng.randrange(len(vecs)) for _ in range(sample_points * k)]
    picks = np.array(picks, dtype=np.int64).reshape(sample_points, k)
    X = np.array(vecs, dtype=np.int64)
    # chunks keep the (samples x n^(k-1)) contraction intermediates small
    step = max(1, (1 << 20) // n ** (k - 1))
    for lo in range(0, sample_points, step):
        args = X[picks[lo : lo + step]]
        bad = np.flatnonzero(certified_values(cert, args) != mforms.eval_many(f, args))
        if len(bad):
            witness = tuple(vecs[int(i)] for i in picks[lo + bad[0]])
            return VerifyResult(False, "sampled", witness=witness)
    return VerifyResult(True, "sampled")


def vanishing_decomposition(T: MultilinearForm, U: Subspace) -> RankCertificate:
    """Certificate with <= k*codim(U) terms for a form vanishing on U^k.

    Uses a dual basis alpha_1..alpha_n with the first r = codim(U) forms
    cutting U out; expressing T in that basis kills every coefficient whose
    indices all exceed r, and grouping by the first small index factors T
    into (linear in one slot) x (rest).
    """
    p, n, k = T.p, T.n, T.k
    if U.n != n or U.p != p:
        raise DimensionMismatch("subspace/form mismatch")
    RU = mforms.restrict(T, U)
    if not RU.is_zero():
        idx = tuple(int(i) for i in np.argwhere(RU.coeffs)[0])
        args = tuple(U.basis[i] for i in idx)
        raise PreconditionError("form does not vanish on the subspace", witness=args)
    r = U.codim
    if r == 0:
        if not T.is_zero():  # restriction to U = V being zero forces T = 0
            raise PreconditionError("nonzero form with codim-0 vanishing space")
        return empty_certificate(T)
    # dual basis rows: vanishing forms of U first, completed to a basis
    rows = [list(f) for f in U.vanishing_forms]
    completed, _ = fpspace.rref(p, rows)
    alpha = [tuple(row) for row in completed]
    pivots = fpspace.rref(p, alpha)[1]
    for j in range(n):
        if j not in pivots:
            alpha.append(fpspace.unit_vec(n, j))
    A = alpha  # n rows, invertible
    Tprime = mforms.change_of_dual_basis(T, A)
    A_arr = np.array(A, dtype=np.int64)
    terms = []
    for slot in range(k):
        for ell in range(r):
            # coefficients whose first small index sits at this slot with
            # value ell: previous slots restricted to large indices
            sl = [slice(r, n)] * slot + [ell] + [slice(None)] * (k - slot - 1)
            beta = Tprime[tuple(sl)]  # shape (n-r,)*slot + (n,)*(k-slot-1)
            if not beta.any():
                continue
            # rebuild the complementary factor in alpha-coordinates, then
            # convert both factors back to standard coordinates
            beta_full = np.zeros([n] * (k - 1), dtype=np.int64)
            beta_full[tuple([slice(r, n)] * slot + [slice(None)] * (k - slot - 1))] = beta
            right = MultilinearForm(p, n, k - 1, mforms._pullback(beta_full, A_arr, p))
            left = MultilinearForm(p, n, 1, A_arr[ell] % p)
            terms.append(CertTerm((slot,), left, right))
    cert = RankCertificate(T, tuple(terms))
    res = verify_certificate(cert)
    if not res.ok:  # pragma: no cover
        raise PreconditionError("vanishing decomposition failed verification", witness=res.witness)
    assert_certificate_bounds_arank(cert)
    return cert


def assert_certificate_bounds_arank(cert: RankCertificate, budget: Budget = DEFAULT_BUDGET):
    """Every verified certificate upper-bounds the analytic rank: the bias of
    the claimed form must be at least p^{-length}.  Failing here would
    falsify the certificate machinery, never the input."""
    T = cert.claimed_form
    try:
        bias = analytic_rank(T, budget).bias
    except BudgetExceeded:  # pragma: no cover
        return
    if bias < Fraction(1, T.p ** len(cert)):  # pragma: no cover
        raise PreconditionError(
            f"certificate of length {len(cert)} contradicts bias {bias}"
        )


# -- exhaustive partition-rank search at tiny sizes --


@dataclass(frozen=True)
class PrankUnknown:
    lower_bound: int


def _canonical_rank1_terms(p: int, n: int, k: int):
    """All partition-rank-1 tensors, deduplicated, with a defining term each."""
    seen = {}
    subsets = [s for r in range(1, k) for s in itertools.combinations(range(k), r)]
    # scalars can move between factors: fix the left factor up to scale
    for slots in subsets:
        if len(slots) > k - len(slots):
            continue  # the complement split generates the same tensors
        left_arity = len(slots)
        right_arity = k - left_arity
        for lcoef in itertools.product(range(p), repeat=n**left_arity):
            if not any(lcoef):
                continue
            first = next(c for c in lcoef if c)
            if first != 1:
                continue  # projective normalization
            L = MultilinearForm(p, n, left_arity, np.array(lcoef).reshape((n,) * left_arity))
            for rcoef in itertools.product(range(p), repeat=n**right_arity):
                if not any(rcoef):
                    continue
                R = MultilinearForm(p, n, right_arity, np.array(rcoef).reshape((n,) * right_arity))
                term = CertTerm(slots, L, R)
                key = term.tensor(k).tobytes()
                if key not in seen:
                    seen[key] = term
    return seen


@lru_cache(maxsize=None)
def prank_table(p: int, n: int, k: int, budget: Budget = DEFAULT_BUDGET):
    """Exact partition rank of every form on (F_p^n)^k by layered BFS.

    Returns (ranks, parents) keyed by tensor bytes; parents allow
    reconstructing an optimal certificate.  Only feasible when the whole
    tensor space (p^(n^k) forms) fits the budget.  Cached: callers share
    the returned dicts and must not mutate them.
    """
    space = p ** (n**k)
    if space > budget.prank_space_cap:
        raise BudgetExceeded(f"tensor space size {space} exceeds prank search cap")
    terms = _canonical_rank1_terms(p, n, k)
    zero = np.zeros((n,) * k, dtype=np.int8)
    ranks = {zero.tobytes(): 0}
    parents = {zero.tobytes(): None}
    frontier = [zero]
    r = 0
    while frontier:
        r += 1
        nxt = []
        for base in frontier:
            b64 = base.astype(np.int64)
            for key, term in terms.items():
                t = (b64 + np.frombuffer(key, dtype=np.int8).reshape(base.shape)) % p
                tb = t.astype(np.int8).tobytes()
                if tb not in ranks:
                    ranks[tb] = r
                    parents[tb] = (base.tobytes(), term)
                    nxt.append(t.astype(np.int8))
        frontier = nxt
    return ranks, parents


def certificate_from_table(T: MultilinearForm, parents) -> RankCertificate:
    terms = []
    key = T.coeffs.tobytes()
    while parents[key] is not None:
        prev, term = parents[key]
        terms.append(term)
        key = prev
    return RankCertificate(T, tuple(terms))


def prank_search(T: MultilinearForm, cap: int = 8, budget: Budget = DEFAULT_BUDGET):
    """Exact partition rank if <= cap, else Unknown(ceil(arank)) lower bound."""
    try:
        ranks, _ = prank_table(T.p, T.n, T.k, budget)
    except BudgetExceeded:
        bias = analytic_rank(T, budget).bias
        return PrankUnknown(arank_ceil(T.p, bias))
    r = ranks.get(T.coeffs.tobytes())
    if r is None or r > cap:  # exhaustive table always covers the space
        bias = analytic_rank(T, budget).bias
        return PrankUnknown(max(arank_ceil(T.p, bias), cap + 1))
    return r


def prank_certificate_search(T: MultilinearForm, budget: Budget = DEFAULT_BUDGET) -> RankCertificate:
    """Optimal certificate by exhaustive search; tiny instances only."""
    if T.is_zero():
        return empty_certificate(T)
    _, parents = prank_table(T.p, T.n, T.k, budget)
    cert = certificate_from_table(T, parents)
    assert_certificate_bounds_arank(cert, budget)
    return cert
