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
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import fpspace, mforms
from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetExceeded, DimensionMismatch, InternalCheckError, PreconditionError
from .fpspace import Subspace, all_vectors
from .mforms import MultilinearForm

# entries per chunk of ``analytic_rank``'s slice stack: a few hundred kB of int64
_CHUNK_ENTRIES = 1 << 15


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
    """Exact bias / analytic rank of T: ``analytic_ranks`` of one form."""
    return analytic_ranks([T], budget)[0]


def analytic_ranks(forms, budget: Budget = DEFAULT_BUDGET) -> list:
    """Exact bias / analytic rank of each form via bilinear slice ranks.

    Contracts the first k-2 slots with every head tuple of points and uses
    E omega^{B} = p^{-rank B} on each bilinear slice B: bias = sum_r count_r
    p^{-r} / p^{n(k-2)}.  The nonzero forms of one (p, n, k) are stacked
    along the head axis, each distinct coefficient tensor once (its result
    shared by its repeats): chunks of max(1, _CHUNK_ENTRIES // (F n^(k-1)))
    heads of all F of them are contracted by one batched matmul per slot,
    ranked by one ``fpspace.stack_ranks`` and counted per form by one
    bincount.  For k = 1 the bias is 1 or 0; at n = 0, and for the zero
    form, it is 1.
    """
    results, stacks = [None] * len(forms), {}  # (p, n, k) -> coefficient bytes -> list positions
    for i, T in enumerate(forms):
        p, n, k = T.p, T.n, T.k
        if k <= 1:
            zero = int(T.coeffs) % p == 0 if k == 0 else T.is_zero()
            results[i] = RankResult.from_bias(p, Fraction(int(zero)))
            continue
        if p ** (n * (k - 2)) * n**3 > budget.enum_cap:
            raise BudgetExceeded("slice enumeration exceeds budget")
        if T.is_zero():  # every slice has rank 0, also the empty one at n = 0
            results[i] = RankResult.from_bias(p, Fraction(1))
        else:
            stacks.setdefault((p, n, k), {}).setdefault(_tensor_key(T), []).append(i)
    for (p, n, k), repeats in stacks.items():
        stack = np.array([forms[same[0]].coeffs for same in repeats.values()], dtype=np.int64)
        for same, bias in zip(repeats.values(), _stacked_biases(p, n, k, stack)):
            res = RankResult.from_bias(p, bias)
            for i in same:
                results[i] = res
    return results


def _tensor_key(T: MultilinearForm) -> bytes:
    """The bytes of T's int64 coefficient tensor: equal keys within one (p, n, k) are equal forms."""
    return np.asarray(T.coeffs, dtype=np.int64).tobytes()


def _stacked_biases(p: int, n: int, k: int, stack: np.ndarray) -> list:
    """The bias of each form of an (F,) + (n,)*k coefficient stack, k >= 2, n >= 1."""
    F, outer, size = len(stack), p ** (n * (k - 2)), p**n
    X = fpspace.points(p, n)
    flat = stack.reshape(F, 1, n**k)
    step = max(1, _CHUNK_ENTRIES // (F * n ** (k - 1)))
    counts = np.zeros(F * (n + 1), dtype=np.int64)
    for lo in range(0, outer, step):
        heads = np.arange(lo, min(outer, lo + step))
        cur = np.broadcast_to(flat, (F, len(heads), n**k))
        for i in range(k - 2):  # slot i takes digit i of the head index, first slot major
            H = X[heads // size ** (k - 3 - i) % size]
            cur = (H[:, None, :] @ cur.reshape(F, len(heads), n, -1))[:, :, 0] % p
        ranks = fpspace.stack_ranks(p, cur.reshape(-1, n, n)).reshape(F, len(heads))
        counts += np.bincount((ranks + np.arange(0, F * (n + 1), n + 1)[:, None]).ravel(), minlength=F * (n + 1))
    counts = counts.reshape(F, n + 1).tolist()
    return [Fraction(sum(c * p ** (n - r) for r, c in enumerate(row)), outer * size) for row in counts]


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
        return MultilinearForm(f.p, f.n, f.k, _term_sums([self], False)[0].reshape((f.n,) * f.k))

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


def _term_sums(certs, values: bool) -> list:
    """Per certificate, its certified sum sum_t left(x_I) right(x_{[k] \\ I})
    mod p as a flat row of coefficients (n^k entries) and, with ``values``,
    as one of values at every argument tuple (p^(nk) entries, axes indexed
    by points like ``mforms.value_cube``): the list of those one or two
    (certificates, entries) arrays.  All certificates share one (p, n, k).

    The terms of all certificates are grouped by slot set I, and the factors
    stacked by arity, as flat coefficients and as value tables from one
    batched pullback per arity; each group's factors are one slice of those
    stacks.  Per group the terms' outer products are formed at once and
    transposed to slot order; one one-hot matmul adds each term to its
    certificate's row.
    """
    f = certs[0].claimed_form
    p, n, k = f.p, f.n, f.k
    sizes = [n, p**n] if values else [n]
    groups = {}
    for c, cert in enumerate(certs):
        for t in cert.terms:
            groups.setdefault(t.slots, []).append((c, t))
    if not groups:  # no certificate has a term
        return [np.zeros((len(certs), m**k), dtype=np.int64) for m in sizes]
    stacks, spans = {}, []  # arity -> factor coefficients; per group, its factors' slices and axes in slot order
    for slots, items in groups.items():
        span = []
        for forms in ([t.left for _, t in items], [t.right for _, t in items]):
            rows = stacks.setdefault(forms[0].k, [])
            span.append(slice(len(rows), len(rows) + len(forms)))
            rows += [g.coeffs for g in forms]
        order = list(slots) + [i for i in range(k) if i not in slots]
        spans.append((*span, [0] + [1 + order.index(i) for i in range(k)]))
    tables = [{a: np.array(rows, dtype=np.int64).reshape(len(rows), -1) for a, rows in stacks.items()}]
    if values:
        X = fpspace.points(p, n)
        tables.append({
            a: mforms._pullbacks(st.T.reshape((n,) * a + (len(st),)), X.T, p).reshape(len(st), -1)
            for a, st in tables[0].items()
        })
    owners = np.arange(len(certs))[:, None] == [c for items in groups.values() for c, _ in items]
    sums = []
    for m, table in zip(sizes, tables):
        blocks = []
        for (slots, items), (left, right, axes) in zip(groups.items(), spans):
            prod = table[len(slots)][left, :, None] * table[k - len(slots)][right, None, :]
            blocks.append(prod.reshape((len(items),) + (m,) * k).transpose(axes))
        sums.append(owners @ np.concatenate(blocks).reshape(len(owners[0]), m**k) % p)
    return sums


def certified_cube(cert: RankCertificate) -> np.ndarray:
    """Value cube of the certified sum sum_t left(x_I) right(x_{[k] \\ I}) mod p,
    axes indexed by points like ``mforms.value_cube``."""
    f = cert.claimed_form
    return _term_sums([cert], True)[1].reshape((f.p**f.n,) * f.k)


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
    """Re-evaluate the certified sum against the claimed form:
    ``verify_certificates`` of one certificate."""
    return verify_certificates([cert], sample_points, budget, rng)[0]


def verify_certificates(
    certs,
    sample_points: int = 10_000,
    budget: Budget = DEFAULT_BUDGET,
    rng=None,
) -> list:
    """Re-evaluate each certified sum against its claimed form.

    Tensor reconstruction is always compared exactly; on small spaces the
    certified sum is also evaluated at every argument tuple (as one value
    cube), otherwise at a seeded sample of tuples (``rng``, by default a
    fresh ``random.Random(0)`` per certificate) and the result is flagged as
    sampled.  The witness is the first failing index or tuple in
    ``itertools.product`` order, or in sample order.  Certificates of one
    (p, n, k) are reconstructed, and on small spaces evaluated, together:
    two ``_term_sums`` compared against their stacked claimed tensors and
    value cubes, each distinct certificate once (its result shared by its
    repeats).  Sampled certificates draw from ``rng`` in list order, one
    after another, repeats included.
    """
    results, shapes, sampled = [None] * len(certs), {}, []  # (p, n, k) -> certificate key -> list positions
    for i, cert in enumerate(certs):
        f = cert.claimed_form
        key = (_tensor_key(f),) + tuple((t.slots, _tensor_key(t.left), _tensor_key(t.right)) for t in cert.terms)
        shapes.setdefault((f.p, f.n, f.k), {}).setdefault(key, []).append(i)
    for (p, n, k), repeats in shapes.items():
        group = [certs[same[0]] for same in repeats.values()]
        exhaustive = p ** (n * k) <= min(budget.enum_cap, 1 << 16)
        sums = _term_sums(group, exhaustive)
        claimed = np.array([c.claimed_form.coeffs for c in group]).reshape(len(group), -1)
        valued = [None] * len(group)
        if exhaustive:
            cubes = np.array([mforms.value_cube(c.claimed_form) for c in group]).reshape(len(group), -1)
            valued = _first_mismatches(sums[1], cubes)
        vecs = all_vectors(p, n)
        for same, bad, pos in zip(repeats.values(), _first_mismatches(sums[0], claimed), valued):
            if bad is not None:
                res = VerifyResult(False, "exhaustive", tuple(int(j) for j in np.unravel_index(bad, (n,) * k)))
            elif not exhaustive:
                sampled += same
                continue
            else:
                witness = None if pos is None else tuple(vecs[j] for j in np.unravel_index(pos, (len(vecs),) * k))
                res = VerifyResult(pos is None, "exhaustive", witness)
            for i in same:
                results[i] = res
    for i in sorted(sampled):
        results[i] = _verify_sampled(certs[i], sample_points, rng or random.Random(0))
    return results


def _first_mismatches(rows: np.ndarray, claimed: np.ndarray) -> list:
    """Per row, the first flat position where it differs from ``claimed``, or None."""
    diff = rows != claimed
    if not diff.any():
        return [None] * len(diff)
    return [j if bad else None for j, bad in zip(diff.argmax(axis=1).tolist(), diff.any(axis=1).tolist())]


def _verify_sampled(cert: RankCertificate, sample_points: int, rng) -> VerifyResult:
    """The sampled branch of ``verify_certificates`` for one certificate."""
    f = cert.claimed_form
    p, n, k = f.p, f.n, f.k
    vecs = all_vectors(p, n)
    picks = [rng.randrange(len(vecs)) for _ in range(sample_points * k)]
    picks = np.array(picks, dtype=np.int64).reshape(sample_points, k)
    X = fpspace.points(p, n)
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
    """Certificate with <= k*codim(U) terms for a form vanishing on U^k:
    ``vanishing_decompositions`` of one pair."""
    return vanishing_decompositions([(T, U)])[0]


def vanishing_decompositions(pairs) -> list:
    """For each pair (T, U), a certificate with <= k*codim(U) terms for the
    form T vanishing on U^k (``_vanishing_certificate``).  The nonempty
    certificates are verified by one ``verify_certificates`` call and their
    bounds checked by one ``assert_certificates_bound_arank`` call; an empty
    one is only made for the zero form."""
    certs = [_vanishing_certificate(T, U) for T, U in pairs]
    nonempty = [cert for cert in certs if len(cert)]
    for res in verify_certificates(nonempty):
        if not res.ok:  # pragma: no cover
            raise PreconditionError("vanishing decomposition failed verification", witness=res.witness)
    assert_certificates_bound_arank(nonempty)
    return certs


def _vanishing_certificate(T: MultilinearForm, U: Subspace) -> RankCertificate:
    """The certificate of ``vanishing_decompositions`` for one pair, unverified.

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
    return RankCertificate(T, tuple(terms))


def assert_certificates_bound_arank(certs, budget: Budget = DEFAULT_BUDGET):
    """Every verified certificate upper-bounds the analytic rank: the bias of
    each claimed form, all from one ``analytic_ranks`` call, must be at
    least p^{-length}.  Failing here would falsify the certificate
    machinery, never the input."""
    try:
        results = analytic_ranks([cert.claimed_form for cert in certs], budget)
    except BudgetExceeded:  # pragma: no cover
        return
    for cert, res in zip(certs, results):
        if res.bias < Fraction(1, cert.claimed_form.p ** len(cert)):  # pragma: no cover
            raise PreconditionError(f"certificate of length {len(cert)} contradicts bias {res.bias}")


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
    """Optimal certificate by exhaustive search; tiny instances only:
    ``prank_certificate_searches`` of one form."""
    return prank_certificate_searches([T], budget)[0]


def prank_certificate_searches(forms, budget: Budget = DEFAULT_BUDGET) -> list:
    """Optimal certificates by exhaustive search, tiny instances only: empty
    for a zero form, else read from ``prank_table``; the nonempty ones have
    their bounds checked by one ``assert_certificates_bound_arank`` call."""
    certs = [
        empty_certificate(T) if T.is_zero() else certificate_from_table(T, prank_table(T.p, T.n, T.k, budget)[1])
        for T in forms
    ]
    assert_certificates_bound_arank([cert for cert in certs if len(cert)], budget)
    return certs
