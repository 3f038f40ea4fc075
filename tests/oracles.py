"""Helpers only the tests use: small constructions the oracles and checks
build from, kept out of ``hofa`` because no part of the library calls them."""
import itertools
import random
from fractions import Fraction

import numpy as np

from hofa import fpspace, mforms
from hofa.analysis import BoundedFunction, first_max
from hofa.config import DEFAULT_BUDGET
from hofa.cyclotomic import RealSurd, common_ring, ring
from hofa.errors import BudgetExceeded
from hofa.mforms import MultiaffineForm, MultilinearForm, restrict
from hofa.ncpoly import NcPoly
from hofa.rank import CertTerm, RankCertificate, VerifyResult
from hofa.symmetrize import seven_correlation


def analytic_rank_loop(T):
    """The former per-head ``rank.analytic_rank`` for k >= 2: contract the
    first k-2 slots with one head tuple of points at a time, take each
    bilinear slice's rank with ``fpspace.mat_rank``, and average p^{-rank}."""
    p, n, k = T.p, T.n, T.k
    total = Fraction(0)
    for head in itertools.product(fpspace.all_vectors(p, n), repeat=k - 2):
        cur = T.coeffs.astype(np.int64)
        for x in head:
            cur = np.tensordot(cur, np.asarray(x, dtype=np.int64), axes=([0], [0])) % p
        r = fpspace.mat_rank(p, [tuple(int(c) for c in row) for row in cur])
        total += Fraction(1, p**r)
    return total / p ** (n * (k - 2))


def analytic_rank_reference(T, budget=DEFAULT_BUDGET):
    """The former one-form ``rank.analytic_rank``: chunks of heads of T alone
    contracted slot by slot, ranked by ``fpspace.stack_ranks`` and counted
    by one bincount each."""
    p, n, k = T.p, T.n, T.k
    if k == 0:
        return Fraction(1) if int(T.coeffs) % p == 0 else Fraction(0)
    if k == 1:
        return Fraction(1) if T.is_zero() else Fraction(0)
    outer = p ** (n * (k - 2))
    if outer * (n**3) > budget.enum_cap:
        raise BudgetExceeded("slice enumeration exceeds budget")
    if n == 0:
        return Fraction(1)
    size = p**n
    X = np.array(fpspace.all_vectors(p, n), dtype=np.int64)
    flat = T.coeffs.astype(np.int64).reshape(-1)
    step = max(1, (1 << 15) // n ** (k - 1))
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, outer, step):
        heads = np.arange(lo, min(outer, lo + step))
        cur = np.broadcast_to(flat, (len(heads), n**k))
        for i in range(k - 2):
            H = X[heads // size ** (k - 3 - i) % size]
            cur = (H[:, None, :] @ cur.reshape(len(heads), n, -1))[:, 0] % p
        counts += np.bincount(fpspace.stack_ranks(p, cur.reshape(-1, n, n)), minlength=n + 1)
    return Fraction(sum(int(c) * p ** (n - r) for r, c in enumerate(counts)), outer * size)


def verify_certificate_reference(cert, sample_points=10_000, budget=DEFAULT_BUDGET, rng=None):
    """The former one-certificate ``rank.verify_certificate``, term by term:
    the reconstruction adds each term's tensor, the value cube each term's
    outer product of factor value cubes, the sampled branch evaluates each
    term's factors at the drawn tuples.  It reads ``mforms.value_cube`` and
    ``mforms.eval_many`` from the module, so tests that patch them corrupt
    both sides alike."""
    f = cert.claimed_form
    p, n, k = f.p, f.n, f.k
    acc = np.zeros((n,) * k, dtype=np.int64)
    for t in cert.terms:
        acc = (acc + t.tensor(k)) % p
    diff = (acc - f.coeffs) % p
    if diff.any():
        return VerifyResult(False, "exhaustive", witness=tuple(int(i) for i in np.argwhere(diff)[0]))
    vecs = fpspace.all_vectors(p, n)
    if p ** (n * k) <= min(budget.enum_cap, 1 << 16):
        cube = np.zeros((p**n,) * k, dtype=np.int64)
        for t in cert.terms:
            prod = np.multiply.outer(mforms.value_cube(t.left), mforms.value_cube(t.right))
            cube = (cube + np.moveaxis(prod, range(k), t.slot_order(k))) % p
        bad = np.flatnonzero(cube != mforms.value_cube(f))
        if len(bad):
            pos = np.unravel_index(bad[0], (len(vecs),) * k)
            return VerifyResult(False, "exhaustive", witness=tuple(vecs[int(i)] for i in pos))
        return VerifyResult(True, "exhaustive")
    rng = rng or random.Random(0)
    picks = np.array([rng.randrange(len(vecs)) for _ in range(sample_points * k)]).reshape(sample_points, k)
    args = np.array(vecs, dtype=np.int64).reshape(-1, n)[picks]
    vals = np.zeros(sample_points, dtype=np.int64)
    for t in cert.terms:
        order = t.slot_order(k)
        vals = (vals + mforms.eval_many(t.left, args[:, order[: len(t.slots)]])
                * mforms.eval_many(t.right, args[:, order[len(t.slots):]])) % p
    bad = np.flatnonzero(vals != mforms.eval_many(f, args))
    if len(bad):
        return VerifyResult(False, "sampled", witness=tuple(vecs[int(i)] for i in picks[bad[0]]))
    return VerifyResult(True, "sampled")


def expanded_pow(x, k):
    """The former ``RealSurd.__pow__``: x^k expanded at once, a RealSurd,
    by repeated squaring in x's ring (one integer power for a rational)."""
    R, num = x.ring, x.num
    if k < 0:
        if R.N > 1:
            raise ValueError("negative powers of an irrational RealSurd are not supported")
        return expanded_pow(RealSurd(Fraction(x.den, int(num[0]))), -k)
    if R.N == 1:
        return RealSurd._reduced(R, num**k, x.den**k)
    out, e = R.one().astype(object), k
    while e:
        if e & 1:
            out = R.mul_arrays(out, num)
        e >>= 1
        if e:
            num = R.mul_arrays(num, num)
    return RealSurd._reduced(R, out, x.den**k)


def g_table_reference(f, P, quads, linears):
    """The former stage-7 g table: each g_S = f w^{P + ...} from the NcPoly sum
    of its phases, made a phase by ``BoundedFunction.from_poly_phase``."""
    p, n = f.p, f.n
    Q1, Q2, Q3 = quads[(1, 2)], quads[(0, 2)], quads[(0, 1)]
    L = [NcPoly.from_classical(p, n, {fpspace.unit_vec(n, i): int(v[i]) for i in range(n)}) for v in
         (linears[0], linears[1], linears[2])]
    combos = {0: [], 1: [Q1], 2: [Q2], 3: [Q1, Q2, L[2]], 4: [Q3], 5: [Q1, Q3, L[1]], 6: [Q2, Q3, L[0]],
              7: [Q1, Q2, Q3, L[0], L[1], L[2]]}
    return {S: f.mul(BoundedFunction.from_poly_phase(sum(extras, P))) for S, extras in combos.items()}


def pullback_tensordot(coeffs, M, p):
    """The former ``mforms._pullback``: k ``np.tensordot`` contractions of
    the leading axis with M, each mod p."""
    cur = coeffs.astype(np.int64)
    for _ in range(cur.ndim):
        cur = np.tensordot(cur, M, axes=([0], [0])) % p
    return cur


def vec_sub(p, x, y):
    return tuple((a - b) % p for a, b in zip(x, y))


def subspace_sum(U, W):
    return fpspace.Subspace.from_basis(U.p, U.n, list(U.basis) + list(W.basis))


def concat_certificates(claimed, *certs):
    return RankCertificate(claimed, tuple(t for c in certs for t in c.terms))


def negate_certificate(cert):
    terms = tuple(CertTerm(t.slots, t.left.scale(-1), t.right) for t in cert.terms)
    return RankCertificate(-cert.claimed_form, terms)


def scale_phase(f, t, m):
    """f times the global constant zeta_{p^m}^t."""
    R = common_ring(f.ring, ring(f.p, m))
    f = f.embed(R)
    tt = (t * (R.N // f.p**m)) % R.N
    exps = (f.exps + tt) % R.N if f.exps is not None else None
    return BoundedFunction(f.p, f.n, R, R.mul_arrays(f.coeffs, R.root(tt)), f.den, exps=exps)


def alternating_slot_sum(phi, xs, ys):
    """sum over subsets J of {1..k} of (-1)^{|J|} phi with slot j from ys if j in J.

    Equals the multilinear part evaluated at (x_1 - y_1, ..., x_k - y_k).
    """
    total = 0
    for J in range(1 << phi.k):
        v = phi.eval(*(ys[i] if J >> i & 1 else xs[i] for i in range(phi.k)))
        total += -v if bin(J).count("1") % 2 else v
    return total % phi.p


def shifted_arguments(phi, shifts):
    """The multiaffine form (x_1, ..) -> phi(x_1 + s_1, ..., x_k + s_k): each
    component expanded into one term per subset of its slots kept variable,
    the other slots contracted with their shift vectors."""
    p, n = phi.p, phi.n
    new = {}
    for slots, comp in phi.components:
        slots = sorted(slots)
        for keep in itertools.product((0, 1), repeat=len(slots)):
            cur = comp.coeffs.astype(np.int64)
            for pos in range(len(slots) - 1, -1, -1):  # back to front, so positions stay valid
                if not keep[pos]:
                    shift = np.asarray(shifts[slots[pos]], dtype=np.int64)
                    cur = np.tensordot(cur, shift, axes=([pos], [0])) % p
            kept = tuple(s for s, kp in zip(slots, keep) if kp)
            new[kept] = (new.get(kept, 0) + cur) % p
    comps = {s: MultilinearForm(p, n, len(s), a) if s else int(a) for s, a in new.items()}
    return MultiaffineForm.make(p, n, phi.k, comps)


def restrict_multiaffine(phi, U):
    """Each component of phi restricted to U, in U-basis coordinates."""
    comps = {tuple(sorted(s)): restrict(c, U) if s else int(c.coeffs) for s, c in phi.components}
    return MultiaffineForm.make(phi.p, U.dim, phi.k, comps)


def coset_form_reference(T, U, shifts):
    """(u, v, w) -> T(s_0 + u, s_1 + v, s_2 + w) on U: shift, then restrict."""
    return restrict_multiaffine(shifted_arguments(MultiaffineForm.from_multilinear(T), shifts), U)


def best_coset_loop(T, witness, U, budget=DEFAULT_BUDGET):
    """The per-triple coset argmax: the witness and the form restricted to each
    coset triple and correlated on their own; the first largest wins.
    Returns (shifts, correlation, restricted form, restricted functions)."""
    p = T.p
    reps = list(fpspace.enumerate_subspace(fpspace.complement(U), budget))

    def restricted(shifts):
        x0, y0, z0 = shifts
        xy = fpspace.vec_add(p, x0, y0)
        corners = (x0, y0, z0, xy, fpspace.vec_add(p, x0, z0), fpspace.vec_add(p, y0, z0), fpspace.vec_add(p, xy, z0))
        bs_U = tuple(b.restrict_to_coset(U, c) for b, c in zip(witness.bs, corners))
        return coset_form_reference(T, U, shifts), bs_U

    triples = list(itertools.product(reps, repeat=3))
    vals = [seven_correlation(bs_U, phi_U, budget) for phi_U, bs_U in map(restricted, triples)]
    best = first_max(vals[0].ring, np.stack([v.num for v in vals], axis=1))
    return (triples[best], vals[best]) + restricted(triples[best])
