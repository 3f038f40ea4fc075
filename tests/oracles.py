"""Helpers only the tests use: small constructions the oracles and checks
build from, kept out of ``hofa`` because no part of the library calls them."""
import itertools
from fractions import Fraction

import numpy as np

from hofa import fpspace
from hofa.analysis import BoundedFunction, first_max
from hofa.config import DEFAULT_BUDGET
from hofa.cyclotomic import common_ring, ring
from hofa.mforms import MultiaffineForm, MultilinearForm, restrict
from hofa.rank import CertTerm, RankCertificate
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
