"""Helpers only the tests use: small constructions the oracles and checks
build from, kept out of ``hofa`` because no part of the library calls them."""
from hofa import fpspace
from hofa.analysis import BoundedFunction
from hofa.cyclotomic import common_ring, ring
from hofa.rank import CertTerm, RankCertificate


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
