"""Constructed test instances: trilinear forms with planted low-rank
asymmetry, explicit defect certificates, and matching correlation witnesses.

The planted shape is T = S0 + sum of rank-1 terms with S0 a total
derivative (hence symmetric / nCSM).  Witness functions come from the
corner expansion of the phase of -P at the origin, which makes the
measured correlation equal the bias of the planted part exactly; the
generator asserts this identity, cross-validating the correlation code
against the rank code on every instance.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import mforms, rank
from .analysis import BoundedFunction
from .config import DEFAULT_BUDGET, Budget
from .cyclotomic import RealSurd
from .errors import InternalCheckError
from .mforms import MultilinearForm, S3, permute, total_derivative
from .ncpoly import NcPoly, random_poly, stable_seed
from .rank import CertTerm, RankCertificate
from .symmetrize import CorrelationWitness


def _rerouted_factor(factor: MultilinearForm, new_positions) -> MultilinearForm:
    """Permute factor arguments so they arrive in sorted-slot order."""
    if factor.k <= 1:
        return factor
    order = sorted(range(len(new_positions)), key=lambda a: new_positions[a])
    pos = [0] * len(order)
    for b, a in enumerate(order):
        pos[a] = b
    return mforms.permute(factor, tuple(pos))


def perm_cert_term(term: CertTerm, pi, k: int) -> CertTerm:
    """The term t_pi with t_pi(x_1..x_k) = t(x_{pi(1)}, ..., x_{pi(k)})."""
    new_left = [pi[i] for i in term.slots]
    comp = [i for i in range(k) if i not in term.slots]
    new_right = [pi[i] for i in comp]
    left = _rerouted_factor(term.left, new_left)
    right = _rerouted_factor(term.right, new_right)
    return CertTerm(tuple(sorted(new_left)), left, right)


def defect_certificates_from_terms(T: MultilinearForm, terms) -> dict:
    """Certificates for every T - T_pi built from the planted rank-1 terms."""
    certs = {}
    for pi in S3:
        if pi == (0, 1, 2):
            continue
        D = T - permute(T, pi)
        if D.is_zero():
            certs[pi] = rank.empty_certificate(D)
            continue
        cert_terms = []
        for t in terms:
            cert_terms.append(t)
            pt = perm_cert_term(t, pi, 3)
            cert_terms.append(CertTerm(pt.slots, pt.left.scale(-1), pt.right))
        certs[pi] = RankCertificate(D, tuple(cert_terms))
    if not all(rank.verify_certificates(list(certs.values()))):  # pragma: no cover
        raise InternalCheckError("planted defect certificate failed to verify")
    return certs


def _linear_form_term(p, n, slot, coeffs, bilinear) -> CertTerm:
    left = MultilinearForm(p, n, 1, np.asarray(coeffs, dtype=np.int64))
    right = MultilinearForm(p, n, 2, np.asarray(bilinear, dtype=np.int64))
    return CertTerm((slot,), left, right)


@dataclass(frozen=True)
class PlantedInstance:
    T: MultilinearForm
    base: MultilinearForm  # the symmetric part d^3 P
    planted: tuple  # CertTerms summing to T - base
    certs: dict  # pi -> RankCertificate for T - T_pi
    witness: CorrelationWitness
    r: int  # max certificate length


def planted_instance(
    p: int,
    n: int,
    seed,
    num_terms: int = 1,
    style: str = "general",
    budget: Budget = DEFAULT_BUDGET,
) -> PlantedInstance:
    """T = d^3(P) + planted rank-1 terms, with certificates and witness.

    style "general": arbitrary rank-1 terms, certificates of length
    2 * num_terms per permutation.  style "single_linear": one term
    a(x) a(y) m(z), whose defects all have 1-term certificates (r = 1).
    """
    rng = random.Random(stable_seed(seed))
    P = random_poly(p, n, 3, depth_allowed=(p == 2), seed=rng.randrange(1 << 30))
    base = total_derivative(P, 3)
    terms = []
    if style == "single_linear":
        alpha = _nonzero_vector(rng, p, n)
        mu = _nonzero_vector(rng, p, n)
        while mu == alpha:
            mu = _nonzero_vector(rng, p, n)
        a = np.asarray(alpha, dtype=np.int64)
        m = np.asarray(mu, dtype=np.int64)
        terms.append(_linear_form_term(p, n, 2, mu, np.outer(a, a)))
        B1 = (np.outer(a, m) - np.outer(m, a)) % p
        certs = {}
        T = base + MultilinearForm(p, n, 3, terms[0].tensor(3))
        one_term = {
            (1, 0, 2): None,  # defect vanishes: term symmetric in x, y
            (2, 1, 0): CertTerm((1,), MultilinearForm(p, n, 1, a), MultilinearForm(p, n, 2, B1)),
            (0, 2, 1): CertTerm((0,), MultilinearForm(p, n, 1, a), MultilinearForm(p, n, 2, B1)),
            (1, 2, 0): CertTerm((1,), MultilinearForm(p, n, 1, a), MultilinearForm(p, n, 2, B1)),
            (2, 0, 1): CertTerm((0,), MultilinearForm(p, n, 1, a), MultilinearForm(p, n, 2, B1)),
        }
        for pi, t in one_term.items():
            D = T - permute(T, pi)
            certs[pi] = rank.empty_certificate(D) if t is None else RankCertificate(D, (t,))
        for pi, res in zip(certs, rank.verify_certificates(list(certs.values()))):
            if not res.ok:  # pragma: no cover
                raise InternalCheckError(f"single-linear certificate failed for {pi}")
    else:
        for _ in range(num_terms):
            slot = rng.randrange(3)
            lin = _nonzero_vector(rng, p, n)
            bil = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
            if not bil.any():
                bil[0, 0] = 1
            terms.append(_linear_form_term(p, n, slot, lin, bil))
        T = base
        for t in terms:
            T = T + MultilinearForm(p, n, 3, t.tensor(3))
        certs = defect_certificates_from_terms(T, terms)

    witness = corner_witness(T, P, budget)
    # cross-check: the measured correlation equals the bias of the planted part
    expected = rank.analytic_rank(T - base, budget).bias
    if witness.delta.mag2() != RealSurd(expected) ** 2:  # pragma: no cover
        raise InternalCheckError("witness correlation does not match the planted bias")
    r = max((len(c) for c in certs.values()), default=0)
    return PlantedInstance(T, base, tuple(terms), certs, witness, r)


def _nonzero_vector(rng, p, n):
    while True:
        v = tuple(rng.randrange(p) for _ in range(n))
        if any(v):
            return v


def corner_witness(T: MultilinearForm, P: NcPoly, budget: Budget = DEFAULT_BUDGET) -> CorrelationWitness:
    """Witness from the corner expansion of conj(phase(P)) at the origin.

    With g = e^{-2 pi i P} the seven-function pattern at shift 0 equals
    w^{-d^3 P(x,y,z)}, so correlating against w^T leaves exactly the
    planted part of T.
    """
    g = BoundedFunction.from_poly_phase(P, conjugate=True)
    b1 = g.mul(_constant_like(g, conj_at_zero=True))
    bs = (b1, g, g, g.conj(), g.conj(), g.conj(), g)
    return CorrelationWitness.make(T, bs, budget)


def _constant_like(g: BoundedFunction, conj_at_zero: bool) -> BoundedFunction:
    """The constant function conj(g(0)), or g(0) without ``conj_at_zero``, as a BoundedFunction."""
    R = g.ring
    col = R.conj_arrays(g.coeffs[:, 0]) if conj_at_zero else g.coeffs[:, 0]
    exps = None if g.exps is None else np.full(g.size, (-1 if conj_at_zero else 1) * g.exps[0] % R.N)
    return BoundedFunction(g.p, g.n, R, np.repeat(col[:, None], g.size, axis=1), g.den, exps=exps)


def random_symmetric_with_ones_witness(
    p: int, n: int, seed, budget: Budget = DEFAULT_BUDGET
) -> tuple[MultilinearForm, CorrelationWitness]:
    """Random symmetric trilinear form with the all-ones witness (delta = bias T)."""
    rng = random.Random(stable_seed(seed))
    T = mforms.random_symmetric_form(rng, p, n, 3)
    return T, CorrelationWitness.all_ones(T, p, n, budget)
