"""End-to-end engine: from a 1-bounded function with large U^4 norm and a
triaffine correlation certificate to a degree-<=3 polynomial with a
verified correlation.

Stages (each displayed inequality is recomputed exactly and ledgered):

  1. measure ||f||_U4 against the threshold;
  2. obtain a triaffine form phi with measured correlation eps against the
     third multiplicative derivative of f;
  3. build the seven-function witness of d^3 f at its best base point
     (``symmetrize.derivative_witness``), strip the affine parts of phi
     by Cauchy-Schwarz, and symmetrize the trilinear part T into S (CSM
     for p >= 3, nCSM for p = 2) with a verified certificate for T - S;
  4. integrate S to a cubic P and pass to g = f * e^{2 pi i P}, whose
     derivative cube is f's times w^{S(h)}, as d^3 P = S;
  5. remove the rank-1 correction terms by derandomization: an argmax
     over the indicator value c, then over the character xi, read from one
     exact transform of the indicator class sums;
  6. clean the bilinear phases into integrable symmetric ones (a
     three-function witness per pair from a base-point argmax over
     (x0, h_fix), one corner table for all three pairs, then its defect
     nullspace, extension and quadratic integration), then remove the
     linear x linear terms of the cleanup certificates; stages 5 and 6
     share one derandomization loop (``derandomize_indicator``), each
     with its own ledger wording and bound exponent (2 and 290);
  7. assemble the eight g-functions g_S = g w^{R_S}, deg R_S <= 2, so one
     U^3 norm serves all eight; check the octolinear identity and the
     Gowers-Cauchy-Schwarz bound, concluding ||g||_U3 >= eps p^{-290 r};
  8. finish with the exhaustive quadratic inverse oracle and return
     P_final = Q - P, whose correlation against f is re-measured exactly.

r = max(certificate length, log_p(1/eps)), exactly as the chain defines
it; bounds of the shape eps * p^{-c r} are compared in exact squared form.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analysis, fpspace, integrate, mforms, rank, serialize, symmetrize
from .analysis import BoundedFunction, CorrValue
from .config import DEFAULT_BUDGET, Budget
from .cyclotomic import RealSurd, SurdPower
from .errors import BudgetExceeded, InternalCheckError, PreconditionError
from .fpspace import all_vectors
from .mforms import MultiaffineForm, MultilinearForm, permute
from .ncpoly import NcPoly
from .symmetrize import (
    CorrelationWitness,
    LedgerEntry,
    SymmetrizationReport,
    bias_entry,
    corr_entry,
    multiaffine_cs,
    slot_cube,
    symmetrize_classical,
    symmetrize_nonclassical_p2,
)

# -- triaffine strategies --


@dataclass(frozen=True)
class SuppliedTriaffine:
    phi: MultiaffineForm


@dataclass(frozen=True)
class FromPolynomialGuess:
    """phi = -d^3(P0) as a pure trilinear form.

    The sign makes the correlation of the third derivative of e^{2 pi i P0}
    against w^{phi} exactly 1 for every p.
    """

    poly: NcPoly


@dataclass(frozen=True)
class RandomSearch:
    tries: int = 128
    seed: int = 0


@dataclass(frozen=True)
class ExhaustiveTrilinear:
    pass


def derivative_sum_cube(f: BoundedFunction, budget: Budget = DEFAULT_BUDGET):
    """D[h1,h2,h3] = sum_x (d_{h1} d_{h2} d_{h3} f)(x), exact ring elements:
    (ring, D, den^8), a p^(4n) corner sum.  The pipeline forms it for f only;
    g's cube follows from it (``_phased_cube``)."""
    p, n = f.p, f.n
    if p ** (4 * n) * 8 > budget.enum_cap:
        raise BudgetExceeded("derivative cube too large")
    R, emb = symmetrize._common_exact(p, (f,))
    tables = analysis.cube_corner_tables(R, dict.fromkeys(range(8), analysis._kernel_tables(emb)[0]))
    total = analysis._corner_sums(R, p, n, 4, tables, None)  # summed over x
    return R, total.reshape((R.degree,) + (p**n,) * 3), emb[0].den**8


def find_triaffine(
    f: BoundedFunction, strategy, budget: Budget = DEFAULT_BUDGET
) -> tuple[MultiaffineForm, CorrValue]:
    """A triaffine form with its exactly measured correlation; never fabricates.

    The search strategies keep the first candidate of largest correlation.
    """
    return _best_triaffine(derivative_sum_cube(f, budget), f.p, f.n, strategy, budget)


def _best_triaffine(cube, p: int, n: int, strategy, budget: Budget) -> tuple[MultiaffineForm, CorrValue]:
    """``find_triaffine`` on the derivative cube ``cube`` of a function on F_p^n."""
    if isinstance(strategy, SuppliedTriaffine):
        cands = [strategy.phi]
    elif isinstance(strategy, FromPolynomialGuess):
        cands = [MultiaffineForm.from_multilinear(-mforms.total_derivative(strategy.poly, 3))]
    elif isinstance(strategy, RandomSearch):
        rng = random.Random(strategy.seed)
        forms = (mforms.random_form(rng, p, n, 3) for _ in range(strategy.tries))
        cands = map(MultiaffineForm.from_multilinear, forms)
    elif isinstance(strategy, ExhaustiveTrilinear):
        if p ** (n**3) > budget.prank_space_cap:
            raise BudgetExceeded(f"trilinear form space {p ** (n**3)} exceeds the prank search cap")
        coefs = itertools.product(range(p), repeat=n**3)
        forms = (MultilinearForm(p, n, 3, np.reshape(c, (n, n, n))) for c in coefs)
        cands = map(MultiaffineForm.from_multilinear, forms)
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}")
    scored = [(phi, measure_state(cube, phi)) for phi in cands]
    sums = np.array([val.num for _, val in scored], dtype=object).reshape(len(scored), cube[0].degree)
    return scored[analysis.first_max(cube[0], sums.T)]


def _phased_cube(f_cube, g: BoundedFunction, S: MultilinearForm):
    """The derivative cube of g = f w^P from f's, where d^3 P = S.

    d^3 g(x; h) = d^3 f(x; h) w^{S(h)} at every x, so D_g[h] = D_f[h]
    w^{S(h)}: f's cube embedded in g's ring (``symmetrize._common_exact``),
    times one root of unity per entry, over g's denominator den^8.  The
    products run on Python integers where ``mul_arrays``' bound passes
    int64.
    """
    p, n = g.p, g.n
    R0, D, _ = f_cube
    R, _ = symmetrize._common_exact(p, (g,))
    if D.dtype != object and R0.degree * R.degree**2 * int(np.abs(D).max(initial=0)) > analysis._INT64_MAX:
        D = D.astype(object)
    if R.N != R0.N:
        D = np.moveaxis(np.tensordot(D, R0.embed_matrix(R), axes=([0], [0])), -1, 0)
    omega = R.roots_to_coeffs(symmetrize.form_cube(S, p, n) * (R.N // p))
    return R, R.mul_arrays(D, omega), g.den**8


# -- witness construction from f --


def witness_from_function(
    f: BoundedFunction, phi: MultiaffineForm, eps: CorrValue, budget: Budget = DEFAULT_BUDGET
) -> tuple[CorrelationWitness, LedgerEntry]:
    """Argmax base point x*: the seven-function pattern from the corners of
    the third derivative at x*; its correlation is at least eps."""
    bs, val = symmetrize.derivative_witness(f, phi, budget)
    holds = val.mag2() >= eps.mag2()
    entry = corr_entry("witness argmax over base point keeps |corr| >= eps", val, eps, holds)
    if not holds:  # pragma: no cover
        raise InternalCheckError("base-point argmax fell below the average")
    return CorrelationWitness(phi, bs, val), entry


# -- phases: multiaffine forms on (h1, h2, h3) without a trilinear part --


def _coeffs(phase: MultiaffineForm, slots) -> np.ndarray:
    """The tensor of the component on ``slots`` (sorted), zero if absent."""
    comp = phase.component(slots)
    if comp is None:
        return np.zeros((phase.n,) * len(slots), dtype=np.int64)
    return comp.coeffs.astype(np.int64)


def _add_component(phase: MultiaffineForm, slots, coeffs) -> MultiaffineForm:
    """phase plus the form with tensor ``coeffs`` on ``slots`` (sorted); () adds a constant."""
    p, n = phase.p, phase.n
    comps = {s: c.coeffs.astype(np.int64) for s, c in phase.components}
    key = frozenset(slots)
    comps[key] = comps.get(key, 0) + np.asarray(coeffs, dtype=np.int64)
    forms = {s: MultilinearForm(p, n, len(s), t) for s, t in comps.items()}
    return MultiaffineForm.make(p, n, phase.k, forms)


@dataclass(frozen=True)
class GammaTerm:
    """One rank-1 correction w^{left(h_lslots) * right(h_rslots)}: linear x
    bilinear from the symmetrization certificate, linear x linear from the
    bilinear cleanup."""

    lslots: tuple
    left: np.ndarray
    rslots: tuple
    right: np.ndarray

    @classmethod
    def from_cert_term(cls, t, slots=(0, 1, 2)) -> "GammaTerm":
        """The certificate term t, its argument i sitting on cube axis slots[i]."""
        lslots = tuple(slots[i] for i in t.slots)
        rslots = tuple(s for i, s in enumerate(slots) if i not in t.slots)
        return cls(lslots, t.left.coeffs.astype(np.int64), rslots, t.right.coeffs.astype(np.int64))

    def factors(self):
        return ((self.lslots, self.left), (self.rslots, self.right))


def measure_state(g_cube, phase: MultiaffineForm, gammas=(), labels=None, groups=None):
    """|E_{x,h} (d^3 g)(x) w^{phase(h) + sum gammas(h)}| from the g-cube.

    ``phase`` is any multiaffine form on (h1, h2, h3).  With ``labels``, a
    class index in range(``groups``) per point h, the (degree, groups) array
    of the sums over each class, over the same denominator, all from one
    ``phased_sum``.
    """
    R, D, den = g_cube
    p, n = phase.p, phase.n
    expo = symmetrize.form_cube(phase, p, n)
    for gt in gammas:
        (ls, left), (rs, right) = gt.factors()
        expo = expo + slot_cube(p, n, ls, left) * slot_cube(p, n, rs, right)
    if labels is not None:
        return analysis.phased_sum(R, D, expo * (R.N // p), labels, groups)
    return CorrValue.from_sum(R, analysis.phased_sum(R, D, expo * (R.N // p))[:, 0], den * D.shape[-1] ** 4)


# ledger claims of one derandomization: (no-op, indicator argmax or None, character argmax)
RANK1_CLAIMS = (
    "derandomization (no-op): |corr| >= eps p^{-2r}",
    "indicator argmax: |corr| >= eps p^{-2r}",
    "character argmax: |corr| >= eps p^{-2r}",
)
CLEANUP_CLAIMS = (
    "second derandomization (no-op): |corr| >= eps p^{-290 r}",
    None,
    "second derandomization: |corr| >= eps p^{-290 r}",
)


def derandomize_indicator(
    g_cube,
    phase: MultiaffineForm,
    gammas,
    eps: CorrValue,
    r_len: int,
    bound: RealSurd,
    budget: Budget = DEFAULT_BUDGET,
    claims=RANK1_CLAIMS,
    coeff: int = 2,
):
    """Replace the pending rank-1 phases by an exhaustive (c, xi_0) argmax.

    Returns (c, xi0, new_phase, measured, ledger entries).  The measured
    correlations are checked against eps * p^{-coeff r}, whose square
    ``bound`` is ``_stage_bound_mag2(p, eps, r_len, coeff)``, computed once
    by the caller; ``claims`` words the stage's ledger entries.

    Both argmaxes read the class sums S_c' of one phased product D w^phase
    over the classes c' in F_p^{2m} of the correction factors' values.  The
    corrections add the constant sum_i c'_{2i} c'_{2i+1} on class c', and
    the character xi adds xi . (c' - c), so the xi-phase has correlation
    w^{-xi . c} tau[xi] with tau the transform (sign +1) of the table S.
    """
    p, n = phase.p, phase.n
    noop_claim, c_claim, xi_claim = claims
    if not gammas:
        measured = measure_state(g_cube, phase)
        entry = _stage_bound_entry(p, noop_claim, measured, eps, r_len, coeff, bound)
        return None, None, phase, measured, (entry,)
    m = len(gammas)
    if m > budget.derand_terms_cap:
        raise BudgetExceeded(
            f"{m} correction terms exceed the derandomization cap {budget.derand_terms_cap}"
        )
    full = (p**n,) * 3
    factors = [fac for gt in gammas for fac in gt.factors()]
    # the factors' values at every point, (2m, size^3); its distinct columns, in all_vectors
    # order, are the classes, and a point's label is its column's rank among them
    stacked = np.stack([np.broadcast_to(slot_cube(p, n, *fac), full).reshape(-1) for fac in factors])
    present, labels = np.unique(np.ravel_multi_index(stacked, (p,) * len(stacked)), return_inverse=True)
    X = all_vectors(p, 2 * m)
    cs = [X[k] for k in present.tolist()]
    sums = measure_state(g_cube, phase, labels=labels.reshape(full), groups=len(cs))
    R, D, den = g_cube
    den *= D.shape[-1] ** 4
    # argmax over the indicator value c: the corrections' root of unity leaves |S_c| alone
    best = analysis.first_max(R, sums)
    c = cs[best]
    entries = []
    if c_claim is not None:
        c_val = CorrValue.from_sum(R, sums[:, best], den)
        entries.append(_stage_bound_entry(p, c_claim, c_val, eps, r_len, coeff, bound))
    # argmax over xi: one exact transform of the class sums, on their dtype (int64 or
    # Python integers); the transform and first_max move to Python integers past int64
    table = np.zeros((R.degree, p ** (2 * m)), dtype=sums.dtype)
    table[:, present] = sums
    tau = analysis._transform_array(R, p, 2 * m, table, 1)
    j = analysis.first_max(R, tau)
    xi0 = X[j]
    new_phase = _add_component(phase, (), -sum(x * cj for x, cj in zip(xi0, c)))
    for x, (slots, coeffs) in zip(xi0, factors):
        if x:
            new_phase = _add_component(new_phase, slots, x * coeffs)
    measured = measure_state(g_cube, new_phase)
    if measured.mag2() != CorrValue.from_sum(R, tau[:, j], den).mag2():  # pragma: no cover
        raise InternalCheckError("the character argmax phase does not measure its transform value")
    entries.append(_stage_bound_entry(p, xi_claim, measured, eps, r_len, coeff, bound))
    for e in entries:
        if not e.holds:  # pragma: no cover
            raise InternalCheckError(f"derandomization bound failed: {e}")
    return c, xi0, new_phase, measured, tuple(entries)


def _stage_bound_mag2(p: int, eps: CorrValue, r_len: int, coeff: int) -> RealSurd | SurdPower:
    """(eps * p^{-coeff * r})^2 with r = max(r_len, log_p(1/eps)), exactly:
    the lesser of |eps|^2 p^{-2 coeff r_len} and the unexpanded power
    |eps|^{2 (coeff + 1)}, so a check against it, or against a power of it,
    forms no power of eps."""
    cand1 = eps.mag2() * RealSurd(Fraction(1, p ** (2 * coeff * r_len)))
    cand2 = eps.mag2() ** (coeff + 1)
    return cand1 if cand1 <= cand2 else cand2


def _stage_bound_entry(
    p: int, claim: str, measured: CorrValue, eps: CorrValue, r_len: int, coeff: int, bound: RealSurd | SurdPower
) -> LedgerEntry:
    """'measured >= eps p^{-coeff r}', ``bound`` being ``_stage_bound_mag2``."""
    return LedgerEntry(
        claim,
        f"|corr|={measured.modulus_float():.6g}",
        f"eps*p^(-{coeff}r)={_stage_bound_text(p, eps, r_len, coeff, bound)}",
        bool(measured.mag2() >= bound),
    )


def _stage_bound_text(p: int, eps: CorrValue, r_len: int, coeff: int, sq: RealSurd | SurdPower) -> str:
    """eps * p^{-coeff r} for display, in log space where its square underflows;
    ``sq`` is its square from ``_stage_bound_mag2``."""
    sq = float(sq)
    if sq >= sys.float_info.min or eps.modulus_float() == 0:
        return f"{math.sqrt(max(sq, 0.0)):.6g}"
    lg = math.log10(eps.modulus_float())
    lg = min(lg - coeff * r_len * math.log10(p), (coeff + 1) * lg)
    e = math.floor(lg)
    mant = f"{10 ** (lg - e):.6g}"
    if mant == "10":
        mant, e = "1", e + 1
    return f"{mant}e{e:+03d}"


# -- bilinear cleanup --


# the cleanup's pairs of slots; the third slot of each is the fixed one
CLEANUP_PAIRS = ((1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class CleanupResult:
    new_betas: dict  # pair -> the nCSM replacement form
    quads: dict  # pair -> NcPoly with d^2 Q = beta'
    certs: dict  # pair -> RankCertificate for beta - beta'
    ledger: tuple


def bilinear_cleanup(
    g: BoundedFunction, phase: MultiaffineForm, bound: RealSurd | SurdPower, budget: Budget = DEFAULT_BUDGET
) -> CleanupResult:
    """Replace each bilinear phase kernel by a symmetric (nCSM) one.

    ``bound`` is stage 5's (eps p^{-2r})^2, ``_stage_bound_mag2(p, eps,
    r_len, 2)``.

    For each pair, an argmax over the base point and the fixed slot value
    produces a three-function instance whose kernel is that bilinear form
    (``_cleanup_witnesses``, one corner table for the three pairs);
    the Cauchy-Schwarz defect bound then caps the rank of beta - beta^T.
    beta' extends the restriction of beta to the defect nullspace, and
    integrates to an explicit quadratic polynomial.  The three defect biases
    come from one ``symmetrize.gt_defects`` call, the three certificates for
    beta - beta' from one ``rank.vanishing_decompositions`` call.
    """
    p, n = phase.p, phase.n
    pairs = CLEANUP_PAIRS
    kernels = [mforms.BilinearForm(p, n, _coeffs(phase, pair)) for pair in pairs]
    witnesses = _cleanup_witnesses(g, phase, budget)
    defects = symmetrize.gt_defects(list(zip(kernels, witnesses)), budget)
    nullspaces = [rank.bilinear_rank(mforms.as_bilinear(B - permute(B, (1, 0))))[2] for B in kernels]
    primes = [mforms.extend(mforms.restrict(B, U), U, fpspace.complement(U)) for B, U in zip(kernels, nullspaces)]
    certs = rank.vanishing_decompositions([(B - beta, U) for B, beta, U in zip(kernels, primes, nullspaces)])
    quads, entries = {}, []
    bound8 = bound**8  # (eps p^{-2r})^16
    for pair, res, U, beta_prime, cert in zip(pairs, defects, nullspaces, primes, certs):
        if not res.holds:  # pragma: no cover
            raise InternalCheckError("defect bound failed on a cleanup witness")
        holds_loc = res.delta.mag2() >= bound8
        entries.append(
            LedgerEntry(
                f"slot argmax for pair {pair}: |corr| >= eps p^{{-2r}}",
                f"{res.delta.modulus_float():.6g}",
                "eps*p^(-2r)",
                bool(holds_loc),
            )
        )
        entries.append(
            LedgerEntry(
                f"arank(beta{pair} - transpose) <= 8(2r + log(1/eps))",
                f"bias={float(res.defect_bias):.6g}",
                "(eps p^{-2r})^8",
                bool(RealSurd(res.defect_bias) ** 2 >= bound8),
            )
        )
        if not mforms.is_symmetric(beta_prime):  # pragma: no cover
            raise InternalCheckError("cleanup output kernel is not symmetric")
        entries.append(
            symmetrize.int_bound_entry(
                f"prank(beta{pair} - beta'{pair}) <= 2 codim", len(cert), 2 * U.codim
            )
        )
        # the integrators verify d^2 Q = beta' before returning
        quads[pair] = integrate.integrate_ncsm(beta_prime, 2) if p == 2 else integrate.integrate_csm(beta_prime, 2)
    return CleanupResult(dict(zip(pairs, primes)), quads, dict(zip(pairs, certs)), tuple(entries))


def _cleanup_witnesses(g: BoundedFunction, phase: MultiaffineForm, budget: Budget) -> list:
    """Per pair of ``CLEANUP_PAIRS``, the argmax (x*, h*) three-function
    witness whose kernel is beta(pair).

    Over (x0, hfix, u, v), u and v on the pair's slots and hfix on the
    third: the corners of the third derivative that move with u or v,
    against the phase's cube on (hfix, u, v).  Its parts in hfix alone have
    modulus 1 per base point.  The six corner tables are the same for every
    pair, which only transposes the phase cube, so one ``base_point_argmax``
    serves all three.  Each winner folds the single-variable phases (the
    beta(fixed, free) cross terms and the alphas) in from slices of its
    cube.
    """
    p, n = g.p, g.n
    R, emb = symmetrize._common_exact(p, (g,))
    tables = analysis.cube_corner_tables(R, dict.fromkeys(range(2, 8), analysis._kernel_tables(emb)[0]))  # S & 6 != 0
    cube = symmetrize.form_cube(phase, p, n)
    Es = [cube.transpose(3 - a - b, a, b) for a, b in CLEANUP_PAIRS]  # (fixed slot, a, b)
    X = all_vectors(p, n)
    out = []
    for i, E in zip(analysis.base_point_argmax(R, p, n, 4, tables, Es, nbase=2, budget=budget), Es):
        x0, h = X[i // p**n], i % p**n
        gx, gxh = g.shift_arg(x0), g.shift_arg(fpspace.vec_add(p, x0, X[h]))
        corner = gx.mul(gxh.conj())  # shared corner product of both free shifts
        fa = corner.mul(BoundedFunction.from_exponents(p, n, 1, E[h, :, 0] - E[h, 0, 0]))
        fb = corner.mul(BoundedFunction.from_exponents(p, n, 1, E[h, 0, :] - E[h, 0, 0]))
        out.append((fa, fb, gx.conj().mul(gxh)))
    return out


# -- the report --


@dataclass(frozen=True)
class PipelineReport:
    p: int
    n: int
    input_digest: str
    u4_norm: float
    eps: CorrValue
    phi: MultiaffineForm
    T: MultilinearForm
    S: MultilinearForm
    sym_report: SymmetrizationReport
    P: NcPoly
    quads: dict
    linears: dict
    oracle_poly: NcPoly
    final_poly: NcPoly
    final_correlation: CorrValue
    ledger: tuple
    classical: bool

    def all_hold(self) -> bool:
        return all(e.holds for e in self.ledger)

    def as_text(self) -> str:
        lines = [
            f"pipeline report  p={self.p} n={self.n}",
            f"input digest: {self.input_digest}",
            f"U^4 norm: {self.u4_norm:.8f}",
            f"triaffine correlation eps: {self.eps.modulus_float():.8f}",
            f"final correlation: {self.final_correlation.modulus_float():.8f}",
            f"final polynomial classical: {self.classical}",
            "",
            "ledger:",
        ]
        lines.extend(f"  {e}" for e in self.ledger)
        lines.append("")
        lines.append("=== final polynomial ===")
        lines.append(serialize.dump_poly(self.final_poly).rstrip())
        lines.append("=== integrated cubic ===")
        lines.append(serialize.dump_poly(self.P).rstrip())
        lines.append("=== symmetrized form S ===")
        lines.append(serialize.dump_form(self.S).rstrip())
        lines.append("=== certificate T - S ===")
        lines.append(serialize.dump_certificate(self.sym_report.certificate).rstrip())
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PipelineOptions:
    strategy: object = None
    certs_by_perm: dict | None = None
    budget: Budget = DEFAULT_BUDGET


def run_inverse_pipeline(
    f: BoundedFunction, delta_threshold: Fraction, options: PipelineOptions
) -> PipelineReport:
    p, n = f.p, f.n
    budget = options.budget
    if p not in (2, 3):
        raise PreconditionError("the end-to-end pipeline supports p in {2, 3}")
    classical_only = p >= 3  # stage 8's oracle; its enumeration is checked before stage 1
    analysis.check_oracle_budget(p, n, classical_only, budget)
    ledger = []

    # stage 1: U^4 norm gate
    u4 = analysis.gowers_norm(f, 4, budget)
    thr = Fraction(delta_threshold)
    gate = u4.power_surd() >= RealSurd(thr**16)
    ledger.append(
        LedgerEntry("U^4 norm >= threshold", f"{u4.norm_float():.6g}", f"{float(thr):.6g}", bool(gate))
    )
    if not gate:
        raise PreconditionError(
            f"U^4 norm {u4.norm_float():.6g} is below the threshold {float(thr):.6g}"
        )

    # stage 2: triaffine certificate
    if options.strategy is None:
        raise PreconditionError("a triaffine strategy is required")
    f_cube = derivative_sum_cube(f, budget)
    phi, eps = _best_triaffine(f_cube, p, n, options.strategy, budget)
    if not (eps.mag2() > RealSurd(Fraction(0))):
        raise PreconditionError("triaffine correlation is zero")
    ledger.append(
        LedgerEntry("triaffine correlation eps > 0", f"{eps.modulus_float():.6g}", "> 0", True)
    )

    # stage 3: witness, Cauchy-Schwarz, symmetrization
    witness_phi, w_entry = witness_from_function(f, phi, eps, budget)
    ledger.append(w_entry)
    T, bprime, delta1, cs_entries = multiaffine_cs(witness_phi, budget)
    ledger.extend(cs_entries)
    witness_T = CorrelationWitness(T, bprime, delta1)
    if p >= 3:
        sym_report = symmetrize_classical(T, witness_T, options.certs_by_perm, budget)
    else:
        sym_report = symmetrize_nonclassical_p2(T, witness_T, options.certs_by_perm, budget)
    ledger.extend(
        bias_entry(p, f"arank(T - T_{pi}) <= 128 log(1/eps)", bias, eps, 128)
        for pi, bias in sym_report.defect_biases.items() if pi != (0, 1, 2)
    )
    ledger.extend(sym_report.ledger)
    S = sym_report.output_form

    # stage 4: integrate and pass to g
    P = integrate.integrate_csm(S, 3) if p >= 3 else integrate.integrate_ncsm(S, 3)
    g = f.mul(BoundedFunction.from_poly_phase(P))
    g_cube = _phased_cube(f_cube, g, S)  # d^3 P = S, verified by the integrator

    # the rewritten correlation must equal eps exactly
    phase0 = MultiaffineForm.make(p, n, 3, {s: c for s, c in phi.components if len(s) < 3})
    gammas = tuple(GammaTerm.from_cert_term(t) for t in sym_report.certificate.terms)
    rewritten = measure_state(g_cube, phase0, gammas=gammas)
    same = rewritten.mag2() == eps.mag2()
    ledger.append(corr_entry("rewriting against g preserves |corr| = eps", rewritten, eps, same))
    if not same:  # pragma: no cover
        raise InternalCheckError("rewriting the correlation against g changed its value")

    # stage 5: derandomize the rank-1 corrections.
    # r = max(certificate length, log_p(1/eps)); the bound helper takes the
    # certificate length and applies the log branch exactly via min().
    r_len = len(sym_report.certificate)
    bound2, bound290 = (_stage_bound_mag2(p, eps, r_len, coeff) for coeff in (2, 290))
    c0, xi0, phase1, measured1, d_entries = derandomize_indicator(
        g_cube, phase0, gammas, eps, r_len, bound2, budget
    )
    ledger.extend(d_entries)

    # stage 6: bilinear cleanup; corrections are linear x linear on each pair
    cleanup = bilinear_cleanup(g, phase1, bound2, budget)
    ledger.extend(cleanup.ledger)
    keep = {s: c for s, c in phase1.components if len(s) != 2}
    phase2 = MultiaffineForm.make(p, n, 3, {**keep, **cleanup.new_betas})
    lin_gammas = [
        GammaTerm.from_cert_term(t, pair) for pair, cert in cleanup.certs.items() for t in cert.terms
    ]
    c1, xi1, phase3, measured2, d2_entries = derandomize_indicator(
        g_cube, phase2, lin_gammas, eps, r_len, bound290, budget, CLEANUP_CLAIMS, 290
    )
    ledger.extend(d2_entries)
    ledger.append(
        _stage_bound_entry(p, "after cleanup: |corr| >= eps p^{-290 r}", measured2, eps, r_len, 290, bound290)
    )
    if not ledger[-1].holds:  # pragma: no cover
        raise InternalCheckError("post-cleanup correlation fell below eps p^{-290r}")

    # stage 7: octolinear identity + Gowers-Cauchy-Schwarz
    linears = {s: _coeffs(phase3, (s,)) for s in range(3)}
    gs, extras = _assemble_g_table(f, P, cleanup.quads, linears)
    if any(R_S.degree() > 2 for R_S in extras.values()):
        raise InternalCheckError("a g_S phase R_S has degree above 2, so its U^3 norm may differ from g's")
    avg = analysis.octolinear_average(gs, budget)
    oct_match = avg.mag2() == measured2.mag2()
    claim = "octolinear rewrite matches the measured correlation"
    ledger.append(corr_entry(claim, avg, measured2, oct_match))
    if not oct_match:  # pragma: no cover
        raise InternalCheckError("octolinear identity failed")
    u3_g = analysis.gowers_norm(gs[0], 3, budget)  # ||g_S||_U3 = ||g||_U3 for every S, as d^3 R_S = 0
    gcs_holds = analysis.gcs_check(avg, dict.fromkeys(range(8), u3_g))
    ledger.append(
        LedgerEntry(
            "Gowers-Cauchy-Schwarz: |avg| <= prod ||g_S||_U3",
            f"{avg.modulus_float():.6g}",
            "product of U^3 norms",
            bool(gcs_holds),
        )
    )
    u3_holds = u3_g.power_surd() >= bound290**4  # ||g||_U3^8 >= (eps p^{-290 r})^8
    ledger.append(
        LedgerEntry(
            "||f w^P||_U3 >= eps p^{-290 r}",
            f"{u3_g.norm_float():.6g}",
            _stage_bound_text(p, eps, r_len, 290, bound290),
            bool(u3_holds),
        )
    )

    # stage 8: quadratic inverse oracle and the final polynomial
    g000 = gs[0]
    Q, oracle_corr = analysis.u3_inverse_bruteforce(g000, classical_only=classical_only, budget=budget)
    final_poly = Q - P
    final = analysis.correlation(f, final_poly)
    final_match = final.mag2() == oracle_corr.mag2()
    claim = "final correlation recomputed from scratch matches the oracle"
    ledger.append(corr_entry(claim, final, oracle_corr, final_match))
    if not final_match:  # pragma: no cover
        raise InternalCheckError("final correlation mismatch")
    classical = final_poly.is_classical()
    if p >= 3 and not classical:  # pragma: no cover
        raise InternalCheckError("p >= 3 pipeline must return a classical polynomial")

    digest = hashlib.sha256(
        (serialize.dump_function(f) + repr(options.strategy)).encode()
    ).hexdigest()[:16]
    return PipelineReport(
        p,
        n,
        digest,
        u4.norm_float(),
        eps,
        phi,
        T,
        S,
        sym_report,
        P,
        cleanup.quads,
        linears,
        Q,
        final_poly,
        final,
        tuple(ledger),
        classical,
    )


def _assemble_g_table(f: BoundedFunction, P: NcPoly, quads: dict, linears: dict) -> tuple:
    """The eight functions g_S = f w^{P + R_S}, with the R_S: (gs, extras).

    Bitmask S over (h1, h2, h3); R_S sums the selected quadratics and
    linears: the quadratic attached to h_i's bit pairs the other two
    shifts, the linear forms enter on the pair sums.  Each R_S has degree
    <= 2, which the pipeline checks.  The seven phases P, Q1..Q3, L0..L2
    are tabled once over p^M, M their largest depth exponent; each g_S adds
    its tables mod p^M and takes the least m >= 1 with every sum a multiple
    of p^(M - m), the depth exponent of the summed polynomial, so that its
    phase is the one ``BoundedFunction.from_poly_phase`` builds from that
    polynomial.
    """
    p, n = f.p, f.n
    polys = [P, quads[(1, 2)], quads[(0, 2)], quads[(0, 1)]] + [_linear_poly(p, n, linears[s]) for s in range(3)]
    M = max(1, *(q.max_depth_exponent() for q in polys))
    tables = [q.table(M) for q in polys]
    # indices into polys of the extras of each S: Q1..Q3 are 1..3, L0..L2 are 4..6
    combos = {0: (), 1: (1,), 2: (2,), 3: (1, 2, 6), 4: (3,), 5: (1, 3, 5), 6: (2, 3, 4), 7: (1, 2, 3, 4, 5, 6)}
    gs, extras = {}, {}
    for S, idx in combos.items():
        t = sum((tables[i] for i in idx), tables[0]) % p**M
        m = M
        while m > 1 and not (t % p ** (M - m + 1)).any():
            m -= 1
        gs[S] = f.mul(BoundedFunction.from_exponents(p, n, m, t // p ** (M - m)))
        extras[S] = sum((polys[i] for i in idx), NcPoly.zero(p, n))
    return gs, extras


def _linear_poly(p: int, n: int, vec) -> NcPoly:
    coeffs = {tuple(1 if j == i else 0 for j in range(n)): int(vec[i]) for i in range(n) if vec[i] % p}
    return NcPoly.from_classical(p, n, coeffs)
