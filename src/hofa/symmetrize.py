"""Symmetrization of trilinear forms that correlate through the
seven-function pattern

    E_{x,y,z} b1(x) b2(y) b3(z) b4(x+y) b5(x+z) b6(y+z) b7(x+y+z) w^{T(x,y,z)},

covering: the Cauchy-Schwarz defect bound for bilinear kernels, the
permutation-defect bounds for trilinear forms, extraction of a subspace
where the form is symmetric, the codimension-1 classical reduction for
p = 3, the nullspace reduction to nCSM for p = 2, the Cauchy-Schwarz
removal of lower-order multiaffine parts, and the two end-to-end
symmetrization pipelines.  Every claimed inequality is recomputed exactly
(bias form, squared magnitudes) and recorded in a ledger.

delta is always the measured correlation of the stored witness data,
never a user-supplied number, so each ledger line is falsifiable.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fpspace, mforms, rank
from .analysis import (
    BoundedFunction, CorrValue, _corner_sums, _kernel_tables, base_point_argmax, cube_corner_tables, first_max
)
from .config import DEFAULT_BUDGET, Budget
from .cyclotomic import RealSurd, common_ring, ring
from .errors import DimensionMismatch, InternalCheckError, PreconditionError
from .fpspace import Subspace, all_vectors, vec_add, vec_index
from .mforms import (
    BilinearForm,
    MultiaffineForm,
    MultilinearForm,
    S3,
    TRANSPOSITIONS_3,
    compose_perms,
    is_csm,
    is_ncsm,
    is_symmetric,
    multilinear_part,
    permute,
    restrict,
)
from .rank import RankCertificate, bilinear_rank, vanishing_decomposition


# -- exact seven-function correlations --


def slot_cube(p: int, n: int, slots, coeffs, k: int = 3) -> np.ndarray:
    """F_p values of the form with tensor ``coeffs`` whose arguments are the
    axes ``slots`` (sorted) of a k-axis table over F_p^n; other axes have
    length 1, so parts add and multiply by broadcasting."""
    t = mforms._pullback(np.asarray(coeffs), fpspace.points(p, n).T, p)
    shape = [1] * k
    for s in slots:
        shape[s] = p**n
    return t.reshape(shape)


def form_cube(form, p: int, n: int) -> np.ndarray:
    """Value table F[x, y, z] in F_p of a trilinear or triaffine form."""
    if not isinstance(form, MultiaffineForm):
        return slot_cube(p, n, (0, 1, 2), form.coeffs)
    cube = np.zeros((p**n,) * 3, dtype=np.int64)
    for slots, comp in form.components:
        cube = cube + slot_cube(p, n, sorted(slots), comp.coeffs)
    return cube % p


def seven_correlation(bs, form, budget: Budget = DEFAULT_BUDGET) -> CorrValue:
    """Exact E_{x,y,z} b1(x)b2(y)b3(z)b4(x+y)b5(x+z)b6(y+z)b7(x+y+z) w^{form}."""
    p, n = bs[0].p, bs[0].n
    R, tables, den = _seven_tables(bs, budget)
    return CorrValue.from_sum(R, _corner_sums(R, p, n, 3, tables, form_cube(form, p, n))[:, 0], den)


def _seven_tables(bs, budget: Budget) -> tuple:
    """The ring, corner tables over (x, y, z) and denominator of the seven-function average."""
    p, n = bs[0].p, bs[0].n
    size = p**n
    if size**3 * 8 > budget.enum_cap:
        raise fpspace.BudgetExceeded("seven-function correlation too large")  # pragma: no cover
    R, emb = _common_exact(p, bs)
    # b1..b7 sit at the corners x, y, z, x+y, x+z, y+z, x+y+z (bitmasks over x, y, z)
    tables = dict(zip((1, 2, 4, 3, 5, 6, 7), _kernel_tables(emb)))
    return R, tables, size**3 * math.prod(b.den for b in emb)


def three_correlation(b1, b2, b3, A: MultilinearForm, budget: Budget = DEFAULT_BUDGET) -> CorrValue:
    """Exact E_{u,v} b1(u) b2(v) b3(u+v) w^{A(u,v)} for bilinear A."""
    p, n = b1.p, b1.n
    R, emb = _common_exact(p, (b1, b2, b3))
    tables = dict(zip((1, 2, 3), _kernel_tables(emb)))
    sums = _corner_sums(R, p, n, 2, tables, slot_cube(p, n, (0, 1), A.coeffs, k=2))
    return CorrValue.from_sum(R, sums[:, 0], p ** (2 * n) * math.prod(b.den for b in emb))


def derivative_witness(b: BoundedFunction, form, budget: Budget = DEFAULT_BUDGET) -> tuple:
    """The seven-function witness of d^3 b at its best base point, with its
    exact correlation against w^{form}.

    At base point s the functions are b(s + .) on the corners x, y, z, x+y,
    x+z, y+z, x+y+z, conjugated on the pair sums, with the constant
    conj(b(s)) folded into the first.  Their correlations average to
    E_{s,h} (d^3 b)(s; h) w^{form(h)} over s, so the argmax is at least that.
    """
    p, n = b.p, b.n
    R, emb = _common_exact(p, (b,))
    tables = cube_corner_tables(R, dict.fromkeys(range(8), _kernel_tables(emb)[0]))
    (i,) = base_point_argmax(R, p, n, 4, tables, [form_cube(form, p, n)], budget=budget)
    s = all_vectors(p, n)[i]
    bs = _cs_witness_functions(b.shift_arg(s), b, s)
    return bs, seven_correlation(bs, form, budget)


def _common_exact(p: int, bs) -> tuple:
    """The witness functions embedded in one ring containing the p-th roots."""
    R = ring(p, 1)
    for b in bs:
        R = common_ring(R, b.ring)
    return R, [b.embed(R) for b in bs]


# -- witnesses and ledgers --


@dataclass(frozen=True)
class CorrelationWitness:
    """Seven 1-bounded functions plus the form they correlate with.

    ``delta`` is the exactly measured correlation of the stored data.
    """

    form: object  # MultilinearForm (trilinear) or MultiaffineForm
    bs: tuple
    delta: CorrValue

    @classmethod
    def make(cls, form, bs, budget: Budget = DEFAULT_BUDGET) -> "CorrelationWitness":
        if len(bs) != 7:
            raise PreconditionError("the witness pattern needs exactly seven functions")
        for b in bs:
            if not b.check_bounded():
                raise PreconditionError("witness function exceeds sup-norm 1")
        delta = seven_correlation(bs, form, budget)
        return cls(form, tuple(bs), delta)

    @classmethod
    def all_ones(cls, form, p: int, n: int, budget: Budget = DEFAULT_BUDGET) -> "CorrelationWitness":
        return cls.make(form, tuple(BoundedFunction.ones(p, n) for _ in range(7)), budget)

    def delta_positive(self) -> bool:
        return self.delta.mag2() > RealSurd(Fraction(0))


@dataclass(frozen=True)
class LedgerEntry:
    claim: str
    measured: str
    bound: str
    holds: bool

    def __str__(self):
        flag = "ok " if self.holds else "FAIL"
        return f"[{flag}] {self.claim}: measured {self.measured}, bound {self.bound}"


def bias_entry(p: int, claim: str, bias: Fraction, delta: CorrValue, power: int) -> LedgerEntry:
    """Entry for 'arank(X) <= power * log_p(1/delta)', checked exactly as
    bias^2 >= |delta|^(2 power); both sides are unexpanded powers, so the
    check forms neither unless they tie."""
    holds = RealSurd(bias) ** 2 >= delta.mag2() ** power
    arank = math.inf if bias == 0 else -math.log(bias) / math.log(p)
    logd = _log_inv_float(p, delta)
    return LedgerEntry(claim, f"arank={arank:.4f}", f"{power}*log_p(1/delta)={power * logd:.4f}", bool(holds))


def int_vs_delta_power(p: int, claim: str, label: str, value: int, delta: CorrValue, power: int) -> LedgerEntry:
    """Entry for 'value <= power * log_p(1/delta)', checked as p^{-value} >= delta^power;
    ``label`` names the value (codim, count) in the measured column."""
    holds = RealSurd(Fraction(1, p**value)) ** 2 >= delta.mag2() ** power
    logd = _log_inv_float(p, delta)
    return LedgerEntry(claim, f"{label}={value}", f"{power}*log_p(1/delta)={power * logd:.4f}", bool(holds))


def corr_entry(claim: str, measured: CorrValue, bound: CorrValue, holds: bool) -> LedgerEntry:
    """Entry comparing two exact correlations, shown by modulus."""
    return LedgerEntry(claim, f"{measured.modulus_float():.6g}", f"{bound.modulus_float():.6g}", bool(holds))


def delta_vs_delta_power(claim: str, out: CorrValue, base: CorrValue, power: int) -> LedgerEntry:
    holds = out.mag2() >= base.mag2() ** power
    return LedgerEntry(
        claim,
        f"|corr|={out.modulus_float():.6g}",
        f"delta^{power}={base.modulus_float() ** power:.6g}",
        bool(holds),
    )


def int_bound_entry(claim: str, value: int, bound: int) -> LedgerEntry:
    return LedgerEntry(claim, str(value), str(bound), value <= bound)


def _log_inv_float(p: int, delta: CorrValue) -> float:
    m = delta.modulus_float()
    return math.inf if m == 0 else -math.log(m) / math.log(p)


# -- the Cauchy-Schwarz defect bound for bilinear kernels --


@dataclass(frozen=True)
class DefectResult:
    delta: CorrValue
    defect_bias: Fraction
    holds: bool


def gt_defect(A: MultilinearForm, b1, b2, b3, budget: Budget = DEFAULT_BUDGET) -> DefectResult:
    """Check bias(A - A^T) >= delta^8 for the three-function correlation delta.

    Four Cauchy-Schwarz applications guarantee the inequality for any
    1-bounded b's; it is recomputed exactly here rather than trusted.
    """
    return gt_defects([(A, (b1, b2, b3))], budget)[0]


def gt_defects(instances, budget: Budget = DEFAULT_BUDGET) -> list:
    """``gt_defect`` of each (A, (b1, b2, b3)), the biases of all defects
    A - A^T from one ``rank.analytic_ranks`` call."""
    for A, bs in instances:
        if A.k != 2:
            raise DimensionMismatch("defect bound needs a bilinear kernel")
        for b in bs:
            if not b.check_bounded():
                raise PreconditionError("witness function exceeds sup-norm 1")
    ranks = rank.analytic_ranks([A - permute(A, (1, 0)) for A, _ in instances], budget)
    results = []
    for (A, bs), res in zip(instances, ranks):
        delta = three_correlation(*bs, A, budget)
        results.append(DefectResult(delta, res.bias, bool(RealSurd(res.bias) ** 2 >= delta.mag2() ** 8)))
    return results


# -- permutation defects for trilinear forms --


@dataclass(frozen=True)
class PermutationDefects:
    biases: dict  # perm tuple -> Fraction bias of T - T_pi
    ledger: tuple

    def all_hold(self) -> bool:
        return all(e.holds for e in self.ledger)


def permutation_defects(
    T: MultilinearForm, witness: CorrelationWitness, budget: Budget = DEFAULT_BUDGET
) -> PermutationDefects:
    """arank(T - T_pi) <= 16 log_p(1/delta) for every pi, with the sharper
    8 log_p(1/delta) for transpositions, all checked in exact bias form."""
    if T.k != 3:
        raise DimensionMismatch("permutation defects need a trilinear form")
    if isinstance(witness.form, MultilinearForm) and witness.form != T:
        raise PreconditionError("witness was measured against a different form")
    if not witness.delta_positive():
        raise PreconditionError("witness correlation is zero")
    delta = witness.delta
    biases, entries = {}, []
    for pi, res in zip(S3, rank.analytic_ranks([T - permute(T, pi) for pi in S3], budget)):
        bias = biases[pi] = res.bias
        entries.append(bias_entry(T.p, f"arank(T - T_{pi}) <= 16 log(1/delta)", bias, delta, 16))
        if pi in TRANSPOSITIONS_3:
            entries.append(bias_entry(T.p, f"arank(T - T_{pi}) <= 8 log(1/delta)", bias, delta, 8))
    return PermutationDefects(biases, tuple(entries))


# -- symmetric subspace from certificates --


def symmetric_subspace(T: MultilinearForm, certs: dict) -> Subspace:
    """Common kernel of the single-slot linear factors of the certificates.

    ``certs`` maps permutations of the three slots that generate S_3 to
    certificates for T - T_pi, all verified by one
    ``rank.verify_certificates`` call.  Every term of a certificate has a
    single-slot factor, so each T - T_pi vanishes on the result, and the
    restriction of T, fixed by generators of S_3, is symmetric.
    """
    invalid = [pi for pi in certs if pi not in S3]
    if invalid:
        raise PreconditionError(f"certificate keys {invalid} are not permutations of the three slots")
    reached = {S3[0]}
    while len(grown := reached | {compose_perms(a, pi) for a in reached for pi in certs}) > len(reached):
        reached = grown
    if len(reached) < len(S3):
        missing = [pi for pi in S3 if pi not in reached]
        raise PreconditionError(
            f"certificates for {sorted(certs)} do not generate S_3: no certificate reaches {missing}"
        )
    forms = []
    for (pi, cert), res in zip(certs.items(), rank.verify_certificates(list(certs.values()))):
        if cert.claimed_form != T - permute(T, pi):
            raise PreconditionError(f"certificate for {pi} is for the wrong form")
        if not res.ok:
            raise PreconditionError(f"certificate for {pi} does not verify")
        forms.extend(cert.linear_factors())
    U = fpspace.kernel(T.p, T.n, forms)
    RU = restrict(T, U)
    if not is_symmetric(RU):  # pragma: no cover
        raise InternalCheckError("restriction is not symmetric despite vanishing defects")
    return U


def default_defect_certificates(
    T: MultilinearForm, budget: Budget = DEFAULT_BUDGET
) -> dict:
    """Certificates for every T - T_pi: trivial when the defect vanishes,
    otherwise by exhaustive search (tiny instances only)."""
    defects = [T - permute(T, pi) for pi in S3[1:]]
    return dict(zip(S3[1:], rank.prank_certificate_searches(defects, budget)))


# -- p = 3 classical reduction --


def diagonal_linear_form(T: MultilinearForm) -> tuple:
    """The linear form x -> T(x, x, x) for symmetric trilinear T over F_3.

    Its coefficients are the tensor diagonal T[i, i, i]; linearity is
    asserted on the table of T(x, x, x) over all of F_3^n.
    """
    if T.p != 3 or T.k != 3:
        raise PreconditionError("diagonal linearity needs p = 3 and k = 3")
    if not is_symmetric(T):
        raise PreconditionError("form is not symmetric")
    c = T.coeffs.astype(np.int64)
    coeffs = np.einsum("iii->i", c)
    X = fpspace.points(3, T.n)
    if ((np.einsum("ijk,xi,xj,xk->x", c, X, X, X) - X @ coeffs) % 3).any():  # pragma: no cover
        raise InternalCheckError("diagonal map is not linear; form data corrupt")
    return tuple(int(v) for v in coeffs)


def csm_subspace_f3(T: MultilinearForm) -> Subspace:
    """Codimension <= 1 subspace where a symmetric F_3 trilinear form is CSM."""
    L = diagonal_linear_form(T)
    U = fpspace.kernel(3, T.n, [L] if any(L) else [])
    if not is_csm(restrict(T, U)):  # pragma: no cover
        raise InternalCheckError("restriction to the diagonal kernel is not CSM")
    return U


# -- p = 2 nCSM reduction --


def ncsm_subspace_f2(
    T: MultilinearForm, witness: CorrelationWitness, budget: Budget = DEFAULT_BUDGET
) -> tuple[Subspace, BilinearForm, tuple]:
    """Nullspace of B(x,y) = T(x,x,y) - T(x,y,y); the restriction is an nCSM.

    Returns (U, B, ledger) with the codim U <= 8 log_2(1/delta) entry.
    """
    if T.p != 2 or T.k != 3:
        raise PreconditionError("this reduction needs p = 2 and k = 3")
    if not is_symmetric(T):
        raise PreconditionError("form is not symmetric")
    c = T.coeffs.astype(np.int64)
    # B(e_i, e_j) = T[i, i, j] - T[i, j, j]
    mat = (np.einsum("iij->ij", c) - np.einsum("ijj->ij", c)) % 2
    B = BilinearForm(2, T.n, mat)
    X = fpspace.points(2, T.n)
    Tx = np.einsum("ijk,xi->xjk", c, X)  # T(x, ., .)
    xxy = np.einsum("xjk,xj->xk", Tx, X) @ X.T
    xyy = Tx.reshape(len(X), -1) @ np.einsum("yj,yk->jky", X, X).reshape(T.n**2, len(X))
    if ((xxy - xyy - X @ mat @ X.T) % 2).any():  # pragma: no cover
        raise InternalCheckError("defect kernel is not bilinear; form data corrupt")
    _, _, U = bilinear_rank(B)
    RU = restrict(T, U)
    if not is_ncsm(RU):  # pragma: no cover
        raise InternalCheckError("restriction to the defect nullspace is not an nCSM")
    entry = int_vs_delta_power(2, "codim U <= 8 log2(1/delta)", "codim", U.codim, witness.delta, 8)
    return U, B, (entry,)


# -- Cauchy-Schwarz removal of the lower-order multiaffine parts --


def multiaffine_cs(witness, budget: Budget = DEFAULT_BUDGET) -> tuple[MultilinearForm, tuple, CorrValue, tuple]:
    """From a triaffine correlation to a trilinear one at cost delta -> delta^8.

    ``witness`` has a triaffine ``form`` phi, seven functions ``bs`` and
    their measured correlation ``delta`` (a ``CorrelationWitness`` or a
    ``ShiftedWitness``).  Three Cauchy-Schwarz steps eliminate b1..b6 and
    the affine parts of phi; the surviving witness functions are shifted
    copies (and conjugates) of b7: the witness of d^3 b7 at its best base
    point (``derivative_witness``).  The output correlation is measured
    exactly and checked against delta^8.
    """
    T = multilinear_part(witness.form)
    bprime, delta_out = derivative_witness(witness.bs[6], T, budget)
    entry = delta_vs_delta_power("multiaffine CS: |corr(T)| >= delta^8", delta_out, witness.delta, 8)
    if not entry.holds:  # pragma: no cover
        raise InternalCheckError("Cauchy-Schwarz output correlation below delta^8")
    return T, bprime, delta_out, (entry,)


def _cs_witness_functions(shifted: BoundedFunction, b7: BoundedFunction, s) -> tuple:
    """The seven functions surviving the three Cauchy-Schwarz steps.

    All are shifted copies of b7 (conjugated on the pair sums), with the
    constant conj(b7(s)) folded into the first.
    """
    p, n, R = b7.p, b7.n, b7.ring
    sc = shifted.conj()
    # fold the constant conj(b7(s)) into b1': an exponent shift when b7 is a phase
    i = vec_index(p, s)
    if b7.exps is not None:
        b1p = BoundedFunction(p, n, R, exps=(shifted.exps - b7.exps[i]) % R.N)
    else:
        const = R.conj_arrays(b7.coeffs[:, i])
        b1p = BoundedFunction(p, n, R, R.mul_arrays(shifted.coeffs, const), shifted.den * b7.den)
    return (b1p, shifted, shifted, sc, sc, sc, shifted)


# -- reports and the two symmetrization pipelines --


@dataclass(frozen=True)
class SymmetrizationReport:
    input_form: MultilinearForm
    output_form: MultilinearForm
    certificate: RankCertificate
    ledger: tuple
    subspace: Subspace
    defect_biases: dict  # perm tuple -> bias of T - T_pi measured against the witness; {} without one

    def all_hold(self) -> bool:
        return all(e.holds for e in self.ledger)

    def verify(self) -> bool:
        """Verify the certificate for T - S anew (the symmetrizers verified
        it once, when ``rank.vanishing_decomposition`` built it)."""
        return bool(rank.verify_certificate(self.certificate).ok)


def _resolve_certs(T: MultilinearForm, certs, budget: Budget) -> dict:
    if certs is None:
        return default_defect_certificates(T, budget)
    return certs


def symmetrize_classical(
    T: MultilinearForm,
    witness: CorrelationWitness | None,
    certs: dict | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> SymmetrizationReport:
    """Classical symmetrization for p >= 3: output S in CSM^3(V) with a
    verified certificate of <= 15r + 3 terms for T - S.

    For p = 3 the codimension-1 diagonal reduction is needed; for p = 5
    every symmetric trilinear form is already classical and the step is
    skipped (bound 15r).
    """
    if T.p not in (3, 5):
        raise PreconditionError("classical symmetrization needs p in {3, 5}")
    ledger = []
    if witness is not None:
        defects = permutation_defects(T, witness, budget)
        ledger.extend(defects.ledger)
    certs = _resolve_certs(T, certs, budget)
    r = max((len(c) for c in certs.values()), default=0)
    U1 = symmetric_subspace(T, certs)
    ledger.append(int_bound_entry("codim U <= 5r", U1.codim, 5 * r))
    if T.p == 3:
        U2_inner = csm_subspace_f3(restrict(T, U1))
        ledger.append(int_bound_entry("diagonal reduction codim <= 1", U2_inner.codim, 1))
        W = fpspace.compose_subspace(U1, U2_inner)
        bound = 15 * r + 3
    else:
        W = U1
        bound = 15 * r
    S = mforms.extend(restrict(T, W), W, fpspace.complement(W))
    if not is_csm(S):  # pragma: no cover
        raise InternalCheckError("classical symmetrization output is not CSM")
    cert = vanishing_decomposition(T - S, W)
    ledger.append(int_bound_entry(f"prank(T - S) <= {bound}", len(cert), bound))
    return SymmetrizationReport(T, S, cert, tuple(ledger), W, {} if witness is None else defects.biases)


def symmetrize_nonclassical_p2(
    T: MultilinearForm,
    witness: CorrelationWitness,
    certs: dict | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> SymmetrizationReport:
    """Non-classical symmetrization for p = 2: output S in nCSM^3(V) with a
    verified certificate of <= 432 log_2(1/delta) terms for T - S.

    Chain: permutation defects -> symmetric subspace U -> best coset
    restriction -> Cauchy-Schwarz to the trilinear part -> nCSM nullspace
    W -> extension.  Every codimension and length claim is ledgered.
    """
    if T.p != 2 or T.k != 3:
        raise PreconditionError("this pipeline needs p = 2 and k = 3")
    if not witness.delta_positive():
        raise PreconditionError("witness correlation is zero")
    delta = witness.delta
    ledger = []
    defects = permutation_defects(T, witness, budget)
    ledger.extend(defects.ledger)
    certs = _resolve_certs(T, certs, budget)
    U1 = symmetric_subspace(T, certs)
    ledger.append(int_vs_delta_power(2, "codim U <= 80 log2(1/delta)", "codim", U1.codim, delta, 80))

    # best coset restriction of the witness to U1
    shifted_witness, coset_entry = _best_coset_witness(T, witness, U1, budget)
    ledger.append(coset_entry)

    # strip the affine parts produced by the coset shift
    T_U, bprime, delta2, cs_ledger = multiaffine_cs(shifted_witness, budget)
    ledger.extend(cs_ledger)
    if T_U != restrict(T, U1):  # pragma: no cover
        raise InternalCheckError("trilinear part after coset shift is not the restriction")
    witness2 = CorrelationWitness(T_U, bprime, delta2)

    # nCSM reduction inside U1
    W_inner, B, inner_ledger = ncsm_subspace_f2(T_U, witness2, budget)
    ledger.extend(inner_ledger)
    ledger.append(
        int_vs_delta_power(2, "codim_U W <= 64 log2(1/delta)", "codim", W_inner.codim, delta, 64)
    )
    W = fpspace.compose_subspace(U1, W_inner)
    ledger.append(int_vs_delta_power(2, "codim_V W <= 144 log2(1/delta)", "codim", W.codim, delta, 144))

    S = mforms.extend(restrict(T, W), W, fpspace.complement(W))
    if not is_ncsm(S):  # pragma: no cover
        raise InternalCheckError("non-classical symmetrization output is not an nCSM")
    cert = vanishing_decomposition(T - S, W)
    ledger.append(int_bound_entry("prank(T - S) <= 3 codim_V W", len(cert), 3 * W.codim))
    ledger.append(
        int_vs_delta_power(2, "prank(T - S) <= 432 log2(1/delta)", "count", len(cert), delta, 432)
    )
    return SymmetrizationReport(T, S, cert, tuple(ledger), W, defects.biases)


@dataclass(frozen=True)
class ShiftedWitness:
    form: MultiaffineForm  # triaffine on U-coordinates
    bs: tuple
    delta: CorrValue
    shifts: tuple


def _best_coset_witness(
    T: MultilinearForm, witness: CorrelationWitness, U: Subspace, budget: Budget
) -> tuple[ShiftedWitness, LedgerEntry]:
    """Argmax coset restriction: the average over coset triples equals the
    full correlation, so the best triple is at least delta.

    Each (x, y, z) is labelled by its triple of cosets, x-coset major
    (``itertools.product`` order), and one labelled ``_corner_sums`` of the
    full seven-function product gives every triple's sum over its
    p^(3 dim U) points: its restricted correlation.  Ties keep the first
    triple; only the winner is restricted.
    """
    p, n = T.p, T.n
    reps = list(fpspace.enumerate_subspace(fpspace.complement(U), budget))
    r = len(reps)
    R, tables, den = _seven_tables(witness.bs, budget)
    coset = _coset_labels(U)
    labels = (coset[:, None, None] * r + coset[None, :, None]) * r + coset[None, None, :]
    sums = _corner_sums(R, p, n, 3, tables, form_cube(T, p, n), labels, r**3)
    best = first_max(R, sums)
    shifts = x0, y0, z0 = reps[best // r**2], reps[best // r % r], reps[best % r]
    val = CorrValue.from_sum(R, sums[:, best], den // r**3)
    xy = vec_add(p, x0, y0)
    # b1..b7 on the cosets of the corners x, y, z, x+y, x+z, y+z, x+y+z
    corners = (x0, y0, z0, xy, vec_add(p, x0, z0), vec_add(p, y0, z0), vec_add(p, xy, z0))
    bs_U = tuple(b.restrict_to_coset(U, c) for b, c in zip(witness.bs, corners))
    holds = val.mag2() >= witness.delta.mag2()
    entry = corr_entry("coset restriction keeps |corr| >= delta", val, witness.delta, holds)
    if not holds:  # pragma: no cover
        raise InternalCheckError("coset argmax fell below the average")
    return ShiftedWitness(_coset_form(T, U, shifts), bs_U, val, shifts), entry


def _coset_labels(U: Subspace) -> np.ndarray:
    """Per point of F_p^n (all_vectors order), the index of its coset of U in
    ``enumerate_subspace(complement(U))``: x minus its U part, read off the
    RREF rows of U, is zero on the pivots, and its free coordinates are the
    representative's coefficients, the first most significant."""
    p, n = U.p, U.n
    rows, pivots = fpspace.rref(p, U.basis)
    free = [j for j in range(n) if j not in pivots]
    X = fpspace.points(p, n)
    W = (X - X[:, pivots] @ np.array(rows, dtype=np.int64).reshape(len(rows), n)) % p
    return W[:, free] @ p ** np.arange(len(free) - 1, -1, -1)


def _coset_form(T: MultilinearForm, U: Subspace, shifts) -> MultiaffineForm:
    """The triaffine form (u, v, w) -> T(s_0 + B u, s_1 + B v, s_2 + B w) in
    U-coordinates, B the basis of U.

    One contraction of T with the homogeneous map [B | s_i] on each slot i;
    the component on a slot set S reads coordinate dim U (the shift) on the
    slots outside S.
    """
    p, d = T.p, U.dim
    B = np.array(U.basis, dtype=np.int64).reshape(d, T.n)
    H = T.coeffs.astype(np.int64)
    for s in shifts:
        H = np.tensordot(H, np.vstack([B, s]).T, axes=([0], [0])) % p
    comps = {}
    for keep in itertools.product((False, True), repeat=3):
        part = H[tuple(slice(d) if k else d for k in keep)]
        slots = tuple(i for i, k in enumerate(keep) if k)
        comps[slots] = MultilinearForm(p, d, len(slots), part) if slots else int(part)
    return MultiaffineForm.make(p, d, 3, comps)
