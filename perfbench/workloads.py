"""The four workloads of the hofa benchmark.

A workload is a fixed list of operations (one *pass*), built from the seed
during set-up and run round-robin, so every operation kind keeps a fixed
share whatever the run length.  Each operation calls the public ``hofa``
API through module attributes (so the layer tracer sees every call) and
returns its output; ``check`` tests that output exactly and ``canon`` turns
it into the text that enters the output digest.

Only the inputs depend on the seed; sizes and kinds are fixed here:

* ``pipeline``: ``run_inverse_pipeline`` at threshold 1/2 on five kinds,
  (a) a polynomial guess over F_2^3, half of the inputs with ~5% eighth-root
  noise, (b) a polynomial guess over F_3^2, (c)/(d) a supplied triaffine
  form with one planted rank-1 term and its defect certificates over
  F_2^3 / F_3^2, and (e) the same over F_2^2 without certificates, which
  runs the partition-rank search.
* ``norms-p2-phase``: exact U^2, U^3, U^4 of eighth-root phases over F_2^7,
  the integer exponent-table path of ``analysis.gowers_norm``.
* ``norms-ring``: the same norms on inputs that path does not take: a
  cube-root phase over F_3^4, a Z[i]-valued function with denominator 4 over
  F_2^7, and an eighth-root phase over F_2^6 parsed from its file text.
* ``algebra``: symmetrization with supplied certificates, integration of
  nCSM forms, and the analytic-rank / certificate-search / verify path.

Every pipeline and algebra input comes from a fixed corpus seen through a
seeded random change of basis x -> A x that permutes and scales the
coordinates.  That keeps every rank, codimension and certificate length of an
instance and the sparsity of its polynomials and forms, so seeds change the
data but not the work, and the seed-to-seed spread of the timings stays small.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from hofa import (
    analysis,
    cyclotomic,
    fpspace,
    instances,
    integrate,
    mforms,
    ncpoly,
    pipeline,
    rank,
    serialize,
    symmetrize,
)

THRESHOLD = Fraction(1, 2)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when every check holds, else the reason
    canon: Callable[[object], str]


@dataclass
class Workload:
    ops: list  # one pass, in round-robin order
    oracle: Callable[[], list]  # reasons the oracle cross-checks failed
    control: Callable[[list], list]  # reasons a tampered output was not rejected


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate the seeded inputs of one workload and warm the lru caches."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, tiny)


def digest(canon_texts) -> str:
    h = hashlib.sha256()
    for text in canon_texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _warm(module, name, *args):
    """Fill one lru cache of the program, if the program still has it."""
    fn = getattr(module, name, None)
    if fn is not None:
        fn(*args)


def _nonzero_vector(rng, p, n):
    while True:
        v = [rng.randrange(p) for _ in range(n)]
        if any(v):
            return np.array(v, dtype=np.int64)


def _norm_text(values) -> str:
    return "; ".join(f"U{v.d} {list(v.power_num)}/{v.power_den}" for v in values)


def _check_norms(values) -> str | None:
    """Each norm in (0, 1] and U^2 <= U^3 <= U^4, as exact comparisons."""
    zero, one = cyclotomic.RealSurd(Fraction(0)), cyclotomic.RealSurd(Fraction(1))
    powers = [v.power_surd() for v in values]
    for v, pw in zip(values, powers):
        if not (pw > zero and pw <= one):
            return f"U^{v.d} power {pw} not in (0, 1]"
    for lo, hi, a, b in zip(values, values[1:], powers, powers[1:]):
        # ||f||_{U^d} = P_d^(1/2^d), so for d < e, U^d <= U^e iff P_d^(2^(e-d)) <= P_e
        if not (lo.d < hi.d and a ** (2 ** (hi.d - lo.d)) <= b):
            return f"U^{lo.d} > U^{hi.d}"
    return None


def _norms(f, ds=(2, 3, 4)):
    return tuple(analysis.gowers_norm(f, d) for d in ds)


def _oracle_norms(label: str, f) -> list:
    bad = []
    for d in (2, 3, 4):
        fast = analysis.gowers_norm(f, d).power_surd()
        slow = analysis.direct_gowers_power(f, d).power_surd()
        if fast != slow:
            bad.append(f"{label}: gowers_norm U^{d} != direct_gowers_power")
    return bad


def _control_norms(outputs) -> list:
    """U^4 claimed as 2, or U^2 claimed as 1, must fail the norm checks."""
    u2, u3, u4 = outputs[0]

    def claim(v, value):
        num = (value * v.power_den,) + (0,) * (len(v.power_num) - 1)
        return replace(v, power_num=num, float_power=float(value))

    bad = []
    if _check_norms((u2, u3, claim(u4, 2))) is None:
        bad.append("norm check accepted U^4 > 1")
    if _check_norms((claim(u2, 1), u3, u4)) is None:
        bad.append("norm check accepted U^2 = 1 > U^3")
    return bad


# -- pipeline --


def _random_basis_change(rng, p, n):
    """A random monomial matrix over F_p: permuted coordinates, each scaled by a nonzero c.

    Unlike a general invertible matrix it keeps the monomial support of every
    polynomial and the zero pattern of every form, which sets the cost of an
    operation.
    """
    A = np.zeros((n, n), dtype=np.int64)
    for i, j in enumerate(rng.sample(range(n), n)):
        A[i, j] = rng.randrange(1, p)
    return A


def _image_indices(A, p, n):
    """index(A x) for every x, in all_vectors order."""
    return [fpspace.vec_index(p, tuple(int(c) for c in (A @ np.array(x)) % p)) for x in fpspace.all_vectors(p, n)]


def _compose(P, A):
    """The polynomial x -> P(A x), by interpolation of its value table."""
    vecs = fpspace.all_vectors(P.p, P.n)
    return ncpoly.interpolate(P.p, P.n, [P.evaluate(vecs[i]) for i in _image_indices(A, P.p, P.n)])


def _compose_function(f, A):
    """The function x -> f(A x)."""
    idx = _image_indices(A, f.p, f.n)
    exps = f.exps[idx] if f.exps is not None else None
    return analysis.BoundedFunction(f.p, f.n, f.ring, f.coeffs[:, idx], f.den, exps=exps)


def _pull(T, A):
    """The form (x_1, ..., x_k) -> T(A x_1, ..., A x_k)."""
    c = T.coeffs.astype(np.int64)
    for _ in range(T.k):
        c = np.tensordot(c, A, axes=([0], [0]))
    return mforms.MultilinearForm(T.p, T.n, T.k, c % T.p)


def _pull_term(t, A):
    return rank.CertTerm(t.slots, _pull(t.left, A), _pull(t.right, A))


def _phase_input(base, rng, p, n, noisy):
    """A cubic P0 = P o A and its phase: P from the corpus ``base``, A from the seed."""
    P = ncpoly.random_poly(p, n, 3, depth_allowed=(p == 2), seed=base.randrange(1 << 30))
    A = _random_basis_change(rng, p, n)
    P0 = _compose(P, A)
    f = analysis.BoundedFunction.from_poly_phase(P0)
    if noisy:  # about 5% of the points get another eighth root of unity
        f = f.embed(cyclotomic.ring(2, 3))
        vecs = list(fpspace.all_vectors(p, n))
        repl = {}
        for x in rng.sample(vecs, max(1, round(0.05 * f.size))):
            orig = int(f.exps[fpspace.vec_index(p, x)])
            t = rng.randrange(8)
            while t == orig:
                t = rng.randrange(8)
            repl[x] = t
        f = f.with_replaced_values(repl)
    return P0, A, f


def _supplied_input(base, rng, p, n, with_certs):
    """phi = -d^3 P0 plus one planted rank-1 term, f the phase of P0."""
    P0, A, f = _phase_input(base, rng, p, n, noisy=False)
    bil = np.array([[base.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
    if not bil.any():
        bil[0, 0] = 1
    slot, lin = base.randrange(3), _nonzero_vector(base, p, n)
    # the planted term in the same coordinates as P0: x -> term(A x)
    term = _pull_term(
        rank.CertTerm((slot,), mforms.MultilinearForm(p, n, 1, lin), mforms.MultilinearForm(p, n, 2, bil)), A
    )
    T = -mforms.total_derivative(P0, 3) + mforms.MultilinearForm(p, n, 3, term.tensor(3))
    certs = instances.defect_certificates_from_terms(T, [term]) if with_certs else None
    phi = mforms.MultiaffineForm.from_multilinear(T)
    return f, pipeline.PipelineOptions(strategy=pipeline.SuppliedTriaffine(phi), certs_by_perm=certs)


def _pipeline_op(kind, f, options, exact_one):
    def run():
        return pipeline.run_inverse_pipeline(f, THRESHOLD, options)

    def check(rep):
        if not rep.all_hold():
            return "ledger has a failing entry"
        if analysis.correlation(f, rep.final_poly).mag2() != rep.final_correlation.mag2():
            return "recomputed final correlation differs from the report"
        if exact_one and not rep.final_correlation.mag2_is_one():
            return "noiseless phase did not reach correlation 1"
        if f.p == 3 and not (rep.classical and rep.final_poly.is_classical()):
            return "p = 3 output is not classical"
        return None

    return Op(kind, run, check, lambda rep: rep.as_text())


def _build_pipeline(rng, tiny):
    n2 = 2 if tiny else 3
    base = random.Random("pipeline corpus")  # fixed instances; the seed picks the bases
    guess = pipeline.FromPolynomialGuess
    # one input per kind, and kind (a) both without and with noise, so half
    # of the kind (a) inputs are noisy on every seed
    P_a, _, f_a = _phase_input(base, rng, 2, n2, False)
    P_an, _, f_an = _phase_input(base, rng, 2, n2, True)
    P_b, _, f_b = _phase_input(base, rng, 3, 2, False)
    ops = [
        _pipeline_op("a", f_a, pipeline.PipelineOptions(strategy=guess(P_a)), True),
        _pipeline_op("a-noisy", f_an, pipeline.PipelineOptions(strategy=guess(P_an)), False),
        _pipeline_op("b", f_b, pipeline.PipelineOptions(strategy=guess(P_b)), True),
        _pipeline_op("c", *_supplied_input(base, rng, 2, n2, True), False),
        _pipeline_op("d", *_supplied_input(base, rng, 3, 2, True), False),
        _pipeline_op("e", *_supplied_input(base, rng, 2, 2, False), False),
    ]
    for p, n in {(2, n2), (3, 2), (2, 2)}:
        classical = p >= 3
        _warm(analysis, "_shift_table", p, n)
        _warm(analysis, "_quadratic_candidates", p, n, classical)
        _warm(integrate, "_solver_data", p, n, 3, classical)
        _warm(mforms, "_multiplicity_classes", n, 3, p)
        _warm(fpspace, "all_vectors", p, n)
    for p, m in ((2, 1), (2, 2), (2, 3), (3, 1)):
        _warm(cyclotomic, "ring", p, m)

    def oracle():
        return _oracle_norms("pipeline a", f_a) + _oracle_norms("pipeline b", f_b)

    def control(outputs):
        # add the linear phase x_1 to the kind (b) answer: |corr| drops from 1 to 0
        rep = outputs[2]
        x1 = ncpoly.NcPoly.from_classical(3, 2, {(1, 0): 1})
        if ops[2].check(replace(rep, final_poly=rep.final_poly + x1)) is None:
            return ["pipeline check accepted a wrong final polynomial"]
        return []

    return Workload(ops, oracle, control)


# -- Gowers norms --


def _build_norms_p2(rng, tiny):
    n = 4 if tiny else 7
    fs = [analysis.random_unimodular_exact(rng, 2, n, 3) for _ in range(2)]
    ops = [Op("p2-phase", (lambda f=f: _norms(f)), _check_norms, _norm_text) for f in fs]
    _warm(analysis, "_shift_table", 2, n)
    _warm(cyclotomic, "ring", 2, 3)

    def oracle():
        return _oracle_norms("eighth-root phase F_2^3", analysis.random_unimodular_exact(rng, 2, 3, 3))

    return Workload(ops, oracle, _control_norms)


def _gaussian_function(rng, n, den=4):
    """A 1-bounded Z[i]-valued function (a + b i) / den on F_2^n."""
    pts = [(a, b) for a in range(-den, den + 1) for b in range(-den, den + 1) if a * a + b * b <= den * den]
    coeffs = np.array([pts[rng.randrange(len(pts))] for _ in range(2**n)], dtype=np.int64).T
    return analysis.BoundedFunction(2, n, cyclotomic.ring(2, 2), coeffs, den)


def _loaded_op(source):
    text = serialize.dump_function(source)

    def run():
        f = serialize.load_function(text)
        return f, _norms(f)

    def check(out):
        f, values = out
        same = (
            (f.p, f.n, f.den, f.ring.N) == (source.p, source.n, source.den, source.ring.N)
            and np.array_equal(f.coeffs, source.coeffs)
        )
        return _check_norms(values) if same else "loaded function differs from its source"

    def canon(out):
        f, values = out
        return f"loaded {hashlib.sha256(f.coeffs.tobytes()).hexdigest()} den={f.den}; " + _norm_text(values)

    return Op("loaded", run, check, canon)


def _build_norms_ring(rng, tiny):
    n3, n2, nl = (2, 4, 3) if tiny else (4, 7, 6)
    f3 = analysis.random_unimodular_exact(rng, 3, n3, 1)
    fz = _gaussian_function(rng, n2)
    ops = [
        Op("cube-root", lambda: _norms(f3), _check_norms, _norm_text),
        Op("gaussian", lambda: _norms(fz), _check_norms, _norm_text),
        _loaded_op(analysis.random_unimodular_exact(rng, 2, nl, 3)),
    ]
    for p, n in ((3, n3), (2, n2), (2, nl)):
        _warm(analysis, "_shift_table", p, n)
    for p, m in ((3, 1), (2, 2), (2, 3)):
        _warm(cyclotomic, "ring", p, m)

    def oracle():
        loaded = serialize.load_function(serialize.dump_function(analysis.random_unimodular_exact(rng, 2, 3, 3)))
        return (
            _oracle_norms("cube-root phase F_3^2", analysis.random_unimodular_exact(rng, 3, 2, 1))
            + _oracle_norms("Z[i] function F_2^3", _gaussian_function(rng, 3))
            + _oracle_norms("loaded phase F_2^3", loaded)
        )

    return Workload(ops, oracle, _control_norms)


# -- algebra --


def _symmetrize_op(inst, A):
    """Symmetrize a corpus instance seen through the change of basis x -> A x."""
    T = _pull(inst.T, A)
    certs = {
        pi: rank.RankCertificate(_pull(c.claimed_form, A), tuple(_pull_term(t, A) for t in c.terms))
        for pi, c in inst.certs.items()
    }
    witness = symmetrize.CorrelationWitness.make(T, tuple(_compose_function(b, A) for b in inst.witness.bs))
    p = T.p
    if p == 2:
        run = lambda: symmetrize.symmetrize_nonclassical_p2(T, witness, certs=certs)
        output_ok = mforms.is_ncsm
    else:
        run = lambda: symmetrize.symmetrize_classical(T, witness, certs=certs)
        output_ok = mforms.is_csm

    def check(rep):
        if not rep.all_hold():
            return "symmetrization ledger has a failing entry"
        if not rep.verify():
            return "symmetrization certificate does not verify"
        if not output_ok(rep.output_form):
            return "symmetrization output is not CSM / nCSM"
        return None

    def canon(rep):
        ledger = "\n".join(str(e) for e in rep.ledger)
        return f"{ledger}\n{serialize.dump_form(rep.output_form)}{serialize.dump_certificate(rep.certificate)}"

    return Op(f"symmetrize-p{p}", run, check, canon)


def _integrate_op(T):
    def check(P):
        return None if mforms.total_derivative(P, T.k) == T else "d^k P != T"

    return Op(f"integrate-{T.p}{T.n}{T.k}", lambda: integrate.integrate_ncsm(T), check, serialize.dump_poly)


def _rank_op(T):
    """The ``hofa rank`` path: bias, partition rank, certificate, verification."""

    def run():
        res = rank.analytic_rank(T)
        prank = rank.prank_search(T)
        cert = rank.prank_certificate_search(T)
        return res, prank, cert, rank.verify_certificate(cert)

    def check(out):
        res, prank, cert, verified = out
        if not verified.ok or cert.claimed_form != T:
            return "rank certificate does not verify"
        if len(cert) != prank:
            return f"certificate length {len(cert)} != searched prank {prank}"
        if res.bias < Fraction(1, T.p ** len(cert)):
            return "bias < p^-length"
        return None

    def canon(out):
        res, prank, cert, _ = out
        return f"bias {res.bias} prank {prank}\n{serialize.dump_certificate(cert)}"

    return Op("rank", run, check, canon)


def _build_algebra(rng, tiny):
    n2 = 2 if tiny else 3
    # fixed corpus instances, seen through seeded changes of basis as in _phase_input
    sym = [
        _symmetrize_op(instances.planted_instance(p, n, seed=("algebra corpus", p), style=style),
                       _random_basis_change(rng, p, n))
        for p, n, style in ((2, n2, "general"), (3, 2, "single_linear"))
    ]
    base = random.Random("algebra corpus")
    sizes = ((2, 3, 3), (2, 2, 4), (3, 2, 4)) if tiny else ((2, 5, 3), (2, 4, 4), (3, 3, 4))
    integ = []
    for p, n, k in sizes:
        T = _pull(mforms.random_ncsm_form(base, p, n, k), _random_basis_change(rng, p, n))
        assert mforms.is_ncsm(T)
        integ.append(_integrate_op(T))
    forms = []
    while len(forms) < 2:
        T = mforms.random_form(base, 2, 2, 3)
        if not T.is_zero():
            forms.append(_pull(T, _random_basis_change(rng, 2, 2)))
    ranks = [_rank_op(T) for T in forms]
    ops = []
    for r in range(6):  # lcm of the pool sizes: every input once per pass
        ops += [sym[r % 2], integ[r % 3], ranks[r % 2]]
    for p, n, k in sizes:
        _warm(integrate, "_solver_data", p, n, k, False)
        _warm(mforms, "_multiplicity_classes", n, k, p)
    for p, n in ((2, n2), (3, 2), (2, 2)):
        _warm(analysis, "_shift_table", p, n)
        _warm(fpspace, "all_vectors", p, n)

    def oracle():
        return [f"analytic_rank != naive_bias on {T.coeffs.tolist()}" for T in forms
                if rank.analytic_rank(T).bias != rank.naive_bias(T)]

    def control(outputs):
        res, prank, cert, _ = outputs[2]
        short = rank.RankCertificate(cert.claimed_form, cert.terms[:-1])
        tampered = (res, prank, short, rank.verify_certificate(short))
        return [] if ranks[0].check(tampered) else ["rank check accepted a shortened certificate"]

    return Workload(ops, oracle, control)


_BUILDERS = {
    "pipeline": _build_pipeline,
    "norms-p2-phase": _build_norms_p2,
    "norms-ring": _build_norms_ring,
    "algebra": _build_algebra,
}
