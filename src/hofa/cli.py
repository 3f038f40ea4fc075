"""Command-line surface: norm, rank, integrate, symmetrize, pipeline, selftest.

Exit status: 0 on success, 1 on a failed check, an error or a path that
cannot be read or written (one ``error:`` line), 2 on usage errors
(argparse's convention).
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import analysis, integrate, mforms, pipeline, rank, serialize, symmetrize
from .config import Budget
from .cyclotomic import RealSurd
from .errors import HofaError


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise HofaError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise HofaError(f"cannot read {path}: not a text file") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise HofaError(f"cannot write {path}: {exc.strerror or exc}") from None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _budget_from(args) -> Budget:
    if args.budget is None:
        return Budget()
    return Budget(enum_cap=args.budget, gowers_cap=args.budget)


def cmd_norm(args) -> int:
    fn = serialize.load_function(_read(args.input))
    value = analysis.gowers_norm(fn, args.d, _budget_from(args))
    if value.power_surd() == RealSurd(1):
        print("1")
    else:
        print(f"{value.norm_float():.12g}")
        print(f"U^{args.d} power (2^{args.d}-th): {value.power_num} / {value.power_den}")
    return 0


def cmd_rank(args) -> int:
    form = serialize.load_form(_read(args.input))
    if isinstance(form, mforms.MultiaffineForm):
        form = mforms.multilinear_part(form)
    res = rank.analytic_rank(form, _budget_from(args))
    print(f"bias = {res.bias}")
    print(f"arank = {res.arank:.6f}")
    try:
        pr = rank.prank_search(form, budget=_budget_from(args))
        if isinstance(pr, rank.PrankUnknown):
            print(f"prank: unknown (>= {pr.lower_bound})")
        else:
            print(f"prank = {pr}")
            cert = rank.prank_certificate_search(form, _budget_from(args))
            print(f"certificate length = {len(cert)}")
    except HofaError as exc:
        print(f"prank search skipped: {exc}")
    return 0


def cmd_integrate(args) -> int:
    form = serialize.load_form(_read(args.input))
    if args.classical_only:
        P = integrate.integrate_csm(form)
    else:
        P = integrate.integrate_ncsm(form)
    check = mforms.total_derivative(P, form.k) == form
    print(f"degree-{form.k} integral found; classical = {P.is_classical()}")
    print(f"verification: total_derivative(P, {form.k}) == input form: {check}")
    if args.output:
        _write(args.output, serialize.dump_poly(P))
        print(f"polynomial written to {args.output}")
    else:
        sys.stdout.write(serialize.dump_poly(P))
    return 0 if check else 1


def cmd_symmetrize(args) -> int:
    form, bs = serialize.load_witness_bundle(_read(args.witness))
    if isinstance(form, mforms.MultiaffineForm):
        T = mforms.multilinear_part(form)
    else:
        T = form
    witness = symmetrize.CorrelationWitness.make(T, bs, _budget_from(args))
    if T.p == 2:
        report = symmetrize.symmetrize_nonclassical_p2(T, witness, budget=_budget_from(args))
    else:
        report = symmetrize.symmetrize_classical(T, witness, budget=_budget_from(args))
    lines = [f"symmetrization report  p={T.p} n={T.n}"]
    lines.extend(f"  {e}" for e in report.ledger)
    lines.append(f"certificate length: {len(report.certificate)}")
    lines.append(f"certificate verifies: {report.verify()}")
    lines.append("=== output form ===")
    lines.append(serialize.dump_form(report.output_form).rstrip())
    lines.append("=== certificate ===")
    lines.append(serialize.dump_certificate(report.certificate).rstrip())
    text = "\n".join(lines) + "\n"
    if args.report:
        _write(args.report, text)
    else:
        sys.stdout.write(text)
    return 0 if (report.all_hold() and report.verify()) else 1


def cmd_pipeline(args) -> int:
    fn = serialize.load_function(_read(args.input))
    if args.strategy == "from-poly":
        if not args.poly:
            print("--poly is required for the from-poly strategy", file=sys.stderr)
            return 2
        strategy = pipeline.FromPolynomialGuess(serialize.load_poly(_read(args.poly)))
    elif args.strategy == "supplied":
        if not args.phi:
            print("--phi is required for the supplied strategy", file=sys.stderr)
            return 2
        phi = serialize.load_form(_read(args.phi))
        if isinstance(phi, mforms.MultilinearForm):
            phi = mforms.MultiaffineForm.from_multilinear(phi)
        strategy = pipeline.SuppliedTriaffine(phi)
    elif args.strategy == "random":
        strategy = pipeline.RandomSearch(seed=args.seed)
    elif args.strategy == "exhaustive":
        strategy = pipeline.ExhaustiveTrilinear()
    else:  # pragma: no cover
        print(f"unknown strategy {args.strategy}", file=sys.stderr)
        return 2
    options = pipeline.PipelineOptions(strategy=strategy, budget=_budget_from(args))
    report = pipeline.run_inverse_pipeline(fn, args.threshold, options)
    text = report.as_text()
    if args.report:
        _write(args.report, text)
        print(f"report written to {args.report}")
        print(f"final correlation: {report.final_correlation.modulus_float():.8f}")
    else:
        sys.stdout.write(text)
    return 0 if report.all_hold() else 1


def cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all(quick=args.quick)
    ok = True
    for r in results:
        flag = "PASS" if r.ok else "FAIL"
        print(f"[{flag}] {r.name}  ({r.elapsed:.2f}s)  {r.detail}")
        ok &= r.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hofa", description="exact Gowers-norm toolkit over F_p^n")
    sub = ap.add_subparsers(dest="command", required=True)

    # --budget only where a budget is read, --seed only on pipeline (--strategy random)
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=int, default=None)

    p_norm = sub.add_parser("norm", parents=[budgeted], help="exact Gowers norms of a function file")
    p_norm.add_argument("--input", required=True)
    p_norm.add_argument("--d", type=int, default=4)
    p_norm.set_defaults(func=cmd_norm)

    p_rank = sub.add_parser("rank", parents=[budgeted], help="bias / analytic rank / certificate length")
    p_rank.add_argument("--input", required=True)
    p_rank.set_defaults(func=cmd_rank)

    p_int = sub.add_parser("integrate", help="solve d^k P = T")
    p_int.add_argument("--input", required=True)
    p_int.add_argument("--output", default=None)
    p_int.add_argument("--classical-only", action="store_true")
    p_int.set_defaults(func=cmd_integrate)

    p_sym = sub.add_parser("symmetrize", parents=[budgeted], help="symmetrize a witnessed trilinear form")
    p_sym.add_argument("--witness", required=True, help="witness bundle file")
    p_sym.add_argument("--report", default=None)
    p_sym.set_defaults(func=cmd_symmetrize)

    p_pipe = sub.add_parser("pipeline", parents=[budgeted], help="full correlation pipeline")
    p_pipe.add_argument("--input", required=True)
    p_pipe.add_argument("--strategy", choices=["from-poly", "supplied", "random", "exhaustive"], required=True)
    p_pipe.add_argument("--poly", default=None)
    p_pipe.add_argument("--phi", default=None)
    p_pipe.add_argument("--threshold", type=_fraction, default="1/2", help="exact rational, e.g. 1/2")
    p_pipe.add_argument("--seed", type=int, default=0, help="seed of --strategy random")
    p_pipe.add_argument("--report", default=None)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_self = sub.add_parser("selftest", help="run the acceptance checks")
    p_self.add_argument("--quick", action="store_true")
    p_self.set_defaults(func=cmd_selftest)
    return ap


def cli_main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except HofaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
