#!/usr/bin/env python3
"""Run the full correlation pipeline on the two reference fixtures and on a
noise-perturbed variant, printing the ledgers.  Exits 1 if any ledger entry
fails.

    python scripts/pipeline_demo.py
"""
import random
import sys
from fractions import Fraction

from hofa import analysis as an
from hofa import pipeline as pl
from hofa.fpspace import all_vectors, vec_index
from hofa.ncpoly import Monomial, NcPoly
from hofa.torus import TorusValue


def show(title, rep):
    print(f"=== {title} ===")
    print(f"U^4 = {rep.u4_norm:.6f}  eps = {rep.eps.modulus_float():.6f}  "
          f"final = {rep.final_correlation.modulus_float():.6f}  classical = {rep.classical}")
    bad = [e for e in rep.ledger if not e.holds]
    print(f"ledger: {len(rep.ledger)} entries, {len(bad)} failures")
    for e in bad:
        print(f"  {e}")
    print()
    return not bad


def main():
    # depth-2 cubic phase on F_2^3
    P0 = NcPoly.make(2, 3, TorusValue.zero(2), [Monomial((1, 0, 0), 2, 1)])
    f = an.BoundedFunction.from_poly_phase(P0)
    rep = pl.run_inverse_pipeline(
        f, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
    )
    ok = show("p = 2, depth-2 cubic phase", rep)

    # classical cubic on F_3^2
    P3 = NcPoly.from_classical(3, 2, {(2, 1): 1})
    f3 = an.BoundedFunction.from_poly_phase(P3)
    rep3 = pl.run_inverse_pipeline(
        f3, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P3))
    )
    ok &= show("p = 3, classical cubic phase", rep3)

    # perturbed copy: one point replaced by a random eighth root
    rng = random.Random(7)
    x = rng.choice(list(all_vectors(2, 3)))
    orig = int(f.exps[vec_index(2, x)])
    t = rng.randrange(8)
    while t == orig:
        t = rng.randrange(8)
    noisy = f.with_replaced_values({x: t})
    bound = an.correlation(noisy, P0)
    repn = pl.run_inverse_pipeline(
        noisy, Fraction(1, 2), pl.PipelineOptions(strategy=pl.FromPolynomialGuess(P0))
    )
    ok &= show(f"p = 2 with one corrupted point (reference bound {bound.modulus_float():.4f})", repn)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
