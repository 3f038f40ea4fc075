"""Solve d^k P = T: integrate CSM forms to classical polynomials and nCSM
forms to non-classical polynomials, plus the counting identity behind the
surjectivity of the total derivative.

Solver strategy: build the F_p-linear map from coefficients of
degree-exactly-k monomials to symmetric tensors by calling
``total_derivative`` on each basis monomial (one source of truth, no
hand-derived derivative formulas), then Gaussian elimination.  For
degree-exactly-k monomials, coefficient overflow (c >= p) spills only into
strictly lower-degree polynomials, which d^k annihilates, so the induced
map is genuinely F_p-linear even though monomial coefficients do not add
mod p as functions.  Every returned polynomial is re-verified exactly
before it leaves this module.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fpspace, mforms
from .errors import InternalCheckError, PreconditionError
from .mforms import MultilinearForm, is_csm, is_ncsm, total_derivative
from .ncpoly import Monomial, NcPoly, degree_exactly_tuples
from .torus import TorusValue


@lru_cache(maxsize=None)
def _symmetric_index_reps(n: int, k: int):
    """One representative index tuple (sorted) per multiplicity class."""
    return tuple(itertools.combinations_with_replacement(range(n), k))


@lru_cache(maxsize=None)
def _solver_data(p: int, n: int, k: int, classical_only: bool):
    """Columns of the monomial -> symmetric-tensor map, plus the monomials."""
    tuples = degree_exactly_tuples(p, k, n, classical_only=classical_only)
    reps = _symmetric_index_reps(n, k)
    cols = []
    for expts, j in tuples:
        mono = NcPoly.make(p, n, TorusValue.zero(p), [Monomial(expts, j, 1)])
        d = total_derivative(mono, k)
        cols.append([int(d.coeffs[idx]) for idx in reps])
    # rows of the system: one per representative tensor entry
    matrix = [tuple(col[i] for col in cols) for i in range(len(reps))]
    return tuples, reps, matrix


def _solve_mod_p(p: int, matrix, rhs):
    """One solution of matrix . x = rhs mod p, or None."""
    if not matrix or not matrix[0]:
        return () if all(b % p == 0 for b in rhs) else None
    return fpspace.solve_linear(p, matrix, rhs)


def _integrate(T: MultilinearForm, k: int, classical_only: bool) -> NcPoly:
    p, n = T.p, T.n
    tuples, reps, matrix = _solver_data(p, n, k, classical_only)
    rhs = [int(T.coeffs[idx]) for idx in reps]
    sol = _solve_mod_p(p, matrix, rhs)
    if sol is None:
        raise InternalCheckError(
            "integration solver inconsistent on a verified input; this would "
            f"falsify the counting identity at (p={p}, n={n}, k={k})"
        )
    monomials = [Monomial(e, j, c) for (e, j), c in zip(tuples, sol) if c % p]
    P = NcPoly.make(p, n, TorusValue.zero(p), monomials)
    if total_derivative(P, k) != T:
        raise InternalCheckError("integration postcondition failed")  # pragma: no cover
    return P


def integrate_ncsm(T: MultilinearForm, k: int | None = None) -> NcPoly:
    """A non-classical polynomial P of degree <= k with d^k P = T.

    P uses only monomials of degree exactly k; the exact equality
    d^k P = T is verified before returning.
    """
    k = T.k if k is None else k
    if k != T.k:
        raise PreconditionError("arity mismatch")
    if not is_ncsm(T):
        w = mforms.ncsm_witness(T)
        raise PreconditionError(f"form is not an nCSM; pattern witness {w}", witness=w)
    return _integrate(T, k, classical_only=False)


def integrate_csm(T: MultilinearForm, k: int | None = None) -> NcPoly:
    """A classical polynomial P of degree <= k with d^k P = T."""
    k = T.k if k is None else k
    if k != T.k:
        raise PreconditionError("arity mismatch")
    if not is_csm(T):
        w = mforms.csm_witness(T)
        raise PreconditionError(f"form is not a CSM; witness {w}", witness=w)
    P = _integrate(T, k, classical_only=True)
    if not P.is_classical():  # pragma: no cover
        raise InternalCheckError("classical integration produced depth")
    return P


BRUTE_FORCE_CAP = 1 << 17  # most symmetric tensors ncsm_count enumerates


@dataclass(frozen=True)
class CountReport:
    p: int
    n: int
    k: int
    monomial_count: int  # number of degree-exactly-k canonical monomial tuples
    pattern_count: int  # number of realizable reduced multiplicity patterns
    agreement: bool
    ncsm_size: int | None = None  # brute-force |nCSM^k(V)| when feasible
    ncsm_size_matches: bool | None = None


def ncsm_count(p: int, n: int, k: int) -> CountReport:
    """Count degree-exactly-k monomial tuples against realizable patterns.

    The monomial count C is the number of tuples (i_1..i_n, j) with
    0 <= i_l < p and sum(i) = k - j(p-1) > 0; the pattern count D is the
    number of reduced multiplicity vectors realizable from [n]^k.  The two
    are equal (the correspondence maps i to its own reduced pattern), and
    |nCSM^k(V)| = p^C is additionally brute-forced by enumerating symmetric
    tensors and filtering with the evaluation-based oracle when small.
    """
    tuples = degree_exactly_tuples(p, k, n, classical_only=False)
    C = len(tuples)
    # realizable reduced patterns: entries in {0..p-1}, 0 < sum <= k, sum = k mod (p-1)
    D = 0
    for pat in itertools.product(range(p), repeat=n):
        s = sum(pat)
        if 0 < s <= k and (s - k) % (p - 1) == 0:
            D += 1
    report = CountReport(p, n, k, C, D, C == D)
    # brute force |nCSM| via symmetric-tensor enumeration + evaluation oracle
    reps = _symmetric_index_reps(n, k)
    if p ** len(reps) <= BRUTE_FORCE_CAP and p ** (n * k) <= (1 << 16):
        count = 0
        for vals in itertools.product(range(p), repeat=len(reps)):
            t = np.zeros((n,) * k, dtype=np.int64)
            for rep, v in zip(reps, vals):
                for idx in set(itertools.permutations(rep)):
                    t[idx] = v
            T = MultilinearForm(p, n, k, t)
            if mforms.is_ncsm_eval(T):
                count += 1
        report = CountReport(p, n, k, C, D, C == D, count, count == p**C)
    return report
