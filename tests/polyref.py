"""Reference polynomial routines for the tests, independent of the coefficient-array kernel.

Interpolation peels one depth layer at a time, deepest first, inverting
the p x p evaluation matrix mod p one axis at a time; phase exponents and
monomial tables come from ``NcPoly.evaluate`` and integer powers point by
point.  The kernel in ``hofa.ncpoly`` is checked against these.
"""
import numpy as np

from hofa import fpspace
from hofa.errors import NotRepresentable
from hofa.fpspace import all_vectors
from hofa.ncpoly import Monomial, NcPoly, basis_tuples
from hofa.torus import TorusValue


def ref_classical_coeffs(p: int, n: int, digits: list) -> dict:
    """Coefficients C[i] with w(x) = sum_i C[i] prod x_l^{i_l} mod p, from w's table."""
    inv = fpspace.mat_inverse(p, [[(x**e) % p for e in range(p)] for x in range(p)])
    cur = list(digits)
    size = p**n
    for axis in range(n):
        nxt = [0] * size
        stride = p ** (n - 1 - axis)
        for base in range(size):
            if (base // stride) % p:
                continue
            vals = [cur[base + t * stride] for t in range(p)]
            for e in range(p):
                nxt[base + e * stride] = sum(inv[e][t] * vals[t] for t in range(p)) % p
        cur = nxt
    return {all_vectors(p, n)[idx]: c for idx, c in enumerate(cur) if c}


def ref_interpolate(p: int, n: int, table) -> NcPoly:
    """Depth-peeling interpolation of a TorusValue table in all_vectors order."""
    pts = all_vectors(p, n)
    M = max((tv.m for tv in table), default=0)
    scaled = [tv.scaled_num(M) for tv in table]
    mod = p**M
    monomials = []
    const = TorusValue.zero(p)
    for j in range(M - 1, -1, -1):  # depth j lives at scale p^(M-1-j)
        scale = p ** (M - 1 - j)
        if any(v % scale for v in scaled):
            raise NotRepresentable("table is not a p-power torus polynomial")
        coeffs = ref_classical_coeffs(p, n, [(v // scale) % p for v in scaled])
        for expts, c in coeffs.items():
            if sum(expts) == 0:
                const = const + TorusValue.make(p, c, j + 1)
                scaled = [(v - c * scale) % mod for v in scaled]
            else:
                monomials.append(Monomial(expts, j, c))
                for idx, x in enumerate(pts):
                    prod = c
                    for xi, e in zip(x, expts):
                        prod *= int(xi) ** e
                    scaled[idx] = (scaled[idx] - (prod % mod) * scale) % mod
    if any(scaled):
        raise NotRepresentable("interpolation residue is nonzero")
    return NcPoly.make(p, n, const, monomials)


def ref_phase_exps(P: NcPoly, conjugate: bool = False) -> np.ndarray:
    """Exponents of e^{2 pi i P(x)} over Z/p^m, m = max(1, depth), one point at a time."""
    N = P.p ** max(1, P.max_depth_exponent())
    exps = []
    for x in all_vectors(P.p, P.n):
        v = P.evaluate(x)
        t = v.num * (N // P.p**v.m)
        exps.append(-t if conjugate else t)
    return np.array(exps, dtype=np.int64) % N


def ref_quadratic_candidates(p: int, n: int, classical_only: bool):
    """Degree-<=2 monomial tuples, the ring depth m and each monomial's table over Z/p^m."""
    tuples = basis_tuples(p, 2, n, depth_allowed=not classical_only)
    m = 1 + max((j for _, j in tuples), default=0)
    N = p**m
    tables = []
    for expts, j in tuples:
        tab = []
        for x in all_vectors(p, n):
            prod = 1
            for xi, e in zip(x, expts):
                prod *= int(xi) ** e
            tab.append((prod % p ** (j + 1)) * (N // p ** (j + 1)))
        tables.append(np.array(tab, dtype=np.int64))
    return tuples, m, tables
