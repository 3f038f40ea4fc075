"""Reference ring arithmetic for the tests, independent of ``hofa.cyclotomic``.

Powers of zeta are reduced by long division by Phi_{p^m}, and products use
an einsum over the d x d x d fold table, so the kernels under test are
checked against arithmetic that shares none of their code.
"""
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def ref_reduce(p: int, m: int) -> np.ndarray:
    """Row t: the coefficients of x^t mod Phi_{p^m}(x), 0 <= t < p^m."""
    N = p**m
    if N == 1:  # Phi_1 = x - 1
        return np.ones((1, 1), dtype=np.int64)
    e = N // p
    d = N - e
    rows = np.zeros((N, d), dtype=np.int64)
    for t in range(N):
        poly = [0] * max(t + 1, d)
        poly[t] = 1
        for top in range(t, d - 1, -1):  # Phi = sum_{l < p} x^{l e} is monic of degree d
            c = poly[top]
            if c:
                for l in range(p):
                    poly[top - d + l * e] -= c
        rows[t] = poly[:d]
    return rows


def ref_mul(R, A, B):
    """The einsum product over the fold table basis_i * basis_j = zeta^{i+j}."""
    red = ref_reduce(R.p, R.m)
    d = red.shape[1]
    table = red[(np.arange(d)[:, None] + np.arange(d)) % R.N]
    return np.einsum("i...,j...,ijk->k...", A, B, table)


def ref_conj(R, A):
    """zeta^i -> zeta^{-i} on (degree, ...) coefficient arrays."""
    red = ref_reduce(R.p, R.m)
    return np.einsum("i...,ik->k...", A, red[(R.N - np.arange(red.shape[1])) % R.N])


def ref_roots(R, exps):
    """zeta^{exps} as a (degree,) + exps.shape coefficient array."""
    return np.moveaxis(ref_reduce(R.p, R.m)[np.asarray(exps) % R.N], -1, 0)
