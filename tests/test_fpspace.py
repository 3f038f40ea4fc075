import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import fpspace as fs
from hofa.errors import BudgetExceeded, DimensionMismatch
from oracles import subspace_sum


def test_kernel_single_coordinate_form():
    U = fs.kernel(2, 2, [(1, 0)])
    assert U.dim == 1
    assert U.basis == ((0, 1),)


def test_kernel_empty_system_is_full_space():
    U = fs.kernel(2, 2, [])
    assert U.dim == 2 and U.codim == 0


def test_kernel_two_forms_f3():
    # x1 + x2 and x2 + x3 cut out the line through (1, 2, 1)
    U = fs.kernel(3, 3, [(1, 1, 0), (0, 1, 1)])
    assert U.basis == ((1, 2, 1),)
    # exhaustive cross-check over all 27 vectors
    members = {v for v in fs.all_vectors(3, 3) if U.contains(v)}
    brute = {
        v
        for v in fs.all_vectors(3, 3)
        if fs.dot(3, (1, 1, 0), v) == 0 and fs.dot(3, (0, 1, 1), v) == 0
    }
    assert members == brute and len(members) == 3


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fs.kernel(2, 3, [(1, 0)])


def test_complement_trivial_cases():
    V = fs.Subspace.full(2, 3)
    Z = fs.Subspace.zero_space(2, 3)
    assert fs.complement(Z) == V
    assert fs.complement(V) == Z


def test_complement_pivot_rule():
    U = fs.Subspace.from_basis(2, 2, [(1, 1)])
    W = fs.complement(U)
    assert W.basis == ((0, 1),)


def test_enumerate_order_and_cardinality():
    V3 = fs.Subspace.full(3, 2)
    elems = list(fs.enumerate_subspace(V3))
    assert elems[:3] == [(0, 0), (0, 1), (0, 2)]
    assert len(set(elems)) == 9

    Z = fs.Subspace.zero_space(2, 3)
    assert list(fs.enumerate_subspace(Z)) == [(0, 0, 0)]

    V = fs.Subspace.full(2, 3)
    assert len(set(fs.enumerate_subspace(V))) == 8


def test_enumerate_budget():
    from hofa.config import Budget

    V = fs.Subspace.full(2, 6)
    with pytest.raises(BudgetExceeded):
        list(fs.enumerate_subspace(V, Budget(enum_cap=8)))


@pytest.mark.parametrize("p,nmax", [(2, 6), (3, 4)])
def test_complement_random_subspaces(p, nmax):
    rng = random.Random(1234 + p)
    for _ in range(100):
        n = rng.randrange(1, nmax + 1)
        U = fs.random_subspace(rng, p, n)
        W = fs.complement(U)
        assert subspace_sum(U, W).dim == n
        assert fs.subspace_intersection(U, W).dim == 0
        assert U.dim + W.dim == n


@given(st.integers(0, 10**6), st.sampled_from([(2, 4), (3, 3)]))
@settings(max_examples=60, deadline=None)
def test_subspace_invariants(seed, pn):
    p, n = pn
    rng = random.Random(seed)
    U = fs.random_subspace(rng, p, n)
    assert U.dim + U.codim == n
    for L in U.vanishing_forms:
        for b in U.basis:
            assert fs.dot(p, L, b) == 0
    elems = list(fs.enumerate_subspace(U))
    assert len(set(elems)) == p**U.dim
    assert all(U.contains(v) for v in elems)


def test_canonical_equality():
    # two generating sets of the same space give identical representations
    U1 = fs.Subspace.from_basis(3, 3, [(1, 2, 0), (0, 1, 1)])
    U2 = fs.Subspace.from_basis(3, 3, [(1, 0, 1), (0, 2, 2), (1, 2, 0)])
    assert U1 == U2


def test_matrix_helpers():
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert fs.mat_rank(2, rows) == 2
    inv = fs.mat_inverse(3, [(1, 1), (0, 1)])
    assert inv == [(1, 2), (0, 1)]
    sol = fs.solve_linear(3, [(1, 1), (0, 1)], (2, 1))
    assert sol is not None and fs.dot(3, (1, 1), sol) == 2 and fs.dot(3, (0, 1), sol) == 1
