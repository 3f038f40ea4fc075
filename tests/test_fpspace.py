import random

import numpy as np
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


@pytest.mark.parametrize("p", [2, 3])
def test_random_subspace_has_the_dimension_asked_for(p):
    # dim + 2 random vectors can span less than dim (25 of these seeds at p = 2, n = 3, dim 3)
    for n in range(1, 5):
        for dim in range(n + 1):
            for seed in range(100):
                assert fs.random_subspace(random.Random(seed), p, n, dim).dim == dim, (n, dim, seed)
    with pytest.raises(DimensionMismatch):
        fs.random_subspace(random.Random(0), p, 2, 3)


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


@st.composite
def matrix_stacks(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    b, r, c = draw(st.integers(1, 6)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=b * r * c, max_size=b * r * c))
    return p, np.array(entries, dtype=np.int64).reshape(b, r, c)


@given(matrix_stacks())
@settings(max_examples=200, deadline=None)
def test_stack_ranks_match_mat_rank(case):
    p, mats = case
    expected = [fs.mat_rank(p, [tuple(int(v) for v in row) for row in m]) for m in mats]
    assert fs.stack_ranks(p, mats).tolist() == expected


def test_stack_ranks_need_swaps_and_inverses():
    # the pivot of column 0 sits in the last row; at p = 3 and 5 the pivots are not 1
    mats = np.array([[[0, 1, 1], [0, 2, 2], [2, 1, 0]], [[0, 0, 0], [0, 3, 1], [4, 2, 3]]])
    assert fs.stack_ranks(3, mats[:1]).tolist() == [2]
    assert fs.stack_ranks(5, mats).tolist() == [2, 2]
    assert fs.stack_ranks(5, mats[:, :, :1]).tolist() == [1, 1]
    assert fs.stack_ranks(2, np.zeros((3, 0, 4))).tolist() == [0, 0, 0]


@pytest.mark.parametrize("p, n", [(2, 0), (2, 3), (3, 2), (5, 1)])
def test_points_is_one_read_only_matrix(p, n):
    X = fs.points(p, n)
    assert X is fs.points(p, n)
    assert X.shape == (p**n, n) and X.dtype == np.int64
    assert [tuple(row) for row in X.tolist()] == list(fs.all_vectors(p, n))
    with pytest.raises(ValueError):
        X[0] = 1


def test_stack_ranks_on_dependent_rows():
    # each pivot row is cleared from every other row, also from earlier pivot rows
    rng = random.Random(3)
    for p in (2, 3, 5):
        base = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(2)])
        mats = np.array([[(a * base[0] + b * base[1]) % p for a, b in combo]
                         for combo in ([(1, 0), (0, 1), (1, 1), (2, 1)], [(0, 0), (1, 1), (2, 2), (1, 0)])])
        expected = [fs.mat_rank(p, [tuple(int(v) for v in row) for row in m]) for m in mats]
        assert fs.stack_ranks(p, mats).tolist() == expected
