"""The corner-sum kernel on exponent tables against the ring path.

``analysis._corner_sums`` adds the exponent tables of phases and counts the
classes (label, exponent) with ``np.bincount``; coefficient tables go
through ``corner_product`` and the grouped phased sum.  Here both kinds of
one set of phases are summed and compared with ``corner_product`` and the
per-entry reference ``ringref.ref_phased_sum``, which shares no code with
the kernel's class sums.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an
from hofa.cyclotomic import common_ring, ring
from hofa.errors import PreconditionError
from ringref import ref_phased_sum

# (p, m, n): p = 2 phases of ring depth 0..3, ninth roots at p = 3, fifth roots at p = 5
PHASES = [(2, 0, 2), (2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (5, 1, 1)]


def _phases(rng, p, n, m, masks):
    """Random phases zeta_{p^m}^t, one per mask, embedded in a ring with the p-th roots."""
    R = common_ring(ring(p, m), ring(p, 1))
    return R, {S: an.random_unimodular_exact(rng, p, n, m).embed(R) for S in masks}


def _masks(rng, m):
    """The full mask, which gives every variable an axis, and a random set of others."""
    full = (1 << m) - 1
    return [full] + rng.sample(range(1, full), min(full - 1, 5))


def _both_kinds(R, fns, cube):
    """The exponent and the coefficient tables of ``fns``; ``cube`` places them on
    the derivative pattern of ``cube_corner_tables``, conjugates included."""
    exps = {S: f.exps for S, f in fns.items()}
    coeffs = {S: f.coeffs for S, f in fns.items()}
    if cube:
        return an.cube_corner_tables(R, exps), an.cube_corner_tables(R, coeffs)
    return exps, coeffs


def _reference(R, p, n, m, coeffs, expo, labels=None, groups=1):
    """The sums from ``corner_product`` and ``ref_phased_sum``, one column per label."""
    prod = an.corner_product(R, p, n, m, coeffs)
    if labels is None:
        return ref_phased_sum(R, prod, np.asarray(expo) * (R.N // p))[:, None]
    full = np.broadcast_to(labels, prod.shape[1:])
    return ref_phased_sum(R, prod, np.asarray(expo) * (R.N // p), [full == g for g in range(groups)])


def _check(R, p, n, m, exps, coeffs, expo, labels=None, groups=1, rows=None):
    """Both kinds through the kernel equal the reference; the exponent path on int64."""
    args = (expo,) if labels is None else (expo, labels, groups)
    fast = an._corner_sums(R, p, n, m, exps, *args, rows=rows)
    ring_path = an._corner_sums(R, p, n, m, coeffs, *args, rows=rows)
    assert fast.dtype == np.int64 and ring_path.dtype in (np.int64, object)
    assert np.array_equal(fast, ring_path)
    return fast


@pytest.mark.parametrize("p, m, n", PHASES)
@pytest.mark.parametrize("vars_", [2, 3, 4])
@pytest.mark.parametrize("labelled", [False, True])
def test_exponent_path_matches_the_ring_path(p, m, n, vars_, labelled):
    rng = random.Random(f"{p} {m} {n} {vars_} {labelled}")
    if vars_ == 4:  # the derivative pattern: eight corners, the even ones conjugated
        R, fns = _phases(rng, p, n, m, range(8))
    else:
        R, fns = _phases(rng, p, n, m, _masks(rng, vars_))
    exps, coeffs = _both_kinds(R, fns, vars_ == 4)
    size = p**n
    shape = (size,) * vars_
    expo = np.array([rng.randrange(-p, 2 * p) for _ in range(size ** (vars_ - 1))]).reshape(shape[1:])
    labels, groups = None, 1
    if labelled:
        groups = 5
        labels = np.array([rng.randrange(groups) for _ in range(size**vars_)]).reshape(shape)
    fast = _check(R, p, n, vars_, exps, coeffs, expo, labels, groups)
    assert fast.shape == (R.degree, groups)
    assert np.array_equal(fast, _reference(R, p, n, vars_, coeffs, expo, labels, groups))


@pytest.mark.parametrize("p, m, n", PHASES)
@pytest.mark.parametrize("chunk", [1, 3])
def test_row_chunks_with_chunk_labels(p, m, n, chunk):
    """Chunks of the first variable, labelled from 0 within each chunk as
    ``base_point_argmax`` labels them, give the columns of the whole sum."""
    rng = random.Random(f"chunks {p} {m} {n} {chunk}")
    R, fns = _phases(rng, p, n, m, range(8))
    exps, coeffs = _both_kinds(R, fns, True)
    size = p**n
    expo = np.array([rng.randrange(p) for _ in range(size**3)]).reshape((size,) * 3)
    per_row = size  # base points (x, h1)
    base = np.arange(size**3).reshape((size,) * 3) // size**2
    parts = []
    for lo in range(0, size, chunk):
        rows = np.arange(lo, min(size, lo + chunk))
        labels = (rows - lo).reshape(-1, 1, 1, 1) * per_row + base
        parts.append(_check(R, p, n, 4, exps, coeffs, expo, labels, len(rows) * per_row, rows))
    whole = np.arange(size).reshape(-1, 1, 1, 1) * per_row + base
    ref = _reference(R, p, n, 4, coeffs, expo, whole, size * per_row)
    assert np.array_equal(np.concatenate(parts, axis=1), ref)


@pytest.mark.parametrize("p, m, n", PHASES)
@pytest.mark.parametrize("nbase", [1, 2])
def test_base_point_argmax_over_chunks(monkeypatch, p, m, n, nbase):
    """In chunks of 2 rows, exponent tables pick the base point that the
    coefficient tables and the first maximum of the reference sums pick."""
    rng = random.Random(f"argmax {p} {m} {n} {nbase}")
    R, fns = _phases(rng, p, n, m, range(8))
    exps, coeffs = _both_kinds(R, fns, True)
    size = p**n
    expo = np.array([rng.randrange(p) for _ in range(size**3)]).reshape((size,) * 3)
    base = np.arange(size**4).reshape((size,) * 4) // size ** (4 - nbase)
    ref = _reference(R, p, n, 4, coeffs, expo, base, size**nbase)
    monkeypatch.setattr(an, "_CHUNK_ENTRIES", 2 * size**3)
    got = an.base_point_argmax(R, p, n, 4, exps, expo, nbase=nbase)
    keys = [an.CorrValue.from_sum(R, ref[:, j], 1).mag2() for j in range(ref.shape[1])]
    first = next(j for j, k in enumerate(keys) if all(k >= other for other in keys))
    assert got == an.base_point_argmax(R, p, n, 4, coeffs, expo, nbase=nbase) == first


@pytest.mark.parametrize("p, m, n", PHASES)
def test_unphased_sum_over_the_first_variable(p, m, n):
    """expo None: the derivative cube, summed over x per (h1, h2, h3), in the
    ring of the phases, Z included."""
    rng = random.Random(f"cube {p} {m} {n}")
    R = ring(p, m)
    fns = {S: an.random_unimodular_exact(rng, p, n, m) for S in range(8)}
    exps, coeffs = _both_kinds(R, fns, True)
    fast = an._corner_sums(R, p, n, 4, exps, None)
    ref = an.corner_product(R, p, n, 4, coeffs).astype(object).sum(axis=1).reshape(R.degree, -1)
    assert fast.dtype == np.int64 and fast.shape == (R.degree, (p**n) ** 3)
    assert np.array_equal(fast, ref)
    assert np.array_equal(an._corner_sums(R, p, n, 4, coeffs, None), ref)


def test_a_phase_needs_the_pth_roots():
    R = ring(2, 0)
    exps = {1: np.zeros(4, dtype=np.int64), 2: np.zeros(4, dtype=np.int64), 3: np.zeros(4, dtype=np.int64)}
    with pytest.raises(PreconditionError):
        an._corner_sums(R, 2, 2, 2, exps, np.ones(4, dtype=np.int64))


def test_kernel_tables_need_every_function_a_phase():
    rng = random.Random(5)
    f = an.random_unimodular_exact(rng, 2, 2, 2)
    stripped = an.BoundedFunction(2, 2, f.ring, f.coeffs, f.den)
    assert all(t.ndim == 1 for t in an._kernel_tables([f, f.conj()]))
    assert all(t.ndim == 2 for t in an._kernel_tables([f, stripped]))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
    st.integers(2, 4),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_exponent_path_hypothesis(pm, vars_, labelled, seed):
    p, m = pm
    n = 1 if p ** (2 * vars_) > 10**4 else 2
    rng = random.Random(seed)
    R, fns = _phases(rng, p, n, m, _masks(rng, vars_))
    exps, coeffs = _both_kinds(R, fns, False)
    size = p**n
    shape = (size,) * vars_
    expo = np.array([rng.randrange(p) for _ in range(size**vars_)]).reshape(shape)
    labels, groups = None, 1
    if labelled:
        groups = rng.randint(1, 4)
        labels = np.array([rng.randrange(groups) for _ in range(size)]).reshape((size,) + (1,) * (vars_ - 1))
    fast = _check(R, p, n, vars_, exps, coeffs, expo, labels, groups)
    assert np.array_equal(fast, _reference(R, p, n, vars_, coeffs, expo, labels, groups))
