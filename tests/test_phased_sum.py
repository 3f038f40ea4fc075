"""The one measure-a-phase kernel against the per-entry reference (``ringref``).

``analysis.phased_sum`` counts the classes (label, exponent mod N) of a
phase with one ``np.bincount``, sums coefficient planes per class with
``np.add.at`` and folds only the class sums with zeta^0..zeta^(N-1); the
reference multiplies every entry by its own root and sums under one boolean
mask per label.
"""
import random
import tracemalloc

import numpy as np
import pytest

from hofa import analysis as an
from hofa import pipeline as pl
from hofa.cyclotomic import ring
from hofa.mforms import MultiaffineForm
from hofa.ncpoly import NcPoly
from ringref import ref_phased_sum, ref_roots

RINGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]  # Z, Z[i], Z[zeta_8], Z[omega], Z[zeta_9], Z[zeta_5]
SHAPE = (3, 4, 5)
GROUPS = 4


def _labels(rng, pattern):
    """A label table over SHAPE in range(GROUPS); ``pattern`` names the groups left empty."""
    if pattern == "one_group":
        return np.full(SHAPE, 2)
    empty = {"empty_first": 0, "empty_middle": 2, "empty_last": GROUPS - 1}[pattern]
    used = [g for g in range(GROUPS) if g != empty]
    return np.array([rng.choice(used) for _ in range(np.prod(SHAPE))]).reshape(SHAPE)


@pytest.mark.parametrize("pm", RINGS)
@pytest.mark.parametrize("dtype", ["int64", "object", "phase"])
@pytest.mark.parametrize("pattern", [None, "empty_first", "empty_middle", "empty_last", "one_group"])
def test_matches_the_per_entry_reference(pm, dtype, pattern):
    """Coefficient planes on int64 or Python integers, or a phase (prod None),
    with zeta_N exponents of any sign; a plane table's exponents broadcast."""
    p, m = pm
    R = ring(p, m)
    rng = random.Random(f"{pm} {dtype} {pattern}")
    prod, eshape = None, SHAPE
    if dtype != "phase":
        top = 50 if dtype == "int64" else 2**80
        prod = np.array([rng.randrange(-top, top + 1) for _ in range(R.degree * np.prod(SHAPE))], dtype=dtype)
        prod, eshape = prod.reshape((R.degree,) + SHAPE), SHAPE[1:]
    expo = np.array([rng.randrange(-R.N, 2 * R.N) for _ in range(np.prod(eshape))]).reshape(eshape)
    if pattern is None:
        sums = an.phased_sum(R, prod, expo)
        assert sums.shape == (R.degree, 1)
        assert np.array_equal(sums[:, 0], ref_phased_sum(R, prod, expo))
        return
    labels = _labels(rng, pattern)
    sums = an.phased_sum(R, prod, expo, labels, GROUPS)
    assert sums.shape == (R.degree, GROUPS)
    assert np.array_equal(sums, ref_phased_sum(R, prod, expo, [labels == g for g in range(GROUPS)]))


@pytest.mark.parametrize("pm", RINGS)
@pytest.mark.parametrize("kind", ["values", "phase"])
def test_a_table_of_exponents_broadcasts_against_one_function(pm, kind):
    """The U^3 oracle's call: a (C, size) exponent table, each row a label,
    against a (degree, size) coefficient table or a phase's exponents."""
    p, m = pm
    R = ring(p, m)
    rng = random.Random(f"broadcast {pm} {kind}")
    C, size = 7, 9
    cands = np.array([rng.randrange(R.N) for _ in range(C * size)]).reshape(C, size)
    labels = np.arange(C)[:, None]
    masks = [labels == c for c in range(C)]
    if kind == "phase":
        f = np.array([rng.randrange(R.N) for _ in range(size)])
        sums = an.phased_sum(R, None, f - cands, labels, C)
        ref = ref_phased_sum(R, ref_roots(R, f), -cands, masks)
    else:
        f = np.array([rng.randrange(-9, 10) for _ in range(R.degree * size)]).reshape(R.degree, size)
        sums = an.phased_sum(R, f, -cands, labels, C)
        ref = ref_phased_sum(R, f, -cands, masks)
    assert sums.shape == (R.degree, C) and np.array_equal(sums, ref)


@pytest.mark.parametrize("pm", RINGS)
def test_the_int64_bound_and_one_past_it(pm):
    """Sums stay on int64 while degree entries max|prod| fits and move to
    Python integers one unit past it; both are exact."""
    p, m = pm
    R = ring(p, m)
    rng = random.Random(f"boundary {pm}")
    entries = 12
    top = an._INT64_MAX // (R.degree * entries)
    expo = np.array([rng.randrange(R.N) for _ in range(entries)])
    labels = np.arange(entries) % 3
    for big, dtype in ((top, np.int64), (top + 1, object)):
        prod = np.array([rng.choice((-1, 1)) * (big - rng.randrange(2)) for _ in range(R.degree * entries)])
        prod = prod.reshape(R.degree, entries)
        prod[0, 0] = big
        sums = an.phased_sum(R, prod, expo, labels, 3)
        assert sums.dtype == dtype
        assert np.array_equal(sums, ref_phased_sum(R, prod, expo, [labels == g for g in range(3)]))


@pytest.mark.parametrize("pm", RINGS)
def test_int64_sums_past_the_bound_move_to_python_integers(pm):
    # degree entries max|prod| passes int64 while each entry fits
    p, m = pm
    R = ring(p, m)
    rng = random.Random(f"bound {pm}")
    prod = np.array([rng.choice((-1, 1)) * (2**62 - rng.randrange(4)) for _ in range(R.degree * 60)])
    prod = prod.reshape(R.degree, 60)
    expo = np.array([rng.randrange(R.N) for _ in range(60)])
    labels = np.arange(60) % 3
    assert np.array_equal(an.phased_sum(R, prod, expo)[:, 0], ref_phased_sum(R, prod, expo))
    sums = an.phased_sum(R, prod, expo, labels, 3)
    assert np.array_equal(sums, ref_phased_sum(R, prod, expo, [labels == g for g in range(3)]))


@pytest.mark.parametrize("p,n,chunk_rows", [(2, 2, 3), (2, 2, 1), (3, 1, 2)])
@pytest.mark.parametrize("nbase", [1, 2])
def test_uneven_chunks_keep_the_first_maximum(monkeypatch, p, n, chunk_rows, nbase):
    """Chunked argmax against per-base-point reference sums of the whole product."""
    rng = random.Random(f"{p} {n} {chunk_rows} {nbase}")
    m = 2 if p == 2 else 1
    R, size = ring(p, m), p**n
    masks = [15] + rng.sample(range(1, 15), 5)  # 15 gives every variable an axis
    tables = {S: an.random_unimodular_exact(rng, p, n, m).coeffs for S in masks}
    expo = np.array([rng.randrange(p) for _ in range(size**3)]).reshape((size,) * 3)
    base = np.arange(size**4).reshape((size,) * 4) // size ** (4 - nbase)
    prod = an.corner_product(R, p, n, 4, tables)
    ref = ref_phased_sum(R, prod, expo * (R.N // p), [base == j for j in range(size**nbase)])
    keys = [an.CorrValue.from_sum(R, ref[:, j], 1).mag2() for j in range(size**nbase)]
    first = next(j for j, k in enumerate(keys) if all(k >= other for other in keys))

    chunks = []
    kernel = an.corner_product

    def spy(*args, rows=None):
        chunks.append(len(rows))
        return kernel(*args, rows=rows)

    monkeypatch.setattr(an, "_CHUNK_ENTRIES", chunk_rows * size**3 + 1 if chunk_rows > 1 else 1)
    monkeypatch.setattr(an, "corner_product", spy)
    # a second phase cube reads the same chunks: one corner product per chunk
    got = an.base_point_argmax(R, p, n, 4, tables, [expo, expo.transpose(0, 2, 1)], nbase=nbase)
    assert got[0] == first
    assert chunks == [chunk_rows] * (size // chunk_rows) + [size % chunk_rows] * (size % chunk_rows > 0)


def test_class_sums_stay_linear_in_the_entries():
    """measure_state with three gammas at F_3^2, every one of its 729 points a class of its own.

    A dense (entries x classes) indicator would take 729^2 bytes as bool and
    8 times that as int64.  The kernel's peak must stay within 320 bytes per
    entry: O(entries), and under half of the bool one-hot alone.
    """
    g_cube = pl.derivative_sum_cube(an.BoundedFunction.from_poly_phase(NcPoly.from_classical(3, 2, {(2, 1): 1})))
    rng = random.Random(3)
    gammas = tuple(
        pl.GammaTerm(
            (s,), np.array([rng.randrange(3) for _ in range(2)]), tuple(i for i in range(3) if i != s),
            np.array([rng.randrange(3) for _ in range(4)]).reshape(2, 2),
        )
        for s in range(3)
    )
    phase = MultiaffineForm.make(3, 2, 3, {})
    entries = 9**3
    labels = np.arange(entries).reshape((9,) * 3)
    warm = pl.measure_state(g_cube, phase, gammas, labels, entries)  # fills the lru caches
    tracemalloc.start()
    try:
        sums = pl.measure_state(g_cube, phase, gammas, labels, entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 320 * entries
    assert np.array_equal(sums, warm) and np.array_equal(sums.sum(axis=1), pl.measure_state(g_cube, phase, gammas).num)
