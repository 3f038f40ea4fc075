import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import fpspace as fs
from hofa import mforms as mf
from hofa.errors import PreconditionError
from hofa.mforms import MultiaffineForm, MultilinearForm, total_derivative
from hofa.ncpoly import Monomial, NcPoly, random_poly
from hofa.torus import TorusValue
from oracles import alternating_slot_sum, pullback_tensordot, vec_sub


class TestEval:
    def test_zero_argument(self):
        rng = random.Random(0)
        T = mf.random_form(rng, 3, 2, 3)
        assert T.eval((0, 0), (1, 2), (2, 1)) == 0

    def test_single_coefficient(self):
        T = MultilinearForm.from_entries(2, 1, 3, {(0, 0, 0): 1})
        assert T.eval((1,), (1,), (1,)) == 1

    def test_product_form(self):
        T = MultilinearForm.from_entries(3, 2, 2, {(0, 1): 1})  # x1 y2
        assert T.eval((1, 0), (0, 2)) == 2

    def test_multilinearity_sampled(self):
        rng = random.Random(1)
        for _ in range(20):
            p, n, k = rng.choice([(2, 3, 3), (3, 2, 2)])
            T = mf.random_form(rng, p, n, k)
            slot = rng.randrange(k)
            args = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
            x = tuple(rng.randrange(p) for _ in range(n))
            y = tuple(rng.randrange(p) for _ in range(n))
            a1 = list(args)
            a1[slot] = fs.vec_add(p, x, y)
            a2 = list(args)
            a2[slot] = x
            a3 = list(args)
            a3[slot] = y
            assert T.eval(*a1) == (T.eval(*a2) + T.eval(*a3)) % p

    def test_eval_many_matches_eval(self):
        rng = random.Random(2)
        for p, n, k in [(2, 3, 1), (3, 2, 2), (2, 2, 3), (3, 2, 4)]:
            T = mf.random_form(rng, p, n, k)
            args = [[tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)] for _ in range(30)]
            got = mf.eval_many(T, np.array(args, dtype=np.int64))
            assert got.tolist() == [T.eval(*a) for a in args]


class TestPermute:
    def test_identity(self):
        rng = random.Random(2)
        T = mf.random_form(rng, 2, 2, 3)
        assert mf.permute(T, (0, 1, 2)) == T

    def test_defining_property(self):
        rng = random.Random(3)
        for _ in range(20):
            p, n, k = rng.choice([(2, 2, 3), (3, 2, 2)])
            T = mf.random_form(rng, p, n, k)
            perm = tuple(rng.sample(range(k), k))
            TP = mf.permute(T, perm)
            for _ in range(6):
                args = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
                assert TP.eval(*args) == T.eval(*(args[perm[i]] for i in range(k)))

    def test_index_swap(self):
        T = MultilinearForm.from_entries(2, 2, 2, {(0, 1): 1})  # x1 y2
        assert mf.permute(T, (1, 0)) == MultilinearForm.from_entries(2, 2, 2, {(1, 0): 1})

    def test_right_group_action(self):
        rng = random.Random(4)
        for _ in range(10):
            T = mf.random_form(rng, 2, 2, 3)
            for pi in mf.S3:
                for sg in mf.S3:
                    assert mf.permute(mf.permute(T, pi), sg) == mf.permute(
                        T, mf.compose_perms(pi, sg)
                    )


# -- the per-entry loops the class-constancy checks replaced, kept as references --


def _ref_constant_on_classes(values, class_ids):
    first = {}
    for flat, cid in enumerate(class_ids):
        c = int(values[flat])
        if cid in first:
            if first[cid][1] != c:
                return (first[cid][0], flat)
        else:
            first[cid] = (flat, c)
    return None


def _ref_witnesses(T):
    """(ncsm_witness, csm_witness) by the former loops."""
    tuples = list(itertools.product(range(T.n), repeat=T.k))
    flat = T.coeffs.reshape(-1)
    i_of, ip_of, patterns = mf._multiplicity_classes(T.n, T.k, T.p)
    w = _ref_constant_on_classes(flat, ip_of)
    ncsm = None if w is None else (tuples[w[0]], tuples[w[1]])
    w = _ref_constant_on_classes(flat, i_of)
    if w is not None:
        return ncsm, ("asymmetric", tuples[w[0]], tuples[w[1]])
    for fl, cid in enumerate(i_of):
        if max(patterns[cid]) >= T.p and flat[fl] != 0:
            return ncsm, ("repeated-variable value nonzero", tuples[fl])
    return ncsm, None


def _check_witnesses(T):
    want = _ref_witnesses(T)
    assert (mf.ncsm_witness(T), mf.csm_witness(T)) == want
    assert (mf.is_ncsm(T), mf.is_csm(T)) == (want[0] is None, want[1] is None)
    return want


class TestPredicates:
    def test_zero_form(self):
        Z = MultilinearForm.zero(2, 2, 3)
        assert mf.is_symmetric(Z) and mf.is_ncsm(Z) and mf.is_csm(Z)

    def test_symmetric_not_ncsm(self):
        ent = {}
        for idx in set(itertools.permutations((0, 0, 1))):
            ent[idx] = 1
        T = MultilinearForm.from_entries(2, 2, 3, ent)
        assert mf.is_symmetric(T) and not mf.is_ncsm(T)

    def test_diagonal_cube_f3(self):
        T = MultilinearForm.from_entries(3, 1, 3, {(0, 0, 0): 1})
        assert mf.is_symmetric(T) and mf.is_ncsm(T) and not mf.is_csm(T)

    def test_exhaustive_f2_square(self):
        counts = {"sym": 0, "ncsm": 0, "csm": 0}
        for bits in itertools.product(range(2), repeat=8):
            T = MultilinearForm(2, 2, 3, np.array(bits, dtype=np.int64).reshape(2, 2, 2))
            s, nc, c = mf.is_symmetric(T), mf.is_ncsm(T), mf.is_csm(T)
            assert s == mf.is_symmetric_eval(T)
            assert nc == mf.is_ncsm_eval(T)
            assert c == mf.is_csm_eval(T)
            _check_witnesses(T)
            if c:
                assert nc
            if nc:
                assert s
            counts["sym"] += s
            counts["ncsm"] += nc
            counts["csm"] += c
        assert counts["ncsm"] == 8

    def test_pattern_vs_eval_random_k4(self):
        rng = random.Random(6)
        for t in range(60):
            p, n, k = rng.choice([(2, 2, 4), (3, 2, 4), (3, 2, 3)])
            T = mf.random_ncsm_form(rng, p, n, k) if t % 2 else mf.random_symmetric_form(rng, p, n, k)
            assert mf.is_ncsm(T) == mf.is_ncsm_eval(T)
            assert mf.is_csm(T) == mf.is_csm_eval(T)
            _check_witnesses(T)


class TestWitnesses:
    def test_pinned_pairs(self):
        ent = {idx: 1 for idx in set(itertools.permutations((0, 0, 1)))}
        assert _check_witnesses(MultilinearForm.from_entries(2, 2, 3, ent)) == (
            ((0, 0, 1), (0, 1, 1)), ("repeated-variable value nonzero", (0, 0, 1))
        )
        assert _check_witnesses(MultilinearForm.from_entries(3, 1, 3, {(0, 0, 0): 1})) == (
            None, ("repeated-variable value nonzero", (0, 0, 0))
        )
        assert _check_witnesses(MultilinearForm.from_entries(2, 2, 3, {(0, 1, 1): 1})) == (
            ((0, 0, 1), (0, 1, 1)), ("asymmetric", (0, 1, 1), (1, 0, 1))
        )
        assert _check_witnesses(MultilinearForm.zero(2, 2, 3)) == (None, None)

    def test_unstructured_random_forms(self):
        rng = random.Random(7)
        for _ in range(30):
            p, n, k = rng.choice([(2, 2, 4), (3, 2, 4), (2, 3, 3), (3, 3, 2)])
            _check_witnesses(mf.random_form(rng, p, n, k))

    def test_class_order_keeps_the_random_draws(self):
        # random_symmetric_form and random_ncsm_form index values by class id
        i_of, ip_of, patterns = mf._multiplicity_classes(2, 3, 2)
        assert i_of.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
        assert ip_of.tolist() == [0, 1, 1, 1, 1, 1, 1, 2]
        assert patterns == ((3, 0), (2, 1), (1, 2), (0, 3))
        T = mf.random_ncsm_form(random.Random(1), 3, 2, 3)
        assert T.coeffs.reshape(-1).tolist() == [0, 2, 2, 0, 2, 0, 0, 1]


class TestTotalDerivative:
    def test_kernel_of_low_degree(self):
        rng = random.Random(7)
        for trial in range(20):
            p, n, k = rng.choice([(2, 2, 3), (3, 2, 3)])
            P = random_poly(p, n, k - 1, True, seed=trial)
            assert total_derivative(P, k).is_zero()

    def test_depth_square_example(self):
        P = NcPoly.make(2, 1, TorusValue.zero(2), [Monomial((1,), 1, 1)])  # |x1|/4
        d2 = total_derivative(P, 2)
        assert d2 == MultilinearForm.from_entries(2, 1, 2, {(0, 0): 1})

    def test_classical_product_example(self):
        P = NcPoly.from_classical(2, 2, {(1, 1): 1})  # x1 x2
        d2 = total_derivative(P, 2)
        assert d2 == MultilinearForm.from_entries(2, 2, 2, {(0, 1): 1, (1, 0): 1})

    def test_additive(self):
        rng = random.Random(8)
        for trial in range(10):
            p, n, k = rng.choice([(2, 2, 3), (3, 2, 2)])
            A = random_poly(p, n, k, True, seed=(trial, 0))
            B = random_poly(p, n, k, True, seed=(trial, 1))
            assert total_derivative(A + B, k) == total_derivative(A, k) + total_derivative(B, k)

    def test_symmetric_and_multilinear_sampled(self):
        rng = random.Random(9)
        for trial in range(8):
            p, n, k = rng.choice([(2, 2, 3), (3, 2, 2)])
            P = random_poly(p, n, k, True, seed=trial + 70)
            D = total_derivative(P, k)
            assert mf.is_symmetric(D)
            # independence of the base point + agreement with the alternating sum
            for _ in range(5):
                hs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
                x = tuple(rng.randrange(p) for _ in range(n))
                v0 = mf.total_derivative_at(P, hs, tuple([0] * n))
                vx = mf.total_derivative_at(P, hs, x)
                assert v0 == vx
                assert v0.as_fp() == D.eval(*hs)

    def test_membership(self):
        # classical polynomials produce classical symmetric forms; all produce nCSM
        rng = random.Random(10)
        for trial in range(30):
            p, n, k = rng.choice([(2, 2, 3), (2, 2, 4), (3, 2, 3)])
            Pc = random_poly(p, n, k, depth_allowed=False, seed=(trial, "c"))
            assert mf.is_csm(total_derivative(Pc, k))
            Pn = random_poly(p, n, k, depth_allowed=True, seed=(trial, "n"))
            assert mf.is_ncsm(total_derivative(Pn, k))

    def test_matches_per_point_oracle(self):
        # coefficient idx is (Delta_{e_idx1} ... Delta_{e_idxk} P)(0)
        for p in (2, 3):
            for n in (1, 2, 3):
                for k in (1, 2, 3, 4):
                    for depth in (False, True):
                        P = random_poly(p, n, k, depth, seed=(p, n, k, depth, "td"))
                        D = total_derivative(P, k)
                        units = [fs.unit_vec(n, j) for j in range(n)]
                        for idx in itertools.product(range(n), repeat=k):
                            hs = [units[j] for j in idx]
                            assert int(D.coeffs[idx]) == mf.total_derivative_at(P, hs, (0,) * n).as_fp()

    def test_constant_and_zero_give_zero_form(self):
        for p in (2, 3):
            zero = NcPoly.zero(p, 2)  # max_depth_exponent() == 0
            assert zero.max_depth_exponent() == 0
            const = NcPoly.make(p, 2, TorusValue.make(p, 1, 2), [])  # constant 1/p^2
            for k in (1, 2, 3):
                assert total_derivative(zero, k) == MultilinearForm.zero(p, 2, k)
                assert total_derivative(const, k) == MultilinearForm.zero(p, 2, k)

    def test_degree_too_high(self):
        P = random_poly(2, 2, 3, True, seed=0)
        if P.degree() == 3:
            with pytest.raises(PreconditionError):
                total_derivative(P, 2)


class TestRestrictExtend:
    def test_restrict_identity_and_zero(self):
        rng = random.Random(11)
        T = mf.random_form(rng, 2, 3, 2)
        V = fs.Subspace.full(2, 3)
        assert mf.restrict(T, V) == T
        Z = fs.Subspace.zero_space(2, 3)
        assert mf.restrict(T, Z).coeffs.shape == (0, 0)

    def test_restrict_line(self):
        T = MultilinearForm.from_entries(2, 2, 2, {(0, 0): 1, (0, 1): 1})
        U = fs.Subspace.from_basis(2, 2, [(1, 1)])
        R = mf.restrict(T, U)
        assert R.coeffs.shape == (1, 1) and int(R.coeffs[0, 0]) == 0

    def test_extend_round_trip_and_vanishing(self):
        rng = random.Random(12)
        for _ in range(25):
            p, n = rng.choice([(2, 3), (3, 3)])
            U = fs.random_subspace(rng, p, n)
            W = fs.complement(U)
            S_U = mf.random_symmetric_form(rng, p, U.dim, 3)
            ext = mf.extend(S_U, U, W)
            assert mf.restrict(ext, U) == S_U
            for w in fs.enumerate_subspace(W):
                a = tuple(rng.randrange(p) for _ in range(n))
                b = tuple(rng.randrange(p) for _ in range(n))
                assert ext.eval(w, a, b) == 0

    def test_extend_preserves_classes(self):
        rng = random.Random(13)
        for _ in range(10):
            U = fs.random_subspace(rng, 2, 3)
            W = fs.complement(U)
            S_U = mf.random_ncsm_form(rng, 2, U.dim, 3)
            ext = mf.extend(S_U, U, W)
            assert mf.is_ncsm(ext)


@st.composite
def pullback_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    k, d, n = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d**k, max_size=d**k))
    M = draw(st.lists(st.integers(0, p - 1), min_size=d * n, max_size=d * n))
    dtype = draw(st.sampled_from([np.int8, np.int64]))
    return p, np.array(coeffs, dtype=np.int8).reshape((d,) * k), np.array(M, dtype=dtype).reshape(d, n)


class TestPullback:
    """One matmul per slot against the former k tensordot contractions."""

    @given(pullback_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_tensordot(self, case):
        p, coeffs, M = case
        got, ref = mf._pullback(coeffs, M, p), pullback_tensordot(coeffs, M, p)
        assert got.shape == ref.shape and got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("d, n", [(0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_size_axes(self, d, n, k):
        coeffs = np.zeros((d,) * k, dtype=np.int8)
        M = np.ones((d, n), dtype=np.int64)
        got = mf._pullback(coeffs, M, 3)
        assert got.shape == (n,) * k and not got.any()
        assert np.array_equal(got, pullback_tensordot(coeffs, M, 3))

    def test_int8_coefficients_do_not_wrap(self):
        # each slot sums 8 products 4 * 4, to 128: past the int8 range
        coeffs = np.full((8, 8, 8), 4, dtype=np.int8)
        M = np.full((8, 2), 4, dtype=np.int8)
        assert np.array_equal(mf._pullback(coeffs, M, 5), pullback_tensordot(coeffs, M, 5))


class TestMultiaffine:
    def test_multilinear_part(self):
        rng = random.Random(14)
        T = mf.random_form(rng, 2, 2, 3)
        phi = MultiaffineForm.from_multilinear(T)
        assert mf.multilinear_part(phi) == T
        const = MultiaffineForm.make(2, 2, 3, {(): 1})
        assert mf.multilinear_part(const).is_zero()

    def test_subset_decomposition(self):
        ent3 = {(0, 0, 0): 1}
        ent2 = {(0, 0): 1}
        phi = MultiaffineForm.make(
            2,
            2,
            3,
            {
                (0, 1, 2): MultilinearForm.from_entries(2, 2, 3, ent3),
                (0, 1): MultilinearForm.from_entries(2, 2, 2, ent2),
                (): 1,
            },
        )
        assert mf.multilinear_part(phi) == MultilinearForm.from_entries(2, 2, 3, ent3)

    def test_alternating_sum_is_multilinear_part(self):
        rng = random.Random(15)
        for _ in range(15):
            p, n = rng.choice([(2, 2), (3, 2)])
            comps = {
                (0, 1, 2): mf.random_form(rng, p, n, 3),
                (0, 2): mf.random_form(rng, p, n, 2),
                (1,): mf.random_form(rng, p, n, 1),
                (): rng.randrange(p),
            }
            phi = MultiaffineForm.make(p, n, 3, comps)
            part = mf.multilinear_part(phi)
            for _ in range(5):
                xs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)]
                ys = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)]
                diffs = [vec_sub(p, a, b) for a, b in zip(xs, ys)]
                assert alternating_slot_sum(phi, xs, ys) == part.eval(*diffs)


class TestGreenTaoAverage:
    def test_symmetric_fixed_point(self):
        rng = random.Random(16)
        T = mf.random_symmetric_form(rng, 5, 2, 3)
        assert mf.green_tao_average(T) == T

    def test_orbit_average(self):
        T = MultilinearForm.from_entries(5, 3, 3, {(0, 1, 2): 1})
        S = mf.green_tao_average(T)
        assert mf.is_symmetric(S)
        inv6 = pow(6, -1, 5)
        for pi in itertools.permutations((0, 1, 2)):
            assert int(S.coeffs[pi]) == inv6

    def test_always_symmetric(self):
        rng = random.Random(17)
        for _ in range(10):
            T = mf.random_form(rng, 5, 2, 3)
            assert mf.is_symmetric(mf.green_tao_average(T))

    def test_low_characteristic_refusal(self):
        for p in (2, 3):
            with pytest.raises(PreconditionError):
                mf.green_tao_average(MultilinearForm.zero(p, 2, 3))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_permute_round_trip_s3(seed):
    rng = random.Random(seed)
    T = mf.random_form(rng, 2, 2, 3)
    for pi in mf.S3:
        inv = tuple(pi.index(i) for i in range(3))
        assert mf.permute(mf.permute(T, pi), inv) == T
