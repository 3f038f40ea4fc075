import itertools
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an, transform
from hofa.cyclotomic import RealSurd, common_ring, real_keys, ring
from hofa.errors import BudgetExceeded, InternalCheckError, PreconditionError
from hofa.fpspace import all_vectors
from hofa.mforms import MultilinearForm
from hofa.ncpoly import Monomial, NcPoly, random_poly
from hofa.pipeline import derivative_sum_cube
from hofa.serialize import dump_function, load_function
from hofa.symmetrize import seven_correlation
from hofa.torus import TorusValue
from oracles import expanded_pow, scale_phase
from ringref import ref_column_power, ref_complement_rows, ref_conj, ref_first_max, ref_mul, ref_quarter_exponents, ref_roots


def phase(P, conj=False):
    return an.BoundedFunction.from_poly_phase(P, conjugate=conj)


class TestMultDerivative:
    def test_constant_one(self):
        f = an.BoundedFunction.ones(2, 2)
        g = f.mult_derivative((1, 0))
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_phase_identity(self):
        rng = random.Random(0)
        for trial in range(10):
            p, n = rng.choice([(2, 2), (3, 2)])
            P = random_poly(p, n, 2, True, seed=trial)
            h = tuple(rng.randrange(p) for _ in range(n))
            left = phase(P).mult_derivative(h)
            right = phase(P.add_derivative(h))
            assert np.array_equal(
                left.embed(right.ring if right.ring.N >= left.ring.N else left.ring).coeffs,
                right.embed(right.ring if right.ring.N >= left.ring.N else left.ring).coeffs,
            )

    def test_zero_shift_gives_modulus_squared(self):
        rng = random.Random(1)
        f = an.random_mu_p_function(rng, 2, 2, zeros=True)
        g = f.mult_derivative((0, 0))
        for x in all_vectors(2, 2):
            v = g.value_complex(x)
            assert abs(v.imag) < 1e-12 and v.real >= -1e-12


class TestGowersNorm:
    def test_ones(self):
        f = an.BoundedFunction.ones(2, 3)
        for d in (2, 3, 4):
            assert an.gowers_norm(f, d).power_surd() == RealSurd(1)

    def test_quadratic_phase_u2(self):
        f = phase(NcPoly.from_classical(2, 2, {(1, 1): 1}))
        val = an.gowers_norm(f, 2)
        assert val.power_surd() == RealSurd(Fraction(1, 4))

    def test_nonclassical_cubic_u4(self):
        P0 = NcPoly.make(2, 3, TorusValue.zero(2), [Monomial((1, 0, 0), 2, 1)])
        f = phase(P0)
        assert an.gowers_norm(f, 4).power_surd() == RealSurd(1)
        assert not an.gowers_norm(f, 3).power_surd() == RealSurd(1)

    def test_inductive_equals_direct(self):
        rng = random.Random(2)
        for _ in range(4):
            f = an.random_mu_p_function(rng, 2, 3)
            for d in (2, 3):
                assert an.gowers_norm(f, d).power_surd() == an.direct_gowers_power(f, d).power_surd()
        f = an.random_unimodular_exact(rng, 2, 2, 3)
        assert an.gowers_norm(f, 4).power_surd() == an.direct_gowers_power(f, 4).power_surd()
        for _ in range(2):
            f = an.random_mu_p_function(rng, 3, 2)
            for d in (2, 3):
                assert an.gowers_norm(f, d).power_surd() == an.direct_gowers_power(f, d).power_surd()

    def test_phase_fast_path_matches_generic(self):
        rng = random.Random(3)
        for _ in range(6):
            f = an.random_unimodular_exact(rng, 2, rng.choice([2, 3]), rng.choice([1, 2, 3]))
            stripped = an.BoundedFunction(f.p, f.n, f.ring, f.coeffs, f.den, exps=None)
            for d in (2, 3, 4):
                assert an.gowers_norm(f, d).power_surd() == an.gowers_norm(stripped, d).power_surd()

    def test_norm_one_iff_low_degree(self):
        rng = random.Random(4)
        for trial in range(16):
            p, n = rng.choice([(2, 2), (3, 2)])
            P = random_poly(p, n, rng.choice([1, 2, 3]), True, seed=trial)
            f = phase(P)
            for d in (2, 3):
                assert (an.gowers_norm(f, d).power_surd() == RealSurd(1)) == (P.degree() <= d - 1)

    def test_monotonicity(self):
        rng = random.Random(5)
        for _ in range(100):
            p, n = rng.choice([(2, 2), (2, 3), (3, 2)])
            f = an.random_mu_p_function(rng, p, n)
            a2 = an.gowers_norm(f, 2).power_surd()
            a3 = an.gowers_norm(f, 3).power_surd()
            a4 = an.gowers_norm(f, 4).power_surd()
            assert a2 * a2 <= a3
            assert a3 * a3 <= a4

    def test_power_must_be_exactly_real(self):
        # 10^9 + i: the imaginary part is below a 1e-6 relative tolerance
        with pytest.raises(InternalCheckError):
            an.GowersNormValue.from_parts(2, ring(2, 2), np.array([10**9, 1]), 1)
        real = an.GowersNormValue.from_parts(2, ring(2, 2), np.array([10**9, 0]), 1)
        assert real.power_surd() == RealSurd(Fraction(10**9))

    def test_power_surd_is_made_once(self):
        v = an.gowers_norm(an.random_unimodular_exact(random.Random(3), 2, 3, 3), 3)
        assert v.power_surd() is v.power_surd()
        assert v.power_surd() == RealSurd.from_ring_element(v.ring, np.array(v.power_num, dtype=object), v.power_den)
        doubled = replace(v, power_den=v.power_den * 2)  # a changed value makes its own power
        assert doubled.power_surd() * 2 == v.power_surd() and doubled == replace(v, power_den=v.power_den * 2)

    def test_budget(self):
        from hofa.config import Budget

        f = an.BoundedFunction.ones(2, 3)
        with pytest.raises(BudgetExceeded):
            an.gowers_norm(f, 4, Budget(gowers_cap=4))


def _full_square_u4(f):
    """Reference U^4 power of a p = 2 phase: every (h1, h2) on int64 planes.

    For each h1 it transforms d_{h2} d_{h1} f for all h2 along the last axis
    and sums |tau|^4 as Z[zeta_8] / Z[i] / Z coefficients.
    """
    n, R = f.n, f.ring
    N, size = R.N, 2**n
    sh = an._shift_table(2, n)
    total = [0] * R.degree
    for h1 in range(size):
        E1 = (f.exps[sh[h1]] - f.exps) % N
        E2 = (E1[sh] - E1[None, :]) % N  # (h2, x)
        taus = []
        for i in range(R.degree):
            a = R._reduce[:, i][E2]
            h = 1
            while h < size:
                v = a.reshape(size, size // (2 * h), 2, h)
                x0, x1 = v[:, :, 0, :], v[:, :, 1, :]
                tmp = x0 - x1
                x0 += x1
                x1[...] = tmp
                h *= 2
            taus.append(a)
        if R.degree == 4:
            a0, a1, a2, a3 = taus
            A = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
            B = a0 * a1 + a1 * a2 + a2 * a3 - a0 * a3
            c1 = int(2 * (A * B).sum())
            part = (int((A * A + 2 * B * B).sum()), c1, 0, -c1)
        else:
            A = sum(t * t for t in taus)
            part = (int((A * A).sum()),) + (0,) * (R.degree - 1)
        total = [t + c for t, c in zip(total, part)]
    return tuple(total), 2 ** (6 * n)


class TestPhaseFastPathP2:
    def test_u4_matches_full_square_reference(self):
        for n in range(2, 7):
            for m in (1, 2, 3):
                f = an.random_unimodular_exact(random.Random(100 * n + m), 2, n, m)
                u4 = an.gowers_norm(f, 4)
                assert (u4.power_num, u4.power_den) == _full_square_u4(f)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_u4_matches_direct_oracle(self, m):
        f = an.random_unimodular_exact(random.Random(m), 2, 3, m)
        assert an.gowers_norm(f, 4).power_surd() == an.direct_gowers_power(f, 4).power_surd()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 3),
        st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(0, 7), min_size=2**n, max_size=2**n)),
    )
    def test_random_exponent_tables(self, m, exps):
        n = len(exps).bit_length() - 1
        f = an.BoundedFunction.from_exponents(2, n, m, exps)
        stripped = an.BoundedFunction(2, n, f.ring, f.coeffs, 1, exps=None)
        u4 = an.gowers_norm(f, 4)
        assert (u4.power_num, u4.power_den) == _full_square_u4(f)
        for d in (2, 3):
            assert an.gowers_norm(f, d).power_surd() == an.gowers_norm(stripped, d).power_surd()

    def test_phases_never_leave_the_fast_path(self, monkeypatch):
        # every phase carrying exps, at every p and ring order, reaches the one
        # column source with its 1-D exponent table at d = 2, 3 and 4
        source, seen = an._derivative_columns, []

        def spy(R, p, n, f, d, *args):
            seen.append((d, f.ndim))
            return source(R, p, n, f, d, *args)

        # (p, n, ring prime, m): N = 2, 8, 256, 512 and 3, 9, 243 and 5 at their own p,
        # and Z[zeta_3], Z[zeta_5] phases on F_2
        cases = [(2, 4, 2, 1), (2, 4, 2, 3), (2, 3, 2, 8), (2, 2, 2, 9), (3, 3, 3, 1), (3, 2, 3, 2), (3, 1, 3, 5),
                 (5, 2, 5, 1), (2, 3, 3, 1), (2, 3, 5, 1)]
        monkeypatch.setattr(an, "_derivative_columns", spy)
        for p, n, q, m in cases:
            R, rng = ring(q, m), random.Random(p * n * m)
            exps = np.array([rng.randrange(R.N) for _ in range(p**n)])
            f = an.BoundedFunction(p, n, R, R.roots_to_coeffs(exps).astype(np.int64), 1, exps=exps)
            seen.clear()
            for d in (2, 3, 4):
                an.gowers_norm(f, d)
            assert seen == [(2, 1), (3, 1), (4, 1)], f.ring
            seen.clear()
            an.gowers_norm(_stripped(f), 2)
            assert seen == [(2, 2)]

    @pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (3, 2), (2, 7), (2, 8), (3, 5), (2, 9)])
    def test_phases_of_odd_order(self, p, m):
        # a phase on F_2^n in Z[zeta_N] at each side of the table's dtype: N odd and
        # N = 128 on uint8 reduced mod N (no sum wraps), N = 256 on uint8 wrapping by
        # N, N = 243 and 512 on uint64 with 2N roots.  Small rings come out equal to
        # the oracle and the ring-value columns; past degree 6 their object products
        # take seconds per call, and the reference's own exponent gathers stand in
        R, rng = ring(p, m), random.Random(10 * p + m)
        small = R.degree <= 6
        for n in (2, 3) if small else (2,):
            exps = np.array([rng.randrange(R.N) for _ in range(2**n)])
            f = an.BoundedFunction(2, n, R, R.roots_to_coeffs(exps).astype(np.int64), 1, exps=exps)
            for d in (2, 3, 4):
                got = an.gowers_norm(f, d)
                if small:
                    assert got.power_surd() == an.direct_gowers_power(f, d).power_surd()
                    assert got == an.gowers_norm(_stripped(f), d)
                else:
                    assert got.power_surd() == ref_column_power(f, d).power_surd()

    def test_sixteenth_roots_take_the_ring_path(self):
        # Z[zeta_16] phases sum |tau|^4 on the generated |tau|^2 terms of
        # _mag2_terms, which no hand-written form covers, and must come out exact
        f = an.random_unimodular_exact(random.Random(0), 2, 2, 4)
        for d in (2, 3):
            fast, direct = an.gowers_norm(f, d), an.direct_gowers_power(f, d)
            assert [Fraction(c, fast.power_den) for c in fast.power_num] == [
                Fraction(c, direct.power_den) for c in direct.power_num
            ]

    @pytest.mark.parametrize(
        "n, dtype, weight, columns",
        [(9, np.int16, 2, 64), (14, np.int16, 2, 2), (15, np.int32, 2, 1), (15, np.int32, 1, 1)],
    )
    def test_transform_dtype_and_chunk_bound(self, n, dtype, weight, columns):
        # eighth-root phases: every column value has modulus 1 (K = 1)
        assert max(1, an._CHUNK_ENTRIES >> n) == columns
        values, planes, squares, sums, chunk_sums = an._kernel_dtypes(2, n, 4, 1, columns, weight)
        assert planes is dtype and np.iinfo(dtype).max >= 2**n
        # the values' bound degree^3 sqrt K = 64 fits int16
        assert values is np.int16 and chunk_sums is np.int64
        # the squares' bound 4 B^2 = 4 * 4^n K (four terms add to each coordinate of
        # |tau|^2 in Z[zeta_8]) fits int32 up to n = 14
        assert squares is (np.int32 if n <= 14 else np.int64)
        assert weight * columns * 16**n < 2**63
        # the column sums take float64 where the chunk's bound fits 2^53: at n = 9, not past it
        assert sums is (np.float64 if n == 9 else np.int64)
        assert (weight * columns * 16**n <= 2**53) == (n == 9)

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_character_u2_at_the_dtype_boundary(self, n):
        # (-1)^{x_1} as an eighth-root phase: one transform entry reaches 2^n
        exps = np.repeat([0, 4], 2 ** (n - 1))
        assert an.gowers_norm(an.BoundedFunction.from_exponents(2, n, 3, exps), 2).power_surd() == RealSurd(1)

    def test_sums_past_int64_run_on_object_dtype(self):
        # at n = 16 one column's sum of |tau|^4 can reach 16^16 = 2^64
        assert an._kernel_dtypes(2, 16, 4, 1, 1, 1) == (np.int16, np.int32, object, object, object)
        # a Z[i] function with den = 2^20 passes int64 already in its values
        assert an._kernel_dtypes(2, 2, 2, 2**160, 1, 1) == (object,) * 5


def _ref_transform(R, p, n, coeffs):
    """The former per-axis character transform (sign -1): np.stack butterflies,
    products by the reference roots for p = 3."""
    d = coeffs.shape[0]
    rest = coeffs.shape[1:]
    arr = coeffs.reshape((d,) + rest[:-1] + (p,) * n)
    first = len(rest)
    if p == 2:
        for axis in range(first, arr.ndim):
            a0, a1 = np.take(arr, 0, axis=axis), np.take(arr, 1, axis=axis)
            arr = np.stack([a0 + a1, a0 - a1], axis=axis)
        return arr.reshape((d,) + rest)
    e = R.N // p
    W1, W2 = ref_roots(R, -e), ref_roots(R, -2 * e)
    for axis in range(first, arr.ndim):
        x0, x1, x2 = (np.take(arr, t, axis=axis) for t in range(3))
        y1 = x0 + ref_mul(R, W1, x1) + ref_mul(R, W2, x2)
        y2 = x0 + ref_mul(R, W2, x1) + ref_mul(R, W1, x2)
        arr = np.stack([x0 + x1 + x2, y1, y2], axis=axis)
    return arr.reshape((d,) + rest)


def _ref_u2_batch(R, p, n, coeffs):
    tau = _ref_transform(R, p, n, coeffs)
    m2 = ref_mul(R, tau, ref_conj(R, tau))
    return ref_mul(R, m2, m2).sum(axis=-1)


def ref_gowers_power(f, d):
    """The former recursive formula: U^2 by the transform, U^3 batched over
    all shifts h, U^4 as the sum of U^3(d_h f) over h.  Returns (num, den).
    Every ring product and conjugate is the test-local reference."""
    R, p, n = f.ring, f.p, f.n
    if d == 2:
        num = _ref_u2_batch(R, p, n, f.coeffs)
        return tuple(int(v) for v in num), p ** (4 * n) * f.den**4
    if d == 3:
        sh = an._shift_table(p, n)
        der = ref_mul(R, f.coeffs[:, sh], ref_conj(R, f.coeffs)[:, None, :])
        total = _ref_u2_batch(R, p, n, der).astype(object).sum(axis=-1)
        return tuple(int(v) for v in total), p ** (5 * n) * f.den**8
    total, den = 0, None
    for h in an._shift_table(p, n):
        der = ref_mul(R, f.coeffs[:, h], ref_conj(R, f.coeffs))
        num, den = ref_gowers_power(an.BoundedFunction(p, n, R, der, f.den**2), d - 1)
        total = np.array(num, dtype=object) + total
    return tuple(int(v) for v in total), den * p**n


# Z, Z[zeta_2] = Z, Z[i], Z[zeta_8], Z[zeta_16], Z[omega], Z[zeta_9]
KERNEL_RINGS = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]


def _kernel_inputs(p, m, n, seed):
    """A phase with exps, the same phase without, and a table of small ring values over den 3."""
    rng = random.Random(seed)
    R = ring(p, m)
    if m:
        f = an.random_unimodular_exact(rng, p, n, m)
    else:  # +-1 values in Z, without exps
        f = an.BoundedFunction(p, n, R, an.random_mu_p_function(rng, 2, n).coeffs, 1)
    vals = np.array([[rng.randrange(-2, 3) for _ in range(p**n)] for _ in range(R.degree)], dtype=np.int64)
    return [f, an.BoundedFunction(p, n, R, f.coeffs, 1), an.BoundedFunction(p, n, R, vals, 3)]


def _same_power(value, ref) -> bool:
    """The kernel's value equals a reference (num, den) as a number."""
    num, den = ref
    return _same_value(value.power_num, value.power_den, num, den)


class TestColumnKernel:
    """The chunked half-pair column kernel against the former recursive formula."""

    @pytest.mark.parametrize("p, m", KERNEL_RINGS)
    def test_matches_recursive_reference(self, p, m):
        # p = 3 stops at n = 4 for U^4: the reference takes ~10 s there at n = 5
        for n in range(2, 6):
            for k, f in enumerate(_kernel_inputs(p, m, n, 10 * n + m)):
                for d in (2, 3, 4):
                    if p == 3 and n == 5 and d == 4:
                        continue
                    value = an.gowers_norm(f, d)
                    assert _same_power(value, ref_gowers_power(f, d)), (p, m, n, k, d)
                    if p == 2 or m:  # the kernel keeps the ring; Z at p = 3 moves to Z[omega]
                        assert value.ring is f.ring

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(KERNEL_RINGS),
        st.integers(1, 3),
        st.integers(1, 9),
        st.randoms(use_true_random=False),
    )
    def test_raw_coefficient_tables(self, pm, n, den, rnd):
        # unbounded tables too: the reference runs on Python integers
        p, m = pm
        R = ring(p, m)
        n = min(n, 2) if p == 3 or R.degree > 2 else n
        vals = np.array([[rnd.randrange(-den, den + 1) for _ in range(p**n)] for _ in range(R.degree)])
        f = an.BoundedFunction(p, n, R, vals.astype(np.int64), den)
        for d in (2, 3, 4):
            assert _same_power(an.gowers_norm(f, d), ref_gowers_power(_object_copy(f), d))

    @pytest.mark.parametrize("p, n, m", [(2, 2, 3), (3, 1, 1)])
    def test_u5_recursion_matches_direct(self, p, n, m):
        f = an.random_unimodular_exact(random.Random(n), p, n, m)
        stripped = an.BoundedFunction(p, n, f.ring, f.coeffs, 1)
        direct = an.direct_gowers_power(f, 5).power_surd()
        assert an.gowers_norm(f, 5).power_surd() == an.gowers_norm(stripped, 5).power_surd() == direct

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 1)])
    def test_u5_recursion_pairs_each_shift_with_its_negation(self, monkeypatch, p, n):
        # at odd p d_{-h} f = conj(d_h f)(. - h): one U^4 per pair {h, -h}, weighted 2, and
        # h = 0, so (p^n + 1) / 2 U^4 calls for f and as many for its stripped copy
        f = an.random_unimodular_exact(random.Random(n), p, n, 1)
        stripped = an.BoundedFunction(p, n, f.ring, f.coeffs, 1)
        direct = an.direct_gowers_power(f, 5).power_surd()
        calls, columns = [], an._gowers_columns
        monkeypatch.setattr(an, "_gowers_columns", lambda g, d: calls.append(d) or columns(g, d))
        assert an.gowers_norm(f, 5).power_surd() == an.gowers_norm(stripped, 5).power_surd() == direct
        assert calls == [4] * (p**n + 1)

    @pytest.mark.parametrize("p, n, d", [(2, 3, 3), (2, 3, 4), (3, 2, 3), (3, 2, 4), (3, 3, 4)])
    def test_orbits_cover_every_shift_once(self, p, n, d):
        hs, weights = an._derivative_orbits(p, n, d)
        size = p**n
        assert weights.sum() == size ** (d - 2)
        seen = set()
        neg = an._shift_table(p, n).argmin(axis=1)
        for i, rep in enumerate(zip(*hs)):
            # swapping, and negating each shift on its own
            signed = set(itertools.product(*({int(h), int(neg[h])} for h in rep)))
            orbit = signed | {o[::-1] for o in signed} if d == 4 else signed
            assert len(orbit) == weights[i] and not orbit & seen
            seen |= orbit
        assert len(seen) == size ** (d - 2)

    @staticmethod
    def _check_against_float_dft(p, m, n, sign):
        rng = random.Random(m)
        R = ring(p, m)
        c = np.array([[[rng.randrange(-5, 6) for _ in range(p**n)] for _ in range(2)] for _ in range(R.degree)])
        tau = an._transform_array(R, p, n, c, sign)
        roots = np.exp(2j * np.pi * np.arange(R.degree) / R.N)
        V = np.array(all_vectors(p, n))
        F = np.exp(sign * 2j * np.pi * (V @ V.T) / p)
        assert np.allclose(np.tensordot(roots, tau, 1), np.tensordot(roots, c, 1) @ F.T)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_radix3_transform_matches_float_dft(self, m, sign):
        self._check_against_float_dft(3, m, 3, sign)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_radix5_transform_matches_float_dft(self, m, sign):
        self._check_against_float_dft(5, m, 2, sign)

    def test_radix_p_butterfly_matches_radix3(self):
        rng = np.random.default_rng(3)
        for m in (1, 2):
            a = rng.integers(-9, 10, (2 * 3 ** (m - 1), 81, 5))
            for sign in (1, -1):
                radix3, radixp = transform._radix3_inplace(a.copy(), sign), transform._radixp_inplace(a.copy(), 3, sign)
                assert np.array_equal(radix3, radixp)

    @pytest.mark.parametrize("n, ds, depths", [(1, (2, 3, 4), (1, 2)), (2, (2, 3), (1,))])
    def test_p5_norms_match_direct(self, n, ds, depths):
        # fifth- and 25th-root phases, and Z[zeta_5] values over den 4; the oracle takes ~2 s per
        # function at F_5^2, d = 3, and ~40 s for a 25th-root phase there
        rng = random.Random(50 + n)
        R = ring(5, 1)
        vals = np.array([[rng.randrange(-1, 2) for _ in range(5**n)] for _ in range(R.degree)], dtype=np.int64)
        for f in [an.random_unimodular_exact(rng, 5, n, m) for m in depths] + [an.BoundedFunction(5, n, R, vals, 4)]:
            assert f.check_bounded()
            for d in ds:
                got, want = an.gowers_norm(f, d), an.direct_gowers_power(f, d)
                assert _same_value(got.power_num, got.power_den, want.power_num, want.power_den), (d, f.ring)

    def test_p5_power_surds_match_direct(self):
        # U^2 of a fifth-root phase on F_5 is irrational: an element of Z[zeta_5] read by RealSurd
        rng = random.Random(55)
        f = an.random_unimodular_exact(rng, 5, 1, 1)
        powers = [an.gowers_norm(f, d).power_surd() for d in (2, 3, 4)]
        assert powers == [an.direct_gowers_power(f, d).power_surd() for d in (2, 3, 4)]
        assert powers[0].ring.N == 5 and RealSurd(0) < powers[0] ** 2 <= powers[1] <= RealSurd(1)

    def test_transform_without_cube_roots_is_refused(self):
        with pytest.raises(PreconditionError):
            an._transform_array(ring(3, 0), 3, 1, np.ones((1, 3), dtype=np.int64), -1)
        # gowers_norm and u2_inverse move Z-valued functions on F_3^n to Z[omega] first
        ones = an.BoundedFunction.ones(3, 2)
        for d in (2, 3, 4, 5):
            assert an.gowers_norm(ones, d).power_surd() == RealSurd(1)
        got, corr = an.u2_inverse(ones)
        assert got == (0, 0) and corr.mag2_is_one()

    @pytest.mark.parametrize(
        "n, dtype, columns, sums",
        [(5, np.int16, 134, np.int64), (9, np.int16, 1, np.int64), (10, np.int32, 1, object)],
    )
    def test_radix3_dtype_and_chunk_bound(self, n, dtype, columns, sums):
        # cube-root phases: K = 1; coefficients of an element are at most sqrt 2 times its modulus
        assert max(1, an._CHUNK_ENTRIES // 3**n) == columns
        values, planes, squares, col_sums, chunk_sums = an._kernel_dtypes(3, n, 2, 1, columns, 2)
        assert planes is dtype and np.iinfo(dtype).max ** 2 >= 2 * 9**n
        assert values is np.int16 and chunk_sums is sums  # degree^3 sqrt K = 8
        # the squares' bound max(B^2, 9^n K), B = floor(sqrt(2 * 9^n K)), fits int32 up to n = 9
        assert squares is (np.int32 if n <= 9 else sums)
        if sums is np.int64:
            assert 2 * 2 * columns * 81**n < 2**63
        # the column sums take float64 where the chunk's bound fits 2^53: at n = 5
        assert col_sums is (np.float64 if 2 * 2 * columns * 81**n <= 2**53 else sums)
        assert (col_sums is np.float64) == (n == 5)

    @pytest.mark.parametrize("n", [9, 10])
    def test_character_u2_at_the_radix3_dtype_boundary(self, n):
        # omega^{x_1}: one transform entry reaches 3^n
        exps = np.repeat([0, 1, 2], 3 ** (n - 1))
        assert an.gowers_norm(an.BoundedFunction.from_exponents(3, n, 1, exps), 2).power_surd() == RealSurd(1)


# U^4 inputs on the largest odd-p spaces the tests reach, and their exact
# powers (num, den) as computed with the shifts folded under swapping and
# joint negation only, orbits of at most 4 pairs
SIGN_ORBIT_INPUTS = {
    "phase F_3^4": lambda: an.random_unimodular_exact(random.Random(4), 3, 4, 1),
    "zeta9 phase F_3^4": lambda: an.random_unimodular_exact(random.Random(4), 3, 4, 2),
    "phase F_3^5": lambda: an.random_unimodular_exact(random.Random(5), 3, 5, 1),
    "phase F_5^3": lambda: an.random_unimodular_exact(random.Random(3), 5, 3, 1),
    "stripped F_3^4": lambda: _stripped(an.random_unimodular_exact(random.Random(4), 3, 4, 1)),
    "mu3 zeros F_3^4": lambda: an.random_mu_p_function(random.Random(4), 3, 4, zeros=True),
    "mu5 zeros F_5^3": lambda: an.random_mu_p_function(random.Random(3), 5, 3, zeros=True),
}
SIGN_ORBIT_POWERS = {
    "phase F_3^4": ((14964965217, 0), 282429536481),
    "zeta9 phase F_3^4": ((14027698665, -87619968, 87619968, 0, -104579424, -16959456), 282429536481),
    "phase F_3^5": ((3453212977785, 0), 205891132094649),
    "phase F_5^3": ((120623975625, 0, -233730000, -233730000), 3814697265625),
    "stripped F_3^4": ((14964965217, 0), 282429536481),
    "mu3 zeros F_3^4": ((1433026404, 0), 282429536481),
    "mu5 zeros F_5^3": ((20134682500, 0, -42000000, -42000000), 3814697265625),
}


class TestSignOrbits:
    """At odd p the U^4 shift pairs (a, b) fold under swapping and negating
    each shift on its own: orbits {+-a} x {+-b} and their swaps, of size 1, 4
    or 8, one column each."""

    @pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
    def test_orbits_of_order_8(self, p, n):
        vecs = all_vectors(p, n)
        index = {v: i for i, v in enumerate(vecs)}
        neg = [index[tuple(-c % p for c in v)] for v in vecs]
        orbits = {}
        for a, b in itertools.product(range(p**n), repeat=2):
            images = {(x, y) for x in (a, neg[a]) for y in (b, neg[b])}
            images |= {(y, x) for x, y in images}
            orbits.setdefault(min(images), images)  # keyed by its least member
        hs, weights = an._derivative_orbits(p, n, 4)
        got = dict(zip(zip(hs[0].tolist(), hs[1].tolist()), weights.tolist()))
        # each representative the least member of its orbit, weighted by the orbit's size
        assert got == {rep: len(images) for rep, images in orbits.items()}
        assert sum(got.values()) == p ** (2 * n) and set(got.values()) <= {1, 4, 8}
        assert list(got) == sorted(got)  # the orbits of first shift 0 first
        # the orbits of a = 0, a = b and a = -b are there, -h folded into h
        assert got[0, 0] == 1
        for h in range(1, p**n):
            lo = min(h, neg[h])
            assert got[0, lo] == got[lo, lo] == 4 and (0, max(h, neg[h])) not in got and (lo, neg[lo]) not in got

    @pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1)])
    def test_u4_matches_direct_oracle(self, p, n):
        rng = random.Random(10 * p + n)
        f = an.random_unimodular_exact(rng, p, n, 1)
        g = an.random_unimodular_exact(rng, p, n, 2)  # Z[zeta_9] at p = 3
        inputs = [f, _stripped(f), an.random_mu_p_function(rng, p, n, zeros=True), g, _stripped(g)]
        if p == 3:  # Z[omega] values over den 3
            inputs.append(_values_at(3, n, 1, 3, n))
        for h in inputs:
            assert an.gowers_norm(h, 4).power_surd() == an.direct_gowers_power(h, 4).power_surd()

    @pytest.mark.parametrize("name", list(SIGN_ORBIT_POWERS))
    def test_pinned_u4(self, name):
        f = SIGN_ORBIT_INPUTS[name]()
        value, ref = an.gowers_norm(f, 4), ref_column_power(f, 4)
        assert (value.power_num, value.power_den) == (ref.power_num, ref.power_den) == SIGN_ORBIT_POWERS[name]

    @pytest.mark.parametrize("p, n, built", [(3, 4, 820), (3, 5, 7381), (5, 3, 1953)])
    def test_phase_columns_halved(self, p, n, built):
        # (p^{2n} - 1) / 8 columns: half of the swap-and-joint-negation orbits of first shift != 0
        sets = an._column_sets(p, n, 4, p, True)
        assert sum(len(shifts[0]) for shifts, _, _ in sets if shifts is not None) == built == (p ** (2 * n) - 1) // 8


def _zi_function(den, n=2, seed=0):
    """Z[i] values (a + b i) / den with 1/2 <= |value|^2 <= 1."""
    rng = random.Random(seed)
    cols = []
    while len(cols) < 2**n:
        a, b = rng.randrange(-den, den + 1), rng.randrange(-den, den + 1)
        if den * den <= 2 * (a * a + b * b) and a * a + b * b <= den * den:
            cols.append((a, b))
    return an.BoundedFunction(2, n, ring(2, 2), np.array(cols, dtype=np.int64).T, den)


def _object_copy(f):
    return an.BoundedFunction(f.p, f.n, f.ring, f.coeffs.astype(object), f.den)


class TestNoInt64Overflow:
    """Large denominators: every exact route against the oracle on Python integers."""

    @pytest.mark.parametrize("den", [16, 1000, 10**5])
    def test_zi_norms_match_object_oracle(self, den):
        f = _zi_function(den)
        for d in (2, 3, 4):
            oracle = an.direct_gowers_power(_object_copy(f), d)
            assert an.gowers_norm(f, d).power_surd() == oracle.power_surd(), d
            assert an.direct_gowers_power(f, d).power_surd() == oracle.power_surd(), d
            assert 0.5 < oracle.norm_float() <= 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 2), st.integers(0, 2**32))
    def test_zi_norms_over_den(self, den, n, seed):
        f = _zi_function(den, n, seed)
        for d in (2, 3, 4):
            assert an.gowers_norm(f, d).power_surd() == an.direct_gowers_power(_object_copy(f), d).power_surd()

    def test_weighted_chunk_sums_at_the_column_bound(self):
        # +-9 / 9 with a quadratic sign on F_2^3: every d_{h1} d_{h2} f is a
        # character times 9^4, so each column's sum of |tau|^4 is 8^4 * 9^16,
        # just under 2^63, and only the weighted chunk total passes int64
        signs = [(-1) ** (x[0] * x[1] + x[2]) for x in all_vectors(2, 3)]
        f = an.BoundedFunction(2, 3, ring(2, 0), 9 * np.array([signs], dtype=np.int64), 9)
        assert an._kernel_dtypes(2, 3, 1, 9**8, 2048, 2) == (np.int16, np.int32, np.int64, np.int64, object)
        assert an.gowers_norm(f, 3).power_surd() == an.gowers_norm(f, 4).power_surd() == RealSurd(1)

    def test_float_fields_past_the_float_range(self):
        # a numerator and den past 2^1024 are shifted together; values that fit are unchanged
        R = ring(2, 2)
        big = an.CorrValue.from_sum(R, np.array([3 << 1100, -(1 << 1100)], dtype=object), 4 << 1100)
        assert big.float_value == complex(0.75, -0.25)
        power = an.GowersNormValue.from_parts(2, R, np.array([3 << 2000, 0], dtype=object), 5 << 2000)
        assert power.float_power == 0.6 and power.norm_float() == pytest.approx(0.6**0.25)
        num = np.array([2**60 + 1, -7], dtype=object)
        assert an.CorrValue.from_sum(R, num, 3).float_value == R.to_complex(num) / 3

    def test_power_between_int64_and_uint64_reads_back_exactly(self):
        # numpy reads Python integers in [2^63, 2^64) as float64 unless told otherwise
        v = an.GowersNormValue.from_parts(2, ring(2, 2), np.array([2**63 + 1, 0], dtype=object), 2**64)
        assert v.power_surd() == RealSurd(Fraction(2**63 + 1, 2**64))
        one = an.GowersNormValue.from_parts(2, ring(2, 2), np.array([2**64 - 1, 0], dtype=object), 2**64 - 1)
        assert one.power_surd() == RealSurd(1)

    def test_seven_correlation_reproducer(self):
        # (700 +- 700i) / 1000 is 1-bounded; its seven-function correlation
        # against the all-ones trilinear form used to wrap in int64 (|corr| 0.0056)
        f = an.BoundedFunction(2, 1, ring(2, 2), np.array([[700, 700], [700, -700]], dtype=np.int64), 1000)
        assert f.check_bounded()
        T = MultilinearForm(2, 1, 3, np.ones((1, 1, 1), dtype=np.int64))
        corr, exact = seven_correlation((f,) * 7, T), seven_correlation((_object_copy(f),) * 7, T)
        assert np.array_equal(corr.num, exact.num) and corr.den == exact.den
        assert abs(corr.modulus_float() - 0.6988) < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 2), st.integers(0, 2**32))
    def test_corner_cube_averages_over_den(self, den, n, seed):
        f = _zi_function(den, n, seed)
        fo = _object_copy(f)
        T = MultilinearForm(2, n, 3, np.array(random.Random(seed).choices((0, 1), k=n**3)).reshape((n,) * 3))
        for g, go in [(f, fo), (f.conj(), fo.conj())]:
            bs, bos = (g, f) * 3 + (g,), (go, fo) * 3 + (go,)
            assert np.array_equal(seven_correlation(bs, T).num, seven_correlation(bos, T).num)
        gs = {S: f if S % 3 else f.conj() for S in range(8)}
        assert np.array_equal(
            an.octolinear_average(gs).num, an.octolinear_average({S: _object_copy(g) for S, g in gs.items()}).num
        )
        (_, D, den8), (_, Do, deno8) = derivative_sum_cube(f), derivative_sum_cube(fo)
        assert den8 == deno8 and np.array_equal(D, Do)

    def test_correlation_magnitudes_past_int64(self):
        # (0.7 + 0.7i) and 1 at den = 10^9 and 10^10: the sums fit int64, their squares do not
        f = an.BoundedFunction(2, 3, ring(2, 2), np.full((2, 8), 7 * 10**8, dtype=np.int64), 10**9)
        want = RealSurd(Fraction(49, 50))
        assert an.correlation(f, NcPoly.zero(2, 3)).mag2() == an.average(f).mag2() == want
        assert an.u2_inverse(f)[1].mag2() == want
        one = an.BoundedFunction(2, 3, ring(2, 2), np.array([[10**10] * 8, [0] * 8], dtype=np.int64), 10**10)
        assert an.average(one).mag2_is_one()

    def test_pairwise_products_past_int64(self):
        # den = 4 * 10^9: products of two values pass int64, so the tables move to Python integers
        den = 4 * 10**9
        c = np.array([[2 * den, 7 * den // 10], [0, 7 * den // 10]], dtype=np.int64)
        assert not an.BoundedFunction(2, 1, ring(2, 2), c, den).check_bounded()  # the value 2 at x = 0
        g = an.BoundedFunction(2, 1, ring(2, 2), np.full((2, 2), 7 * den // 10, dtype=np.int64), den)
        assert np.array_equal(g.mult_derivative((1,)).coeffs, _object_copy(g).mult_derivative((1,)).coeffs)

    def test_phased_sum_between_int64_and_uint64(self):
        # a sum in [2^63, 2^64) once became float64 and lost its last digits
        prod = np.array([[2**61 + 1] * 4, [-1, 0, 0, 0]], dtype=np.int64)
        sums = an.phased_sum(ring(2, 2), prod, np.zeros(4, dtype=np.int64))
        val = an.CorrValue.from_sum(ring(2, 2), sums[:, 0], 1)
        assert val.mag2() == RealSurd(Fraction(85070591730234615939630628152780259345))

    def test_transform_of_large_coefficients_is_exact(self):
        R = ring(3, 1)
        c = np.array([[2**61, -(2**61), 3], [1, 2**60, -(2**61)]], dtype=np.int64)
        tau = an._transform_array(R, 3, 1, c, -1)
        assert tau.dtype == object
        assert np.array_equal(tau, _ref_transform(R, 3, 1, c.astype(object)))


def _constant(n, c, p=2):
    """The constant c / c on F_p^n in Z: every Gowers norm is 1, and at p = 2
    every transform entry at 0 meets the kernel's bounds exactly."""
    return an.BoundedFunction(p, n, ring(p, 0), np.full((1, p**n), c, dtype=np.int64), c)


class TestInt32Squares:
    """The squares run on int32 up to their bound and on int64 past it.  In Z
    the bound is B^2, and a constant reaches it: on F_2^10 its U^2 column has
    |tau(0)|^2 = 4^10 c^2, and a U^4 quarter column on F_2^4 has a half (g +
    conj g) = 2 c^4 on 4 rows, so z^2 = 64 c^8, the quarter bound B^2 = 4^3 K
    with K = c^8."""

    @pytest.mark.parametrize("c, squares", [(45, np.int32), (46, np.int64)])
    def test_u2_squares_at_the_int32_bound(self, c, squares):
        assert (4**10 * c * c <= 2**31 - 1) == (squares is np.int32)
        assert an._kernel_dtypes(2, 10, 1, c * c, 32, 1)[2:4] == (squares, np.int64)
        assert an.gowers_norm(_constant(10, c), 2).power_surd() == RealSurd(1)

    @pytest.mark.parametrize("c, squares", [(8, np.int32), (9, np.int64)])
    def test_u4_quarter_squares_at_the_int32_bound(self, c, squares):
        K = c**8
        assert (4**3 * K <= 2**31 - 1) == (squares is np.int32)
        assert an._kernel_dtypes(2, 4, 1, K, 256, 2, quarter=True)[2:4] == (squares, np.int64)
        assert an.gowers_norm(_constant(4, c), 4).power_surd() == RealSurd(1)


def _zi_constant(n, a, b, den):
    """The constant (a + b i) / den on F_2^n."""
    return an.BoundedFunction(2, n, ring(2, 2), np.array([[a] * 2**n, [b] * 2**n], dtype=np.int64), den)


def _chunk_tiers(monkeypatch):
    """A set that collects (half, planes' dtype, squares' dtype) of every ``_mag4_sums`` call."""
    seen, sums = set(), an._mag4_sums

    def spy(R, tau, runs, dtypes, buffer=None, half=False):
        seen.add((half, tau.dtype.type, dtypes[0]))
        return sums(R, tau, runs, dtypes, buffer, half)

    monkeypatch.setattr(an, "_mag4_sums", spy)
    return seen


i8, i16, i32, i64 = np.int8, np.int16, np.int32, np.int64

# name -> (function, d, {half: (planes, squares)} of its chunks).  Z constants c / c
# reach the bounds: B = 2^n c for a whole-space column, B = 2^(n-1) c^4 for a
# quarter one, and S = B^2 both ways
TIER_CASES = {
    "Z F_2^1 c=63": (lambda: _constant(1, 63), 2, {False: (i8, i16)}),  # B = 126
    "Z F_2^1 c=64": (lambda: _constant(1, 64), 2, {False: (i16, i16)}),  # B = 128
    "Z F_2^1 c=90": (lambda: _constant(1, 90), 2, {False: (i16, i16)}),  # S = 180^2 = 32400
    "Z F_2^1 c=91": (lambda: _constant(1, 91), 2, {False: (i16, i32)}),  # S = 182^2 = 33124
    # M2 = 4033 and 4096: B = floor(2 sqrt M2) = 127 and 128, S = 2 B^2 = 32258 and 32768
    "Z[i] F_2^1 (63+8i)/64": (lambda: _zi_constant(1, 63, 8, 64), 2, {False: (i8, i16)}),
    "Z[i] F_2^1 64/64": (lambda: _zi_constant(1, 64, 0, 64), 2, {False: (i16, i32)}),
    # U^4: quarter B = 64 and 128 at c = 2, whole-space B = 128 and 256
    "Z F_2^3 c=2 U^4": (lambda: _constant(3, 2), 4, {True: (i8, i16), False: (i16, i16)}),
    "Z F_2^4 c=2 U^4": (lambda: _constant(4, 2), 4, {True: (i16, i16), False: (i16, i32)}),
    # quarter S = (2 c^4)^2: 26244 at c = 3, 262144 at c = 4
    "Z F_2^2 c=3 U^4": (lambda: _constant(2, 3), 4, {True: (i16, i16), False: (i16, i32)}),
    "Z F_2^2 c=4 U^4": (lambda: _constant(2, 4), 4, {True: (i16, i32), False: (i16, i32)}),
    # Z[omega] on F_3^2: B = floor(sqrt(162 c^2)) and S = max(B^2, 81 c^2) = B^2
    "Z F_3^2 c=10": (lambda: _constant(2, 10, 3), 2, {False: (i8, i16)}),  # B = 127
    "Z F_3^2 c=11": (lambda: _constant(2, 11, 3), 2, {False: (i16, i16)}),  # B = 140
    "Z F_3^2 c=14": (lambda: _constant(2, 14, 3), 2, {False: (i16, i16)}),  # S = 178^2 = 31684
    "Z F_3^2 c=15": (lambda: _constant(2, 15, 3), 2, {False: (i16, i32)}),  # S = 190^2 = 36100
}

# exact U^2..U^4 of the kinds of input the benchmark's norms take, as the
# kernel gave them with int16 planes and int32 squares: name -> {d: (power_num, power_den)}
NARROW_PINNED = {
    "eighth-root F_2^7": {
        2: ((4032000, -96256, 0, 96256), 268435456),
        3: ((1096550400, 9043968, 0, -9043968), 34359738368),
        4: ((268261113856, -1838678016, 0, 1838678016), 4398046511104),
    },
    "cube-root F_3^4": {
        2: ((833247, 0), 43046721),
        3: ((128470941, 0), 3486784401),
        4: ((14318103105, 0), 282429536481),
    },
    "loaded F_2^6": {
        2: ((536320, -3072, 0, 3072), 16777216),
        3: ((68678656, 491520, 0, -491520), 1073741824),
        4: ((8139956224, 115605504, 0, -115605504), 68719476736),
    },
}


class TestNarrowTiers:
    """Transform planes on int8 while their bound B is at most 127, and squares
    on int16 while every partial sum of a coordinate of w fits int16."""

    @pytest.mark.parametrize("name", list(TIER_CASES))
    def test_tiers_at_the_bounds(self, monkeypatch, name):
        make, d, want = TIER_CASES[name]
        f = make()
        seen = _chunk_tiers(monkeypatch)
        got = an.gowers_norm(f, d)
        assert seen == {(half, *tiers) for half, tiers in want.items()}
        ref = an.direct_gowers_power(f, d) if f.p ** ((d + 1) * f.n) <= 2**15 else ref_column_power(f, d)
        # a constant's U^d power is |value|^(2^d)
        mag2 = Fraction(an._modulus_bound_sq(f.ring, f.coeffs), f.den**2)
        assert got.power_surd() == ref.power_surd() == RealSurd(mag2 ** (1 << (d - 1)))

    def test_bounds_at_each_switch(self):
        # planes: B = floor(2 sqrt K) on F_2^1 and floor(2 sqrt K) for the quarter columns
        # of F_2^2 is 127 at K = 4033 and 128 at 4096; in Z[omega] on F_3^1 floor(sqrt(18 K))
        # is 127 at K = 910 and 128 at 911
        for K, planes in ((4033, i8), (4096, i16)):
            assert an._kernel_dtypes(2, 1, 2, K, 1, 1)[1] is planes
            assert an._kernel_dtypes(2, 2, 4, K, 1, 1, quarter=True)[1] is planes
        assert [an._kernel_dtypes(3, 1, 2, K, 1, 1)[1] for K in (910, 911)] == [i8, i16]
        # squares: in Z[i] S = 2 B^2 is 32258 at K = 4095 and 32768 at 4096 (F_2^1); on
        # Z[zeta_8] quarter columns S = 3 B^2 is 32448 at B = 104 (K = 2704) and 33075 at
        # B = 105 (K = 2757) (F_2^2); in Z[omega] S = B^2 is 181^2 at K = 1840 and 182^2
        # at 1841 (F_3^1)
        assert [an._kernel_dtypes(2, 1, 2, K, 1, 1)[2] for K in (4095, 4096)] == [i16, i32]
        assert [an._kernel_dtypes(2, 2, 4, K, 1, 1, quarter=True)[2] for K in (2704, 2757)] == [i16, i32]
        assert [an._kernel_dtypes(3, 1, 2, K, 1, 1)[2] for K in (1840, 1841)] == [i16, i32]
        # the Gram fold keeps int32 squares: Z[zeta_5] on F_5^1 with K = 1
        assert an._kernel_dtypes(5, 1, 4, 1, 1, 1)[1:3] == (i8, i32)

    def test_which_tiers_the_workload_inputs_take(self, monkeypatch):
        inputs = {
            "eighth-root F_2^7": (an.random_unimodular_exact(random.Random(7), 2, 7, 3),
                                  {(True, i8, i16), (False, i16, i32)}),
            "cube-root F_3^4": (an.random_unimodular_exact(random.Random(7), 3, 4, 1), {(False, i8, i16)}),
            "loaded F_2^6": (_loaded_phase(6, 6), {(True, i8, i16), (False, i8, i16)}),
            # as with int16 planes and int32 squares throughout: quarter B = 2^14
            "Z[i] den 4 F_2^7": (_zi_function(4, 7, 7), {(True, i16, i32), (False, i32, i64)}),
        }
        seen = _chunk_tiers(monkeypatch)
        for name, (f, tiers) in inputs.items():
            for d in (2, 3, 4):
                seen.clear()
                value = an.gowers_norm(f, d)
                if name in NARROW_PINNED:
                    assert (value.power_num, value.power_den) == NARROW_PINNED[name][d], (name, d)
            assert seen == tiers, name

    @pytest.mark.parametrize("p, sizes", [(2, (5, 6)), (3, (3, 4)), (5, (2,))])
    def test_int8_butterflies_match_int64(self, p, sizes):
        # roots of unity: every transform coefficient within B <= 127 (64, 114 and 50 at the
        # largest n), so the int8 butterflies give the int64 transform entry for entry
        R = ring(p, 3 if p == 2 else 1)
        rng = np.random.default_rng(p)
        for n in sizes:
            planes = R.roots_to_coeffs(rng.integers(0, R.N, (p**n, 3)))
            wide = an._transform_inplace(R, p, np.ascontiguousarray(planes, dtype=i64), -1)
            narrow = an._transform_inplace(R, p, np.ascontiguousarray(planes, dtype=i8), -1)
            assert an._kernel_dtypes(p, n, R.degree, 1, 1, 1)[1] is i8
            assert np.abs(wide).max() <= 127 and np.array_equal(narrow, wide)


def _digit_shift_table(p, n):
    """The digit construction of ``_shift_table``: index of x_i + x_j, first coordinate most significant."""
    idx = np.arange(p**n)
    digits = [(idx // p ** (n - 1 - a)) % p for a in range(n)]
    acc = np.zeros((p**n, p**n), dtype=np.int64)
    for a in range(n):
        acc = acc * p + (digits[a][:, None] + digits[a][None, :]) % p
    return acc


class TestShiftTable:
    @pytest.mark.parametrize("p, top", [(2, 6), (3, 3), (5, 2)])
    def test_matches_the_digit_construction(self, p, top):
        for n in range(1, top + 1):
            table = an._shift_table.__wrapped__(p, n)
            assert table.dtype == np.int64 and np.array_equal(table, _digit_shift_table(p, n))

    def test_p2_builds_no_temporary_of_its_size(self):
        # F_2^10: an 8 MB table; the digit construction peaked at 32 MB, four times it
        tracemalloc.start()
        try:
            table = an._shift_table.__wrapped__(2, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * table.nbytes


class TestPivotKeys:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_cached_keys_give_the_complement_rows(self, n):
        # every independent pair a < b of F_2^n is one quarter column, and its
        # rows from the cached key equal ref_complement_rows(n, a, b)
        (a, b), _, keys = an._column_sets(2, n, 4, 8)[0]
        assert len(a) == (2**n - 1) * (2**n - 2) // 2 and (a < b).all() and (a != 0).all()
        rows = np.take(an._pivot_rows(n), keys, axis=1)
        assert np.array_equal(rows, ref_complement_rows(n, a, b))
        # span(a, b) + C is all of F_2^n for every pair
        cover = np.sort(np.concatenate([rows, rows ^ a, rows ^ b, rows ^ a ^ b]), axis=0)
        assert (cover == np.arange(2**n)[:, None]).all()
        assert not keys.flags.writeable and an._column_sets(2, n, 4, 8)[1][2] is None


def _value_dtype(p, n, degree, d, c):
    """The kernel's value dtype for U^d of a function with M2 = c^2."""
    return an._kernel_dtypes(p, n, degree, c ** (1 << (d - 1)), 1, 1)[0]


def _last_c(degree, d, top):
    """The largest c with degree^3 c^(2^(d-2)) <= top."""
    e = 1 << (d - 2)
    c = int((top / degree**3) ** (1 / e))
    while degree**3 * (c + 1) ** e <= top:
        c += 1
    while degree**3 * c**e > top:
        c -= 1
    return c


def _switch_cs(degree, d):
    """den 1, den 4, and c at the int16 and int32 switches and one past each."""
    c16, c32 = _last_c(degree, d, 2**15 - 1), _last_c(degree, d, 2**31 - 1)
    return sorted({1, 4, c16, c16 + 1, c32, c32 + 1})


def _values_at(p, n, m, c, seed):
    """Values of Z[zeta_{p^m}] over den c with f(0) = c and |s(f(x))|^2 <= c^2
    elsewhere: the kernel's bound M2 is exactly c^2.  Three points in four
    take c zeta^k, so that products of values at the bound are common."""
    R, rng = ring(p, m), random.Random(seed)
    r = max(1, c // R.degree)
    cols = [[c] + [0] * (R.degree - 1)]
    while len(cols) < p**n:
        v = [rng.randint(-r, r) for _ in range(R.degree)]
        if rng.random() < 0.75:
            v = [c * int(t) for t in R._reduce[rng.randrange(R.N)]]
        if an._modulus_bound_sq(R, np.array([v], dtype=object).T) <= c * c:
            cols.append(v)
    f = an.BoundedFunction(p, n, R, np.array(cols, dtype=object).T, c)
    assert an._modulus_bound_sq(R, f.coeffs) == c * c and f.check_bounded()
    return f


def _all_object_power(monkeypatch, f, d):
    """U^d of the kernel with every stage on Python integers."""
    with monkeypatch.context() as patch:
        patch.setattr(an, "_kernel_dtypes", lambda *args: (object,) * 5)
        return an.gowers_norm(f, d)


class TestValueDtypes:
    """Ring values, their first-derivative table and its products run on the
    narrowest of int16, int32 and int64 that holds V = degree^3 sqrt K, and
    value chunks are as wide as those dtypes allow."""

    @pytest.mark.parametrize(
        "degree, c, values",
        [(2, 7, np.int16), (2, 8, np.int32), (2, 127, np.int32), (2, 128, np.int64),
         (4, 4, np.int16), (4, 5, np.int32), (4, 76, np.int32), (4, 77, np.int64)],
    )
    def test_u4_value_bound(self, degree, c, values):
        # Z[i] and Z[zeta_8] on F_2^2 with M2 = c^2: K = c^8, V = degree^3 c^4
        V = degree**3 * c**4
        assert (V <= 2**15 - 1) == (values is np.int16) and (V <= 2**31 - 1) == (values is not np.int64)
        assert _value_dtype(2, 2, degree, 4, c) is values

    def test_the_workloads_values_are_int16(self):
        # Z[i] over den 4 (M2 <= 16) and a phase read back from text (M2 = 1)
        assert an._kernel_dtypes(2, 7, 2, 16**4, 1, 1)[0] is np.int16
        assert an._kernel_dtypes(2, 6, 4, 1, 1, 1)[0] is np.int16

    @pytest.mark.parametrize(
        "p, degree, values, divisor",
        [(2, 2, np.int16, 2), (2, 2, np.int32, 2), (2, 2, np.int64, 4), (2, 4, np.int16, 2),
         (2, 4, np.int32, 4), (2, 4, np.int64, 8), (3, 2, np.int64, 4), (5, 4, object, 8),
         (2, 4, None, 2), (3, 2, None, 1)],
    )
    def test_chunk_divisor(self, p, degree, values, divisor):
        # int64 values keep the former 2 * degree; phases (None) keep theirs
        assert an._chunk_divisor(p, degree, values) == divisor

    def test_odd_order_ring_on_f2(self):
        # Z[omega] values on F_2^14: a coefficient can reach 2 / sqrt 3 times the
        # modulus, past the sqrt(p - 1) = 1 of Z[zeta_{2^m}], so the planes' bound
        # takes the ring's prime: the constant (2 + omega) / 2 has tau(0) = 2^15
        assert an._kernel_dtypes(2, 14, 2, 3, 1, 1, 3)[1] is np.int32
        assert an._kernel_dtypes(2, 14, 2, 3, 1, 1)[1] is np.int16
        f = an.BoundedFunction(2, 14, ring(3, 1), np.array([[2] * 2**14, [1] * 2**14]), 2)
        assert an.gowers_norm(f, 2).power_surd() == RealSurd(Fraction(9, 16))

    @pytest.mark.parametrize("m", [0, 2, 3])  # Z, Z[i], Z[zeta_8]
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_f2_values_at_the_switches(self, m, d):
        R, dtypes = ring(2, m), set()
        for c in _switch_cs(R.degree, d):
            f = _values_at(2, 2, m, c, 100 * c + d)
            dtypes.add(_value_dtype(2, 2, R.degree, d, c))
            got, want = an.gowers_norm(f, d), an.direct_gowers_power(f, d)
            assert _same_value(got.power_num, got.power_den, want.power_num, want.power_den), c
        # Z reaches object dtype where Z[i] and Z[zeta_8] still hold int64 values
        assert dtypes >= {np.int16, np.int32} and (np.int64 in dtypes) == (m > 0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_f2_den4_quarter_columns(self, m):
        # F_2^3: quarter and whole-space U^4 columns over several chunks
        f = _values_at(2, 3, m, 4, m)
        assert _value_dtype(2, 3, f.ring.degree, 4, 4) is np.int16
        got, want = an.gowers_norm(f, 4), an.direct_gowers_power(f, 4)
        assert _same_value(got.power_num, got.power_den, want.power_num, want.power_den)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_z_omega_values_on_f3(self, d):
        for c in _switch_cs(2, d):
            f = _values_at(3, 2, 1, c, 10 * c + d)
            got, want = an.gowers_norm(f, d), an.direct_gowers_power(f, d)
            assert _same_value(got.power_num, got.power_den, want.power_num, want.power_den), c

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_z_zeta5_values_on_f5(self, monkeypatch, d):
        # the Gram fold; the definition-chasing oracle takes seconds past U^2 on F_5^2,
        # so U^3 and U^4 compare with the kernel on Python integers
        for c in _switch_cs(4, d):
            f = _values_at(5, 2, 1, c, 10 * c + d)
            got = an.gowers_norm(f, d)
            want = an.direct_gowers_power(f, d) if d == 2 else _all_object_power(monkeypatch, f, d)
            assert _same_value(got.power_num, got.power_den, want.power_num, want.power_den), c


def _loaded_phase(n, seed):
    """An eighth-root phase through dump and load: the same values, no ``exps``."""
    f = load_function(dump_function(an.random_unimodular_exact(random.Random(seed), 2, n, 3)))
    assert f.exps is None
    return f


# the five kinds of input of the quarter-size U^4 columns, by name
QUARTER_INPUTS = {
    **{
        f"phase-m{m}": (lambda n, m=m: an.random_unimodular_exact(random.Random(10 * n + m), 2, n, m))
        for m in (1, 2, 3, 4)
    },
    "zi-den4": lambda n: _zi_function(4, n, n),
    "loaded-phase": lambda n: _loaded_phase(n, n),
    "zi-den1e5": lambda n: _zi_function(10**5, n, n),
    "mu2-zeros": lambda n: an.random_mu_p_function(random.Random(n), 2, n, zeros=True),
}

# tracemalloc peaks of one gowers_norm(f, 4) call on F_2^7 (inputs as in
# test_u4_peak_memory) with every U^4 column on the whole space, numpy 2.4
FULL_SIZE_PEAK_BYTES = {"phase": 1_514_452, "zi": 1_388_888}


class TestQuarterColumns:
    """p = 2 U^4 columns of independent shifts on a complement of span(a, b)."""

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("kind", list(QUARTER_INPUTS))
    def test_matches_full_size_loop(self, kind, n):
        f = QUARTER_INPUTS[kind](n)
        new, ref = an.gowers_norm(f, 4), ref_column_power(f, 4)
        assert (new.power_num, new.power_den) == (ref.power_num, ref.power_den)

    def test_den_1e5_runs_on_object_dtype(self):
        K = an._modulus_bound_sq(ring(2, 2), _zi_function(10**5, 6, 6).coeffs) ** 4
        assert an._kernel_dtypes(2, 6, 2, K, 1, 2, quarter=True) == (object,) * 5

    def test_zi_den4_on_f2_8_sums_on_int64(self):
        # |a + b i|^2 <= 16, so K = 16^4; one full column's sum of |tau|^4 can
        # reach 2^64, a quarter column's stacked halves 2^60
        K, step = 16**4, an._CHUNK_ENTRIES // (2 * 2**8 * 2)
        assert an._kernel_dtypes(2, 8, 2, K, step, 2)[3] is object
        assert an._kernel_dtypes(2, 8, 2, K, step, 2, quarter=True)[3] is np.int64

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, 2**n - 1), st.integers(1, 2**n - 1))
        ).filter(lambda t: t[1] != t[2]),
        st.integers(0, 4),
        st.integers(0, 2**32),
    )
    def test_pivot_pairs(self, nab, m, seed):
        n, a, b = nab
        rows = ref_complement_rows(n, np.array([a]), np.array([b]))
        # span(a, b) + C is all of F_2^n
        assert sorted(np.concatenate([(rows ^ u).ravel() for u in (0, a, b, a ^ b)])) == list(range(2**n))
        f = an.random_unimodular_exact(random.Random(seed), 2, n, m)
        R, shifts = f.ring, (np.array([a]), np.array([b]))
        columns = an._derivative_columns(R, 2, n, f.coeffs, 4, np.int64)  # the ring-value branch
        # copies: the next call reuses the column source's buffers
        full = an._transform_inplace(R, 2, np.array(columns(shifts)), -1)
        keys = an._pivot_keys(n, *shifts)
        W = an._transform_inplace(R, 2, np.array(columns(shifts, keys)), -1)  # half coordinates
        one = ((1, 0, 1),)  # one column of weight 1
        quarter = [16 * c for c in an._mag4_sums(R, W, one, (object,) * 3, half=True)]
        assert quarter == list(an._mag4_sums(R, full, one, (object,) * 3))
        # the first-derivative table's rows (N = 1..16) against the four gathers of the exponents
        exponent_rows = an._derivative_columns(R, 2, n, f.exps, 4, np.int64)(shifts, keys)
        assert np.array_equal(exponent_rows, ref_quarter_exponents(R, n, f.exps, *shifts))
        assert np.array_equal(exponent_rows, columns(shifts, keys))

    @pytest.mark.parametrize("kind", ["phase", "zi"])
    def test_u4_peak_memory(self, kind):
        f = an.random_unimodular_exact(random.Random(7), 2, 7, 3) if kind == "phase" else _zi_function(4, 7, 7)
        an.gowers_norm(f, 4)  # fills the shift-table cache
        tracemalloc.start()
        try:
            an.gowers_norm(f, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= FULL_SIZE_PEAK_BYTES[kind]

    @pytest.mark.parametrize("kind", ["phase", "zi"])
    def test_chunks_reuse_the_scratch(self, monkeypatch, kind):
        # no chunk allocates a scratch array: every name of a call's scratch
        # is allocated at most once per column set, however many chunks run
        f = an.random_unimodular_exact(random.Random(7), 2, 7, 3) if kind == "phase" else _zi_function(4, 7, 7)
        requests, arrays, scratch = [], {}, an._scratch

        def spy():
            buffer = scratch()

            def counted(name, shape, dtype):
                out = buffer(name, shape, dtype)
                requests.append(name)
                base = out
                while base.base is not None:
                    base = base.base
                arrays.setdefault(name, []).append(base)  # kept alive, so ids stay distinct
                return out

            return counted

        monkeypatch.setattr(an, "_scratch", spy)
        an.gowers_norm(f, 4)
        assert len(requests) > 100
        assert max(len({id(base) for base in bases}) for bases in arrays.values()) <= 2


def _stripped(f):
    """f without ``exps``: the same values through the ring-value columns."""
    return an.BoundedFunction(f.p, f.n, f.ring, f.coeffs, f.den, exps=None)


class TestHalfCoordinates:
    """p = 2 U^4 quarter columns on the half coordinates of W +- conj W, against
    every column on the whole space and the definition-chasing oracle."""

    @staticmethod
    def assert_exact(f):
        new, ref = an.gowers_norm(f, 4), ref_column_power(f, 4)
        assert (new.power_num, new.power_den) == (ref.power_num, ref.power_den)
        if f.n <= 3:
            assert new.power_surd() == an.direct_gowers_power(f, 4).power_surd()

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("m", range(5))  # N = 1, 2, 4, 8 and 16, the Gram fold
    @pytest.mark.parametrize("source", ["exponents", "values"])
    def test_phases(self, source, m, n):
        f = an.random_unimodular_exact(random.Random(100 * n + m), 2, n, m)
        self.assert_exact(f if source == "exponents" else _stripped(f))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_zi_den4(self, n):
        self.assert_exact(_zi_function(4, n, 50 + n))

    def test_the_paths_are_taken(self, monkeypatch):
        # both branches of the column source read quarter rows, every ring's sums run on half coordinates
        calls, sums = [], an._mag4_sums

        def spy(R, *args):
            if args[-1]:  # half
                calls.append(R.N)
            return sums(R, *args)

        monkeypatch.setattr(an, "_mag4_sums", spy)
        for m in range(5):
            f = an.random_unimodular_exact(random.Random(m), 2, 4, m)
            an.gowers_norm(f, 4)
            an.gowers_norm(_stripped(f), 4)
        assert sorted(set(calls)) == [1, 2, 4, 8, 16]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 4), st.booleans(), st.integers(0, 2**32))
    def test_random_phases(self, n, m, strip, seed):
        f = an.random_unimodular_exact(random.Random(seed), 2, n, m)
        self.assert_exact(_stripped(f) if strip else f)


class TestColumnSource:
    """What a U^3 or U^4 call builds besides its scratch."""

    def test_orbits_are_built_once(self, monkeypatch):
        # the shift orbits and the quarter/full split are cached and read-only
        f = an.random_unimodular_exact(random.Random(7), 2, 6, 3)
        calls, orbits = [], an._derivative_orbits

        def spy(*args):
            calls.append(args)
            return orbits(*args)

        an._column_sets.cache_clear()
        monkeypatch.setattr(an, "_derivative_orbits", spy)
        first = an.gowers_norm(f, 4)
        assert an.gowers_norm(f, 4) == first
        assert calls == [(2, 6, 4)]
        for shifts, runs, keys in an._column_sets(2, 6, 4, 8):
            arrays = shifts + (() if keys is None else (keys,))
            assert all(type(w) is int for w, _, _ in runs) and not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("p, n, peak_bytes", [(3, 5, 900_000), (5, 3, 2_150_000)])
    def test_odd_p_u4_peak_memory(self, p, n, peak_bytes):
        # the radix-3 and radix-p temporaries live in the call's scratch, in
        # bytes the index sums have left; a warm U^4 peaked at 1,102,102 bytes
        # on F_3^5 and 2,388,918 on F_5^3 under tracemalloc (numpy 2.4) when
        # every butterfly stage allocated its own arrays
        f = an.random_unimodular_exact(random.Random(0), p, n, 1)
        an.gowers_norm(f, 4)  # fills the shift-table cache
        tracemalloc.start()
        try:
            an.gowers_norm(f, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < peak_bytes

    def test_u3_of_values_builds_no_square_table(self):
        # each U^3 column of ring values is one gather and one product: no
        # first-derivative table of p^(2n) entries per plane is built
        n, R = 9, ring(2, 2)
        f = an.BoundedFunction(2, n, R, np.random.default_rng(9).integers(-2, 3, (2, 2**n)), 4)
        first = an.gowers_norm(f, 3)  # fills the shift-table cache
        tracemalloc.start()
        try:
            assert an.gowers_norm(f, 3) == first
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R.degree * 4**n * 8 // 2


# exact U^2..U^4 powers of seeded phases at sizes past the n <= 3 reach of
# the definition-chasing oracle, as the int64 column sums gave them before
# the float64 tier: (p, n, m, seed) of random_unimodular_exact -> {d: (power_num, power_den)}
PINNED_POWERS = {
    (2, 8, 3, 1): {
        2: ((34734592, 513024, 0, -513024), 4294967296),
        3: ((17034750976, -140107776, 0, 140107776), 1099511627776),
        4: ((8683045113856, 8656650240, 0, -8656650240), 281474976710656),
    },
    (2, 8, 3, 2): {
        2: ((34469888, 2048, 0, -2048), 4294967296),
        3: ((17129275392, -24281088, 0, 24281088), 1099511627776),
        4: ((8668034203648, -15557197824, 0, 15557197824), 281474976710656),
    },
    (3, 5, 1, 1): {
        2: ((28122633, 0), 3486784401),
        3: ((10522210311, 0), 847288609443),
        4: ((3447806923737, 0), 205891132094649),
    },
}


def _zi_top(n, top, den, seed):
    """Z[i] values (a + b i) / den on F_2^n with f(0) = ``top`` and |a + b i|^2
    <= |top|^2 elsewhere, so that the kernel's bound M2 is exactly |top|^2."""
    rng, M2 = random.Random(seed), top[0] ** 2 + top[1] ** 2
    pts = [(a, b) for a in range(-den, den + 1) for b in range(-den, den + 1) if a * a + b * b <= M2]
    cols = [top] + [rng.choice(pts) for _ in range(2**n - 1)]
    return an.BoundedFunction(2, n, ring(2, 2), np.array(cols, dtype=np.int64).T, den)


def _sum_tiers(monkeypatch):
    """A list that records (half, weights of the runs, column sums' dtype) of
    every ``_mag4_sums`` call."""
    calls, sums = [], an._mag4_sums

    def spy(R, tau, runs, dtypes, buffer=None, half=False):
        calls.append((half, tuple(w for w, _, _ in runs), dtypes[1]))
        return sums(R, tau, runs, dtypes, buffer, half)

    monkeypatch.setattr(an, "_mag4_sums", spy)
    return calls


class TestFloatColumnSums:
    """Column sums as exact float64 BLAS dots where a chunk's bound fits 2^53."""

    @pytest.mark.parametrize(
        "n, d, top, den, weight, float_tier",
        [
            # U^4 on F_2^2, M2 = 16: K = 2^16, and the whole-space columns of
            # weight 2 fill a chunk of 4096, so 4096 * 2 * 2^8 * K^2 = 2^53
            (2, 4, (4, 0), 4, 2, True),
            (2, 4, (4, 1), 5, 2, False),  # M2 = 17
            # U^2 on F_2^3, M2 = K = 2^15: 2048 * 1 * 2^12 * K^2 = 2^53
            (3, 2, (128, 128), 182, 1, True),
            (3, 2, (181, 3), 182, 1, False),  # M2 = 2^15 + 2
        ],
    )
    def test_at_the_bound(self, monkeypatch, n, d, top, den, weight, float_tier):
        f = _zi_top(n, top, den, n + d)
        K = an._modulus_bound_sq(f.ring, f.coeffs) ** (1 << (d - 2))
        assert K == (top[0] ** 2 + top[1] ** 2) ** (1 << (d - 2))
        assert an._kernel_dtypes(2, n, 2, K, 1, 1)[0] is np.int16
        step = an._CHUNK_ENTRIES // (2**n * an._chunk_divisor(2, 2, np.int16))
        bound = step * weight * 2 ** (4 * n) * K * K
        assert (bound == 2**53) == float_tier and (bound > 2**53) != float_tier
        assert an._kernel_dtypes(2, n, 2, K, step, weight)[3:] == ((np.float64 if float_tier else np.int64), np.int64)
        calls = _sum_tiers(monkeypatch)
        got, want = an.gowers_norm(f, d), an.direct_gowers_power(f, d)
        assert _same_value(got.power_num, got.power_den, want.power_num, want.power_den)
        assert any(not half and weight in weights and tier is (np.float64 if float_tier else np.int64)
                   for half, weights, tier in calls)

    def test_which_sums_take_the_float_tier(self, monkeypatch):
        calls = _sum_tiers(monkeypatch)
        # an eighth-root phase on F_2^7 (a quarter chunk's bound 2^38), a
        # cube-root phase on F_3^4 and a phase loaded from text on F_2^6
        for f in (an.random_unimodular_exact(random.Random(7), 2, 7, 3),
                  an.random_unimodular_exact(random.Random(7), 3, 4, 1), _loaded_phase(6, 6)):
            calls.clear()
            an.gowers_norm(f, 4)
            assert any(half for half, _, _ in calls) == (f.p == 2)
            assert {tier for _, _, tier in calls} == {np.float64}
        # Z[i] values over den 4 on F_2^7: a quarter chunk's bound reaches 2^66
        calls.clear()
        an.gowers_norm(_zi_function(4, 7, 7), 4)
        assert {tier for half, _, tier in calls if half} == {np.int64}

    @pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
    @pytest.mark.parametrize("d", [3, 4])
    def test_weight_runs_hold_the_orbits(self, p, n, d):
        hs, weights = an._derivative_orbits(p, n, d)
        want = sorted(zip(*(h.tolist() for h in hs), weights.tolist()))
        for N in (8, 3) if p == 2 else (p,):  # at p = 2 Z[omega] keeps every U^4 column whole
            sets = an._column_sets(p, n, d, N)
            got = sorted(s + (w,) for shifts, runs, _ in sets for w, a, b in runs
                         for s in zip(*(h[a:b].tolist() for h in shifts)))
            assert got == want
            for shifts, runs, keys in sets:
                # runs of distinct integer weights, in order, cover the set
                assert [a for _, a, _ in runs] == [0] + [b for _, _, b in runs[:-1]] and runs[-1][2] == len(shifts[0])
                weights = [w for w, _, _ in runs]
                assert all(type(w) is int and a < b for w, a, b in runs) and sorted(set(weights)) == weights
                assert (keys is not None) == (p == 2 and d == 4 and N == 8 and bool((shifts[0] != 0).all()))
                if keys is not None:
                    assert [w for w, _, _ in runs] == [2] and np.array_equal(keys, an._pivot_keys(n, *shifts))
            assert {w for _, runs, _ in sets for w, _, _ in runs} <= ({1, 2} if p == 2 or d == 3 else {1, 4, 8})

    @pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
    @pytest.mark.parametrize("d", [3, 4])
    def test_phases_drop_the_constant_columns(self, p, n, d):
        # a phase's columns of first shift 0 are the constant 1: the last set stands for
        # them by their total weight alone, that of the h1 = 0 orbits (every shift tuple
        # with a zero: 1 at d = 3, 2 p^n - 1 at d = 4), and the others hold the rest
        hs, weights = an._derivative_orbits(p, n, d)
        zero = hs[0] == 0
        want = sorted(zip(*(h[~zero].tolist() for h in hs), weights[~zero].tolist()))
        for N in (8, 3) if p == 2 else (p,):
            *sets, (none, runs, keys) = an._column_sets(p, n, d, N, True)
            assert none is None and keys is None
            assert runs == ((int(weights[zero].sum()), 0, 1),) and runs[0][0] == (1 if d == 3 else 2 * p**n - 1)
            got = sorted(s + (w,) for shifts, runs, _ in sets for w, a, b in runs
                         for s in zip(*(h[a:b].tolist() for h in shifts)))
            assert got == want
        # on F_2^7 a phase's U^4 keeps the 127 columns a = b != 0 of the 255 on the whole space
        whole = [shifts for shifts, _, keys in an._column_sets(2, 7, 4, 8, True) if shifts and keys is None]
        assert [len(shifts[0]) for shifts in whole] == [127]

    @pytest.mark.parametrize("key", sorted(PINNED_POWERS))
    def test_pinned_values_past_the_oracle(self, monkeypatch, key):
        p, n, m, seed = key
        f = an.random_unimodular_exact(random.Random(seed), p, n, m)
        calls = _sum_tiers(monkeypatch)
        for d, pinned in PINNED_POWERS[key].items():
            value = an.gowers_norm(f, d)
            assert (value.power_num, value.power_den) == pinned, d
        assert {tier for _, _, tier in calls} == {np.float64}


# the former hand-written |tau|^2 forms, terms (i, j, sign) per coordinate on (1, sqrt2)
FORMER_MAG2_FORMS = {
    1: ([(0, 0, 1)],),
    2: ([(0, 0, 1)],),
    3: ([(0, 0, 1), (0, 1, -1), (1, 1, 1)],),
    4: ([(0, 0, 1), (1, 1, 1)],),
    8: ([(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)], [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)]),
}


class TestFourthPowerSum:
    """One table-driven sum of |tau|^4 and of z^4 on the half coordinates."""

    @pytest.mark.parametrize("N", sorted(FORMER_MAG2_FORMS))
    def test_generated_terms_match_the_former_forms(self, N):
        forms = [set() for _ in FORMER_MAG2_FORMS[N]]
        for i, j, coords in an._mag2_terms(N):
            for m, c in coords:
                forms[m].add((i, j, c))
        assert forms == [set(form) for form in FORMER_MAG2_FORMS[N]]

    @pytest.mark.parametrize("p, n, m, ds", [(5, 1, 1, (2, 3, 4)), (3, 2, 2, (2, 3))])
    def test_gram_fold(self, p, n, m, ds):
        # Z[zeta_5] and Z[zeta_9] have no generated forms: their sums fold the
        # Gram matrix of the |tau|^2 planes
        f = an.random_unimodular_exact(random.Random(p * n * m), p, n, m)
        assert an._mag2_terms(f.ring.N) is None
        for g in (f, _stripped(f)):
            for d in ds:
                assert an.gowers_norm(g, d).power_surd() == an.direct_gowers_power(g, d).power_surd()


    def test_gram_fold_keeps_its_arrays_in_the_scratch(self, monkeypatch):
        """The Gram-fold branch forms conj(tau) by one matmul and |tau|^2 in
        the call's scratch: one warm U^4 of a fifth-root phase on F_5^3 peaks
        at 2.67 MB under tracemalloc (numpy 2.4), against 3.87 MB when each
        chunk made a widened copy of tau, its conjugate and |tau|^2 anew."""
        f = an.random_unimodular_exact(random.Random(0), 5, 3, 1)
        an.gowers_norm(f, 4)  # fills the shift-table cache
        tracemalloc.start()
        try:
            value = an.gowers_norm(f, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000
        # the value the copies gave, and the kernel's on Python integers
        assert (value.power_num, value.power_den) == ((120432585625, 0, -16860000, -16860000), 3814697265625)
        assert value.power_surd() == _all_object_power(monkeypatch, f, 4).power_surd()
        g = an.random_unimodular_exact(random.Random(1), 5, 2, 1)
        for d in (2, 3):
            assert an.gowers_norm(g, d).power_surd() == an.direct_gowers_power(g, d).power_surd()


class TestFirstMax:
    """One exact argmax: the first candidate of largest |.|^2 over a shared denominator."""

    @staticmethod
    def by_mag2(R, sums):
        """Reference: the first maximum of the per-candidate CorrValue.mag2()."""
        keys = [an.CorrValue.from_sum(R, sums[:, j], 1).mag2() for j in range(sums.shape[1])]
        return next(j for j, k in enumerate(keys) if all(k >= other for other in keys))

    def test_ties_keep_the_lowest_index(self):
        sums = np.array([[0, 1, 0, -1, 1], [0, 0, 1, 0, 0]])  # 0, 1, i, -1, 1 in Z[i]
        assert an.first_max(ring(2, 2), sums) == 1
        assert an.first_max(ring(3, 1), np.zeros((2, 3), dtype=np.int64)) == 0

    def test_squares_float64_cannot_separate(self):
        M = 2**60
        assert float(M) ** 2 == float(M + 1) ** 2
        for dt in (np.int64, object):
            assert an.first_max(ring(2, 1), np.array([[M, M + 1, -M]], dtype=dt)) == 1
            assert an.first_max(ring(2, 2), np.array([[M, 0, M], [0, M + 1, 0]], dtype=dt)) == 1

    def test_eighth_roots_order_by_the_sqrt2_part(self):
        # |2 + zeta^3|^2 = 5 - 2 sqrt2 < |1 + zeta|^2 = 2 + sqrt2, though 5 > 2
        sums = np.array([[2, 0, 0, 1], [1, 1, 0, 0]]).T
        assert an.first_max(ring(2, 3), sums) == 1
        assert an.first_max(ring(2, 3), sums[:, ::-1]) == 0
        rng = np.random.default_rng(8)
        for _ in range(20):
            sums = rng.integers(-3, 4, (4, 12)) * 10**9
            assert an.first_max(ring(2, 3), sums) == self.by_mag2(ring(2, 3), sums)

    def test_den_1e9_sums_match_object_copies(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sums = rng.integers(-8 * 10**9, 8 * 10**9, (2, 16))  # squares pass int64
            got = an.first_max(ring(2, 2), sums)
            assert got == an.first_max(ring(2, 2), sums.astype(object)) == self.by_mag2(ring(2, 2), sums)

    @pytest.mark.parametrize("p, m", [(2, 0), (2, 2), (3, 1), (2, 3)])
    def test_matches_the_former_first_max(self, p, m):
        R = ring(p, m)
        rng = np.random.default_rng(10 * p + m)
        for scale in (1, 10**9):
            for _ in range(20):
                sums = rng.integers(-2, 3, (R.degree, 24)) * scale  # small values: many ties
                assert an.first_max(R, sums) == ref_first_max(R, sums)
                sums = rng.integers(-8 * scale, 8 * scale + 1, (R.degree, 24))
                assert an.first_max(R, sums) == ref_first_max(R, sums)

    def test_every_ring_orders(self):
        R9, R16 = ring(3, 2), ring(2, 4)
        rational = np.zeros((R9.degree, 2), dtype=np.int64)
        rational[0] = [1, 2]
        assert an.first_max(R9, rational) == 1
        # |1 + zeta_9|^2 = 2 + 2 cos(2 pi / 9) = 3.53 lies between |1 - zeta_9^3|^2 = 3 and |2|^2 = 4
        one_plus = R9.one() + R9.root(1)
        three, four = R9.one() - R9.root(3), 2 * R9.one()
        assert an.first_max(R9, np.stack([three, one_plus], axis=1)) == 1
        assert an.first_max(R9, np.stack([one_plus, four], axis=1)) == 1
        assert an.first_max(R9, np.stack([one_plus, three, -one_plus], axis=1)) == 0
        # Z[zeta_16]: |1 + zeta^7|^2 = 0.15 < |zeta^3|^2 = 1 < |1 + zeta|^2 = 3.85
        sums = np.stack([R16.one() + R16.root(7), R16.root(3), R16.one() + R16.root(1), R16.root(5)], axis=1)
        assert an.first_max(R16, sums) == 2
        assert an.first_max(R16, sums[:, :2]) == 1

    def test_no_candidates(self):
        with pytest.raises(PreconditionError):
            an.first_max(ring(2, 2), np.zeros((2, 0), dtype=np.int64))


EVERY_RING = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]  # N = 1, 2, 4, 8, 16, 3, 9, 5


class TestFirstMaxInt64:
    """The int64 squares of ``first_max`` against its Python-integer squares."""

    @staticmethod
    def spied(monkeypatch):
        """first_max that also reports the dtype of the squares it ordered."""
        seen = []

        def keys(R, elts):
            seen.append(np.asarray(elts).dtype)
            return real_keys(R, elts)

        monkeypatch.setattr(an, "real_keys", keys)

        def run(R, sums):
            seen.clear()
            return an.first_max(R, sums), seen[0]

        return run

    @pytest.mark.parametrize("p, m", EVERY_RING)
    def test_random_sums(self, monkeypatch, p, m):
        run, R = self.spied(monkeypatch), ring(p, m)
        rng = np.random.default_rng(100 * p + m)
        for scale in (1, 10**6):
            for _ in range(10):
                sums = rng.integers(-3 * scale, 3 * scale + 1, (R.degree, 20))
                got, dt = run(R, sums)
                assert dt == np.int64
                assert got == run(R, sums.astype(object))[0]

    @pytest.mark.parametrize("p, m", EVERY_RING)
    def test_ties_keep_the_first(self, monkeypatch, p, m):
        run, R = self.spied(monkeypatch), ring(p, m)
        rng = np.random.default_rng(7 * p + m)
        sums = rng.integers(-1, 2, (R.degree, 9))  # |.| <= degree < 100
        x = 100 * R.one()
        sums[:, 2], sums[:, 5], sums[:, 7] = x, R.mul_arrays(x, R.root(1)), -x  # equal |.|^2
        assert run(R, sums) == (2, np.int64)
        assert run(R, sums[:, 3:]) == (2, np.int64)  # zeta x at 5 - 3 first
        assert run(R, sums.astype(object))[0] == 2

    @pytest.mark.parametrize("p, m", EVERY_RING)
    def test_sums_at_the_int64_bound(self, monkeypatch, p, m):
        run, R = self.spied(monkeypatch), ring(p, m)
        rng = np.random.default_rng(11 * p + m)
        for _ in range(5):
            A = rng.integers(-2, 3, (R.degree, 12)).astype(object)
            A[0, 0] = 2  # not all zero
            a, c = int(np.abs(A).max()), int(np.abs(R.conj_arrays(A)).max())
            t = math.isqrt(an._INT64_MAX // (R.degree**2 * a * c))
            for scale, dt in ((t, np.int64), (t + 1, object)):
                sums = (A * scale).astype(np.int64)
                got, seen = run(R, sums)
                assert seen == dt
                assert got == run(R, sums.astype(object))[0]
        huge = np.zeros((R.degree, 3), dtype=np.int64)
        huge[0] = [2**62, -(2**63), 2**63 - 1]  # past the bound in every ring
        assert run(R, huge) == (1, object)


class TestCorrelation:
    def test_self_phase(self):
        P = random_poly(2, 2, 2, True, seed=7)
        assert an.correlation(phase(P), P).mag2_is_one()

    def test_character_orthogonality(self):
        chi = NcPoly.from_classical(3, 2, {(1, 0): 1})
        other = NcPoly.from_classical(3, 2, {(0, 1): 1})
        c = an.correlation(phase(chi), other)
        assert c.mag2() == RealSurd(Fraction(0))

    def test_eighth_root_average(self):
        P0 = NcPoly.make(2, 1, TorusValue.zero(2), [Monomial((1,), 1, 1)])  # |x|/4
        c = an.correlation(phase(P0), NcPoly.zero(2, 1))
        assert c.mag2() == RealSurd(Fraction(1, 2))

    @pytest.mark.parametrize("p, m", EVERY_RING)
    def test_mag2_is_kept_and_equals_a_fresh_square(self, p, m):
        R = ring(p, m)
        rng = np.random.default_rng(p * 10 + m)
        for den in (1, 3, 2**40):
            num = rng.integers(-(2**40), 2**40, R.degree)
            c = an.CorrValue.from_sum(R, num, den)
            fresh = RealSurd.from_ring_element(R, R.mag_squared(num.astype(object)), den**2)
            first = c.mag2()
            assert first == fresh and c.mag2() == fresh
            assert c.mag2() is first

    @pytest.mark.parametrize(
        "kind, p, n",
        [("phase", 2, 3), ("phase", 3, 2), ("phase", 5, 1), ("stripped", 2, 3), ("zi", 2, 2), ("ninth", 3, 2)],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_product_with_the_conjugate_phase(self, kind, p, n, seed):
        """One ``phased_sum`` against -P's table equals the average of f times
        conj e(P): the same ring, numerator and denominator."""
        rng = random.Random(f"corr {kind} {p} {n} {seed}")
        if kind == "zi":
            f = _zi_function(1000, n, seed)
        elif kind == "ninth":
            f = an.random_unimodular_exact(rng, p, n, 2)
        else:
            f = an.random_unimodular_exact(rng, p, n, 3 if p == 2 else 1)
            if kind == "stripped":
                f = an.BoundedFunction(p, n, f.ring, f.coeffs, f.den)
        P = random_poly(p, n, 3, p == 2, seed=seed)
        got = an.correlation(f, P)
        want = an.average(f.mul(phase(P, conj=True)))
        assert got.ring.N == want.ring.N and got.den == want.den
        assert np.array_equal(got.num, want.num)

    def test_global_constant_invariance(self):
        rng = random.Random(8)
        f = an.random_mu_p_function(rng, 2, 2)
        P = random_poly(2, 2, 2, True, seed=11)
        base = an.correlation(f, P).mag2()
        for t in range(1, 4):
            g = scale_phase(f, t, 2)
            assert an.correlation(g, P).mag2() == base


class TestU2Inverse:
    def test_character_recovery(self):
        rng = random.Random(9)
        for trial in range(10):
            p, n = rng.choice([(2, 3), (3, 2)])
            chi = tuple(rng.randrange(p) for _ in range(n))
            P = NcPoly.from_classical(
                p, n, {tuple(1 if i == j else 0 for i in range(n)): chi[j] for j in range(n)}
            )
            got, corr = an.u2_inverse(phase(P))
            assert got == chi and corr.mag2_is_one()

    def test_ones(self):
        got, corr = an.u2_inverse(an.BoundedFunction.ones(2, 3))
        assert got == (0, 0, 0) and corr.mag2_is_one()

    @pytest.mark.parametrize("p, m", [(5, 1), (3, 2), (2, 4)])
    def test_values_in_rings_beyond_sqrt2(self, p, m):
        # exact argmax and Plancherel check in Z[zeta_5], Z[zeta_9] and Z[zeta_16], against floats
        R, n = ring(p, m), 2
        rng = np.random.default_rng(p * m)
        f = an.BoundedFunction(p, n, R, rng.integers(-1, 2, (R.degree, p**n)), R.degree)
        got, corr = an.u2_inverse(f)
        V = np.array(all_vectors(p, n))
        tau = np.exp(-2j * np.pi * (V @ V.T) / p) @ f.to_complex_table() / p**n
        assert abs(abs(corr.float_value) - np.abs(tau).max()) < 1e-12
        assert abs(tau[all_vectors(p, n).index(got)] - corr.float_value) < 1e-12

    def test_fifth_root_characters(self):
        for chi in [(0, 0), (2, 3), (4, 1)]:
            P = NcPoly.from_classical(5, 2, {(1, 0): chi[0], (0, 1): chi[1]})
            got, corr = an.u2_inverse(phase(P))
            assert got == chi and corr.mag2_is_one()

    def test_argmax_matches_bruteforce(self):
        rng = random.Random(10)
        for _ in range(5):
            f = an.random_mu_p_function(rng, 2, 3)
            got, corr = an.u2_inverse(f)
            best = max(
                (
                    an.correlation(
                        f,
                        NcPoly.from_classical(
                            2, 3, {tuple(1 if i == j else 0 for i in range(3)): chi[j] for j in range(3)}
                        ),
                    ).mag2()
                    for chi in all_vectors(2, 3)
                ),
            )
            assert corr.mag2() == best


def _ref_u3_oracle(fn, classical_only=False):
    """The former oracle: a Python loop over the candidates in
    itertools.product order, each summing f over the level sets of its
    exponent table and rotating each sum by the reference root."""
    p, n = fn.p, fn.n
    tuples, m, tables = an._quadratic_candidates(p, n, classical_only)
    R = common_ring(fn.ring, ring(p, m))
    f = fn.embed(R)
    best = None
    for cand in itertools.product(range(p), repeat=len(tuples)):
        exps = np.zeros(fn.size, dtype=np.int64)
        for c, tab in zip(cand, tables):
            exps += c * tab
        exps = (exps % p**m) * (R.N // p**m)
        num = np.zeros(R.degree, dtype=f.coeffs.dtype)
        for t in np.unique(exps):
            num = num + ref_mul(R, ref_roots(R, -t), f.coeffs[:, exps == t].sum(axis=1))
        val = RealSurd.from_ring_element(R, ref_mul(R, num, ref_conj(R, num)))
        if best is None or val > best[0]:
            best = (val, cand, num)
    _, cand, num = best
    monos = [Monomial(e, j, c) for (e, j), c in zip(tuples, cand) if c]
    return NcPoly.make(p, n, TorusValue.zero(p), monos), num


def _stripped(f):
    """f without its exponent table: the same values on the coefficient path."""
    return an.BoundedFunction(f.p, f.n, f.ring, f.coeffs, f.den)


def _corrupted_quadratic_phase():
    return phase(random_poly(2, 2, 2, True, seed=13)).with_replaced_values({(0, 1): 3})


class TestU3Oracle:
    @pytest.mark.parametrize(
        "fixture, classical_only",
        [
            (lambda: an.BoundedFunction.ones(2, 1), False),
            (lambda: an.BoundedFunction.ones(2, 2), False),
            (lambda: an.BoundedFunction.ones(2, 3), False),
            (lambda: an.BoundedFunction.ones(3, 2), True),
            (lambda: phase(random_poly(3, 2, 2, False, seed=6)), True),
            (_corrupted_quadratic_phase, False),
            (lambda: _zi_function(1000, 2), False),
        ],
    )
    def test_matches_the_per_candidate_loop(self, fixture, classical_only):
        f = fixture()
        Q, corr = an.u3_inverse_bruteforce(f, classical_only=classical_only)
        ref_Q, ref_num = _ref_u3_oracle(f, classical_only)
        assert Q == ref_Q
        assert corr.num.dtype == ref_num.dtype and np.array_equal(corr.num, ref_num)

    @pytest.mark.parametrize(
        "fixture, classical_only",
        [
            (_corrupted_quadratic_phase, False),
            (lambda: _stripped(_corrupted_quadratic_phase()), False),
            (lambda: _zi_function(1000, 2), False),
            (lambda: phase(random_poly(3, 2, 2, False, seed=6)), True),
            (lambda: an.random_unimodular_exact(random.Random(4), 5, 1, 1), False),
        ],
    )
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_candidate_chunks_match_the_per_candidate_loop(self, monkeypatch, fixture, classical_only, chunk):
        """Chunks of ``chunk`` candidates, the last one short, labelled from 0
        within each chunk: phases on their exponents, values on their planes."""
        f = fixture()
        monkeypatch.setattr(an, "_CHUNK_ENTRIES", chunk * f.size + 1)
        Q, corr = an.u3_inverse_bruteforce(f, classical_only=classical_only)
        ref_Q, ref_num = _ref_u3_oracle(f, classical_only)
        assert Q == ref_Q and np.array_equal(corr.num, ref_num)

    def test_sums_take_no_ring_product(self, monkeypatch):
        """On Z[i] values the candidates' sums take no ``mul_arrays``; only
        ``first_max`` squares them."""
        callers = []
        mul = type(ring(2, 2)).mul_arrays

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return mul(*args, **kwargs)

        f = _zi_function(1000, 2)
        ref_Q, ref_num = _ref_u3_oracle(f)
        monkeypatch.setattr(type(f.ring), "mul_arrays", spy)
        Q, corr = an.u3_inverse_bruteforce(f)
        assert Q == ref_Q and np.array_equal(corr.num, ref_num)
        assert set(callers) == {"first_max"}

    def test_recovers_quadratic(self):
        for seed in (3, 4, 5):
            Q0 = random_poly(2, 2, 2, True, seed=seed)
            Q, corr = an.u3_inverse_bruteforce(phase(Q0))
            assert corr.mag2_is_one()

    def test_ones(self):
        # every candidate ties, so the first one, the zero polynomial, wins
        for p, n in [(2, 1), (2, 2), (2, 3), (3, 2)]:
            Q, corr = an.u3_inverse_bruteforce(an.BoundedFunction.ones(p, n))
            assert Q == NcPoly.zero(p, n) and corr.mag2_is_one()

    def test_fifth_root_quadratic_phases(self):
        for seed in (1, 2):
            Q0 = random_poly(5, 2, 2, True, seed=seed)
            Q, corr = an.u3_inverse_bruteforce(phase(Q0))
            assert corr.mag2_is_one() and not (Q - Q0).monomials  # equal up to a constant
        L0 = random_poly(5, 1, 1, True, seed=3)
        Q, corr = an.u3_inverse_bruteforce(phase(L0))
        assert corr.mag2_is_one() and not (Q - L0).monomials

    def test_classical_only_f3(self):
        Q0 = random_poly(3, 2, 2, False, seed=6)
        Q, corr = an.u3_inverse_bruteforce(phase(Q0), classical_only=True)
        assert corr.mag2_is_one() and Q.is_classical()

    def test_argmax_is_global(self):
        # corrupt one point of a quadratic phase and compare with a naive scan
        rng = random.Random(12)
        Q0 = random_poly(2, 2, 2, True, seed=13)
        f = phase(Q0)
        f = f.with_replaced_values({(0, 1): 3})
        Q, corr = an.u3_inverse_bruteforce(f)
        import itertools

        from hofa.ncpoly import basis_tuples

        tuples = basis_tuples(2, 2, 2, True)
        best = None
        for cand in itertools.product(range(2), repeat=len(tuples)):
            monos = [Monomial(e, j, c) for (e, j), c in zip(tuples, cand) if c]
            P = NcPoly.make(2, 2, TorusValue.zero(2), monos)
            v = an.correlation(f, P).mag2()
            if best is None or v > best:
                best = v
        assert corr.mag2() == best


def _gcs(gs, avg):
    """gcs_check against the eight U^3 norms of the g_S: (holds, norms)."""
    norms = {S: an.gowers_norm(g, 3) for S, g in gs.items()}
    return an.gcs_check(avg, norms), norms


class TestOctolinear:
    def test_all_ones(self):
        gs = {S: an.BoundedFunction.ones(2, 2) for S in range(8)}
        avg = an.octolinear_average(gs)
        assert avg.mag2_is_one()
        holds, norms = _gcs(gs, avg)
        assert holds and all(v.power_surd() == RealSurd(1) for v in norms.values())

    def test_common_quadratic_phase(self):
        g = phase(random_poly(2, 2, 2, True, seed=14))
        gs = {S: g for S in range(8)}
        avg = an.octolinear_average(gs)
        assert avg.mag2_is_one()
        assert _gcs(gs, avg)[0]

    def test_gcs_random_phases(self):
        rng = random.Random(15)
        for _ in range(3):
            gs = {S: an.random_mu_p_function(rng, 2, 2) for S in range(8)}
            avg = an.octolinear_average(gs)
            assert _gcs(gs, avg)[0]


    def test_gcs_matches_the_expanded_product(self):
        """The check on unexpanded powers holds exactly when |avg|^16 <= prod_S
        (||g_S||_U3^8)^2 with every power expanded (the former arithmetic)."""
        g, h = phase(NcPoly.from_classical(2, 3, {(1, 1, 1): 1})), an.BoundedFunction.ones(2, 3)
        rng = random.Random(16)
        for gs in (
            {S: (g if S % 3 else h) for S in range(8)},
            {S: an.random_mu_p_function(rng, 2, 2) for S in range(8)},
            {S: an.random_unimodular_exact(rng, 2, 2, 3) for S in range(8)},
        ):
            avg = an.octolinear_average(gs)
            holds, norms = _gcs(gs, avg)
            rhs = RealSurd(1)
            for S in range(8):
                rhs = rhs * expanded_pow(norms[S].power_surd(), 2)
            assert holds == (expanded_pow(avg.mag2(), 8) <= rhs)
            assert all(norms[S].power_surd() is norms[S].power_surd() for S in range(8))  # made once

    def test_gcs_fifth_root_phases(self):
        rng = random.Random(55)
        gs = {S: an.random_unimodular_exact(rng, 5, 1, 1) for S in range(8)}
        avg = an.octolinear_average(gs)
        assert avg.mag2().ring.N == 5  # an irrational |avg|^2 against rational U^3 powers
        assert _gcs(gs, avg)[0]


def _same_value(num_a, den_a, num_b, den_b) -> bool:
    """num_a / den_a == num_b / den_b for ring elements in one power basis."""
    a = np.asarray(num_a, dtype=object) * den_b
    b = np.asarray(num_b, dtype=object) * den_a
    return bool((a == b).all())


def _zi_function_den2(n):
    """A Z[i]-valued function on F_2^n with values (a + b i) / 2, a, b in {-1, 0, 1}."""
    rng = random.Random(21)
    coeffs = np.array([[rng.randrange(-1, 2) for _ in range(2**n)] for _ in range(2)], dtype=np.int64)
    return an.BoundedFunction(2, n, ring(2, 2), coeffs, 2)


class TestCubeAveragesAgainstOracle:
    """The corner-cube averages against the definition-chasing oracles."""

    @staticmethod
    def cases():
        rng = random.Random(20)
        return [
            an.random_unimodular_exact(rng, 2, 2, 3),
            an.random_mu_p_function(rng, 3, 2, zeros=True),
            an.random_unimodular_exact(rng, 2, 3, 2),
            _zi_function_den2(2),
        ]

    def test_octolinear_with_equal_functions_is_u3_power(self):
        for f in self.cases():
            avg = an.octolinear_average({S: f for S in range(8)})
            oracle = an.direct_gowers_power(f, 3)
            assert _same_value(avg.num, avg.den, oracle.power_num, oracle.power_den), (f.p, f.n)

    def test_derivative_cube_summed_is_u3_power(self):
        for f in self.cases():
            R, D, den = derivative_sum_cube(f)
            total = D.reshape(D.shape[0], -1).astype(object).sum(axis=1)
            oracle = an.direct_gowers_power(f, 3)
            assert _same_value(total, den * f.size**4, oracle.power_num, oracle.power_den), (f.p, f.n)

    @pytest.mark.parametrize("p, n, m", [(2, 2, 3), (3, 2, 1)])
    def test_octolinear_distinct_functions_against_float_definition(self, p, n, m):
        rng = random.Random(22 + p)
        gs = {S: an.random_unimodular_exact(rng, p, n, m) for S in range(8)}
        gs[5] = _zi_function_den2(n) if p == 2 else gs[5]
        avg = an.octolinear_average(gs)
        # independent float evaluation: coordinates added mod p, no shift table
        size = p**n
        V = np.array(all_vectors(p, n))
        weights = p ** np.arange(n - 1, -1, -1)
        grids = np.meshgrid(*(np.arange(size),) * 4, indexing="ij")
        total = np.ones(grids[0].shape, dtype=complex)
        for S in range(8):
            pt = V[grids[0]]
            for i in range(3):
                if S >> i & 1:
                    pt = pt + V[grids[i + 1]]
            vals = gs[S].to_complex_table()[(pt % p) @ weights]
            total *= np.conj(vals) if bin(S).count("1") % 2 == 0 else vals
        assert abs(avg.float_value - total.mean()) < 1e-9


class TestBoundedCheck:
    def test_bounded_check(self):
        assert not an.BoundedFunction(2, 1, ring(2, 0), np.array([[2, 0]]), 1).check_bounded()
        # Z[zeta_5]: (D - 832040 + 1346269 (zeta + zeta^4)) / D has modulus 1 + 8e-26, as zeta + zeta^4 = 1/phi
        R, D = ring(5, 1), 4 * 10**18
        c = np.zeros((4, 5), dtype=np.int64)
        c[:, 0] = [D - 832040 - 1346269, 0, -1346269, -1346269]
        assert not an.BoundedFunction(5, 1, R, c, D).check_bounded()
        c[0, 0] -= 1
        assert an.BoundedFunction(5, 1, R, c, D).check_bounded()

    def test_bounded_check_reads_every_column_of_unordered_rings(self):
        # Z[zeta_16] has no closed-form order; every column is signed exactly
        R = ring(2, 4)
        good = np.array([R.root(1), R.root(5)]).T
        assert an.BoundedFunction(2, 1, R, good, 1).check_bounded()
        assert not an.BoundedFunction(2, 1, R, good * np.array([1, 2]), 1).check_bounded()

    def test_bounded_check_one_unit_over_den_squared(self):
        # Z[i] values den + i and den: |den + i|^2 = den^2 + 1
        den = 10**9
        assert an.BoundedFunction(2, 1, ring(2, 2), np.array([[den, den], [0, 0]]), den).check_bounded()
        assert not an.BoundedFunction(2, 1, ring(2, 2), np.array([[den, den], [1, 0]]), den).check_bounded()

    def test_bounded_check_reads_the_sqrt2_part(self):
        # Z[zeta_8]: |2 + 2 zeta|^2 = 8 + 4 sqrt 2 exceeds 9 only through its sqrt 2 part,
        # |1 - zeta|^2 = 2 - sqrt 2 stays below 1 although its rational part does not
        R = ring(2, 3)
        assert not an.BoundedFunction(2, 1, R, np.array([[2, 2, 0, 0], [0, 0, 0, 0]]).T, 3).check_bounded()
        assert an.BoundedFunction(2, 1, R, np.array([[1, -1, 0, 0], [1, 0, 0, 0]]).T, 1).check_bounded()


def test_corner_sums_need_pth_roots():
    """In Z (m = 0) there is no p-th root of unity to carry the phase of a corner sum."""
    tables = {1: np.ones((1, 4), dtype=np.int64), 3: np.ones((1, 4), dtype=np.int64)}
    with pytest.raises(PreconditionError):
        an._corner_sums(ring(2, 0), 2, 2, 2, tables, np.ones(4, dtype=np.int64))
    tables = {S: np.array([[1] * 4, [0] * 4]) for S in tables}
    sums = an._corner_sums(ring(2, 2), 2, 2, 2, tables, np.ones(4, dtype=np.int64))
    assert an.CorrValue.from_sum(ring(2, 2), sums[:, 0], 1).modulus_float() == 16
