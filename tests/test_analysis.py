import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an
from hofa.cyclotomic import RealSurd, ring
from hofa.errors import BudgetExceeded, InternalCheckError, PreconditionError
from hofa.fpspace import all_vectors
from hofa.ncpoly import Monomial, NcPoly, random_poly
from hofa.pipeline import derivative_sum_cube
from hofa.torus import TorusValue


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
            assert an.gowers_norm(f, d).is_one()

    def test_quadratic_phase_u2(self):
        f = phase(NcPoly.from_classical(2, 2, {(1, 1): 1}))
        val = an.gowers_norm(f, 2)
        assert val.power_surd() == RealSurd(Fraction(1, 4))

    def test_nonclassical_cubic_u4(self):
        P0 = NcPoly.make(2, 3, TorusValue.zero(2), [Monomial((1, 0, 0), 2, 1)])
        f = phase(P0)
        assert an.gowers_norm(f, 4).is_one()
        assert not an.gowers_norm(f, 3).is_one()

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
                assert an.gowers_norm(f, d).is_one() == (P.degree() <= d - 1)

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
        def generic(*args):
            raise AssertionError("left the p = 2 phase path")

        f = an.random_unimodular_exact(random.Random(5), 2, 5, 3)
        expected = [an.gowers_norm(f, d) for d in (2, 3, 4)]
        monkeypatch.setattr(an, "_u2_power_batch", generic)
        assert [an.gowers_norm(f, d) for d in (2, 3, 4)] == expected
        stripped = an.BoundedFunction(2, 5, f.ring, f.coeffs, 1, exps=None)
        with pytest.raises(AssertionError):
            an.gowers_norm(stripped, 2)

    def test_sixteenth_roots_take_the_ring_path(self):
        # the fast path sums |tau|^4 in Z[zeta_8] at most; Z[zeta_16] phases
        # must still come out exact
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
        assert an._wht_dtype(n) is dtype
        assert np.iinfo(dtype).max >= 2**n
        cols = an._p2_chunk_columns(n, weight)
        assert cols == columns
        assert weight * cols * 16**n < 2**63

    @pytest.mark.parametrize("n", [14, 15])
    def test_character_u2_at_the_dtype_boundary(self, n):
        # (-1)^{x_1} as an eighth-root phase: one transform entry reaches 2^n
        exps = np.repeat([0, 4], 2 ** (n - 1))
        assert an.gowers_norm(an.BoundedFunction.from_exponents(2, n, 3, exps), 2).is_one()

    def test_chunk_bound_refuses_what_int64_cannot_hold(self):
        assert an._wht_dtype(16) is np.int32
        with pytest.raises(BudgetExceeded):
            an._p2_chunk_columns(16, 1)


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

    def test_global_constant_invariance(self):
        rng = random.Random(8)
        f = an.random_mu_p_function(rng, 2, 2)
        P = random_poly(2, 2, 2, True, seed=11)
        base = an.correlation(f, P).mag2()
        for t in range(1, 4):
            g = f.scale_phase(t, 2)
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


class TestU3Oracle:
    def test_recovers_quadratic(self):
        for seed in (3, 4, 5):
            Q0 = random_poly(2, 2, 2, True, seed=seed)
            Q, corr = an.u3_inverse_bruteforce(phase(Q0))
            assert corr.mag2_is_one()

    def test_ones(self):
        Q, corr = an.u3_inverse_bruteforce(an.BoundedFunction.ones(2, 2))
        assert Q == NcPoly.zero(2, 2) and corr.mag2_is_one()

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


class TestOctolinear:
    def test_all_ones(self):
        gs = {S: an.BoundedFunction.ones(2, 2) for S in range(8)}
        avg = an.octolinear_average(gs)
        assert avg.mag2_is_one()
        holds, norms = an.gcs_check(gs, avg)
        assert holds and all(v.is_one() for v in norms.values())

    def test_common_quadratic_phase(self):
        g = phase(random_poly(2, 2, 2, True, seed=14))
        gs = {S: g for S in range(8)}
        avg = an.octolinear_average(gs)
        assert avg.mag2_is_one()
        assert an.gcs_check(gs, avg)[0]

    def test_gcs_random_phases(self):
        rng = random.Random(15)
        for _ in range(3):
            gs = {S: an.random_mu_p_function(rng, 2, 2) for S in range(8)}
            avg = an.octolinear_average(gs)
            assert an.gcs_check(gs, avg)[0]


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


class TestFloatMode:
    def test_float_norms_close(self):
        rng = random.Random(16)
        f = an.random_mu_p_function(rng, 2, 2)
        fl = an.BoundedFunction.from_complex_values(2, 2, f.to_complex_table())
        for d in (2, 3):
            exact = an.gowers_norm(f, d).float_power
            approx = an.gowers_norm(fl, d).float_power
            assert abs(exact - approx) < 1e-9

    def test_bounded_check(self):
        with pytest.raises(Exception):
            an.BoundedFunction.from_complex_values(2, 1, np.array([2.0 + 0j, 0j]))

    def test_bounded_check_reads_every_column_of_unordered_rings(self):
        # Z[zeta_16] values have no exact order here, so each column takes the float check
        R = ring(2, 4)
        good = np.array([R.root(1), R.root(5)]).T
        assert an.BoundedFunction(2, 1, R, good, 1).check_bounded()
        assert not an.BoundedFunction(2, 1, R, good * np.array([1, 2]), 1).check_bounded()


def test_phased_sum_needs_pth_roots():
    """In Z (m = 0) there is no p-th root of unity to carry the phase."""
    prod = np.ones((1, 4), dtype=np.int64)
    with pytest.raises(PreconditionError):
        an.phased_sum(ring(2, 0), 2, prod, np.ones(4, dtype=np.int64), 1)
    assert an.phased_sum(ring(2, 1), 2, prod, np.ones(4, dtype=np.int64), 1).modulus_float() == 4
