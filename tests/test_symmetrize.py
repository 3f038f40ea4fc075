import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an
from hofa import fpspace as fs
from hofa import instances as inst
from hofa import mforms as mf
from hofa import rank as rk
from hofa import symmetrize as sym
from hofa.cyclotomic import RealSurd
from hofa.errors import PreconditionError
from hofa.mforms import MultiaffineForm, MultilinearForm, total_derivative
from hofa.ncpoly import random_poly
from oracles import best_coset_loop, concat_certificates, coset_form_reference, negate_certificate


def empty_certs(T):
    return {
        pi: rk.empty_certificate(T - mf.permute(T, pi))
        for pi in mf.S3
        if pi != (0, 1, 2)
    }


class TestGtDefect:
    def test_symmetric_kernel(self):
        rng = random.Random(0)
        A = mf.as_bilinear(mf.random_symmetric_form(rng, 2, 2, 2))
        ones = an.BoundedFunction.ones(2, 2)
        res = sym.gt_defect(A, ones, ones, ones)
        assert res.defect_bias == 1 and res.holds

    def test_identity_example(self):
        A = mf.BilinearForm(2, 2, np.eye(2, dtype=int))
        ones = an.BoundedFunction.ones(2, 2)
        res = sym.gt_defect(A, ones, ones, ones)
        assert res.delta.mag2() == RealSurd(Fraction(1, 16))
        assert res.holds

    def test_f3_asymmetric_example(self):
        A = mf.BilinearForm(3, 2, np.array([[0, 1], [0, 0]]))
        ones = an.BoundedFunction.ones(3, 2)
        res = sym.gt_defect(A, ones, ones, ones)
        assert res.delta.mag2() == RealSurd(Fraction(1, 9))
        assert res.defect_bias == Fraction(1, 9)
        assert res.holds

    def test_500_random_instances(self):
        rng = random.Random(1)
        for i in range(500):
            p, n = rng.choice([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
            A = mf.as_bilinear(mf.random_form(rng, p, n, 2))
            bs = [an.random_mu_p_function(rng, p, n, zeros=(i % 5 == 0)) for _ in range(3)]
            assert sym.gt_defect(A, *bs).holds


class TestPermutationDefects:
    def test_symmetric_form_zero_defects(self):
        rng = random.Random(2)
        P = random_poly(2, 3, 3, True, seed=3)
        T = total_derivative(P, 3)
        w = inst.corner_witness(T, P)
        assert w.delta.mag2_is_one()
        pd = sym.permutation_defects(T, w)
        assert pd.all_hold()
        for pi, bias in pd.biases.items():
            assert bias == 1

    def test_planted_instances_hold(self):
        for i in range(30):
            p, n = [(2, 2), (2, 3), (3, 2)][i % 3]
            I = inst.planted_instance(p, n, seed=(i, "pd-test"), style="general")
            pd = sym.permutation_defects(I.T, I.witness)
            assert pd.all_hold()

    def test_each_delta_power_is_computed_once(self, monkeypatch):
        I = inst.planted_instance(3, 2, seed=(4, "pd-test"), style="general")
        expected = sym.permutation_defects(I.T, I.witness)
        delta = I.witness.delta
        exps = []
        pow_ = RealSurd.__pow__

        def spy(self, k):
            if self is delta.mag2():
                exps.append(k)
            return pow_(self, k)

        monkeypatch.setattr(RealSurd, "__pow__", spy)
        pd = sym.permutation_defects(I.T, I.witness)
        assert sorted(exps) == [8, 16]
        assert pd == expected
        for e in pd.ledger:  # the former per-entry check
            bias = pd.biases[next(pi for pi in pd.biases if f"T_{pi})" in e.claim)]
            power = 16 if "<= 16" in e.claim else 8
            assert e.holds == (RealSurd(bias) ** 2 >= delta.mag2() ** power)

    def test_rejects_zero_witness(self):
        T = MultilinearForm.zero(2, 2, 3)
        zero_fn = an.BoundedFunction(2, 2, an.ring(2, 1), np.zeros((1, 4), dtype=np.int64), 1)
        bs = tuple(zero_fn for _ in range(7))
        w = sym.CorrelationWitness.make(T, bs)
        with pytest.raises(PreconditionError):
            sym.permutation_defects(T, w)


class TestSymmetricSubspace:
    def test_symmetric_input_keeps_all(self):
        rng = random.Random(4)
        T = mf.random_symmetric_form(rng, 2, 3, 3)
        U = sym.symmetric_subspace(T, empty_certs(T))
        assert U.dim == 3

    def test_planted(self):
        for i in range(20):
            p, n = [(2, 3), (3, 2)][i % 2]
            I = inst.planted_instance(p, n, seed=(i, "ss-test"), style="general")
            U = sym.symmetric_subspace(I.T, I.certs)
            assert U.codim <= 5 * I.r
            assert mf.is_symmetric(mf.restrict(I.T, U))

    def test_rejects_bad_certificate(self):
        rng = random.Random(5)
        I = inst.planted_instance(2, 2, seed=77, style="general")
        wrong = {pi: rk.empty_certificate(I.T - mf.permute(I.T, pi)) for pi in I.certs}
        # empty certificates only verify if the defects vanish
        if any(not (I.T - mf.permute(I.T, pi)).is_zero() for pi in I.certs):
            with pytest.raises(PreconditionError):
                sym.symmetric_subspace(I.T, wrong)


class TestCsmSubspaceF3:
    def test_zero_diagonal_keeps_space(self):
        rng = random.Random(6)
        P = random_poly(3, 2, 3, depth_allowed=False, seed=8)
        T = total_derivative(P, 3)  # CSM: diagonal already vanishes
        U = sym.csm_subspace_f3(T)
        assert U.dim == 2

    def test_single_cube_direction(self):
        T = MultilinearForm.from_entries(3, 2, 3, {(0, 0, 0): 1})
        U = sym.csm_subspace_f3(T)
        assert U.codim == 1
        assert U.vanishing_forms == ((1, 0),)
        assert mf.is_csm(mf.restrict(T, U))

    def test_diagonal_linearity_exhaustive(self):
        rng = random.Random(7)
        for n in (1, 2, 3):
            T = mf.random_symmetric_form(rng, 3, n, 3)
            L = sym.diagonal_linear_form(T)
            for x in fs.all_vectors(3, n):
                for y in fs.all_vectors(3, n):
                    s = fs.vec_add(3, x, y)
                    assert (
                        T.eval(s, s, s) - T.eval(x, x, x) - T.eval(y, y, y)
                    ) % 3 == 0

    def test_diagonal_matches_evaluation(self):
        rng = random.Random(17)
        for n in (1, 2, 3, 4):
            T = mf.random_symmetric_form(rng, 3, n, 3)
            L = sym.diagonal_linear_form(T)
            units = [fs.unit_vec(n, i) for i in range(n)]
            assert L == tuple(T.eval(e, e, e) for e in units)
            assert all(T.eval(x, x, x) == fs.dot(3, L, x) for x in fs.all_vectors(3, n))

    def test_random_codim_le_1(self):
        rng = random.Random(8)
        for _ in range(50):
            T = mf.random_symmetric_form(rng, 3, rng.choice([1, 2, 3]), 3)
            U = sym.csm_subspace_f3(T)
            assert U.codim <= 1
            assert mf.is_csm(mf.restrict(T, U))


class TestNcsmSubspaceF2:
    def test_defect_free(self):
        rng = random.Random(9)
        P = random_poly(2, 3, 3, True, seed=10)
        T = total_derivative(P, 3)  # nCSM already
        w = inst.corner_witness(T, P)
        U, B, led = sym.ncsm_subspace_f2(T, w)
        assert B.is_zero() and U.dim == 3

    def test_explicit_kernel(self):
        ent = {}
        for idx in set(itertools.permutations((0, 0, 1))):
            ent[idx] = 1
        T = MultilinearForm.from_entries(2, 2, 3, ent)
        w = sym.CorrelationWitness.all_ones(T, 2, 2)
        U, B, led = sym.ncsm_subspace_f2(T, w)
        assert B == MultilinearForm.from_entries(2, 2, 2, {(0, 1): 1, (1, 0): 1})
        assert U.dim == 0

    def test_defect_matrix_matches_evaluation(self):
        rng = random.Random(18)
        for n in (1, 2, 3, 4):
            T = mf.random_symmetric_form(rng, 2, n, 3)
            _, B, _ = sym.ncsm_subspace_f2(T, sym.CorrelationWitness.all_ones(T, 2, n))
            units = [fs.unit_vec(n, i) for i in range(n)]
            assert B.matrix.tolist() == [[(T.eval(a, a, b) - T.eval(a, b, b)) % 2 for b in units] for a in units]
            for x, y in itertools.product(fs.all_vectors(2, n), repeat=2):
                assert B.eval(x, y) == (T.eval(x, x, y) - T.eval(x, y, y)) % 2

    def test_alternating_and_ledger(self):
        rng = random.Random(10)
        done = 0
        i = 0
        while done < 30:
            T, w = inst.random_symmetric_with_ones_witness(2, rng.choice([2, 3]), seed=(i, "alt"))
            i += 1
            if not w.delta_positive():
                continue
            U, B, led = sym.ncsm_subspace_f2(T, w)
            for x in fs.all_vectors(2, T.n):
                assert B.eval(x, x) == 0
            assert all(e.holds for e in led)
            assert mf.is_ncsm(mf.restrict(T, U))
            done += 1


class TestMultiaffineCs:
    def test_trilinear_passthrough(self):
        rng = random.Random(11)
        T = mf.random_form(rng, 2, 2, 3)
        phi = MultiaffineForm.from_multilinear(T)
        bs = tuple(an.BoundedFunction.ones(2, 2) for _ in range(7))
        T2, bprime, dout, led = sym.multiaffine_cs(sym.CorrelationWitness.make(phi, bs))
        assert T2 == T and all(e.holds for e in led)

    def test_strips_affine_parts(self):
        rng = random.Random(12)
        for trial in range(8):
            p, n = rng.choice([(2, 2), (3, 2)])
            comps = {
                (0, 1, 2): mf.random_form(rng, p, n, 3),
                (0, 1): mf.random_form(rng, p, n, 2),
                (2,): mf.random_form(rng, p, n, 1),
                (): rng.randrange(p),
            }
            phi = MultiaffineForm.make(p, n, 3, comps)
            bs = tuple(an.random_mu_p_function(rng, p, n) for _ in range(7))
            T2, bprime, dout, led = sym.multiaffine_cs(sym.CorrelationWitness.make(phi, bs))
            assert T2 == mf.multilinear_part(phi)
            assert all(e.holds for e in led)
            # output functions are shifted copies / conjugates of b7
            for b in bprime:
                assert b.check_bounded()

    def test_output_structure_is_b7_shifts(self):
        rng = random.Random(13)
        p, n = 2, 2
        T = mf.random_form(rng, p, n, 3)
        phi = MultiaffineForm.from_multilinear(T)
        bs = tuple(an.random_mu_p_function(rng, p, n) for _ in range(7))
        _, bprime, _, _ = sym.multiaffine_cs(sym.CorrelationWitness.make(phi, bs))
        b7 = bs[6]
        shifted_tables = {
            s: b7.shift_arg(s).coeffs.tobytes() for s in fs.all_vectors(p, n)
        }
        conj_tables = {
            s: b7.shift_arg(s).conj().coeffs.tobytes() for s in fs.all_vectors(p, n)
        }
        # b2', b3', b7' are shifted copies; b4'..b6' conjugated shifted copies
        for idx in (1, 2, 6):
            assert bprime[idx].coeffs.tobytes() in shifted_tables.values()
        for idx in (3, 4, 5):
            assert bprime[idx].coeffs.tobytes() in conj_tables.values()


class TestSymmetrizeClassical:
    def test_already_csm(self):
        P = random_poly(3, 2, 3, depth_allowed=False, seed=14)
        T = total_derivative(P, 3)
        w = sym.CorrelationWitness.all_ones(T, 3, 2)
        rep = sym.symmetrize_classical(T, w, certs=empty_certs(T))
        assert rep.output_form == T and len(rep.certificate) == 0
        assert rep.all_hold() and rep.verify()

    def test_single_linear_r1(self):
        for i in range(6):
            I = inst.planted_instance(3, 2, seed=(i, "p3-r1"), style="single_linear")
            assert I.r == 1
            rep = sym.symmetrize_classical(I.T, I.witness, certs=I.certs)
            assert mf.is_csm(rep.output_form)
            assert len(rep.certificate) <= 18
            assert rep.all_hold() and rep.verify()

    def test_general_planted(self):
        for i in range(10):
            I = inst.planted_instance(3, 2, seed=(i, "p3-gen"), style="general")
            rep = sym.symmetrize_classical(I.T, I.witness, certs=I.certs)
            assert mf.is_csm(rep.output_form)
            assert len(rep.certificate) <= 15 * I.r + 3
            assert rep.all_hold() and rep.verify()

    def test_p5_path_skips_diagonal_step(self):
        rng = random.Random(15)
        T = mf.random_symmetric_form(rng, 5, 2, 3)
        rep = sym.symmetrize_classical(T, None, certs=empty_certs(T))
        assert rep.output_form == T and mf.is_csm(T)

    def test_p5_planted_witness(self):
        # the witness of a p = 5 instance is built and cross-checked exactly:
        # |delta|^2 = bias(T - base)^2 over Z[zeta_5]
        I = inst.planted_instance(5, 2, 0)
        bias = rk.analytic_rank(I.T - I.base).bias
        assert I.witness is not None and I.witness.delta.mag2() == RealSurd(bias) ** 2 > RealSurd(0)

    def test_p5_green_tao_consistency(self):
        # the subspace-extension output and the direct S_3 average differ by
        # a form with a short verified certificate
        rng = random.Random(16)
        for i in range(5):
            I = inst.planted_instance(5, 2, seed=(i, "p5"), style="general")
            U = sym.symmetric_subspace(I.T, I.certs)
            W = U
            S_path = mf.extend(mf.restrict(I.T, W), W, fs.complement(W))
            cert_path = rk.vanishing_decomposition(I.T - S_path, W)
            S_avg = mf.green_tao_average(I.T)
            # certificate for S_path - S_avg: combine scaled defect certs
            inv6 = pow(6, -1, 5)
            terms = []
            for pi, cert in I.certs.items():
                for t in cert.terms:
                    terms.append(rk.CertTerm(t.slots, t.left.scale(inv6), t.right))
            cert_avg = rk.RankCertificate(I.T - S_avg, tuple(terms))
            assert rk.verify_certificate(cert_avg).ok
            diff_cert = concat_certificates(
                S_path - S_avg,
                negate_certificate(cert_path),
                cert_avg,
            )
            assert rk.verify_certificate(diff_cert).ok
            assert len(diff_cert) <= 15 * I.r + 5 * I.r


class TestSymmetrizeNonclassicalP2:
    def test_already_ncsm(self):
        P = random_poly(2, 3, 3, True, seed=17)
        T = total_derivative(P, 3)
        w = inst.corner_witness(T, P)
        rep = sym.symmetrize_nonclassical_p2(T, w, certs=empty_certs(T))
        assert rep.output_form == T and len(rep.certificate) == 0
        assert rep.all_hold() and rep.verify()

    def test_planted_instances(self):
        for i in range(8):
            n = [2, 3][i % 2]
            I = inst.planted_instance(2, n, seed=(i, "p2-run"), style="general")
            rep = sym.symmetrize_nonclassical_p2(I.T, I.witness, certs=I.certs)
            assert mf.is_ncsm(rep.output_form)
            assert rep.all_hold(), [str(e) for e in rep.ledger if not e.holds]
            assert rep.verify()

    def test_ledger_mentions_all_displayed_bounds(self):
        I = inst.planted_instance(2, 2, seed=(1, "p2-led"), style="general")
        rep = sym.symmetrize_nonclassical_p2(I.T, I.witness, certs=I.certs)
        claims = " | ".join(e.claim for e in rep.ledger)
        for needle in (
            "16 log(1/delta)",
            "8 log(1/delta)",
            "80 log2(1/delta)",
            "144 log2(1/delta)",
            "432 log2(1/delta)",
            "delta^8",
        ):
            assert needle in claims, needle


class TestPlantedWitnessIsAPhase:
    """The planted witness keeps its exponent tables, so symmetrization runs no ring-product corner sums."""

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2)])
    def test_symmetrize_without_corner_product(self, monkeypatch, p, n):
        I = inst.planted_instance(p, n, seed=(1, "phase-witness"), style="general")
        assert all(b.exps is not None for b in I.witness.bs)
        stripped = tuple(an.BoundedFunction(b.p, b.n, b.ring, b.coeffs, b.den) for b in I.witness.bs)
        assert np.array_equal(sym.seven_correlation(stripped, I.T).num, I.witness.delta.num)

        def ring_path(*args, **kwargs):  # pragma: no cover
            raise AssertionError("a phase witness reached the ring-product corner path")

        monkeypatch.setattr(an, "corner_product", ring_path)
        run = sym.symmetrize_nonclassical_p2 if p == 2 else sym.symmetrize_classical
        assert run(I.T, I.witness, certs=I.certs).all_hold()

    @pytest.mark.parametrize("conj_at_zero", [True, False])
    def test_constant_carries_its_exponent(self, conj_at_zero):
        g = an.random_unimodular_exact(random.Random(4), 3, 2, 2)
        c = inst._constant_like(g, conj_at_zero)
        want = an.BoundedFunction.from_exponents(3, 2, 2, [(-1 if conj_at_zero else 1) * g.exps[0]] * 9)
        assert np.array_equal(c.exps, want.exps) and np.array_equal(c.coeffs, want.coeffs)


class TestWitnessMeasurement:
    def test_delta_is_recomputed_from_data(self):
        rng = random.Random(18)
        T = mf.random_form(rng, 2, 2, 3)
        bs = tuple(an.random_mu_p_function(rng, 2, 2) for _ in range(7))
        w = sym.CorrelationWitness.make(T, bs)
        again = sym.seven_correlation(bs, T)
        assert w.delta.mag2() == again.mag2()

    def test_all_ones_delta_is_bias(self):
        rng = random.Random(19)
        T = mf.random_form(rng, 2, 2, 3)
        w = sym.CorrelationWitness.all_ones(T, 2, 2)
        bias = rk.analytic_rank(T).bias
        assert w.delta.mag2() == RealSurd(bias) ** 2


def _same_restricted_witness(T, witness, U):
    """The labelled coset argmax against the per-triple loop of ``oracles``."""
    sw, entry = sym._best_coset_witness(T, witness, U, sym.DEFAULT_BUDGET)
    shifts, val, form, bs = best_coset_loop(T, witness, U)
    assert sw.shifts == shifts
    assert sw.delta.den == val.den and list(sw.delta.num) == list(val.num)
    assert sw.form == form
    assert all(np.array_equal(a.coeffs, b.coeffs) and a.den == b.den for a, b in zip(sw.bs, bs))
    assert entry.holds
    return sw


class TestBestCosetArgmax:
    @pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("codim", [0, 1, 2])
    def test_planted_matches_per_triple_loop(self, p, n, codim):
        I = inst.planted_instance(p, n, seed=(p, n, codim, "coset"))
        U = fs.Subspace.from_basis(p, n, [fs.unit_vec(n, i) for i in range(codim, n)])
        assert U.codim == codim
        rng = random.Random(codim)
        V = fs.random_subspace(rng, p, n, n - codim)  # a basis off the coordinate axes
        for W in (U, V):
            _same_restricted_witness(I.T, I.witness, W)

    def test_random_witness_matches_per_triple_loop(self):
        """Random functions and forms with dim U >= 1 (on U = 0 every triple
        has modulus 1): some winning triples have x0 != z0, so the triple
        order (x-coset major) is checked too."""
        rng = random.Random(5)
        winners = []
        for p, n, codim in [(2, 3, 1), (2, 3, 2), (3, 2, 1)] * 2:
            T = mf.random_form(rng, p, n, 3)
            w = sym.CorrelationWitness.make(T, tuple(an.random_mu_p_function(rng, p, n) for _ in range(7)))
            U = fs.random_subspace(rng, p, n, n - codim)
            winners.append(_same_restricted_witness(T, w, U).shifts)
        assert any(x0 != z0 for x0, _, z0 in winners)

    def test_symmetric_subspace_of_planted_instances(self):
        codims = set()
        for i in range(6):
            I = inst.planted_instance(2, 3, seed=(i, "coset-sym"), num_terms=2)
            U = sym.symmetric_subspace(I.T, I.certs)
            codims.add(U.codim)
            _same_restricted_witness(I.T, I.witness, U)
        assert max(codims) >= 2

    @pytest.mark.parametrize("p", [2, 3])
    def test_all_triples_tie_and_the_zero_triple_wins(self, p):
        T = MultilinearForm.zero(p, 3, 3)
        w = sym.CorrelationWitness.all_ones(T, p, 3)
        U = fs.Subspace.from_basis(p, 3, [(1, 1, 1)])
        sw = _same_restricted_witness(T, w, U)
        assert sw.shifts == ((0, 0, 0),) * 3
        assert sw.delta.mag2() == RealSurd(1)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_coset_form_matches_shift_then_restrict(seed):
    rng = random.Random(seed)
    p, n = rng.choice((2, 3, 5)), rng.randint(1, 3)
    T = mf.random_form(rng, p, n, 3)
    U = fs.random_subspace(rng, p, n)
    shifts = tuple(fs.random_vector(rng, p, n) for _ in range(3))
    assert sym._coset_form(T, U, shifts) == coset_form_reference(T, U, shifts)
