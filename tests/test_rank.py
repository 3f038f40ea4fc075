import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import fpspace as fs
from hofa import mforms as mf
from hofa import rank as rk
from hofa.config import Budget
from hofa.errors import BudgetExceeded, InternalCheckError, PreconditionError
from hofa.mforms import MultilinearForm
from oracles import analytic_rank_loop, analytic_rank_reference, verify_certificate_reference
from test_benchmark_digests import SEED1_DIGESTS, workloads


class TestAnalyticRank:
    def test_zero_form(self):
        res = rk.analytic_rank(MultilinearForm.zero(3, 2, 3))
        assert res.bias == 1 and res.arank == 0

    def test_identity_matrix(self):
        T = MultilinearForm.from_entries(2, 2, 2, {(0, 0): 1, (1, 1): 1})
        res = rk.analytic_rank(T)
        assert res.bias == Fraction(1, 4)
        assert abs(res.arank - 2) < 1e-12

    def test_diagonal_cube(self):
        T = MultilinearForm.from_entries(2, 1, 3, {(0, 0, 0): 1})
        res = rk.analytic_rank(T)
        assert res.bias == Fraction(3, 4)
        assert abs(res.arank - math.log(4 / 3) / math.log(2)) < 1e-12

    def test_slice_vs_naive(self):
        rng = random.Random(0)
        for _ in range(100):
            p, n, k = rng.choice([(2, 2, 3), (2, 3, 3), (2, 4, 3), (3, 2, 3), (2, 4, 2)])
            T = mf.random_form(rng, p, n, k)
            assert rk.naive_bias(T) == rk.analytic_rank(T).bias

    def test_naive_bias_rejects_skewed_values(self):
        # a stand-in "form" whose nonzero values are not equidistributed: the
        # check must raise (not assert, which python -O strips)
        class Skewed:
            p, n, k = 3, 1, 2

            def eval(self, x, y):
                return 1 if x == y == (1,) else 0

        with pytest.raises(InternalCheckError):
            rk.naive_bias(Skewed())

    def test_subadditivity(self):
        rng = random.Random(1)
        for _ in range(200):
            p, n, k = rng.choice([(2, 2, 3), (3, 2, 2), (2, 3, 2)])
            S = mf.random_form(rng, p, n, k)
            T = mf.random_form(rng, p, n, k)
            assert rk.analytic_rank(S + T).bias >= (
                rk.analytic_rank(S).bias * rk.analytic_rank(T).bias
            )


# (p, n, k) with p in {2, 3, 5}, n <= 3, k <= 4; the per-head loop cannot
# afford (5, 3, 4), 5^6 slices per form
BATCH_SHAPES = [
    (p, n, k) for p in (2, 3, 5) for n in range(4) for k in range(1, 5) if (p, n, k) != (5, 3, 4)
]


@st.composite
def small_forms(draw):
    p, n, k = draw(st.sampled_from(BATCH_SHAPES))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n**k, max_size=n**k))
    return MultilinearForm(p, n, k, np.array(coeffs, dtype=np.int64).reshape((n,) * k))


class TestBatchedAnalyticRank:
    """The stacked slice ranks against the per-head loop and the character sum."""

    @given(small_forms())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_loop_and_naive_bias(self, T):
        bias = rk.analytic_rank(T).bias
        if T.k >= 2:
            assert bias == analytic_rank_loop(T)
        if T.p ** (T.n * T.k) <= 1 << 10:
            assert bias == rk.naive_bias(T)

    @pytest.mark.parametrize("chunk", [1, 5, 40])
    def test_chunk_boundaries_do_not_matter(self, monkeypatch, chunk):
        # stacks of one head, and of 4 to 10 heads, which cut across the p^n points of a slot
        monkeypatch.setattr(rk, "_CHUNK_ENTRIES", chunk)
        rng = random.Random(chunk)
        for p, n, k in [(2, 2, 4), (3, 2, 3), (3, 2, 4), (2, 3, 3)]:
            T = mf.random_form(rng, p, n, k)
            assert rk.analytic_rank(T).bias == analytic_rank_loop(T)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_space_has_bias_one(self, p, k):
        T = MultilinearForm(p, 0, k, np.zeros((0,) * k, dtype=np.int64))
        assert rk.analytic_rank(T) == rk.RankResult(Fraction(1), 0.0)
        full = mf.random_form(random.Random(k), p, 2, k)
        assert rk.analytic_rank(mf.restrict(full, fs.Subspace.zero_space(p, 2))).bias == 1

    @staticmethod
    def product_form(p, k):
        """x_1 x_2 ... x_k on F_p^1: a slice has rank 1 exactly when every head
        coordinate is nonzero, so bias = 1 - ((p - 1) / p)^(k - 1)."""
        return MultilinearForm(p, 1, k, np.ones((1,) * k, dtype=np.int64))

    @pytest.mark.parametrize("p, k", [(2, 18), (3, 13)])
    def test_more_slices_than_one_chunk(self, p, k):
        outer = p ** (k - 2)
        assert outer > rk._CHUNK_ENTRIES
        bias = rk.analytic_rank(self.product_form(p, k)).bias
        assert bias == 1 - Fraction(p - 1, p) ** (k - 1)

    def test_memory_stays_bounded(self):
        # 2^18 slices: unchunked, the stack and its temporaries take about 28 MB
        T = self.product_form(2, 20)
        rk.analytic_rank(T)  # warm the point table
        tracemalloc.start()
        try:
            bias = rk.analytic_rank(T).bias
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bias == 1 - Fraction(1, 2**19)
        assert peak < 8 << 20

    def test_budget_message_is_kept(self):
        T = mf.random_form(random.Random(3), 2, 3, 3)
        with pytest.raises(BudgetExceeded, match="slice enumeration exceeds budget"):
            rk.analytic_rank(T, Budget(enum_cap=8 * 27 - 1))
        assert rk.analytic_rank(T, Budget(enum_cap=8 * 27)).bias == rk.naive_bias(T)


# (p, n, k) of the stacked analytic ranks: k >= 2, n <= 3, the character sum
# affordable up to p^(nk) = 2^12 and the one-form reference everywhere
STACK_SHAPES = [(p, n, k) for p in (2, 3, 5) for n in range(4) for k in (2, 3, 4)]


@st.composite
def form_stacks(draw):
    """A stack of 1 to 6 forms of one (p, n, k), some of them zero, some repeated."""
    p, n, k = draw(st.sampled_from(STACK_SHAPES))
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "zero" or n == 0:
            forms.append(MultilinearForm.zero(p, n, k))
        elif kind == "repeat" and forms:
            forms.append(draw(st.sampled_from(forms)))
        else:
            coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n**k, max_size=n**k))
            forms.append(MultilinearForm(p, n, k, np.array(coeffs).reshape((n,) * k)))
    return forms


class TestStackedAnalyticRanks:
    """``analytic_ranks`` on stacks against the character sum and the one-form reference."""

    @given(form_stacks(), st.sampled_from([1, 7, 40, 1 << 15]))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_bias_across_chunks(self, forms, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rk, "_CHUNK_ENTRIES", chunk)
            got = [res.bias for res in rk.analytic_ranks(forms)]
        assert got == [analytic_rank_reference(T) for T in forms]
        T = forms[0]
        if T.p ** (T.n * T.k) <= 1 << 12:
            assert got == [rk.naive_bias(T) for T in forms]

    def test_mixed_shapes_and_arities_keep_their_places(self):
        rng = random.Random(8)
        forms = [mf.random_form(rng, p, n, k) for p, n, k in
                 [(2, 2, 3), (3, 2, 2), (2, 2, 1), (5, 1, 4), (2, 2, 3), (3, 0, 3), (2, 3, 0)]]
        forms.append(MultilinearForm.zero(2, 2, 1))
        assert rk.analytic_ranks(forms) == [rk.analytic_rank(T) for T in forms]
        assert [r.bias for r in rk.analytic_ranks(forms)] == [rk.naive_bias(T) for T in forms]

    def test_one_elimination_per_chunk_for_the_whole_stack(self, monkeypatch):
        rng = random.Random(9)
        forms = [mf.random_form(rng, 3, 2, 3) for _ in range(6)]
        calls, real = [], fs.stack_ranks
        monkeypatch.setattr(fs, "stack_ranks", lambda p, mats: calls.append(len(mats)) or real(p, mats))
        rk.analytic_ranks(forms)
        assert calls == [6 * 9]  # 9 heads of each of the six forms

    def test_each_distinct_form_is_ranked_once(self, monkeypatch):
        """Repeats, the same object or an equal tensor, share one stacked row."""
        rng = random.Random(10)
        a, b = mf.random_form(rng, 3, 2, 3), mf.random_form(rng, 2, 2, 3)
        twin = MultilinearForm(3, 2, 3, a.coeffs.copy())
        forms = [a, b, twin, MultilinearForm.zero(3, 2, 3), a, b, mf.random_form(rng, 3, 2, 3)]
        rows, real = [], rk._stacked_biases
        monkeypatch.setattr(rk, "_stacked_biases", lambda p, n, k, st: rows.append((p, len(st))) or real(p, n, k, st))
        got = rk.analytic_ranks(forms)
        assert sorted(rows) == [(2, 1), (3, 2)]
        assert [r.bias for r in got] == [analytic_rank_reference(T) for T in forms]

    def test_budget_message_is_kept(self):
        forms = [MultilinearForm.zero(2, 3, 3), mf.random_form(random.Random(3), 2, 3, 3)]
        with pytest.raises(BudgetExceeded, match="slice enumeration exceeds budget"):
            rk.analytic_ranks(forms, Budget(enum_cap=8 * 27 - 1))


def _corrupt_claimed_cubes(monkeypatch, corruptions):
    """Make mforms.value_cube flip the values at the given flat positions of
    each claimed form in ``corruptions`` (form -> positions), and of every
    form equal to it: ``verify_certificates`` verifies equal certificates
    once."""
    real = mf.value_cube

    def patched(T, *a, **kw):
        cube = real(T, *a, **kw)
        for form, positions in corruptions:
            if (T.p, T.n, T.k) == (form.p, form.n, form.k) and np.array_equal(T.coeffs, form.coeffs):
                flat = cube.reshape(-1)
                flat[positions] = (flat[positions] + 1) % T.p
        return cube

    monkeypatch.setattr(mf, "value_cube", patched)


class TestStackedVerification:
    """``verify_certificates`` against the term-by-term reference: the same ok,
    mode and first failing witness for every certificate of a mixed stack."""

    @staticmethod
    def mixed_stack(rng, shapes):
        certs = []
        for p, n, k in shapes:
            good = _random_certificate(rng, p, n, k, rng.randrange(1, 4))
            wrong = rk.RankCertificate(good.claimed_form + mf.random_form(rng, p, n, k), good.terms)
            empty = rk.empty_certificate(MultilinearForm.zero(p, n, k))
            empty_wrong = rk.empty_certificate(mf.random_form(rng, p, n, k))
            certs += [good, wrong, empty, _random_certificate(rng, p, n, k, 2), empty_wrong]
        rng.shuffle(certs)
        return certs

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_stacks_match_the_reference(self, monkeypatch, seed):
        rng = random.Random(seed)
        certs = self.mixed_stack(rng, [(2, 2, 3), (3, 2, 2), (2, 1, 4), (5, 1, 3)])
        # value cubes that disagree with reconstructions that match: the cube branch's witness
        targets = [c for c in certs if len(c) and rk.verify_certificate(c).ok]
        corruptions = []
        for cert in targets[: len(targets) // 2]:
            size = cert.claimed_form.p ** (cert.claimed_form.n * cert.claimed_form.k)
            corruptions.append((cert.claimed_form, sorted(rng.sample(range(size), 2))))
        _corrupt_claimed_cubes(monkeypatch, corruptions)
        got = rk.verify_certificates(certs)
        assert got == [verify_certificate_reference(c) for c in certs]
        assert got == [rk.verify_certificate(c) for c in certs]
        assert {r.ok for r in got} == {True, False}
        assert {r.mode for r in got} == {"exhaustive"}
        # failing reconstructions name a coefficient index, failing value cubes a tuple of points
        assert {type(r.witness[0]) for r in got if not r.ok} == {int, tuple}

    def test_sampled_branch_matches_the_reference(self, monkeypatch):
        rng = random.Random(21)
        p, n, k = 2, 6, 3  # p^(nk) = 2^18 > 2^16
        certs = self.mixed_stack(rng, [(p, n, k)]) + self.mixed_stack(rng, [(2, 2, 3)])
        target = next(c for c in certs if c.claimed_form.n == n and len(c) and rk.verify_certificate(c, 500).ok)
        real = mf.eval_many

        def patched(T, block):
            out = np.array(real(T, block))
            if T is target.claimed_form:
                hit = block[:, 1, 0] == 1
                out[hit] = (out[hit] + 1) % T.p
            return out

        monkeypatch.setattr(mf, "eval_many", patched)
        got = rk.verify_certificates(certs, sample_points=500)
        assert got == [verify_certificate_reference(c, 500) for c in certs]
        assert rk.verify_certificates([target], 500)[0].mode == "sampled"
        assert not got[certs.index(target)].ok
        # one shared rng is drawn from in list order, as by one call per certificate
        shared, ref_rng = random.Random(5), random.Random(5)
        assert rk.verify_certificates(certs, 500, rng=shared) == [
            verify_certificate_reference(c, 500, rng=ref_rng) for c in certs
        ]

    def test_repeats_are_verified_once(self, monkeypatch):
        """Equal certificates, the same object or equal tensors, are reconstructed
        and evaluated once on the exhaustive branch; on the sampled branch each
        still draws its own points from the shared rng, in list order."""
        rng = random.Random(30)
        small, big = self.mixed_stack(rng, [(2, 2, 3)]), self.mixed_stack(rng, [(2, 6, 3)])

        def twin(c):
            f = c.claimed_form
            return rk.RankCertificate(MultilinearForm(f.p, f.n, f.k, f.coeffs.copy()), c.terms)

        certs = small + big + [twin(c) for c in small] + small[:2] + [twin(c) for c in big[:3]]
        rng.shuffle(certs)
        seen, real = [], rk._term_sums
        monkeypatch.setattr(rk, "_term_sums", lambda cs, values: seen.append((len(cs), values)) or real(cs, values))
        shared, ref_rng = random.Random(5), random.Random(5)
        got = rk.verify_certificates(certs, 200, rng=shared)
        assert sorted(seen) == [(5, False), (5, True)]  # five distinct certificates of each shape
        assert got == [verify_certificate_reference(c, 200, rng=ref_rng) for c in certs]
        assert {r.mode for r in got} == {"exhaustive", "sampled"}
        assert shared.random() == ref_rng.random()

    def test_one_value_cube_contraction_per_arity(self, monkeypatch):
        rng = random.Random(4)
        certs = [_random_certificate(rng, 2, 2, 3, 3) for _ in range(5)]
        calls, real = [], mf._pullbacks
        monkeypatch.setattr(mf, "_pullbacks", lambda st, M, p: calls.append(st.shape) or real(st, M, p))
        monkeypatch.setattr(mf, "value_cube", lambda T: real(T.coeffs[..., None], fs.points(T.p, T.n).T, T.p)[0])
        assert all(r.ok for r in rk.verify_certificates(certs))
        assert sorted(len(shape) - 1 for shape in calls) == [1, 2]  # the linear and the bilinear factors
        assert sum(shape[-1] for shape in calls) == 2 * sum(len(c) for c in certs)


class TestBilinearRank:
    def test_zero(self):
        r, left, right = rk.bilinear_rank(MultilinearForm.zero(2, 3, 2))
        assert r == 0 and right.dim == 3

    def test_antidiagonal(self):
        B = MultilinearForm.from_entries(2, 2, 2, {(0, 1): 1, (1, 0): 1})
        r, left, right = rk.bilinear_rank(B)
        assert r == 2 and left.dim == 0 and right.dim == 0

    def test_rank_one_nullspace(self):
        B = MultilinearForm.from_entries(3, 3, 2, {(0, 0): 1})
        r, left, right = rk.bilinear_rank(B)
        assert r == 1
        assert right.vanishing_forms == ((1, 0, 0),)

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
    def test_equals_analytic_exhaustively(self, p, n):
        for coefs in itertools.product(range(p), repeat=n * n):
            B = MultilinearForm(p, n, 2, np.array(coefs).reshape(n, n))
            r = rk.bilinear_rank(B)[0]
            assert rk.analytic_rank(B).bias == Fraction(1, p**r)


class TestVanishingDecomposition:
    def test_trivial(self):
        T = MultilinearForm.zero(2, 2, 3)
        cert = rk.vanishing_decomposition(T, fs.Subspace.full(2, 2))
        assert len(cert) == 0 and rk.verify_certificate(cert).ok

    def test_cube_on_hyperplane(self):
        T = MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1})
        U = fs.kernel(2, 2, [(1, 0)])
        cert = rk.vanishing_decomposition(T, U)
        assert len(cert) <= 3
        assert rk.verify_certificate(cert).ok

    def test_length_bound_random(self):
        rng = random.Random(2)
        for _ in range(40):
            p, n, k = rng.choice([(2, 3, 3), (3, 2, 3), (2, 3, 2), (3, 3, 2)])
            U = fs.random_subspace(rng, p, n)
            acc = MultilinearForm.zero(p, n, k)
            for L in U.vanishing_forms:
                slot = rng.randrange(k)
                term = rk.CertTerm(
                    (slot,),
                    MultilinearForm(p, n, 1, np.array(L)),
                    mf.random_form(rng, p, n, k - 1),
                )
                acc = acc + MultilinearForm(p, n, k, term.tensor(k))
            cert = rk.vanishing_decomposition(acc, U)
            assert len(cert) <= k * U.codim
            assert rk.verify_certificate(cert).ok
            # the produced certificate also bounds the analytic rank
            assert rk.analytic_rank(acc).bias >= Fraction(1, p ** len(cert))

    def test_precondition_violation_carries_witness(self):
        T = MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1})
        with pytest.raises(PreconditionError) as exc:
            rk.vanishing_decomposition(T, fs.Subspace.full(2, 2))
        args = exc.value.witness
        assert T.eval(*args) != 0


class TestCertificates:
    def test_corrupted_certificate_fails_with_witness(self):
        T = MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1})
        cert = rk.prank_certificate_search(T)
        wrong = rk.RankCertificate(
            T + MultilinearForm.from_entries(2, 2, 3, {(1, 1, 1): 1}), cert.terms
        )
        res = rk.verify_certificate(wrong)
        assert not res.ok and res.witness is not None

    def test_empty_vs_zero(self):
        Z = MultilinearForm.zero(2, 2, 3)
        assert rk.verify_certificate(rk.empty_certificate(Z)).ok


def _random_certificate(rng, p, n, k, nterms):
    """A valid certificate: random rank-1 terms, claimed form = their sum."""
    terms = []
    for _ in range(nterms):
        r = rng.randrange(1, k)
        slots = tuple(sorted(rng.sample(range(k), r)))
        terms.append(rk.CertTerm(slots, mf.random_form(rng, p, n, r), mf.random_form(rng, p, n, k - r)))
    claimed = rk.RankCertificate(MultilinearForm.zero(p, n, k), tuple(terms)).reconstruct()
    return rk.RankCertificate(claimed, tuple(terms))


def _reference_sum(cert, args):
    """The certified sum at one argument tuple, one MultilinearForm.eval per factor."""
    k = cert.claimed_form.k
    return sum(
        t.left.eval(*(args[i] for i in t.slots))
        * t.right.eval(*(args[i] for i in range(k) if i not in t.slots))
        for t in cert.terms
    ) % cert.claimed_form.p


def _reference_cube(cert):
    f = cert.claimed_form
    vecs = fs.all_vectors(f.p, f.n)
    vals = [_reference_sum(cert, args) for args in itertools.product(vecs, repeat=f.k)]
    return np.array(vals, dtype=np.int64).reshape((len(vecs),) * f.k)


def _corrupt_claimed_cube(monkeypatch, cert, flat_positions):
    """Make mforms.value_cube flip the claimed form's values at these positions."""
    real = mf.value_cube

    def patched(T, *a, **kw):
        cube = real(T, *a, **kw)
        if T is cert.claimed_form:
            flat = cube.reshape(-1)
            flat[list(flat_positions)] = (flat[list(flat_positions)] + 1) % T.p
        return cube

    monkeypatch.setattr(mf, "value_cube", patched)


class TestVerifyVectorized:
    """The value-cube and batched evaluations against the per-tuple loop."""

    @pytest.mark.parametrize(
        "p,n,k", [(2, 3, 2), (3, 2, 2), (2, 3, 3), (3, 2, 3), (2, 2, 4), (3, 1, 4)]
    )
    def test_certified_cube_matches_per_tuple(self, p, n, k):
        rng = random.Random(100 * p + 10 * n + k)
        for nterms in (0, 1, 3):
            cert = _random_certificate(rng, p, n, k, nterms)
            assert np.array_equal(rk.certified_cube(cert), _reference_cube(cert))
            assert np.array_equal(rk.certified_cube(cert), mf.value_cube(cert.claimed_form))
            res = rk.verify_certificate(cert)
            assert res.ok and res.mode == "exhaustive"

    @pytest.mark.parametrize("p,n,k", [(2, 2, 3), (3, 2, 2), (2, 1, 4)])
    def test_witness_is_first_failing_tuple(self, monkeypatch, p, n, k):
        rng = random.Random(5)
        cert = _random_certificate(rng, p, n, k, 2)
        size = p ** (n * k)
        bad = sorted(rng.sample(range(size), 3))
        _corrupt_claimed_cube(monkeypatch, cert, bad)
        res = rk.verify_certificate(cert)
        assert not res.ok and res.mode == "exhaustive"
        # the per-tuple loop against the corrupted cube fails first at bad[0]
        claimed = mf.value_cube(cert.claimed_form).reshape(-1)
        vecs = fs.all_vectors(p, n)
        first = next(
            args
            for pos, args in enumerate(itertools.product(vecs, repeat=k))
            if _reference_sum(cert, args) != claimed[pos]
        )
        assert res.witness == first
        assert res.witness == tuple(itertools.product(vecs, repeat=k))[bad[0]]

    def test_sampled_branch(self, monkeypatch):
        p, n, k = 2, 6, 3  # p^(nk) = 2^18 > 2^16
        rng = random.Random(11)
        cert = _random_certificate(rng, p, n, k, 2)
        res = rk.verify_certificate(cert, sample_points=2000)
        assert res.ok and res.mode == "sampled"
        # the batched values agree with the per-tuple evaluation
        vecs = fs.all_vectors(p, n)
        draws = random.Random(0)  # the default sampling rng, replayed
        samples = [tuple(vecs[draws.randrange(len(vecs))] for _ in range(k)) for _ in range(2000)]
        args = samples[:50]
        block = np.array(args, dtype=np.int64)
        assert rk.certified_values(cert, block).tolist() == [_reference_sum(cert, a) for a in args]
        assert mf.eval_many(cert.claimed_form, block).tolist() == [
            cert.claimed_form.eval(*a) for a in args
        ]
        # corrupt the claimed values whose first argument is v: the witness is
        # the first such tuple in the seeded draw order
        v = vecs[37]
        real = mf.eval_many

        def patched(T, block):
            out = np.array(real(T, block))
            if T is cert.claimed_form:
                hit = (block[:, 0] == np.array(v)).all(axis=1)
                out[hit] = (out[hit] + 1) % p
            return out

        monkeypatch.setattr(mf, "eval_many", patched)
        res = rk.verify_certificate(cert, sample_points=2000)
        expected = next(s for s in samples if s[0] == v)
        assert not res.ok and res.mode == "sampled" and res.witness == expected


@given(st.integers(0, 10**6), st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 1, 3), (2, 1, 4)]))
@settings(max_examples=30, deadline=None)
def test_certified_cube_matches_per_tuple_hypothesis(seed, pnk):
    rng = random.Random(seed)
    p, n, k = pnk
    cert = _random_certificate(rng, p, n, k, rng.randrange(4))
    assert np.array_equal(rk.certified_cube(cert), _reference_cube(cert))


class TestPrankSearch:
    def test_zero_and_rank_one(self):
        assert rk.prank_search(MultilinearForm.zero(2, 2, 3)) == 0
        T = MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1})
        assert rk.prank_search(T) == 1

    def test_search_pair_builds_the_table_once(self, monkeypatch):
        calls = []
        terms = rk._canonical_rank1_terms
        monkeypatch.setattr(rk, "_canonical_rank1_terms", lambda *a: calls.append(a) or terms(*a))
        rk.prank_table.cache_clear()
        try:
            T = MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1, (1, 1, 1): 1})
            assert rk.prank_search(T) == len(rk.prank_certificate_search(T)) == 2
            assert calls == [(2, 2, 3)]
        finally:
            rk.prank_table.cache_clear()

    def test_census_arank_le_prank(self):
        ranks, parents = rk.prank_table(2, 2, 3)
        assert len(ranks) == 256
        for key, r in ranks.items():
            T = MultilinearForm(2, 2, 3, np.frombuffer(key, dtype=np.int8).reshape(2, 2, 2).copy())
            assert rk.analytic_rank(T).bias >= Fraction(1, 2**r)
            cert = rk.certificate_from_table(T, parents)
            assert len(cert) == r and rk.verify_certificate(cert).ok

    def test_unknown_on_large_instance(self):
        rng = random.Random(3)
        T = mf.random_form(rng, 2, 3, 3)  # 2^27 tensor space: search is off-budget
        res = rk.prank_search(T)
        if isinstance(res, rk.PrankUnknown):
            assert rk.analytic_rank(T).bias >= Fraction(1, 2**res.lower_bound) or res.lower_bound >= 0

    def test_arank_ceil(self):
        assert rk.arank_ceil(2, Fraction(1)) == 0
        assert rk.arank_ceil(2, Fraction(3, 4)) == 1
        assert rk.arank_ceil(2, Fraction(1, 4)) == 2


class TestRepeatsInBenchmarkPasses:
    @pytest.mark.parametrize("name, forms, certs", [
        ("pipeline", (21, 17), (43, 29)),
        ("algebra", (47, 41), (52, 44)),
    ])
    def test_each_distinct_object_is_ranked_and_verified_once_per_call(self, monkeypatch, name, forms, certs):
        """Over one seed-1 pass of a benchmark workload, its digest unchanged:
        the nonzero forms of arity >= 2 given to ``analytic_ranks`` against the
        forms it ranks, and the certificates given to ``verify_certificates``
        on its exhaustive branch against those it evaluates."""
        given_, done = {"forms": 0, "certs": 0}, {"forms": 0, "certs": 0}
        ranks, verify, biases, sums = rk.analytic_ranks, rk.verify_certificates, rk._stacked_biases, rk._term_sums

        def spy_ranks(fs_, *a, **kw):
            given_["forms"] += sum(T.k >= 2 and not T.is_zero() for T in fs_)
            return ranks(fs_, *a, **kw)

        def spy_verify(cs, *a, **kw):
            given_["certs"] += sum(c.claimed_form.p ** (c.claimed_form.n * c.claimed_form.k) <= 1 << 16 for c in cs)
            return verify(cs, *a, **kw)

        def spy_biases(p, n, k, stack):
            done["forms"] += len(stack)
            return biases(p, n, k, stack)

        def spy_sums(cs, values):
            done["certs"] += len(cs) if values else 0
            return sums(cs, values)

        for attr, spy in (("analytic_ranks", spy_ranks), ("verify_certificates", spy_verify),
                          ("_stacked_biases", spy_biases), ("_term_sums", spy_sums)):
            monkeypatch.setattr(rk, attr, spy)
        texts = [op.canon(op.run()) for op in workloads.build(name, 1).ops]
        assert workloads.digest(texts) == SEED1_DIGESTS[name]
        assert (given_["forms"], done["forms"]) == forms
        assert (given_["certs"], done["certs"]) == certs
