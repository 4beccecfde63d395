import copy
import hashlib
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import tracemalloc
from array import array
from itertools import combinations, product
from operator import itemgetter
from pathlib import Path

import pytest

import mukaitwist.verify as verify
from conftest import reflection_matrix
from mukaitwist import (
    IntMatrix,
    Lattice,
    MukaiVector,
    TrialConfig,
    VerificationReport,
    fixed_sublattice,
    full_lattice,
    mukai_pairing,
    point_class,
    reflection,
    sample_equivariant_isometry,
    short_vectors,
    standard_lattice,
    twisted_involution,
    twisted_involution_matrix,
    verify_characteristic_congruence,
    verify_invariant_lattice,
    verify_phi_integrality,
    verify_square_congruence,
)
from mukaitwist.lattices import COVER_SWAP, cover_involution_coords, reflection_dual
from mukaitwist.prng import SplitMix64, mix64, substream

CFG = TrialConfig(trials=300, seed=20240611, coord_bound=50)


# The sampled checks pair and twist 24-tuples through one seam in verify,
# _pairing and twisted_involution_coords, which the fault-injection tests break.
def _shift_twist(monkeypatch, moved):
    """T plus (1, 0, ..., 0) on the vectors whose 24 coordinates satisfy moved."""
    twist = verify.twisted_involution_coords

    def shifted(x):
        t = twist(x)
        return (t[0] + int(moved(x)), *t[1:])

    monkeypatch.setattr(verify, "twisted_involution_coords", shifted)


def _letter(index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The w and the dual that the pool stores for its letter index >= 2."""
    entries = verify._generator_pool().entries
    start = (index - 2) * verify._LETTER_ENTRIES
    return tuple(entries[start : start + 24]), tuple(entries[start + 24 : start + 48])


def _word_matrix(word) -> IntMatrix:
    """The matrix of a word of pool indices, as _apply_word evaluates it."""
    return IntMatrix.of_map(lambda e: verify._apply_word(word, e), 24)


def _pool_of(*ws) -> verify._Pool:
    """A pool of T, -1 and the reflections in ws, stored as the harvest stores them."""
    lat = full_lattice()
    return verify._Pool(array("b", [e for w in ws for e in (*w, *reflection_dual(lat, w))]))


def _shift_pairing(monkeypatch, shift):
    """Every pairing of the sampled checks plus shift(), evaluated once per pairing."""
    pairing = verify._pairing
    monkeypatch.setattr(verify, "_pairing", lambda u, v: pairing(u, v) + shift())


class TestSquareCongruence:
    def test_passes(self):
        report = verify_square_congruence(CFG)
        assert report.passed
        assert report.counterexample is None
        assert report.trials_run == 300 + 5775  # randomized + exhaustive pairs

    def test_zero_trials_still_runs_exhaustive(self):
        report = verify_square_congruence(TrialConfig(trials=0, seed=1))
        assert report.passed
        assert report.trials_run == 5775

    def test_single_support_example(self):
        # l = z3-block e: l + Tl is (0, 0, -1), whose square is 0
        ell = [0] * 22
        ell[20] = 1
        vec = MukaiVector.from_h2(ell)
        doubled = vec + twisted_involution(vec)
        assert doubled.r == 0
        assert doubled.c == (0,) * 22
        assert doubled.s == -1
        assert mukai_pairing(doubled, doubled) == 0

    def test_zero_vector(self):
        assert verify._square_congruence_case((0,) * 22) is None


class TestCharacteristicCongruence:
    def test_passes(self):
        report = verify_characteristic_congruence(CFG)
        assert report.passed
        assert report.trials_run == CFG.trials

    def test_zero_trials_still_builds_the_kernel_basis(self):
        # A run with no cases still runs the check's set-up, so a caller can
        # build the cache before timing anything.
        verify._invariant_basis.cache_clear()
        assert verify_characteristic_congruence(TrialConfig(trials=0)).trials_run == 0
        assert verify._invariant_basis.cache_info().currsize == 1

    def test_golden_example(self):
        # a=1, x=0, z1=0, s=0: square 2, pairing -2, congruent mod 4
        v = MukaiVector.from_coords(verify._invariant_from_parameters(1, (0,) * 8, (0, 0), 0))
        assert mukai_pairing(v, v) == 2
        assert mukai_pairing(point_class(), v) == -2
        assert twisted_involution(v) == v

    def test_point_class_case(self):
        p = point_class()
        assert mukai_pairing(point_class(), p) == 0
        assert mukai_pairing(p, p) == 0


class TestInvariantLattice:
    def test_structure_report(self):
        report = verify_invariant_lattice()
        assert report.passed
        assert report.counterexample is None

    def test_point_outside_lattice_is_a_counterexample(self, monkeypatch):
        monkeypatch.setattr(verify, "solve", lambda basis, target: None)
        report = verify_invariant_lattice()
        assert not report.passed
        assert report.counterexample == {"reason": "(0,0,1) is not in the computed invariant lattice"}
        assert report.trials_run == 5

    def test_rank_agrees_with_anti_invariant(self):
        basis_plus, _ = verify._invariant_basis()
        t = twisted_involution_matrix()
        basis_minus, _ = verify.fixed_sublattice(full_lattice(), t, -1)
        assert basis_plus.cols == 12
        assert basis_plus.cols + basis_minus.cols == 24


class TestEquivariantSampler:
    def test_word_length_zero_is_identity(self):
        phi = sample_equivariant_isometry(99, 0)
        assert phi.matrix == IntMatrix.identity(24)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    def test_words_commute_and_preserve_form(self, seed):
        t = twisted_involution_matrix().matrix
        phi = sample_equivariant_isometry(seed, 6)
        assert phi.matrix @ t == t @ phi.matrix
        # Isometry construction enforced the Gram identity already; recheck
        gram = full_lattice().gram
        assert phi.matrix.transpose() @ gram @ phi.matrix == gram

    def test_determinism(self):
        a = sample_equivariant_isometry(5, 8)
        b = sample_equivariant_isometry(5, 8)
        assert a.matrix == b.matrix

    def test_pool_contains_twist_and_minus_identity(self):
        assert _word_matrix((0,)) == twisted_involution_matrix().matrix
        assert _word_matrix((1,)) == -IntMatrix.identity(24)
        assert len(verify._generator_pool()) > 2

    def test_pool_reflections_commute_with_twist(self):
        pool = verify._generator_pool()
        t = twisted_involution_matrix().matrix
        rng = random.Random(1)
        for index in rng.sample(range(len(pool)), 25):
            m = _word_matrix((index,))
            assert m @ t == t @ m

    def test_negative_word_length_rejected(self):
        with pytest.raises(ValueError, match=r"^word_length must be in \[0, 2\*\*64\)$"):
            sample_equivariant_isometry(0, -1)

    @pytest.mark.parametrize("seed", [2**64, -1, -(2**64)])
    def test_seed_outside_the_prng_range_rejected(self, seed):
        # mix64 masks to 64 bits, so these would alias seeds inside the range.
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            sample_equivariant_isometry(seed, 8)

    def test_largest_seed_accepted(self):
        assert sample_equivariant_isometry(2**64 - 1, 2).matrix.shape == (24, 24)

    @pytest.mark.parametrize("kwargs", [{"seed": 1.0}, {"seed": True}, {"word_length": 2.0}, {"word_length": True}])
    def test_non_int_arguments_rejected(self, kwargs):
        args = {"seed": 0, "word_length": 2} | kwargs
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            sample_equivariant_isometry(**args)


class TestWordEvaluation:
    """Words applied to vectors letter by letter, against the matrix products they stand for."""

    @staticmethod
    def letter_matrix(index: int) -> IntMatrix:
        if index == 0:
            return twisted_involution_matrix().matrix
        if index == 1:
            return -IntMatrix.identity(24)
        return reflection(full_lattice(), _letter(index)[0]).matrix

    # The pool's order decides which word every seed samples, and a passing
    # phi report carries only trials_run, so pin the harvest exactly: the
    # digest of every harvested vector in pool order, and the hits of each of
    # the four short_vectors scans behind it.
    POOL_DIGEST = "7d8a642aec5bfdfd92b58d3acf11e4a4785b6661435f8515f355b3704bacadab"
    SCAN_HITS = {(1, 2): 3138, (1, -2): 11566, (-1, 2): 366, (-1, -2): 3138}

    def test_pool_order_is_pinned(self):
        ws = repr([_letter(i)[0] for i in range(2, len(verify._generator_pool()))])
        assert hashlib.sha256(ws.encode()).hexdigest() == self.POOL_DIGEST

    def test_harvest_scan_hit_counts_are_pinned(self):
        lat = full_lattice()
        for sign in (1, -1):
            _, gram = fixed_sublattice(lat, twisted_involution_matrix(), sign)
            sub = Lattice(gram)
            for target in (2, -2):
                assert len(short_vectors(sub, target, 1)) == self.SCAN_HITS[sign, target]

    @pytest.mark.parametrize("seed, length", [(1000 + 37 * k, k % 9) for k in range(20)])
    def test_vector_route_matches_matrix_route(self, seed, length):
        pool = verify._generator_pool()
        rng = SplitMix64(mix64(seed))
        indices = [rng.integer(0, len(pool) - 1) for _ in range(length)]
        product = IntMatrix.identity(24)
        for i in indices:
            product = product @ self.letter_matrix(i)
        word = verify._sample_word(seed, length)
        assert word == tuple(indices)
        point = point_class().coords()
        assert verify._apply_word(word, point) == product.mul_vec(point)
        assert sample_equivariant_isometry(seed, length).matrix == product

    @pytest.mark.parametrize("container", [list, tuple])
    def test_words_return_tuples(self, container):
        last = len(verify._generator_pool()) - 1
        point = point_class().coords()
        # T, -1 and reflections, each as the first letter to act on the input.
        for word in ([2, 0], [0, 1], [1, 2], [last]):
            product = IntMatrix.identity(24)
            for index in word:
                product = product @ self.letter_matrix(index)
            got = verify._apply_word(word, container(point))
            assert type(got) is tuple and got == product.mul_vec(point)

    def test_pool_size(self):
        assert len(verify._generator_pool()) == 9106

    def test_harvested_vectors_are_equivariant_roots(self):
        lat = full_lattice()
        for index in range(2, len(verify._generator_pool())):
            w, _ = _letter(index)
            assert lat.norm(w) in (2, -2)
            tw = twisted_involution(MukaiVector.from_coords(w)).coords()
            assert tw in (w, tuple(-c for c in w))

    def test_reflection_matrices_match_formula(self):
        lat = full_lattice()
        for index in random.Random(4).sample(range(2, len(verify._generator_pool())), 25):
            assert _word_matrix((index,)) == reflection_matrix(lat.gram, _letter(index)[0])


class TestHarvestChecks:
    """The harvest checks T B = +-B once per eigenbasis B, and w^2 = +-2 for each w in reflection_dual."""

    @pytest.fixture(autouse=True)
    def real_pool_afterwards(self):
        yield
        verify._generator_pool.cache_clear()

    @staticmethod
    def shifted(basis: IntMatrix) -> IntMatrix:
        """The basis with e_0 = (1, 0, ..., 0) added to its first column, which T does not fix."""
        flat = list(basis.flat)
        flat[0] += 1
        return IntMatrix(basis.rows, basis.cols, flat)

    def test_plus_one_basis_that_is_not_fixed_is_refused(self, monkeypatch):
        basis, gram = verify._invariant_basis()
        monkeypatch.setattr(verify, "_invariant_basis", lambda: (self.shifted(basis), gram))
        with pytest.raises(RuntimeError, match=r"kernel basis is not a \+1-eigenbasis of T"):
            verify._generator_pool.__wrapped__()

    def test_minus_one_basis_that_is_not_negated_is_refused(self, monkeypatch):
        real = verify.fixed_sublattice

        def shifted_sublattice(lattice, isometry, sign):
            basis, gram = real(lattice, isometry, sign)
            return self.shifted(basis), gram

        monkeypatch.setattr(verify, "fixed_sublattice", shifted_sublattice)
        with pytest.raises(RuntimeError, match=r"kernel basis is not a -1-eigenbasis of T"):
            verify._generator_pool.__wrapped__()

    def test_wrong_square_is_refused_by_reflection(self, monkeypatch):
        # 2 e_0 in basis coordinates is twice a T-fixed column: it passes the
        # T check, and its square is a multiple of 4. As the lex-largest vector
        # of the first scan, it is checked after every real hit of that scan.
        real_scan = verify.short_vectors

        def padded_scan(lattice, target, bound):
            bad = (2,) + (0,) * (lattice.rank - 1)
            return [tuple(-c for c in bad), *real_scan(lattice, target, bound), bad]

        built = []
        real_dual = verify.reflection_dual
        monkeypatch.setattr(verify, "short_vectors", padded_scan)
        monkeypatch.setattr(verify, "reflection_dual", lambda lat, w: built.append(w) or real_dual(lat, w))
        with pytest.raises(ValueError, match="reflection vector must have square"):
            verify._generator_pool.__wrapped__()
        assert len(built) == TestWordEvaluation.SCAN_HITS[1, 2] // 2 + 1

    def test_t_is_checked_once_per_basis_and_the_dual_once_per_letter(self, monkeypatch):
        # T w = +-w follows from T B = +-B by linearity, so the harvest applies
        # T's closed form to no letter; reflection_dual still sees every letter.
        applied, built = [], []
        real_t, real_dual = verify.twisted_involution_coords, verify.reflection_dual
        monkeypatch.setattr(verify, "twisted_involution_coords", lambda x: applied.append(x) or real_t(x))
        monkeypatch.setattr(verify, "reflection_dual", lambda lat, w: built.append(w) or real_dual(lat, w))
        pool = verify._generator_pool.__wrapped__()
        assert applied == []
        assert len(built) == len(pool) - 2 == sum(TestWordEvaluation.SCAN_HITS.values()) // 2


class TestLeanPool:
    """The pool holds one byte array of checked vectors and their duals, and no letter object."""

    @pytest.fixture(autouse=True)
    def real_pool_afterwards(self):
        yield
        verify._generator_pool.cache_clear()

    def test_fresh_pool_retains_under_two_mib(self):
        verify._generator_pool()  # the caches the harvest reads: kernel bases, T, compiled Gram forms
        tracemalloc.start()
        try:
            pool = verify._generator_pool.__wrapped__()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pool) == 9106
        assert retained < 2 * 2**20

    def test_applying_every_letter_retains_nothing(self):
        n = len(verify._generator_pool())
        point = point_class().coords()
        verify._apply_word(tuple(range(n)), point)  # warm every code path once
        tracemalloc.start()
        try:
            for index in range(n):
                verify._apply_word((index,), point)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 16 * 2**10

    def test_every_stored_dual_is_two_g_w_over_w_squared(self):
        gram = full_lattice().gram
        # The nonzero Gram entries of each row; the dual is computed entry by entry from them.
        rows = [[(j, gram[i, j]) for j in range(24) if gram[i, j]] for i in range(24)]
        for index in range(2, len(verify._generator_pool())):
            w, dual = _letter(index)
            gw = [sum(g * w[j] for j, g in row) for row in rows]
            n2 = sum(a * b for a, b in zip(w, gw))
            assert n2 in (2, -2)
            assert dual == tuple(2 * g // n2 for g in gw)

    def test_entries_refuse_item_assignment(self):
        entries = verify._generator_pool().entries
        first = entries[0]
        with pytest.raises(TypeError):
            entries[0] = first + 1
        assert entries[0] == first

    def test_the_viewed_buffer_refuses_item_assignment(self):
        # The view's obj is the buffer the letters read, for the harvest and for a given array alike.
        for pool in (verify._generator_pool(), _pool_of(TestPhiFailureReporting.BREAKING)):
            first = pool.entries[0]
            with pytest.raises(TypeError):
                pool.entries.obj[0] = first + 1
            assert pool.entries[0] == first

    def test_store_refuses_an_entry_it_cannot_hold(self, monkeypatch):
        # 200 e_0 in basis coordinates is 200 times a T-fixed column, so it
        # passes the T check; with the square check stubbed, the byte array
        # must refuse its entries of size 200 or more instead of wrapping them.
        real_scan = verify.short_vectors

        def padded_scan(lattice, target, bound):
            big = (200,) + (0,) * (lattice.rank - 1)
            return [tuple(-c for c in big), *real_scan(lattice, target, bound), big]

        monkeypatch.setattr(verify, "short_vectors", padded_scan)
        monkeypatch.setattr(verify, "reflection_dual", lambda lat, w: (0,) * len(w))
        with pytest.raises(OverflowError):
            verify._generator_pool.__wrapped__()

    def test_workers_agree(self):
        cfg = TrialConfig(trials=300, seed=11)
        serial = verify_phi_integrality(cfg, jobs=1)
        verify._generator_pool.cache_clear()
        assert verify_phi_integrality(cfg, jobs=2) == serial
        _no_child_left()


class TestPhiFailureReporting:
    # w = (1, e, 1) with e the first vector of the z3 block has square -2 and
    # <(0,0,1), w> = -1, so its reflection sends (0,0,1) to (-1, -e, 0): an odd
    # degree-2 coordinate. It does not commute with T, which the harvest would reject.
    BREAKING = (1,) + (0,) * 20 + (1, 0) + (1,)

    def test_odd_image_is_a_replayable_counterexample(self, monkeypatch):
        pool = _pool_of(self.BREAKING)
        monkeypatch.setattr(verify, "_generator_pool", lambda: pool)
        report = verify_phi_integrality(TrialConfig(trials=50, seed=3), word_length=4)
        assert not report.passed
        ce = report.counterexample
        assert list(ce) == ["source", "word_seed", "word_length", "image", "odd_degree2_indices"]
        assert ce["source"] == f"trial {report.trials_run - 1}"
        replayed = verify._apply_word(verify._sample_word(ce["word_seed"], ce["word_length"]), point_class().coords())
        assert list(replayed) == ce["image"]
        assert ce["odd_degree2_indices"] == [i for i, c in enumerate(replayed[1:23]) if c % 2]
        assert ce["odd_degree2_indices"]

    def test_letter_that_is_no_isometry_is_a_replayable_counterexample(self, monkeypatch):
        # Twice the dual: x - 2 <x, w> w is no isometry, so some image of (0,0,1) is not isotropic.
        real = verify.reflection_dual
        monkeypatch.setattr(verify, "reflection_dual", lambda lat, w: tuple(2 * c for c in real(lat, w)))
        verify._generator_pool.cache_clear()
        try:
            report = verify_phi_integrality(TrialConfig(trials=20, seed=0), word_length=4)
            ce = report.counterexample
            assert list(ce) == ["source", "word_seed", "word_length", "image", "square"]
            assert ce["source"] == f"trial {report.trials_run - 1}"
            replayed = verify._apply_word(verify._sample_word(ce["word_seed"], ce["word_length"]), point_class().coords())
        finally:
            verify._generator_pool.cache_clear()
        assert list(replayed) == ce["image"] and ce["square"] == verify._pairing(replayed, replayed) != 0


class TestTrialDraws:
    """Each trial draws its coordinates in one call; the values are those of
    one call per parameter, in the order the samplers use them."""

    CFG = TrialConfig(trials=3, seed=11, coord_bound=50)

    def test_parametrized_sampler_draws(self, monkeypatch):
        _shift_twist(monkeypatch, lambda x: True)
        for trial in range(3):
            ce = verify._characteristic_case(self.CFG, trial)
            rng = substream(self.CFG.seed, trial)
            a, x, z1, s = rng.integer(-50, 50), rng.integers(-50, 50, 8), rng.integers(-50, 50, 2), rng.integer(-50, 50)
            assert ce["parameters"] == {"a": a, "x": list(x), "z1": list(z1), "s": s}

    def test_kernel_basis_sampler_draws(self, monkeypatch):
        # A basis of 12 unit vectors: sampler (i) passes, and the combinations
        # it gives sampler (ii) are not T-invariant.
        units = IntMatrix(24, 12, [int(i == j) for i in range(24) for j in range(12)])
        monkeypatch.setattr(verify, "_invariant_basis", lambda: (units, None))
        for trial in range(3):
            ce = verify._characteristic_case(self.CFG, trial)
            rng = substream(self.CFG.seed, trial)
            rng.integers(-50, 50, 12)  # a, x, z1 and s
            assert ce["source"] == f"kernel-basis sampler, trial {trial}"
            assert ce["coefficients"] == list(rng.integers(-50, 50, 12))

    def test_phi_pairing_draws(self, monkeypatch):
        calls = []
        # The last pairing of trial 0 is off by one; its first is the isotropy check.
        _shift_pairing(monkeypatch, lambda: len(calls.append(0) or calls) == 11)
        ce = verify._phi_case(self.CFG, 4, 0)
        rng = substream(self.CFG.seed, 0)
        length, word_seed = rng.integer(0, 4), rng.next_u64()
        ells = [rng.integers(-50, 50, 22) for _ in range(verify.STRENGTHENED_PAIRINGS_PER_TRIAL)]
        assert ce["source"] == "trial 0, pairing 9"
        assert (ce["word_length"], ce["word_seed"], ce["ell"]) == (length, word_seed, list(ells[9]))

    def test_word_draws(self):
        pool = verify._generator_pool()
        for seed in range(5):
            rng = SplitMix64(mix64(seed))
            assert verify._sample_word(seed, 9) == tuple(rng.integer(0, len(pool) - 1) for _ in range(9))


class TestCongruenceTransport:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_equivariant_images_keep_characteristic_congruence(self, seed):
        """phi T-equivariant and v T-invariant: <phi(0,0,1), phi v> = (phi v)^2 mod 4."""
        rng = random.Random(seed)
        phi = sample_equivariant_isometry(seed, 6)
        for _ in range(50):
            v = verify._invariant_from_parameters(
                rng.randint(-20, 20),
                tuple(rng.randint(-20, 20) for _ in range(8)),
                (rng.randint(-20, 20), rng.randint(-20, 20)),
                rng.randint(-20, 20),
            )
            image_point = MukaiVector.from_coords(phi(point_class().coords()))
            image_v = MukaiVector.from_coords(phi(v))
            assert twisted_involution(image_v) == image_v  # invariance transported
            pair = mukai_pairing(image_point, image_v)
            assert (pair - mukai_pairing(image_v, image_v)) % 4 == 0


class TestPhiIntegrality:
    def test_passes(self):
        report = verify_phi_integrality(TrialConfig(trials=40, seed=3), word_length=6)
        assert report.passed
        assert report.trials_run == 40

    def test_zero_word_length(self):
        report = verify_phi_integrality(TrialConfig(trials=5, seed=4), word_length=0)
        assert report.passed

    @pytest.mark.parametrize("word_length, kind", [(2.0, "float"), (True, "bool")])
    def test_non_int_word_length_rejected(self, word_length, kind):
        with pytest.raises(TypeError) as exc:
            verify_phi_integrality(TrialConfig(trials=1), word_length=word_length)
        assert str(exc.value) == f"word_length must be an int, got {kind}"


class TestDeterminism:
    def test_reports_reproduce(self):
        cfg = TrialConfig(trials=200, seed=42)
        first = verify.run_claims_suite(cfg)
        second = verify.run_claims_suite(cfg)
        assert first == second

    def test_report_equality_ignores_elapsed(self):
        cfg = TrialConfig(trials=50, seed=9)
        a = verify_square_congruence(cfg)
        b = verify_square_congruence(cfg)
        assert a == b  # equality ignores elapsed_s
        assert a.elapsed_s >= 0

    def test_different_seeds_differ(self):
        from mukaitwist.prng import substream

        a = substream(1, 0).integers(-50, 50, 22)
        b = substream(2, 0).integers(-50, 50, 22)
        assert a != b


class TestFailureReporting:
    def test_counterexample_is_recheckable(self, monkeypatch):
        """Break the block identity deliberately; the report must carry a
        counterexample that reproduces the failure on re-evaluation."""
        h2 = standard_lattice("mukai_h2")
        monkeypatch.setattr(verify, "cover_involution_coords", lambda ell: ell)
        report = verify_square_congruence(TrialConfig(trials=50, seed=0))
        assert not report.passed
        ce = report.counterexample
        assert ce is not None
        ell = tuple(ce["ell"])
        # re-evaluate the dumped identity: with the broken involution the
        # pairing really is l.l, which must disagree with the block formula
        assert h2.inner(ell, ell) == ce["pairing_with_involution"]
        assert ce["pairing_with_involution"] != ce["block_formula"]
        monkeypatch.undo()
        assert verify._square_congruence_case(ell) is None

    def test_counterexample_is_pinned(self, monkeypatch):
        """The first failing draw and every figure derived from it. Passing
        reports carry no sample, so this pins the draws and the arithmetic."""
        monkeypatch.setattr(verify, "cover_involution_coords", lambda ell: ell)
        report = verify_square_congruence(TrialConfig(trials=50, seed=0))
        assert report.trials_run == 1
        assert report.counterexample == {
            "ell": [5, -47, -37, -9, -28, 48, -19, 0, 47, 17, 21, 40, 16, 12, 47, -24, 34, -8, 23, 2, -18, 31],
            "square": -43868,
            "square_mod_4": 0,
            "pairing_with_involution": -25600,
            "block_formula": 3666,
            "source": "random trial 0",
        }

    @pytest.mark.parametrize(
        "trials, expected",
        [
            (
                50,
                '{"name": "square-congruence", "passed": false, "trials_run": 1, "counterexample": '
                '{"ell": [5, -47, -37, -9, -28, 48, -19, 0, 47, 17, 21, 40, 16, 12, 47, -24, 34, -8, 23, 2, -18, 31], '
                '"square": -43868, "square_mod_4": 0, "pairing_with_involution": -25600, "block_formula": 3666, '
                '"source": "random trial 0"}}',
            ),
            (
                0,
                '{"name": "square-congruence", "passed": false, "trials_run": 1, "counterexample": '
                '{"ell": [-2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
                '"square": -16, "square_mod_4": 0, "pairing_with_involution": -8, "block_formula": 0, '
                '"source": "exhaustive pair (0, 1)"}}',
            ),
        ],
        ids=["random-trial", "sweep"],
    )
    def test_report_text_is_pinned(self, monkeypatch, trials, expected):
        """Key order and sweep order: the first failing random trial, and with
        no random trials the first case of the exhaustive sweep."""
        monkeypatch.setattr(verify, "cover_involution_coords", lambda ell: ell)
        report = verify_square_congruence(TrialConfig(trials=trials, seed=0))
        assert json.dumps(report.check_json()) == expected

    def test_summary_carries_counterexample(self, monkeypatch):
        monkeypatch.setattr(verify, "cover_involution_coords", lambda ell: ell)
        report = verify_square_congruence(TrialConfig(trials=50, seed=0))
        assert "counterexample" in report.check_json()


class TestCounterexamplePins:
    """The whole JSON entry of each sampled failure kind: keys in order, then every value."""

    CFG = TrialConfig(trials=50, seed=0)

    def test_parametrized_sampler_counterexample_is_pinned(self, monkeypatch):
        # T moved off every vector, and every pairing off by one: three of the four problems.
        _shift_twist(monkeypatch, lambda x: True)
        _shift_pairing(monkeypatch, lambda: 1)
        report = verify_characteristic_congruence(self.CFG)
        assert json.dumps(report.check_json()) == (
            '{"name": "characteristic-congruence", "passed": false, "trials_run": 1, "counterexample": '
            '{"source": "parametrized sampler, trial 0", '
            '"parameters": {"a": 5, "x": [-47, -37, -9, -28, 48, -19, 0, 47], "z1": [17, 21], "s": 40}, '
            '"pairing": -9, "square": -27293, "problems": ["parametrized vector is not T-invariant", '
            '"pairing disagrees with closed form -2a", "square disagrees with closed form"]}}'
        )

    def test_kernel_basis_sampler_counterexample_is_pinned(self, monkeypatch):
        # A basis of 12 unit vectors: sampler (i) passes, and sampler (ii)'s
        # combination is neither T-invariant nor congruent.
        units = IntMatrix(24, 12, [int(i == j) for i in range(24) for j in range(12)])
        monkeypatch.setattr(verify, "_invariant_basis", lambda: (units, None))
        report = verify_characteristic_congruence(self.CFG)
        assert json.dumps(report.check_json()) == (
            '{"name": "characteristic-congruence", "passed": false, "trials_run": 1, "counterexample": '
            '{"source": "kernel-basis sampler, trial 0", '
            '"coefficients": [16, 12, 47, -24, 34, -8, 23, 2, -18, 31, -23, -44], '
            '"vector": [16, 12, 47, -24, 34, -8, 23, 2, -18, 31, -23, -44, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
            '"pairing": -16, "square": -19558, '
            '"problems": ["kernel-basis vector is not T-invariant", "congruence fails"]}}'
        )

    def test_strengthened_pairing_counterexample_is_pinned(self, monkeypatch):
        # Swapping r and s is an isometry with an even image of (0,0,1), namely
        # (1, 0, 0); its pairing with l + Tl is a + b, for (a, b) the z3 block of l.
        # The swap is the reflection in (1, 0, ..., 0, -1), of square 2: letter 2.
        pool = _pool_of((1,) + (0,) * 22 + (-1,))
        monkeypatch.setattr(verify, "_generator_pool", lambda: pool)
        monkeypatch.setattr(verify, "_sample_word", lambda seed, n: (2,) * n)
        report = verify_phi_integrality(self.CFG, word_length=4)
        assert json.dumps(report.check_json()) == (
            '{"name": "phi-integrality", "passed": false, "trials_run": 1, "counterexample": '
            '{"source": "trial 0, pairing 0", "word_seed": 487617019471545679, "word_length": 3, '
            '"image": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
            '"ell": [-37, -9, -28, 48, -19, 0, 47, 17, 21, 40, 16, 12, 47, -24, 34, -8, 23, 2, -18, 31, -23, -44], '
            '"pairing": -67, "pairing_mod_4": 1}}'
        )


class TestTupleRoute:
    """The trial cases run on 24-tuples through twisted_involution_coords and the full Gram."""

    def test_untwisted_involution_fails_the_characteristic_check(self, monkeypatch):
        # The cover involution alone negates the z3 block (a, a) of a closed-form vector.
        monkeypatch.setattr(
            verify, "twisted_involution_coords", lambda x: (x[0], *cover_involution_coords(x[1:23]), x[23])
        )
        report = verify_characteristic_congruence(TrialConfig(trials=50, seed=0))
        assert not report.passed and report.trials_run == 1
        ce = report.counterexample
        assert ce["source"] == "parametrized sampler, trial 0"
        assert ce["problems"] == ["parametrized vector is not T-invariant"]

    def test_wrong_full_gram_fails_the_square_check(self, monkeypatch):
        # H4 made positive: (0,0,1)^2 = 1, so (l + Tl)^2 gains (a + b)^2 for l's z3 block (a, b).
        rows = full_lattice().gram.to_rows()
        rows[23][23] = 1
        wrong = Lattice(IntMatrix.from_rows(rows))
        monkeypatch.setattr(verify, "full_lattice", lambda: wrong)
        report = verify_square_congruence(TrialConfig(trials=50, seed=0))
        assert not report.passed
        ce = report.counterexample
        a, b = ce["ell"][20:]
        assert (a + b) % 2 == 1 and ce["square_mod_4"] != 0
        assert ce["pairing_with_involution"] == ce["block_formula"]
        monkeypatch.undo()
        assert verify._square_congruence_case(tuple(ce["ell"])) is None

    def test_trial_cases_build_no_mukai_vector(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a trial case built a MukaiVector")

        monkeypatch.setattr(MukaiVector, "__init__", refuse)
        cfg = TrialConfig(trials=50)
        assert all(report.passed for report in verify.run_claims_suite(cfg, jobs=1))
        assert verify_phi_integrality(cfg).passed

    # tau with z3 kept, not negated. U reads z3 = (a, b) through 2ab alone, so
    # l . tau(l) moves by 4ab: a class fails where both of a and b are nonzero.
    KEEP_Z3 = staticmethod(itemgetter(*COVER_SWAP, 20, 21))

    def test_involution_keeping_z3_fails_the_square_check(self, monkeypatch):
        monkeypatch.setattr(verify, "cover_involution_coords", self.KEEP_Z3)
        cfg = TrialConfig(trials=50, seed=0)
        first = next(i for i in range(cfg.trials) if all(substream(cfg.seed, i).integers(-50, 50, 22)[20:]))
        report = verify_square_congruence(cfg)
        assert report.trials_run == first + 1
        ce = report.counterexample
        a, b = ce["ell"][20:]
        assert ce["pairing_with_involution"] - ce["block_formula"] == 4 * a * b != 0
        assert ce["square_mod_4"] == 0
        monkeypatch.undo()
        assert verify._square_congruence_case(tuple(ce["ell"])) is None

    def test_involution_keeping_z3_fails_the_sweep_on_the_z3_pair_alone(self, monkeypatch):
        # Classes with one z3 entry pass; the first failure is the first case of pair (20, 21).
        monkeypatch.setattr(verify, "cover_involution_coords", self.KEEP_Z3)
        ce = verify_square_congruence(TrialConfig(trials=0)).counterexample
        assert ce["source"] == "exhaustive pair (20, 21)"
        assert ce["ell"][20:] == [-2, -2] and not any(ce["ell"][:20])
        assert ce["pairing_with_involution"] != ce["block_formula"]

    def test_claims_build_no_involution_matrix(self):
        # tau is applied by its closed form: no command builds cover_involution_h2().
        code = (
            "import mukaitwist.lattices as lattices, mukaitwist.verify as verify; "
            "verify.run_claims_suite(verify.TrialConfig(trials=20), jobs=1); "
            "print(lattices.cover_involution_h2.cache_info().currsize)"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.split() == ["0"]

    def test_closed_form_is_a_tuple(self):
        v = verify._invariant_from_parameters(1, tuple(range(8)), (8, 9), 10)
        assert v == (2, *range(8), *range(8), 8, 9, 8, 9, 1, 1, 10)


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=-1)
        with pytest.raises(ValueError):
            TrialConfig(coord_bound=0)
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(seed=2**64)
        assert TrialConfig(seed=2**64 - 1).seed == 2**64 - 1
        for field in ("trials", "seed", "coord_bound"):
            for bad in (True, 2.0, 2.5, "2"):
                with pytest.raises(TypeError, match=field):
                    TrialConfig(**{field: bad})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"trials": -1}, "trials must be >= 0"),
            ({"seed": 2**64}, "seed must be in [0, 2**64)"),
            ({"coord_bound": 2**63}, "coord_bound must be in [1, 2**63)"),
        ],
    )
    def test_validation_messages(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            TrialConfig(**kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"trials": True}, "trials must be an int, got bool"),
            ({"trials": 2.0}, "trials must be an int, got float"),
            ({"seed": 1.0}, "seed must be an int, got float"),
            ({"coord_bound": 2.5}, "coord_bound must be an int, got float"),
        ],
    )
    def test_type_messages(self, kwargs, message):
        with pytest.raises(TypeError) as exc:
            TrialConfig(**kwargs)
        assert str(exc.value) == message

    def test_construction(self):
        cfg = TrialConfig(5, 7, 9)
        assert (cfg.trials, cfg.seed, cfg.coord_bound) == (5, 7, 9)
        assert cfg == TrialConfig(trials=5, seed=7, coord_bound=9) == TrialConfig(5, coord_bound=9, seed=7)
        default = TrialConfig()
        assert (default.trials, default.seed, default.coord_bound) == (
            verify.DEFAULT_TRIALS,
            verify.DEFAULT_SEED,
            verify.DEFAULT_COORD_BOUND,
        )
        assert list(cfg.to_dict().items()) == [("trials", 5), ("seed", 7), ("coord_bound", 9)]
        assert repr(cfg) == "TrialConfig(trials=5, seed=7, coord_bound=9)"

    def test_immutable(self):
        cfg = TrialConfig(trials=5)
        for name in ("trials", "seed", "coord_bound", "extra"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, 1)
            with pytest.raises(AttributeError):
                delattr(cfg, name)
        assert cfg.trials == 5

    def test_equality_and_hash(self):
        a, b = TrialConfig(trials=5, seed=3), TrialConfig(trials=5, seed=3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, TrialConfig(trials=5, seed=4)}) == 2
        assert a != TrialConfig(trials=6, seed=3)
        assert a != (5, 3, verify.DEFAULT_COORD_BOUND)
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a


class TestVerificationReport:
    def test_equality_ignores_elapsed(self):
        report = VerificationReport("square-congruence", 3, None, 0.5)
        same = VerificationReport("square-congruence", 3, None, elapsed_s=9.0)
        assert report == same
        assert report != VerificationReport("square-congruence", 3, {"ell": []}, 0.5)
        assert report != VerificationReport("square-congruence", 4, None, 0.5)
        with pytest.raises(TypeError):
            hash(report)

    def test_the_verdict_is_the_counterexample(self):
        failed = VerificationReport("square-congruence", 1, {"ell": [0] * 22}, 0.0)
        assert failed.passed is False and failed.check_json()["passed"] is False
        passed = VerificationReport("square-congruence", 3, None, 0.0)
        assert passed.passed is True and passed.check_json()["passed"] is True
        with pytest.raises(AttributeError):
            passed.passed = False


def _break_square(monkeypatch):
    """tau replaced by the identity on classes with odd first coordinate."""
    tau = verify.cover_involution_coords
    monkeypatch.setattr(verify, "cover_involution_coords", lambda ell: ell if ell[0] % 2 else tau(ell))


def _break_characteristic(monkeypatch):
    """T moved off vectors whose s is divisible by 3, from either sampler."""
    _shift_twist(monkeypatch, lambda x: x[23] % 3 == 0)


def _break_phi(monkeypatch):
    """T and a reflection that does not commute with T, so some images are odd."""
    pool = _pool_of(TestPhiFailureReporting.BREAKING)
    monkeypatch.setattr(verify, "_generator_pool", lambda: pool)


ORDER_CASES = {
    "square": (verify._square_case, verify_square_congruence, _break_square),
    "characteristic": (verify._characteristic_case, verify_characteristic_congruence, _break_characteristic),
    "phi": (
        lambda cfg, trial: verify._phi_case(cfg, 4, trial),
        lambda cfg: verify_phi_integrality(cfg, word_length=4),
        _break_phi,
    ),
}
ORDER_CFG = TrialConfig(trials=40, seed=77, coord_bound=50)


def _results_by_index(case, chunks) -> dict:
    """Each chunk of trial indices evaluated on its own, last chunk first."""
    out = {}
    for chunk in reversed(chunks):
        out.update((index, case(ORDER_CFG, index)) for index in chunk)
    return out


def _orders(n: int):
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    return {
        "shuffled": [shuffled],
        "split": [range(0, 7), range(7, 8), range(8, 25), range(25, n)],
        "shuffled and split": [shuffled[:13], shuffled[13:]],
    }


@pytest.mark.parametrize("check", ORDER_CASES)
class TestOrderIndependence:
    """A trial's result depends on its index alone, so any evaluation order,
    merged at the lowest failing index, reproduces the serial report."""

    def test_result_per_index_is_order_free(self, monkeypatch, check):
        results, _, breaker = ORDER_CASES[check]
        breaker(monkeypatch)
        n = ORDER_CFG.trials
        serial = _results_by_index(results, [range(n)])
        assert None in serial.values() and any(serial.values())  # both outcomes occur
        for chunks in _orders(n).values():
            assert _results_by_index(results, chunks) == serial

    @pytest.mark.parametrize("k", [0, 23, 39])
    def test_one_failing_trial_merges_to_the_serial_report(self, monkeypatch, check, k):
        results, run_serially, _ = ORDER_CASES[check]
        # Every pairing in trial k is off by one, which each of the three checks reports.
        _fail_trial(monkeypatch, k)
        serial = run_serially(ORDER_CFG)
        assert serial.trials_run == k + 1
        for chunks in _orders(ORDER_CFG.trials).values():
            by_index = _results_by_index(results, chunks)
            failing = [i for i, counterexample in by_index.items() if counterexample is not None]
            assert failing == [k]
            merged = verify.VerificationReport(
                check_name=serial.check_name,
                trials_run=min(failing) + 1,
                counterexample=by_index[min(failing)],
                elapsed_s=0.0,
            )
            assert merged == serial
            assert json.dumps(merged.check_json()) == json.dumps(serial.check_json())

    def test_the_first_failure_replays_by_one_call(self, monkeypatch, check):
        case, run_serially, breaker = ORDER_CASES[check]
        breaker(monkeypatch)
        report = run_serially(ORDER_CFG)
        assert not report.passed
        assert case(ORDER_CFG, report.trials_run - 1) == report.counterexample


def _fail_trial(monkeypatch, k: int, error: type[BaseException] | None = None) -> None:
    """Every pairing in trial k is off by one, or, given an error, drawing trial k raises it."""
    trial = [None]
    draw = verify.substream

    def spy(seed, index):
        if index == k and error is not None:
            raise error(f"trial {k}")
        trial[0] = index
        return draw(seed, index)

    monkeypatch.setattr(verify, "substream", spy)
    _shift_pairing(monkeypatch, lambda: trial[0] == k)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


PARALLEL_CHECKS = {
    "square": verify_square_congruence,
    "characteristic": verify_characteristic_congruence,
    "phi": lambda cfg, jobs: verify_phi_integrality(cfg, word_length=4, jobs=jobs),
}


@pytest.mark.parametrize("check", PARALLEL_CHECKS)
class TestParallelRuns:
    """Cases dealt round-robin to forked workers and merged at the lowest
    failing index give the serial report, and no worker outlives the call."""

    @staticmethod
    def reports(check: str, cfg: TrialConfig = ORDER_CFG) -> list[VerificationReport]:
        run = PARALLEL_CHECKS[check]
        out = [run(cfg, jobs=jobs) for jobs in (1, 2, 3)]
        _no_child_left()
        return out

    def test_passing_run(self, check):
        serial, *parallel = self.reports(check)
        assert serial.passed
        assert parallel == [serial, serial]

    @pytest.mark.parametrize("k", [0, 23, 39])
    def test_one_failing_trial(self, monkeypatch, check, k):
        _fail_trial(monkeypatch, k)
        serial, *parallel = self.reports(check)
        assert serial.trials_run == k + 1
        assert parallel == [serial, serial]

    def test_failures_in_every_share(self, monkeypatch, check):
        ORDER_CASES[check][2](monkeypatch)
        serial, *parallel = self.reports(check)
        assert not serial.passed
        assert parallel == [serial, serial]

    def test_a_failure_stops_every_worker(self, monkeypatch, check):
        # Trial 1 is the forked worker's at jobs=2; once it fails, the parent
        # stops at its next index instead of running its whole 10,000-trial share.
        _fail_trial(monkeypatch, 1)
        cfg = TrialConfig(trials=20_000)
        serial = PARALLEL_CHECKS[check](cfg, jobs=1)
        draws = []
        draw = verify.substream
        monkeypatch.setattr(verify, "substream", lambda seed, index: draws.append(index) or draw(seed, index))
        assert PARALLEL_CHECKS[check](cfg, jobs=2) == serial
        assert serial.trials_run == 2 and len(draws) < 10_000 // 2
        _no_child_left()

    def test_failure_at_index_zero_forks_no_worker(self, monkeypatch, check):
        _fail_trial(monkeypatch, 0)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked after index 0 failed"))
        report = PARALLEL_CHECKS[check](ORDER_CFG, jobs=2)
        assert report.trials_run == 1 and not report.passed

    def test_worker_that_raises_makes_the_call_raise(self, monkeypatch, check):
        _fail_trial(monkeypatch, 1, ZeroDivisionError)  # index 1 is the forked worker's at jobs=2
        with pytest.raises(ZeroDivisionError, match="trial 1"):
            PARALLEL_CHECKS[check](ORDER_CFG, jobs=2)
        _no_child_left()

    def test_worker_killed_by_a_signal_makes_the_call_raise(self, monkeypatch, check):
        parent = os.getpid()
        draw = verify.substream

        def kill_worker_at_trial_1(seed, index):
            if index == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return draw(seed, index)

        monkeypatch.setattr(verify, "substream", kill_worker_at_trial_1)
        with pytest.raises(RuntimeError, match="verify worker 1 exited with status -9"):
            PARALLEL_CHECKS[check](ORDER_CFG, jobs=2)
        _no_child_left()

    def test_failure_only_a_worker_sees_is_an_internal_fault(self, monkeypatch, check):
        # Trial 1 fails in the forked worker alone, so its replay in the parent passes.
        parent = os.getpid()
        trial = [None]
        draw = verify.substream

        def note_trial(seed, index):
            trial[0] = index
            return draw(seed, index)

        monkeypatch.setattr(verify, "substream", note_trial)
        _shift_pairing(monkeypatch, lambda: trial[0] == 1 and os.getpid() != parent)
        assert PARALLEL_CHECKS[check](ORDER_CFG, jobs=1).passed
        with pytest.raises(RuntimeError, match="case 1 failed in a worker but passes when replayed"):
            PARALLEL_CHECKS[check](ORDER_CFG, jobs=2)
        _no_child_left()

    def test_parent_that_raises_reaps_its_workers(self, monkeypatch, check):
        _fail_trial(monkeypatch, 2, ZeroDivisionError)  # index 2 is the parent's at jobs=2
        with pytest.raises(ZeroDivisionError, match="trial 2"):
            PARALLEL_CHECKS[check](ORDER_CFG, jobs=2)
        _no_child_left()

    def test_jobs_below_one_rejected(self, check):
        with pytest.raises(ValueError, match="jobs"):
            PARALLEL_CHECKS[check](ORDER_CFG, jobs=0)

    @pytest.mark.parametrize("jobs", [True, 2.0])
    def test_non_int_jobs_rejected(self, check, jobs):
        with pytest.raises(TypeError, match="jobs must be an int"):
            PARALLEL_CHECKS[check](ORDER_CFG, jobs=jobs)
        _no_child_left()


class TestSquareSweepIndices:
    def test_sweep_cases_in_product_order(self):
        values = range(-2, 3)
        expected = list(product(combinations(range(22), 2), product(values, repeat=2)))
        got = []
        for k in range(verify.SWEEP_CASES):
            ell, (i, j) = verify._sweep_class(k)
            assert all(c == 0 for n, c in enumerate(ell) if n not in (i, j))
            got.append(((i, j), (ell[i], ell[j])))
        assert got == expected

    def test_failure_in_the_sweep_merges_to_the_serial_report(self, monkeypatch):
        # tau is the identity on classes supported on coordinates 5 and 9
        # alone, which no random trial draws.
        tau = verify.cover_involution_coords
        pair = {5, 9}
        monkeypatch.setattr(
            verify,
            "cover_involution_coords",
            lambda ell: ell if {n for n, c in enumerate(ell) if c} == pair else tau(ell),
        )
        serial, *parallel = TestParallelRuns.reports("square")
        assert serial.counterexample["source"] == "exhaustive pair (5, 9)"
        assert serial.trials_run > ORDER_CFG.trials
        assert parallel == [serial, serial]
