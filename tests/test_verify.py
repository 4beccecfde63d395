import random

import pytest

import mukaitwist.verify as verify
from mukaitwist import (
    IntMatrix,
    Isometry,
    MukaiVector,
    TrialConfig,
    full_lattice,
    mukai_pairing,
    point_class,
    sample_equivariant_isometry,
    standard_lattice,
    twisted_involution,
    twisted_involution_matrix,
    verify_characteristic_congruence,
    verify_invariant_lattice,
    verify_phi_integrality,
    verify_square_congruence,
)

CFG = TrialConfig(trials=300, seed=20240611, coord_bound=50)


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

    def test_golden_example(self):
        # a=1, x=0, z1=0, s=0: square 2, pairing -2, congruent mod 4
        v = verify._invariant_from_parameters(1, (0,) * 8, (0, 0), 0)
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
        pool = verify._generator_pool()
        assert pool[0].matrix == twisted_involution_matrix().matrix
        assert pool[1].matrix == -IntMatrix.identity(24)
        assert len(pool) > 2

    def test_pool_reflections_commute_with_twist(self):
        pool = verify._generator_pool()
        t = twisted_involution_matrix().matrix
        rng = random.Random(1)
        for gen in rng.sample(pool, 25):
            assert gen.matrix @ t == t @ gen.matrix

    def test_negative_word_length_rejected(self):
        with pytest.raises(ValueError):
            sample_equivariant_isometry(0, -1)


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
            image_v = MukaiVector.from_coords(phi(v.coords()))
            assert twisted_involution(image_v) == image_v  # invariance transported
            pair = mukai_pairing(image_point, image_v)
            assert (pair - mukai_pairing(image_v, image_v)) % 4 == 0


class TestPhiIntegrality:
    def test_passes(self):
        report = verify_phi_integrality(TrialConfig(trials=40, seed=3), word_length=6)
        assert report.passed
        assert report.trials_run == 40
        assert report.config["word_length"] == 6

    def test_zero_word_length(self):
        report = verify_phi_integrality(TrialConfig(trials=5, seed=4), word_length=0)
        assert report.passed


class TestDeterminism:
    def test_reports_reproduce(self):
        cfg = TrialConfig(trials=200, seed=42)
        first = [r.summary() for r in verify.run_claims_suite(cfg)]
        second = [r.summary() for r in verify.run_claims_suite(cfg)]
        assert first == second

    def test_report_equality_ignores_elapsed(self):
        cfg = TrialConfig(trials=50, seed=9)
        a = verify_square_congruence(cfg)
        b = verify_square_congruence(cfg)
        assert a == b  # dataclass eq with elapsed excluded
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
        broken = Isometry(h2, IntMatrix.identity(22))
        monkeypatch.setattr(verify, "cover_involution_h2", lambda: broken)
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

    def test_summary_carries_counterexample(self, monkeypatch):
        h2 = standard_lattice("mukai_h2")
        broken = Isometry(h2, IntMatrix.identity(22))
        monkeypatch.setattr(verify, "cover_involution_h2", lambda: broken)
        report = verify_square_congruence(TrialConfig(trials=50, seed=0))
        assert "counterexample" in report.summary()
        assert "counterexample" in report.check_json()


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
