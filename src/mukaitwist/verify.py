"""Randomized and exhaustive checks of the twisted-involution arithmetic.

Every check is deterministic: a (trials, seed, coord_bound) configuration
fixes the sampled sequence exactly (SplitMix64 substreams, one per trial,
see mukaitwist.prng), so reports are reproducible byte for byte apart from
elapsed time. Trials share no mutable state and may be evaluated in any
order; a report is the conjunction of its trials.

A falsified congruence is data, not an exception: the report carries the
first counterexample, with enough coordinates to re-evaluate the failed
identity independently.

Checks:

* square congruence -- (l + Tl)^2 = 0 mod 4 for degree-2 classes l, plus
  the block identity l . (cover involution l) = 2 x.y + 2 z1.z2 - z3^2.
* characteristic congruence -- <(0,0,1), v> = v^2 mod 4 for T-invariant v,
  sampled both from the closed-form parametrization and from the computed
  kernel basis of T - 1.
* invariant lattice -- the fixed lattice of T has rank 12, its Gram form is
  twice an odd unimodular form, and (0,0,1) is characteristic for the half
  form.
* phi integrality -- words in T-equivariant generators send (0,0,1) to a
  vector with even degree-2 part, and <phi(0,0,1), l + Tl> = 0 mod 4.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from .intmat import IntMatrix, determinant, solve
from .lattices import (
    Isometry,
    Lattice,
    X_SLICE,
    Y_SLICE,
    Z1_SLICE,
    Z2_SLICE,
    Z3_SLICE,
    cover_involution_h2,
    fixed_sublattice,
    reflection,
    short_vectors,
    standard_lattice,
)
from .mukai import (
    FULL_RANK,
    H2_RANK,
    MukaiVector,
    full_lattice,
    mukai_pairing,
    point_class,
    twisted_involution,
    twisted_involution_matrix,
)
from .prng import SplitMix64, mix64, substream

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 100_000
DEFAULT_COORD_BOUND = 50
DEFAULT_WORD_LENGTH = 8

EXHAUSTIVE_ENTRY_BOUND = 2  # low-support exhaustive pass scans entries in [-2, 2]


@dataclass(frozen=True)
class TrialConfig:
    """Deterministic sampling configuration for a verification run."""

    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    coord_bound: int = DEFAULT_COORD_BOUND

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        if self.coord_bound < 1:
            raise ValueError("coord_bound must be >= 1")


@dataclass
class VerificationReport:
    """Outcome of one check: pass/fail, trial count, and any counterexample."""

    check_name: str
    trials_run: int
    passed: bool
    counterexample: dict | None
    config: dict
    elapsed_s: float = field(compare=False)

    def summary(self) -> dict:
        """Everything except timing; equal summaries mean identical runs."""
        return self.check_json() | {"config": dict(self.config)}

    def check_json(self) -> dict:
        """The check's entry in a JSON report."""
        out = {
            "name": self.check_name,
            "passed": self.passed,
            "trials_run": self.trials_run,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _report(name: str, config: dict, started: float, trials: int, counterexample: dict | None) -> VerificationReport:
    return VerificationReport(
        check_name=name,
        trials_run=trials,
        passed=counterexample is None,
        counterexample=counterexample,
        config=config,
        elapsed_s=time.perf_counter() - started,
    )


def _h2_blocks(coords: tuple[int, ...]):
    return coords[X_SLICE], coords[Y_SLICE], coords[Z1_SLICE], coords[Z2_SLICE], coords[Z3_SLICE]


def _square_congruence_case(ell: tuple[int, ...]) -> dict | None:
    """One claim-1 instance; returns a counterexample dict or None."""
    minus_e8 = standard_lattice("minus_e8")
    u_lat = standard_lattice("u")
    h2 = standard_lattice("mukai_h2")

    vec = MukaiVector.from_h2(ell)
    doubled = vec + twisted_involution(vec)
    square = mukai_pairing(doubled, doubled)
    tau_ell = cover_involution_h2()(ell)
    pair_tau = h2.inner(ell, tau_ell)
    x, y, z1, z2, z3 = _h2_blocks(ell)
    block_formula = 2 * minus_e8.inner(x, y) + 2 * u_lat.inner(z1, z2) - u_lat.norm(z3)
    if square % 4 == 0 and pair_tau == block_formula:
        return None
    return {
        "ell": list(ell),
        "square": square,
        "square_mod_4": square % 4,
        "pairing_with_involution": pair_tau,
        "block_formula": block_formula,
    }


def verify_square_congruence(cfg: TrialConfig) -> VerificationReport:
    """(l + Tl)^2 = 0 mod 4 on random degree-2 classes plus a low-support sweep."""
    started = time.perf_counter()
    config = {"trials": cfg.trials, "seed": cfg.seed, "coord_bound": cfg.coord_bound}
    counterexample = None
    trials = 0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        ell = rng.integers(-cfg.coord_bound, cfg.coord_bound, H2_RANK)
        trials += 1
        counterexample = _square_congruence_case(ell)
        if counterexample is not None:
            counterexample["source"] = f"random trial {trial}"
            break
    if counterexample is None:
        # Exhaustive over all classes supported on at most two coordinates.
        b = EXHAUSTIVE_ENTRY_BOUND
        for i in range(H2_RANK):
            for j in range(i + 1, H2_RANK):
                for vi in range(-b, b + 1):
                    for vj in range(-b, b + 1):
                        ell = [0] * H2_RANK
                        ell[i], ell[j] = vi, vj
                        trials += 1
                        counterexample = _square_congruence_case(tuple(ell))
                        if counterexample is not None:
                            counterexample["source"] = f"exhaustive pair ({i}, {j})"
                            break
                    if counterexample:
                        break
                if counterexample:
                    break
            if counterexample:
                break
    return _report("square-congruence", config, started, trials, counterexample)


@lru_cache(maxsize=None)
def _invariant_basis() -> tuple[IntMatrix, IntMatrix]:
    """Kernel basis of T - 1 on the full lattice, with its restricted Gram form."""
    return fixed_sublattice(full_lattice(), twisted_involution_matrix(), 1)


def _invariant_from_parameters(a: int, x: tuple[int, ...], z1: tuple[int, ...], s: int) -> MukaiVector:
    """The closed-form T-invariant vector (2a, (x, x, z1, z1, (a, a)), s)."""
    return MukaiVector(2 * a, x + x + z1 + z1 + (a, a), s)


def verify_characteristic_congruence(cfg: TrialConfig) -> VerificationReport:
    """<(0,0,1), v> = v^2 mod 4 on T-invariant v from two independent samplers."""
    started = time.perf_counter()
    config = {"trials": cfg.trials, "seed": cfg.seed, "coord_bound": cfg.coord_bound}
    minus_e8 = standard_lattice("minus_e8")
    u_lat = standard_lattice("u")
    basis, _ = _invariant_basis()
    n_basis = basis.cols
    point = point_class()
    b = cfg.coord_bound
    counterexample = None
    trials = 0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        trials += 1

        # Sampler (i): closed-form parametrization.
        a = rng.integer(-b, b)
        x = rng.integers(-b, b, 8)
        z1 = rng.integers(-b, b, 2)
        s = rng.integer(-b, b)
        v = _invariant_from_parameters(a, x, z1, s)
        pair = mukai_pairing(point, v)
        vsq = mukai_pairing(v, v)
        closed_pair = -2 * a
        closed_sq = 2 * minus_e8.norm(x) + 2 * u_lat.norm(z1) + 2 * a * a - 4 * a * s
        problems = []
        if twisted_involution(v) != v:
            problems.append("parametrized vector is not T-invariant")
        if pair != closed_pair:
            problems.append("pairing disagrees with closed form -2a")
        if vsq != closed_sq:
            problems.append("square disagrees with closed form")
        if (pair - vsq) % 4 != 0:
            problems.append("congruence fails")
        if problems:
            counterexample = {
                "source": f"parametrized sampler, trial {trial}",
                "parameters": {"a": a, "x": list(x), "z1": list(z1), "s": s},
                "pairing": pair,
                "square": vsq,
                "problems": problems,
            }
            break

        # Sampler (ii): random combination of the computed kernel basis of T - 1.
        coeffs = rng.integers(-b, b, n_basis)
        w = MukaiVector.from_coords(basis.mul_vec(coeffs))
        pair_w = mukai_pairing(point, w)
        wsq = mukai_pairing(w, w)
        problems = []
        if twisted_involution(w) != w:
            problems.append("kernel-basis vector is not T-invariant")
        if (pair_w - wsq) % 4 != 0:
            problems.append("congruence fails")
        if problems:
            counterexample = {
                "source": f"kernel-basis sampler, trial {trial}",
                "coefficients": list(coeffs),
                "vector": list(w.coords()),
                "pairing": pair_w,
                "square": wsq,
                "problems": problems,
            }
            break
    return _report("characteristic-congruence", config, started, trials, counterexample)


def verify_invariant_lattice() -> VerificationReport:
    """Structure of the T-invariant lattice: twice an odd unimodular form.

    Checks, in order: rank 12; every Gram entry even; half form unimodular
    (det +-1); half form odd (an odd diagonal entry); (0,0,1) lies in the
    invariant lattice and is characteristic for the half form.
    """
    started = time.perf_counter()
    checks, counterexample = _invariant_lattice_checks(*_invariant_basis())
    return _report("invariant-lattice", {}, started, checks, counterexample)


def _invariant_lattice_checks(basis: IntMatrix, gram: IntMatrix) -> tuple[int, dict | None]:
    """Run the invariant-lattice checks in order: (checks run, first failure or None)."""
    if basis.cols != 12:
        return 1, {"reason": "invariant lattice has wrong rank", "rank": basis.cols}
    if any(e % 2 for e in gram.flat):
        return 2, {"reason": "Gram form of invariant lattice is not even"}
    half = IntMatrix(gram.rows, gram.cols, [e // 2 for e in gram.flat])
    half_det = determinant(half)
    if half_det not in (1, -1):
        return 3, {"reason": "half form is not unimodular", "det": half_det}
    if all(half[i, i] % 2 == 0 for i in range(half.rows)):
        return 4, {"reason": "half form is even; expected an odd form"}
    point_coords = solve(basis, point_class().coords())
    if point_coords is None:
        return 5, {"reason": "(0,0,1) is not in the computed invariant lattice"}
    half_point = half.mul_vec(point_coords)
    bad = [i for i in range(half.rows) if (half_point[i] - half[i, i]) % 2 != 0]
    if bad:
        return 6, {
            "reason": "(0,0,1) is not characteristic for the half form",
            "basis_indices": bad,
            "point_in_basis": list(point_coords),
        }
    return 6, None


@lru_cache(maxsize=None)
def _generator_pool() -> tuple[Isometry, ...]:
    """T-equivariant generators: T, -1, and reflections in short T-(anti)fixed vectors.

    Reflection vectors are harvested from the fixed and anti-fixed lattices
    of T (square +-2, coordinate box 1 in the kernel basis); a reflection in
    a vector w with T w = +-w commutes with T. This pool generates a proper
    subgroup of the full equivariant orthogonal group; it is a test family,
    not an enumeration.
    """
    lat = full_lattice()
    t_iso = twisted_involution_matrix()
    minus_identity = Isometry(lat, -IntMatrix.identity(FULL_RANK))
    pool: list[Isometry] = [t_iso, minus_identity]
    for sign in (1, -1):
        basis, gram = fixed_sublattice(lat, t_iso, sign)
        sub = Lattice(gram, f"T-fixed({sign:+d})")
        for target in (2, -2):
            for w in short_vectors(sub, target, 1):
                if next((c for c in w if c), 0) < 0:
                    continue  # skip -w; same reflection
                pool.append(reflection(lat, basis.mul_vec(w)))
    return tuple(pool)


def sample_equivariant_isometry(seed: int, word_length: int) -> Isometry:
    """A deterministic word in the equivariant generator pool; commutes with T."""
    if word_length < 0:
        raise ValueError("word_length must be >= 0")
    pool = _generator_pool()
    if not pool:
        raise RuntimeError("equivariant generator pool is empty")
    lat = full_lattice()
    rng = SplitMix64(mix64(seed))
    result = Isometry(lat, IntMatrix.identity(FULL_RANK))
    for _ in range(word_length):
        result = result @ pool[rng.below(len(pool))]
    t_mat = twisted_involution_matrix().matrix
    if result.matrix @ t_mat != t_mat @ result.matrix:
        raise RuntimeError("sampled word does not commute with the twisted involution")
    return result


STRENGTHENED_PAIRINGS_PER_TRIAL = 10


def verify_phi_integrality(cfg: TrialConfig, word_length: int = DEFAULT_WORD_LENGTH) -> VerificationReport:
    """Images phi(0,0,1) under sampled equivariant words have even degree-2 part.

    Also asserts the strengthening <phi(0,0,1), l + Tl> = 0 mod 4 on
    STRENGTHENED_PAIRINGS_PER_TRIAL random degree-2 classes per word.
    """
    if word_length < 0:
        raise ValueError("word_length must be >= 0")
    started = time.perf_counter()
    config = {
        "trials": cfg.trials,
        "seed": cfg.seed,
        "coord_bound": cfg.coord_bound,
        "word_length": word_length,
    }
    point = point_class()
    counterexample = None
    trials = 0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        length = rng.below(word_length + 1)
        word_seed = rng.next_u64()
        phi = sample_equivariant_isometry(word_seed, length)
        image = phi(point.coords())
        trials += 1
        degree2 = image[1:23]
        if any(c % 2 for c in degree2):
            counterexample = {
                "source": f"trial {trial}",
                "word_seed": word_seed,
                "word_length": length,
                "image": list(image),
                "odd_degree2_indices": [i for i, c in enumerate(degree2) if c % 2],
            }
            break
        image_vec = MukaiVector.from_coords(image)
        for k in range(STRENGTHENED_PAIRINGS_PER_TRIAL):
            ell = MukaiVector.from_h2(rng.integers(-cfg.coord_bound, cfg.coord_bound, H2_RANK))
            doubled = ell + twisted_involution(ell)
            pairing = mukai_pairing(image_vec, doubled)
            if pairing % 4:
                counterexample = {
                    "source": f"trial {trial}, pairing {k}",
                    "word_seed": word_seed,
                    "word_length": length,
                    "image": list(image),
                    "ell": list(ell.c),
                    "pairing": pairing,
                    "pairing_mod_4": pairing % 4,
                }
                break
        if counterexample:
            break
    return _report("phi-integrality", config, started, trials, counterexample)


def run_claims_suite(cfg: TrialConfig) -> list[VerificationReport]:
    """The three structural checks behind the integrality argument."""
    return [
        verify_square_congruence(cfg),
        verify_characteristic_congruence(cfg),
        verify_invariant_lattice(),
    ]
