"""Randomized and exhaustive checks of the twisted-involution arithmetic.

Every check is deterministic: a (trials, seed, coord_bound) configuration
fixes the sampled sequence exactly (SplitMix64 substreams, one per trial,
see mukaitwist.prng), so reports are reproducible byte for byte apart from
elapsed time. Trials share no mutable state and may be evaluated in any
order; a report is the conjunction of its trials. A configuration is a
TrialConfig and each check's outcome a VerificationReport. Both are
immutable records on one base (mukaitwist._record.Record); two reports are
equal when all but their elapsed_s is, and a report has no hash.

Each check is a numbered set of cases, and a case function gives each
case's result: case(index) returns None, or that index's counterexample.
A sampled check's case function is _square_case(cfg, index),
_characteristic_case(cfg, trial) or _phi_case(cfg, word_length, trial), so
any case replays by one call; the square check numbers its random trials
first and the cases of its exhaustive sweep after them. The invariant
lattice's six steps each read the ones before, so they run serially in the
parent, and _invariant_lattice_failure() returns the first failing step.
One function, _run_cases, runs every sampled check, on one process or
several (the `jobs` keyword, 1 by default; it is an execution option, so
it is in no config and no report). The parent and every worker run one
loop, _first_failure, over their own indices:

* dealing -- with w = min(jobs, count) workers, worker k evaluates indices
  k, k + w, k + 2w, ... in order and stops at its first counterexample.
  Round-robin dealing keeps the shares even where cheap sweep cases follow
  dearer trials. The parent is worker 0 and forks the other w - 1 with
  os.fork, after it has evaluated index 0: that first case builds the
  caches the cases read (the compiled Gram forms, and for phi the
  generator pool), so no worker builds them again, and if it fails no
  worker is forked. The characteristic check builds the kernel basis of
  T - 1 before its cases, so a run of no trials builds it too. The pool is
  one read-only view of the harvested bytes, so a worker reads it and
  builds nothing per letter. A forked child holds only the forking thread,
  so pass jobs > 1 only from a process that runs no other threads (the CLI
  runs none).
* early stop -- each worker k has its own 8-byte word, lowest[k], the index
  of its first case that fails or raises, count at first; with w > 1 the
  words are one anonymous mmap that the forked workers share, and with
  w = 1 a one-item list. Before each index a worker stops if the index is
  above the lowest word. Only real failing indices are written, so a race
  can make a worker stop later but never skip an index below the lowest
  failure.
* merge -- the words are all a worker gives back: it leaves by os._exit,
  with status 1 if a case raised and 0 otherwise. Once every worker is
  reaped, the parent replays the lowest index written, through the case
  function, and its counterexample is the report's, with trials_run that
  index + 1, or the case count when no word was written. Below that index
  every case passed, in some worker, so the report is the serial one
  whatever w is.
* failure -- a worker that raised has its case replayed in the parent, so
  the call raises that case's own exception, as a serial run does. Any
  other fault raises RuntimeError: a worker that exits otherwise (killed
  by a signal, say), a raising case whose replay does not raise, and a
  failing case whose replay passes (a case that depends on the process it
  runs in). Every worker is reaped on every path; if the parent raises,
  its workers are killed first.

A falsified congruence is data, not an exception: the report carries the
first counterexample, with enough coordinates to re-evaluate the failed
identity independently.

The trial cases compute on plain tuples of ints and build no MukaiVector.
T and the cover involution act by their closed forms,
twisted_involution_coords and cover_involution_coords, every pairing of
24-tuples is _pairing, by full_lattice()'s Gram, and each reflection's dual
comes from reflection_dual. Those four names are the seam through which the
checks meet the maps and the Gram.

Checks:

* square congruence -- (l + Tl)^2 = 0 mod 4 for degree-2 classes l, plus
  the block identity l . (cover involution l) = 2 x.y + 2 z1.z2 - z3^2 and
  the doubling identity (l + Tl)^2 = 2 l^2 + 2 l . (cover involution l),
  which holds because l . Tl = l . (cover involution l) on (0, l, 0).
* characteristic congruence -- <(0,0,1), v> = v^2 mod 4 for T-invariant v,
  sampled both from the closed-form parametrization and from the computed
  kernel basis of T - 1.
* invariant lattice -- the fixed lattice of T has rank 12, its Gram form is
  twice an odd unimodular form, and (0,0,1) is characteristic for the half
  form.
* phi integrality -- words in T-equivariant generators send (0,0,1) to an
  isotropic vector with even degree-2 part, and <phi(0,0,1), l + Tl> = 0
  mod 4. The generator pool is T, -1 and reflection vectors w, harvested
  once per process from the lex-sorted short vectors of the +-1
  eigenlattices of T: of each scan's hits, which come in pairs +-v, the
  upper half (the v with a positive leading entry) is kept, with its dual,
  in one flat array. T B = +-B is checked once for each kernel basis B,
  which gives T w = +-w for every w = B v by linearity, and
  reflection_dual checks w^2 = +-2 for each w. A word is a tuple of pool
  indices, applied to (0,0,1) right to left by _apply_word, each
  reflection as a rank-one update.
"""
from __future__ import annotations

import os
import time
from collections.abc import Sequence
from functools import lru_cache, partial
from itertools import combinations, islice
from operator import add, neg

from ._record import Record, require_int
from .intmat import IntMatrix, determinant, solve
from .lattices import (
    Isometry,
    Lattice,
    X_SLICE,
    Y_SLICE,
    Z1_SLICE,
    Z2_SLICE,
    Z3_SLICE,
    cover_involution_coords,
    fixed_sublattice,
    reflect,
    reflection_dual,
    short_vectors,
    standard_lattice,
)
from .mukai import FULL_RANK, H2_RANK, full_lattice, twisted_involution_coords, twisted_involution_matrix
from .prng import SplitMix64, mix64, substream

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 100_000
DEFAULT_PHI_TRIALS = 1000
DEFAULT_COORD_BOUND = 50
DEFAULT_WORD_LENGTH = 8

EXHAUSTIVE_ENTRY_BOUND = 2  # low-support exhaustive pass scans entries in [-2, 2]


class TrialConfig(Record):
    """Deterministic sampling configuration for a verification run; immutable."""

    __slots__ = _fields = ("trials", "seed", "coord_bound")

    def __init__(self, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, coord_bound: int = DEFAULT_COORD_BOUND):
        for field, value in (("trials", trials), ("seed", seed), ("coord_bound", coord_bound)):
            require_int(field, value)
        if trials < 0:
            raise ValueError("trials must be >= 0")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        # A coordinate is one draw from the 2b + 1 values in [-b, b]; SplitMix64 has 2**64.
        if not 1 <= coord_bound < 2**63:
            raise ValueError("coord_bound must be in [1, 2**63)")
        super().__init__(trials, seed, coord_bound)

    def to_dict(self) -> dict:
        """The configuration as it appears in a report: trials, seed, coord_bound."""
        return {"trials": self.trials, "seed": self.seed, "coord_bound": self.coord_bound}


class VerificationReport(Record):
    """Outcome of one check: the cases run and the first counterexample, if any; immutable.

    The counterexample is the verdict: a report passed when it has none, so
    no report can read passed beside a counterexample. Two reports are equal
    when everything but elapsed_s is. A report has no hash, as its
    counterexample is a dict.
    """

    __slots__ = _fields = ("check_name", "trials_run", "counterexample", "elapsed_s")

    def __init__(self, check_name: str, trials_run: int, counterexample: dict | None, elapsed_s: float):
        super().__init__(check_name, trials_run, counterexample, elapsed_s)

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def _key(self) -> tuple:
        return self.check_name, self.trials_run, self.counterexample

    __hash__ = None

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


def _lowest_failures(workers: int, count: int):
    """One word per worker, the index of its first failing case, shared across a fork when workers > 1.

    Each word starts at count, or at an 8-byte word's largest value, which no run reaches.
    """
    start = min(count, 2**64 - 1)
    if workers == 1:
        return [start]
    import mmap  # loaded only by a run that forks

    lowest = memoryview(mmap.mmap(-1, 8 * workers)).cast("Q")
    for k in range(workers):
        lowest[k] = start
    return lowest


def _first_failure(case, indices, lowest, k: int) -> None:
    """Run case over indices; write the first index that fails or raises to lowest[k].

    It stops before an index above min(lowest), so that every worker stops
    before its next index above the lowest failure found. A raise propagates.
    """
    for index in indices:
        if index > min(lowest):
            return
        try:
            counterexample = case(index)
        except BaseException:
            lowest[k] = index
            raise
        if counterexample is not None:
            lowest[k] = index
            return


def _fork_worker(case, indices: range, lowest, k: int) -> int:
    """Fork worker k over indices; return its pid.

    The worker exits with status 1 if a case raised, else 0, without running
    any inherited clean-up or flushing any inherited buffer.
    """
    pid = os.fork()
    if pid:
        return pid
    try:
        _first_failure(case, indices, lowest, k)
    except BaseException:
        os._exit(1)
    os._exit(0)


def _run_cases(name: str, case, count: int, jobs: int = 1) -> VerificationReport:
    """Run case(0), ..., case(count - 1) on min(jobs, count) workers; report the lowest failing index.

    case(index) returns None or that index's counterexample. The parent
    replays the lowest index that any worker found failing, and that call's
    result, or its exception, is the report's, as in a serial run.
    """
    require_int("jobs", jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.perf_counter()
    workers = max(1, min(jobs, count))
    lowest = _lowest_failures(workers, count)
    unset = lowest[0]
    own = range(0, count, workers)
    # Index 0 runs before any fork and builds the caches the cases share.
    _first_failure(case, own[:1], lowest, 0)
    children: list[int] = []
    try:
        # A failure at index 0 is the lowest there can be: fork no worker.
        for k in range(1, workers) if lowest[0] == unset else ():
            children.append(_fork_worker(case, range(k, count, workers), lowest, k))
        _first_failure(case, own[1:], lowest, 0)
    except BaseException:
        import signal  # loaded only on this path

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for k, status in enumerate(statuses, 1):
        if status == 1 and lowest[k] < unset:
            case(lowest[k])  # the worker's exception, raised here as a serial run raises it
        if status:
            raise RuntimeError(f"verify worker {k} exited with status {status}")
    index = min(lowest)
    if index == unset:
        return VerificationReport(name, count, None, time.perf_counter() - started)
    counterexample = case(index)
    if counterexample is None:
        raise RuntimeError(f"verify case {index} failed in a worker but passes when replayed")
    return VerificationReport(name, index + 1, counterexample, time.perf_counter() - started)


def _h2_blocks(coords: tuple[int, ...]):
    return coords[X_SLICE], coords[Y_SLICE], coords[Z1_SLICE], coords[Z2_SLICE], coords[Z3_SLICE]


# (0, 0, 1), the H4 generator, on the 24 coordinates (r, c_1..c_22, s).
_POINT = (0,) * (FULL_RANK - 1) + (1,)


def _pairing(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """<u, v> on 24 coordinates by the Gram of full_lattice(); every trial case pairs through it."""
    return full_lattice().inner(u, v)


def _doubled(ell: tuple[int, ...]) -> tuple[int, ...]:
    """l + Tl on 24 coordinates, for the degree-2 class l = (0, ell, 0)."""
    v = (0, *ell, 0)
    return tuple(map(add, v, twisted_involution_coords(v)))


def _square_congruence_case(ell: tuple[int, ...]) -> dict | None:
    """One claim-1 instance; returns a counterexample dict or None."""
    minus_e8 = standard_lattice("minus_e8")
    u_lat = standard_lattice("u")
    h2 = standard_lattice("mukai_h2")

    doubled = _doubled(ell)
    square = _pairing(doubled, doubled)
    pair_tau = h2.inner(ell, cover_involution_coords(ell))
    x, y, z1, z2, z3 = _h2_blocks(ell)
    block_formula = 2 * minus_e8.inner(x, y) + 2 * u_lat.inner(z1, z2) - u_lat.norm(z3)
    # (l + Tl)^2 = 2 l^2 + 2 l.Tl, and l.Tl = l.tau(l) on (0, l, 0): this ties
    # _doubled and T to the separate route through the cover involution.
    if square % 4 == 0 and pair_tau == block_formula and square == 2 * h2.norm(ell) + 2 * pair_tau:
        return None
    return {
        "ell": list(ell),
        "square": square,
        "square_mod_4": square % 4,
        "pairing_with_involution": pair_tau,
        "block_formula": block_formula,
    }


# The exhaustive sweep: every class supported on at most two coordinates
# (i, j), i < j, with entries in [-2, 2]; case k is pair k // 25, values k % 25.
_SWEEP_PAIRS = tuple(combinations(range(H2_RANK), 2))
_SWEEP_VALUES = range(-EXHAUSTIVE_ENTRY_BOUND, EXHAUSTIVE_ENTRY_BOUND + 1)
SWEEP_CASES = len(_SWEEP_PAIRS) * len(_SWEEP_VALUES) ** 2


def _sweep_class(k: int) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Case k of the sweep: its class and its pair of coordinates."""
    pair, values = divmod(k, len(_SWEEP_VALUES) ** 2)
    i, j = _SWEEP_PAIRS[pair]
    vi, vj = divmod(values, len(_SWEEP_VALUES))
    ell = [0] * H2_RANK
    ell[i], ell[j] = _SWEEP_VALUES[vi], _SWEEP_VALUES[vj]
    return tuple(ell), (i, j)


def _square_case(cfg: TrialConfig, index: int) -> dict | None:
    """Index i < trials is random trial i; index trials + k is sweep case k."""
    if index < cfg.trials:
        ell = substream(cfg.seed, index).integers(-cfg.coord_bound, cfg.coord_bound, H2_RANK)
        source = f"random trial {index}"
    else:
        ell, (i, j) = _sweep_class(index - cfg.trials)
        source = f"exhaustive pair ({i}, {j})"
    counterexample = _square_congruence_case(ell)
    if counterexample is not None:
        counterexample["source"] = source
    return counterexample


def verify_square_congruence(cfg: TrialConfig, jobs: int = 1) -> VerificationReport:
    """(l + Tl)^2 = 0 mod 4 on random degree-2 classes plus a low-support sweep."""
    return _run_cases("square-congruence", partial(_square_case, cfg), cfg.trials + SWEEP_CASES, jobs)


@lru_cache(maxsize=None)
def _invariant_basis() -> tuple[IntMatrix, IntMatrix]:
    """Kernel basis of T - 1 on the full lattice, with its restricted Gram form."""
    return fixed_sublattice(full_lattice(), twisted_involution_matrix(), 1)


def _invariant_from_parameters(a: int, x: tuple[int, ...], z1: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The closed-form T-invariant vector (2a, (x, x, z1, z1, (a, a)), s), on 24 coordinates."""
    return (2 * a, *x, *x, *z1, *z1, a, a, s)


def _characteristic_case(cfg: TrialConfig, trial: int) -> dict | None:
    """Trial `trial` of both samplers: None, or the first failing sampler's counterexample."""
    minus_e8 = standard_lattice("minus_e8")
    u_lat = standard_lattice("u")
    basis, _ = _invariant_basis()
    b = cfg.coord_bound
    # Every draw of the trial comes from [-b, b], so one call draws them
    # all: the values are those of one call per parameter, in order.
    draws = substream(cfg.seed, trial).integers(-b, b, 12 + basis.cols)

    # Sampler (i): closed-form parametrization.
    a, x, z1, s = draws[0], draws[1:9], draws[9:11], draws[11]
    v = _invariant_from_parameters(a, x, z1, s)
    pair = _pairing(_POINT, v)
    vsq = _pairing(v, v)
    closed_pair = -2 * a
    closed_sq = 2 * minus_e8.norm(x) + 2 * u_lat.norm(z1) + 2 * a * a - 4 * a * s
    problems = []
    if twisted_involution_coords(v) != v:
        problems.append("parametrized vector is not T-invariant")
    if pair != closed_pair:
        problems.append("pairing disagrees with closed form -2a")
    if vsq != closed_sq:
        problems.append("square disagrees with closed form")
    if (pair - vsq) % 4 != 0:
        problems.append("congruence fails")
    if problems:
        return {
            "source": f"parametrized sampler, trial {trial}",
            "parameters": {"a": a, "x": list(x), "z1": list(z1), "s": s},
            "pairing": pair,
            "square": vsq,
            "problems": problems,
        }

    # Sampler (ii): random combination of the computed kernel basis of T - 1.
    coeffs = draws[12:]
    w = basis.mul_vec(coeffs)
    pair_w = _pairing(_POINT, w)
    wsq = _pairing(w, w)
    problems = []
    if twisted_involution_coords(w) != w:
        problems.append("kernel-basis vector is not T-invariant")
    if (pair_w - wsq) % 4 != 0:
        problems.append("congruence fails")
    if problems:
        return {
            "source": f"kernel-basis sampler, trial {trial}",
            "coefficients": list(coeffs),
            "vector": list(w),
            "pairing": pair_w,
            "square": wsq,
            "problems": problems,
        }
    return None


def verify_characteristic_congruence(cfg: TrialConfig, jobs: int = 1) -> VerificationReport:
    """<(0,0,1), v> = v^2 mod 4 on T-invariant v from two independent samplers."""
    _invariant_basis()  # built before any case or fork, and by a run of no trials too
    return _run_cases("characteristic-congruence", partial(_characteristic_case, cfg), cfg.trials, jobs)


def _invariant_lattice_failure() -> tuple[int, dict] | None:
    """The first failing invariant-lattice step (0-5) with its failure, or None."""
    basis, gram = _invariant_basis()
    if basis.cols != 12:
        return 0, {"reason": "invariant lattice has wrong rank", "rank": basis.cols}
    if any(e % 2 for e in gram.flat):
        return 1, {"reason": "Gram form of invariant lattice is not even"}
    half = IntMatrix(gram.rows, gram.cols, [e // 2 for e in gram.flat])
    half_det = determinant(half)
    if half_det not in (1, -1):
        return 2, {"reason": "half form is not unimodular", "det": half_det}
    if all(half[i, i] % 2 == 0 for i in range(half.rows)):
        return 3, {"reason": "half form is even; expected an odd form"}
    point_coords = solve(basis, _POINT)
    if point_coords is None:
        return 4, {"reason": "(0,0,1) is not in the computed invariant lattice"}
    half_point = half.mul_vec(point_coords)
    bad = [i for i in range(half.rows) if (half_point[i] - half[i, i]) % 2 != 0]
    if bad:
        return 5, {
            "reason": "(0,0,1) is not characteristic for the half form",
            "basis_indices": bad,
            "point_in_basis": list(point_coords),
        }
    return None


def verify_invariant_lattice() -> VerificationReport:
    """Structure of the T-invariant lattice: twice an odd unimodular form.

    Checks, in order: rank 12; every Gram entry even; half form unimodular
    (det +-1); half form odd (an odd diagonal entry); (0,0,1) lies in the
    invariant lattice and is characteristic for the half form. Each step
    reads the ones before it, so the six run serially in the parent.
    """
    started = time.perf_counter()
    step, counterexample = _invariant_lattice_failure() or (5, None)
    return VerificationReport("invariant-lattice", step + 1, counterexample, time.perf_counter() - started)


_LETTER_ENTRIES = 2 * FULL_RANK  # a reflection's w, then its dual


class _Pool(Record):
    """T, -1 and the harvested reflections, as one view of immutable signed bytes.

    Letter 0 is T, letter 1 is -1, and letter i >= 2 the reflection in
    w_{i - 2}, whose w and dual 2 G w / w^2 fill the _LETTER_ENTRIES signed
    bytes from (i - 2) * _LETTER_ENTRIES on. entries is a view of
    bytes(entries given): the harvest's array is copied once, into that
    bytes object, and a pickle's bytes object is kept itself, not copied.
    So forked workers share a pool that refuses item assignment, through
    the view and through its obj alike. A view has no hash, so a pool has
    none.
    """

    __slots__ = _fields = ("entries",)
    __hash__ = None

    def __init__(self, entries):
        super().__init__(memoryview(bytes(entries)).cast("b"))

    def __reduce__(self):
        return type(self), (self.entries.obj,)

    def __len__(self) -> int:
        return 2 + len(self.entries) // _LETTER_ENTRIES


@lru_cache(maxsize=None)
def _generator_pool() -> _Pool:
    """T-equivariant generators: T, -1, and reflections in short T-(anti)fixed vectors.

    The vectors w are harvested from the fixed lattice (the cached
    _invariant_basis) and the anti-fixed lattice of T: short_vectors lists,
    in lexicographic order, the vectors of square +-2 in the coordinate box
    1 of the kernel basis. Negation reverses that order and maps hits to
    hits, and the zero vector has square 0, so it is never a hit: the upper
    half of each list is exactly the hits with a positive leading entry, in
    order, one of each pair +-v, which give the same reflection. Each
    kernel basis B is checked once, before its scans: T B = sign * B, as
    matrices, which gives T w = sign * w for every w = B v by linearity.
    reflection_dual checks w^2 = +-2 in the full lattice for each w of the
    upper half, and returns its dual. Each w and its dual are kept, in
    order, as signed bytes in one array('b') that the four scans fill, and
    which raises OverflowError on an entry it cannot hold; _Pool copies it
    once. A reflection in such a w commutes with T, so every word in the
    pool does. This pool generates a proper subgroup of the full
    equivariant orthogonal group; it is a test family, not an enumeration.
    """
    from array import array  # loaded only by a run that harvests

    lat = full_lattice()
    t = twisted_involution_matrix()
    entries = array("b")
    for sign, (basis, gram) in ((1, _invariant_basis()), (-1, fixed_sublattice(lat, t, -1))):
        if t.matrix @ basis != (basis if sign == 1 else -basis):
            raise RuntimeError(f"kernel basis is not a {sign:+d}-eigenbasis of T")
        sub = Lattice(gram)
        for target in (2, -2):
            hits = short_vectors(sub, target, 1)
            for v in islice(hits, len(hits) // 2, None):  # leading entry > 0
                w = basis.mul_vec(v)
                entries.fromlist([*w, *reflection_dual(lat, w)])
            del hits  # free this scan's list before the next scan builds its own
    return _Pool(entries)


def _sample_word(seed: int, word_length: int) -> tuple[int, ...]:
    """The pool indices of a deterministic word in the generator pool, leftmost first."""
    # substream(seed, 0) is the same stream, but a call to substream reads as
    # one trial's draws, to a test's spy and to the tracer alike.
    return SplitMix64(mix64(seed)).integers(0, len(_generator_pool()) - 1, word_length)


def _apply_word(word: Sequence[int], v: tuple[int, ...]) -> tuple[int, ...]:
    """The word's letters applied to v, the rightmost first; see _Pool for what each index is."""
    entries = _generator_pool().entries
    for i in reversed(word):
        if i == 0:
            v = twisted_involution_coords(v)
        elif i == 1:
            v = tuple(map(neg, v))
        else:
            start = (i - 2) * _LETTER_ENTRIES
            v = reflect(v, entries[start : start + FULL_RANK], entries[start + FULL_RANK : start + _LETTER_ENTRIES])
    return v


def check_word_length(word_length: int) -> None:
    """Refuse a word length that is not an int in [0, 2**64), before any case runs.

    A phi trial draws its length from [0, word_length], at most 2**64 values.
    """
    require_int("word_length", word_length)
    if not 0 <= word_length < 2**64:
        raise ValueError("word_length must be in [0, 2**64)")


def sample_equivariant_isometry(seed: int, word_length: int) -> Isometry:
    """A deterministic word in the equivariant generator pool; commutes with T.

    The matrix is the word evaluated on the unit vectors, letter by letter,
    as verify_phi_integrality evaluates it on (0,0,1); it is then checked as
    an isometry and for commuting with T.
    """
    require_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in [0, 2**64)")
    check_word_length(word_length)
    word = _sample_word(seed, word_length)
    result = Isometry(full_lattice(), IntMatrix.of_map(lambda e: _apply_word(word, e), FULL_RANK))
    t_mat = twisted_involution_matrix().matrix
    if result.matrix @ t_mat != t_mat @ result.matrix:
        raise RuntimeError("sampled word does not commute with the twisted involution")
    return result


STRENGTHENED_PAIRINGS_PER_TRIAL = 10


def _phi_case(cfg: TrialConfig, word_length: int, trial: int) -> dict | None:
    """Phi trial `trial`, a word of length at most word_length: None, or its counterexample."""
    rng = substream(cfg.seed, trial)
    length = rng.integer(0, word_length)
    word_seed = rng.next_u64()
    image = _apply_word(_sample_word(word_seed, length), _POINT)
    # An isometry keeps (0,0,1) isotropic; a letter that is none fails here.
    square = _pairing(image, image)
    if square:
        return {
            "source": f"trial {trial}",
            "word_seed": word_seed,
            "word_length": length,
            "image": list(image),
            "square": square,
        }
    degree2 = image[1:23]
    if any(c % 2 for c in degree2):
        return {
            "source": f"trial {trial}",
            "word_seed": word_seed,
            "word_length": length,
            "image": list(image),
            "odd_degree2_indices": [i for i, c in enumerate(degree2) if c % 2],
        }
    coords = rng.integers(-cfg.coord_bound, cfg.coord_bound, STRENGTHENED_PAIRINGS_PER_TRIAL * H2_RANK)
    for k in range(STRENGTHENED_PAIRINGS_PER_TRIAL):
        ell = coords[k * H2_RANK : (k + 1) * H2_RANK]
        pairing = _pairing(image, _doubled(ell))
        if pairing % 4:
            return {
                "source": f"trial {trial}, pairing {k}",
                "word_seed": word_seed,
                "word_length": length,
                "image": list(image),
                "ell": list(ell),
                "pairing": pairing,
                "pairing_mod_4": pairing % 4,
            }
    return None


def verify_phi_integrality(
    cfg: TrialConfig, word_length: int = DEFAULT_WORD_LENGTH, jobs: int = 1
) -> VerificationReport:
    """Images phi(0,0,1) under sampled equivariant words have even degree-2 part.

    Also asserts the strengthening <phi(0,0,1), l + Tl> = 0 mod 4 on
    STRENGTHENED_PAIRINGS_PER_TRIAL random degree-2 classes per word.
    """
    check_word_length(word_length)
    return _run_cases("phi-integrality", partial(_phi_case, cfg, word_length), cfg.trials, jobs)


def run_claims_suite(cfg: TrialConfig, jobs: int = 1) -> list[VerificationReport]:
    """The three structural checks behind the integrality argument."""
    return [
        verify_square_congruence(cfg, jobs=jobs),
        verify_characteristic_congruence(cfg, jobs=jobs),
        verify_invariant_lattice(),
    ]
