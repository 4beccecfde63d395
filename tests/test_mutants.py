"""A catalogue of mutants of the seam where the checks meet T and the full Gram.

Each row is one patch of the seam. A row that breaks T or the full Gram
breaks it in mukai and in verify together: T as
mukai.twisted_involution_coords, from which twisted_involution_matrix() is
built, and verify's binding of it; the Gram as mukai.full_lattice and
verify's binding of it. The other rows patch one name of verify alone: the
cover involution (verify.cover_involution_coords), l + Tl (verify._doubled),
the pairing of 24-tuples (verify._pairing) or the dual of each harvested
reflection (verify.reflection_dual). Each row states, for each of the four
checks, how that check catches the mutant:

* EQUIVALENT -- the check passes; the mutant changes nothing its verdict
  depends on. The square check reads T and the full Gram only on degree-2
  classes (0, l, 0), where r = s = 0;
* REFUSED -- the check raises ValueError, because twisted_involution_matrix()
  refuses a T that does not preserve the full Gram;
* COUNTEREXAMPLE -- the check reports a failure, with a counterexample.

A refused T is a fault that no check yet reports as a counterexample; the
rows that read REFUSED change when one does.

Two mutants are known to be equivalent and have no row:

* <(0,0,1), w> replaced by -w[0]: the same value, since the full Gram's
  last row holds -1 at column 0 and nothing else;
* the untwisted cover involution as T, on the square claim alone: l . tau(l)
  is even and mukai_h2 is even, so (l + tau(l))^2 = 2 l^2 + 2 l . tau(l) is
  0 mod 4 too. Its row below pins the other three checks.

Two generated families add to the catalogue: each +-1 change to one entry
of T's 24x24 matrix (1,152 mutants) and each +-1 change to one symmetric
pair of full-Gram entries (600 mutants). Tier-1 runs every STRIDE-th
mutant of each family and asserts that none survives. The full sweep runs
every mutant and prints its counts:

    PYTHONPATH=src python tests/test_mutants.py

It exits 1 if any mutant survives, or if a family's counts differ from
PINNED_COUNTS.
"""
import sys
from operator import itemgetter

import pytest

import mukaitwist.mukai as mukai
import mukaitwist.verify as verify
from mukaitwist import (
    IntMatrix,
    Lattice,
    TrialConfig,
    standard_lattice,
    verify_characteristic_congruence,
    verify_invariant_lattice,
    verify_phi_integrality,
    verify_square_congruence,
)
from mukaitwist.lattices import COVER_SWAP, cover_involution_coords, reflection_dual

CFG = TrialConfig(trials=20, seed=0)

CHECKS = {
    "square": lambda: verify_square_congruence(CFG),
    "characteristic": lambda: verify_characteristic_congruence(CFG),
    "invariant-lattice": verify_invariant_lattice,
    "phi": lambda: verify_phi_integrality(CFG, word_length=4),
}

EQUIVALENT = "passes: the mutant changes nothing the check's verdict depends on"
REFUSED = "raises ValueError: twisted_involution_matrix() refuses a T that does not preserve the full Gram"
COUNTEREXAMPLE = "fails, with a counterexample"

# The caches built from T and the full Gram.
CACHES = (
    mukai.twisted_involution_matrix,
    verify._invariant_basis,
    verify._generator_pool,
    verify._doubled_functional,
)

_T = mukai.twisted_involution_coords


def _t_with(z3, s_shift):
    """T with its z3 block z3(r, a, b) and s shifted by s_shift(r, a, b), for z3 = (a, b) of the input.

    T itself has z3 = (r - a, r - b) and s_shift = r - a - b.
    """

    def t(x):
        r, a, b = x[0], x[21], x[22]
        return (r, *_T(x)[1:21], *z3(r, a, b), x[23] + s_shift(r, a, b))

    return t


def _patch_t(monkeypatch, t):
    monkeypatch.setattr(mukai, "twisted_involution_coords", t)
    monkeypatch.setattr(verify, "twisted_involution_coords", t)


def _patch_gram(monkeypatch, entries):
    """The full Gram with each (i, j) of entries, and (j, i), set to its value."""
    rows = mukai.full_lattice().gram.to_rows()
    for (i, j), value in entries.items():
        rows[i][j] = rows[j][i] = value
    wrong = Lattice(IntMatrix.from_rows(rows))
    monkeypatch.setattr(mukai, "full_lattice", lambda: wrong)
    monkeypatch.setattr(verify, "full_lattice", lambda: wrong)


def _pairing_on_h2(u, v):
    """The pairing of the degree-2 blocks alone, through mukai_h2."""
    return standard_lattice("mukai_h2").inner(u[1:23], v[1:23])


def _outcomes(square, characteristic, invariant_lattice, phi):
    return {"square": square, "characteristic": characteristic, "invariant-lattice": invariant_lattice, "phi": phi}


ALL_BUT_SQUARE_REFUSED = _outcomes(EQUIVALENT, REFUSED, REFUSED, REFUSED)

# name -> (the patch, how each check catches it)
MUTANTS = {
    "T with its s shift negated": (
        lambda mp: _patch_t(mp, _t_with(lambda r, a, b: (r - a, r - b), lambda r, a, b: a + b - r)),
        ALL_BUT_SQUARE_REFUSED,
    ),
    "T with no s shift": (
        lambda mp: _patch_t(mp, _t_with(lambda r, a, b: (r - a, r - b), lambda r, a, b: 0)),
        ALL_BUT_SQUARE_REFUSED,
    ),
    # On (0, l, 0) this T keeps l's z3 block where the cover involution negates
    # it, so (l + Tl)^2 = 2 l^2 + 2 l . tau(l) fails by 4 z3^2.
    "T with z3 not negated": (
        lambda mp: _patch_t(mp, _t_with(lambda r, a, b: (r + a, r + b), lambda r, a, b: r - a - b)),
        _outcomes(COUNTEREXAMPLE, REFUSED, REFUSED, REFUSED),
    ),
    "T with 2r in place of r": (
        lambda mp: _patch_t(mp, _t_with(lambda r, a, b: (2 * r - a, 2 * r - b), lambda r, a, b: 2 * r - a - b)),
        ALL_BUT_SQUARE_REFUSED,
    ),
    "full Gram with +1 at (0, 23) and (23, 0)": (
        lambda mp: _patch_gram(mp, {(0, 23): 1}),
        ALL_BUT_SQUARE_REFUSED,
    ),
    # The cover involution preserves the full Gram, so twisted_involution_matrix()
    # accepts it. It moves the closed-form invariant vectors, whose z3 block is
    # (a, a), and its invariant lattice holds H0 and H4, which pair to -1.
    "untwisted cover involution as T": (
        lambda mp: _patch_t(mp, lambda x: (x[0], *cover_involution_coords(x[1:23]), x[23])),
        _outcomes(EQUIVALENT, COUNTEREXAMPLE, COUNTEREXAMPLE, COUNTEREXAMPLE),
    ),
    "T with z3 swapped, not negated": (
        lambda mp: _patch_t(mp, _t_with(lambda r, a, b: (r + b, r + a), lambda r, a, b: r - a - b)),
        _outcomes(COUNTEREXAMPLE, REFUSED, REFUSED, REFUSED),
    ),
    # (0,0,1)^2 = 1: (l + Tl)^2 gains (a + b)^2 for l's z3 block (a, b).
    "full Gram with 1 at (23, 23)": (
        lambda mp: _patch_gram(mp, {(23, 23): 1}),
        _outcomes(COUNTEREXAMPLE, REFUSED, REFUSED, REFUSED),
    ),
    # Only the square case applies the cover involution on its own.
    "cover involution keeping z3": (
        lambda mp: mp.setattr(verify, "cover_involution_coords", itemgetter(*COVER_SWAP, 20, 21)),
        _outcomes(COUNTEREXAMPLE, EQUIVALENT, EQUIVALENT, EQUIVALENT),
    ),
    # 2l in place of l + Tl meets every congruence that l + Tl must, so only the
    # square check's doubling identity catches it: (2l)^2 = 4 l^2 is not
    # 2 l^2 + 2 l . tau(l) unless l^2 = l . tau(l).
    "l + Tl as l + l": (
        lambda mp: mp.setattr(verify, "_doubled", lambda ell: tuple(2 * x for x in (0, *ell, 0))),
        _outcomes(COUNTEREXAMPLE, EQUIVALENT, EQUIVALENT, EQUIVALENT),
    ),
    # On (0, l, 0) + T(0, l, 0) the dropped terms -r s' - r' s vanish, as r = 0.
    # phi's isotropy check reads the square of phi(0,0,1), whose r and s are not 0.
    "pairing of the degree-2 blocks alone": (
        lambda mp: mp.setattr(verify, "_pairing", _pairing_on_h2),
        _outcomes(EQUIVALENT, COUNTEREXAMPLE, EQUIVALENT, COUNTEREXAMPLE),
    ),
    # Only phi's words apply reflections. A letter with a wrong dual is no
    # isometry, so some phi(0,0,1) is not isotropic.
    # G w is the dual only where w^2 = 2.
    "reflection dual without its sign": (
        lambda mp: mp.setattr(verify, "reflection_dual", lambda lat, w: lat.gram.mul_vec(w)),
        _outcomes(EQUIVALENT, EQUIVALENT, EQUIVALENT, COUNTEREXAMPLE),
    ),
    "reflection dual doubled": (
        lambda mp: mp.setattr(verify, "reflection_dual", lambda lat, w: tuple(2 * c for c in reflection_dual(lat, w))),
        _outcomes(EQUIVALENT, EQUIVALENT, EQUIVALENT, COUNTEREXAMPLE),
    ),
}


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture
def seam(monkeypatch):
    """monkeypatch, with the caches cleared before the test and again after its patches are undone."""
    _clear_caches()
    yield monkeypatch
    monkeypatch.undo()
    _clear_caches()


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught_as_catalogued(seam, mutant):
    patch, outcomes = MUTANTS[mutant]
    patch(seam)
    for check, outcome in outcomes.items():
        if outcome is REFUSED:
            with pytest.raises(ValueError, match="does not preserve the Gram form"):
                CHECKS[check]()
        else:
            report = CHECKS[check]()
            assert report.passed is (outcome is EQUIVALENT), f"{check}: expected {outcome}"
            assert (report.counterexample is not None) is (outcome is COUNTEREXAMPLE)


# The generated families. A mutant survives when no check reports a
# counterexample and none raises the ValueError of REFUSED.
CAUGHT, RAISED, SURVIVED = "counterexample", "raise only", "survive"
STRIDE = 16


def _t_entry_mutant(i, j, delta):
    """T with delta added to entry (i, j) of its matrix: T(x) + delta * x_j * e_i."""

    def t(x):
        y = list(_T(x))
        y[i] += delta * x[j]
        return tuple(y)

    return lambda mp: _patch_t(mp, t)


def _gram_entry_mutant(i, j, delta):
    """The full Gram with delta added to its entries (i, j) and (j, i)."""
    return lambda mp: _patch_gram(mp, {(i, j): mukai.full_lattice().gram[i, j] + delta})


_PAIRS = [(i, j) for i in range(24) for j in range(24)]
FAMILIES = {
    "T": [(f"T[{i}, {j}] {d:+d}", _t_entry_mutant(i, j, d)) for i, j in _PAIRS for d in (1, -1)],
    "Gram": [(f"G[{i}, {j}] {d:+d}", _gram_entry_mutant(i, j, d)) for i, j in _PAIRS if i <= j for d in (1, -1)],
}


def _sweep_outcome(monkeypatch, patch) -> str:
    """CAUGHT, RAISED or SURVIVED for one mutant; its patches are undone and the caches cleared after.

    The checks run in CHECKS' order, and the first that reports a
    counterexample or raises decides. The square check builds no matrix of
    T, and each later check builds it first, so once one raises, all raise.
    """
    patch(monkeypatch)
    try:
        for check in CHECKS.values():
            try:
                report = check()
            except ValueError as error:
                if "does not preserve the Gram form" not in str(error):
                    raise
                return RAISED
            if report.counterexample is not None:
                return CAUGHT
        return SURVIVED
    finally:
        monkeypatch.undo()
        _clear_caches()


@pytest.mark.parametrize("family", FAMILIES)
def test_no_generated_mutant_survives(seam, family):
    survivors = [name for name, patch in FAMILIES[family][::STRIDE] if _sweep_outcome(seam, patch) is SURVIVED]
    assert survivors == []


# The full sweep's counts of (counterexample, raise only, survive) for each
# family. A change that moves them on purpose edits them here and says so.
PINNED_COUNTS = {"T": (924, 228, 0), "Gram": (464, 136, 0)}


def _sweep() -> int:
    """Run every mutant of both families and print a table of outcomes, each survivor and each count off its pin.

    It returns 1 if any mutant survives or any family's counts differ from PINNED_COUNTS, else 0.
    """
    print(f"| family | mutants | {CAUGHT} | {RAISED} | {SURVIVED} |")
    print("|---|---|---|---|---|")
    survivors, moved = [], []
    with pytest.MonkeyPatch.context() as mp:
        for family, mutants in FAMILIES.items():
            counts = dict.fromkeys((CAUGHT, RAISED, SURVIVED), 0)
            for name, patch in mutants:
                outcome = _sweep_outcome(mp, patch)
                counts[outcome] += 1
                if outcome is SURVIVED:
                    survivors.append(name)
            print(f"| {family} | {len(mutants):,} | {counts[CAUGHT]:,} | {counts[RAISED]:,} | {counts[SURVIVED]:,} |")
            if tuple(counts.values()) != PINNED_COUNTS[family]:
                moved.append(f"{family} counts {tuple(counts.values())}, pinned {PINNED_COUNTS[family]}")
    for name in survivors:
        print(f"survives: {name}")
    for line in moved:
        print(f"differs: {line}")
    return 1 if survivors or moved else 0


def test_sweep_exits_1_on_counts_off_their_pin(monkeypatch, capsys):
    # T[0, 0] +1 doubles r, which the full Gram refuses: one "raise only".
    monkeypatch.setitem(globals(), "FAMILIES", {"T": FAMILIES["T"][:1]})
    monkeypatch.setitem(globals(), "PINNED_COUNTS", {"T": (0, 1, 0)})
    assert _sweep() == 0
    monkeypatch.setitem(globals(), "PINNED_COUNTS", {"T": (1, 0, 0)})
    assert _sweep() == 1
    assert "differs: T counts (0, 1, 0), pinned (1, 0, 0)" in capsys.readouterr().out


if __name__ == "__main__":
    sys.exit(_sweep())
