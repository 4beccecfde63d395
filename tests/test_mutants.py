"""A catalogue of mutants of the seam where the checks meet T and the full Gram.

Each row breaks T or the full Gram in mukai and in verify together: T as
mukai.twisted_involution_coords, from which twisted_involution_matrix() is
built, and verify's binding of it; the Gram as mukai.full_lattice and
verify's binding of it. Each row states, for each of the four checks, how
that check catches the mutant:

* EQUIVALENT -- the check passes; the mutant is equivalent for it, since it
  reads only degree-2 classes (0, l, 0), where r = s = 0;
* REFUSED -- the check raises ValueError, because twisted_involution_matrix()
  refuses a T that does not preserve the full Gram.

A refused T is a fault that no check yet reports as a counterexample; the
rows that read REFUSED change when one does.
"""
import pytest

import mukaitwist.mukai as mukai
import mukaitwist.verify as verify
from mukaitwist import (
    IntMatrix,
    Lattice,
    TrialConfig,
    verify_characteristic_congruence,
    verify_invariant_lattice,
    verify_phi_integrality,
    verify_square_congruence,
)

CFG = TrialConfig(trials=20, seed=0)

CHECKS = {
    "square": lambda: verify_square_congruence(CFG),
    "characteristic": lambda: verify_characteristic_congruence(CFG),
    "invariant-lattice": verify_invariant_lattice,
    "phi": lambda: verify_phi_integrality(CFG, word_length=4),
}

EQUIVALENT = "passes: an equivalent mutant for a check that reads only (0, l, 0), where r = s = 0"
REFUSED = "raises ValueError: twisted_involution_matrix() refuses a T that does not preserve the full Gram"

# The caches built from T and the full Gram.
CACHES = (mukai.twisted_involution_matrix, verify._invariant_basis, verify._generator_pool)

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


def _patch_gram_r_s(monkeypatch):
    """The full Gram with +1 at (0, 23) and (23, 0), where it has -1."""
    rows = mukai.full_lattice().gram.to_rows()
    rows[0][23] = rows[23][0] = 1
    wrong = Lattice(IntMatrix.from_rows(rows), "mutant")
    monkeypatch.setattr(mukai, "full_lattice", lambda: wrong)
    monkeypatch.setattr(verify, "full_lattice", lambda: wrong)


ALL_BUT_SQUARE_REFUSED = {"square": EQUIVALENT, "characteristic": REFUSED, "invariant-lattice": REFUSED, "phi": REFUSED}

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
    "T with z3 not negated": (
        lambda mp: _patch_t(mp, _t_with(lambda r, a, b: (r + a, r + b), lambda r, a, b: r - a - b)),
        ALL_BUT_SQUARE_REFUSED,
    ),
    "T with 2r in place of r": (
        lambda mp: _patch_t(mp, _t_with(lambda r, a, b: (2 * r - a, 2 * r - b), lambda r, a, b: 2 * r - a - b)),
        ALL_BUT_SQUARE_REFUSED,
    ),
    "full Gram with +1 at (0, 23) and (23, 0)": (
        _patch_gram_r_s,
        ALL_BUT_SQUARE_REFUSED,
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
        if outcome is EQUIVALENT:
            assert CHECKS[check]().passed, f"{check}: expected {outcome}"
        else:
            with pytest.raises(ValueError, match="does not preserve the Gram form"):
                CHECKS[check]()
