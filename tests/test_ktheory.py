import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mukaitwist import CohomologySpec, FGAbelianGroup, SpecFormatError, e4_page, k1_surface

DATA = Path(__file__).resolve().parent.parent / "src" / "mukaitwist" / "data"

Z = FGAbelianGroup.free(1)
Z2 = FGAbelianGroup.cyclic(2)
TRIVIAL = FGAbelianGroup.trivial()


class TestCanonicalForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(-1)
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 2))  # 4 does not divide 2
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (2, 3))  # 2 does not divide 3

    def test_str(self):
        assert str(TRIVIAL) == "0"
        assert str(Z) == "Z"
        assert str(FGAbelianGroup(10, (2,))) == "Z^10 + Z/2"
        assert str(FGAbelianGroup(0, (2, 4))) == "Z/2 + Z/4"

    def test_from_presentation(self):
        # <a, b | 2a, 3b> = Z/2 + Z/3 = Z/6
        g = FGAbelianGroup.from_presentation(2, [[2, 0], [0, 3]])
        assert g == FGAbelianGroup(0, (6,))
        # no relations: free
        assert FGAbelianGroup.from_presentation(3, []) == FGAbelianGroup.free(3)
        # redundant relations collapse
        g = FGAbelianGroup.from_presentation(1, [[2], [3]])
        assert g == TRIVIAL

    @given(st.data())
    def test_untouched_generators_are_free(self, data):
        # Relations are columns in Z^n; a zero row is a generator no relation touches.
        n = data.draw(st.integers(0, 4))
        relations = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))
        g = FGAbelianGroup.from_presentation(n, relations)
        padded = [list(col) for col in relations]
        positions = data.draw(st.lists(st.integers(0, 8), max_size=5))
        for k, p in enumerate(positions):
            at = p % (n + k + 1)
            for col in padded:
                col.insert(at, 0)
        h = FGAbelianGroup.from_presentation(n + len(positions), padded)
        assert h.free_rank == g.free_rank + len(positions)
        assert h.torsion == g.torsion

    def test_direct_sum_canonicalizes(self):
        assert Z2.direct_sum(FGAbelianGroup.cyclic(3)) == FGAbelianGroup(0, (6,))
        assert Z2.direct_sum(Z2) == FGAbelianGroup(0, (2, 2))
        assert Z.direct_sum(Z2) == FGAbelianGroup(1, (2,))

    def test_times(self):
        g = FGAbelianGroup(2, (2, 4))
        assert g.times(2) == FGAbelianGroup(2, (2,))
        assert g.times(4) == FGAbelianGroup(2)
        assert g.times(3) == g
        assert g.times(0) == TRIVIAL


class TestElements:
    def test_order(self):
        g = FGAbelianGroup(1, (2, 6))
        assert g.element_order((0, 0, 0)) == 1
        assert g.element_order((0, 1, 0)) == 2
        assert g.element_order((0, 0, 1)) == 6
        assert g.element_order((0, 1, 2)) == 6  # lcm(2, 3)
        assert g.element_order((1, 0, 0)) is None

    def test_reduction(self):
        g = FGAbelianGroup(1, (2, 6))
        assert g.reduce_element((5, 3, -1)) == (5, 1, 5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(1, (2,)).reduce_element((1,))


class TestQuotient:
    def test_mod_two_by_nonzero_is_trivial(self):
        assert Z2.quotient_by((1,)) == TRIVIAL

    def test_z_by_double_generator(self):
        assert Z.quotient_by((2,)) == Z2

    def test_quotient_by_zero_is_identity(self):
        for g in (TRIVIAL, Z, Z2, FGAbelianGroup(3, (2, 4))):
            assert g.quotient_by((0,) * g.n_generators) == g

    def test_uninvolved_free_generators_stay_free(self):
        g = FGAbelianGroup(10**6, (2,) * 40)
        started = time.perf_counter()
        # <e, t | 2t, 3e + t> = Z/6 for the last free generator e and the first torsion one t.
        q = g.quotient_by((0,) * (10**6 - 1) + (3, 1) + (0,) * 39)
        assert time.perf_counter() - started < 1.0
        assert q == FGAbelianGroup(10**6 - 1, (2,) * 39 + (6,))

    @pytest.mark.parametrize("seed", range(4))
    def test_lagrange_on_finite_groups(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            factors = []
            d = rng.randint(2, 4)
            for _ in range(rng.randint(1, 3)):
                factors.append(d)
                d *= rng.randint(1, 3)
            g = FGAbelianGroup(0, tuple(factors))
            coords = tuple(rng.randrange(f) for f in factors)
            order = g.element_order(coords)
            q = g.quotient_by(coords)
            assert q.torsion_order() * order == g.torsion_order()


ENRIQUES_UNTWISTED = CohomologySpec.enriques(twisted=False)
ENRIQUES_TWISTED = CohomologySpec.enriques(twisted=True)


class TestK1:
    def test_enriques_untwisted(self):
        assert k1_surface(ENRIQUES_UNTWISTED) == Z2

    def test_enriques_twisted(self):
        assert k1_surface(ENRIQUES_TWISTED) == TRIVIAL

    def test_free_formula(self):
        spec = CohomologySpec(
            h0=Z,
            h1=FGAbelianGroup.free(4),
            h2=FGAbelianGroup.free(6),
            h3=FGAbelianGroup.free(4),
            h4=Z,
            alpha=(0, 0, 0, 0),
        )
        assert k1_surface(spec) == FGAbelianGroup.free(8)

    def test_untwisted_is_h1_plus_h3(self):
        spec = ENRIQUES_UNTWISTED
        assert k1_surface(spec) == spec.h1.direct_sum(spec.h3)


class TestE4Page:
    def test_enriques_twisted_page(self):
        page = e4_page(ENRIQUES_TWISTED)
        assert page.h0_multiplier == 2
        assert [str(g) for g in page.columns] == ["Z", "0", "Z^10 + Z/2", "0", "Z"]

    def test_enriques_untwisted_page(self):
        page = e4_page(ENRIQUES_UNTWISTED)
        assert page.h0_multiplier == 1
        assert [str(g) for g in page.columns] == ["Z", "0", "Z^10 + Z/2", "Z/2", "Z"]

    def test_k3_like_has_trivial_k1(self):
        spec = CohomologySpec(
            h0=Z, h1=TRIVIAL, h2=FGAbelianGroup.free(22), h3=TRIVIAL, h4=Z, alpha=()
        )
        assert k1_surface(spec) == TRIVIAL
        assert e4_page(spec).h0_multiplier == 1

    def test_page_column_three_is_quotient(self):
        rng = random.Random(77)
        for _ in range(30):
            torsion = tuple(sorted({2, rng.choice((2, 4, 8, 6))}, key=lambda d: d))
            torsion = tuple(t for t in torsion)
            try:
                h3 = FGAbelianGroup(rng.randint(0, 2), torsion)
            except ValueError:
                continue
            alpha = [0] * h3.free_rank + [rng.randrange(d) for d in torsion]
            spec = CohomologySpec(h0=Z, h1=TRIVIAL, h2=Z, h3=h3, h4=Z, alpha=alpha)
            page = e4_page(spec)
            assert page.columns[3] == h3.quotient_by(alpha)
            assert page.k1() == k1_surface(spec)

    def test_k0_graded_flags_extension(self):
        page = e4_page(ENRIQUES_TWISTED)
        assert page.k0_graded() == (page.columns[0], page.columns[2], page.columns[4])


class TestSpecIO:
    def test_bundled_file_matches_builtin(self):
        spec = CohomologySpec.from_file(DATA / "enriques.json")
        twisted = ENRIQUES_TWISTED
        assert spec.to_dict() == twisted.to_dict()

    def test_alpha_must_be_torsion(self):
        with pytest.raises(ValueError, match="finite order"):
            CohomologySpec(h0=Z, h1=TRIVIAL, h2=Z, h3=Z, h4=Z, alpha=(1,))

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("h3"), "h3"),
            (lambda d: d["h2"].update(free_rank=-1), "h2.free_rank"),
            (lambda d: d["h3"].update(torsion=[4, 2]), "h3.torsion"),
            (lambda d: d["h3"].update(torsion="x"), "h3.torsion"),
            (lambda d: d.pop("alpha"), "alpha"),
            (lambda d: d.update(alpha={"coords": [1, 2]}), "alpha.coords"),
            (lambda d: d.update(alpha={"coords": "x"}), "alpha.coords"),
            (lambda d: d["h0"].update(bogus=1), "h0"),
        ],
    )
    def test_malformed_input_names_field(self, mutate, field):
        doc = json.loads((DATA / "enriques.json").read_text())
        mutate(doc)
        with pytest.raises(SpecFormatError, match=field.replace(".", r"\.")):
            CohomologySpec.from_dict(doc)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecFormatError, match="invalid JSON"):
            CohomologySpec.from_file(path)

    def test_roundtrip(self):
        spec = ENRIQUES_TWISTED
        assert CohomologySpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
