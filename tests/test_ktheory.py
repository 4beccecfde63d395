import json
import math
import operator
import pickle
import random
import time
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mukaitwist import (
    CohomologySpec,
    E4Page,
    FGAbelianGroup,
    IntMatrix,
    SpecFormatError,
    e4_page,
    k1_surface,
    smith_normal_form,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "mukaitwist" / "data"

Z = FGAbelianGroup(1)
Z2 = FGAbelianGroup.cyclic(2)
TRIVIAL = FGAbelianGroup(0)

FACTORS = st.lists(st.integers(2, 12), max_size=4)
# Divisibility chains of 1 to 10 factors: a first factor, small or above 2^64,
# then ratios where 1 repeats a factor and 2^64 + 13 passes 2^64 again.
CHAINS = st.tuples(
    st.one_of(st.integers(2, 12), st.integers(2**64, 2**66)),
    st.lists(st.one_of(st.just(1), st.integers(2, 5), st.just(2**64 + 13)), max_size=9),
).map(lambda t: list(accumulate(t[1], operator.mul, initial=t[0])))
COORDS = st.one_of(st.just(0), st.integers(-15, 15), st.integers(-(2**80), 2**80))


def cokernel(n, relations):
    """Z^n modulo the span of the relations (columns in Z^n), through the Smith form: the oracle."""
    k = len(relations)
    for col in relations:
        if len(col) != n:
            raise ValueError("relation length does not match generator count")
    s, _, _ = smith_normal_form(IntMatrix(n, k, [relations[j][i] for i in range(n) for j in range(k)]))
    nonzero = [d for d in (s[i, i] for i in range(min(n, k))) if d]
    return FGAbelianGroup(n - len(nonzero), tuple(d for d in nonzero if d > 1))


def diagonal(free_rank, factors):
    """Z^free_rank + Z/d_1 + ... + Z/d_k canonicalized by the Smith form (the oracle)."""
    n = free_rank + len(factors)
    cols = [[d if i == free_rank + j else 0 for i in range(n)] for j, d in enumerate(factors)]
    return cokernel(n, cols)


class TestCanonicalForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(-1)
        for free_rank in (True, False, 1.0):
            with pytest.raises(ValueError, match="free_rank"):
                FGAbelianGroup(free_rank)
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
        g = cokernel(2, [[2, 0], [0, 3]])
        assert g == FGAbelianGroup(0, (6,))
        # no relations: free
        assert cokernel(3, []) == FGAbelianGroup(3)
        # redundant relations collapse
        g = cokernel(1, [[2], [3]])
        assert g == TRIVIAL

    @given(st.data())
    def test_untouched_generators_are_free(self, data):
        # Relations are columns in Z^n; a zero row is a generator no relation touches.
        n = data.draw(st.integers(0, 4))
        relations = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))
        g = cokernel(n, relations)
        padded = [list(col) for col in relations]
        positions = data.draw(st.lists(st.integers(0, 8), max_size=5))
        for k, p in enumerate(positions):
            at = p % (n + k + 1)
            for col in padded:
                col.insert(at, 0)
        h = cokernel(n + len(positions), padded)
        assert h.free_rank == g.free_rank + len(positions)
        assert h.torsion == g.torsion

    def test_direct_sum_canonicalizes(self):
        assert Z2.direct_sum(FGAbelianGroup.cyclic(3)) == FGAbelianGroup(0, (6,))
        assert Z2.direct_sum(Z2) == FGAbelianGroup(0, (2, 2))
        assert Z.direct_sum(Z2) == FGAbelianGroup(1, (2,))

    @given(st.integers(0, 2), FACTORS, st.integers(0, 2), FACTORS)
    def test_direct_sum_matches_smith_form(self, a, fa, b, fb):
        assert diagonal(a, fa).direct_sum(diagonal(b, fb)) == diagonal(a + b, fa + fb)

    def test_long_torsion_sums_are_fast(self):
        started = time.perf_counter()
        g = FGAbelianGroup(0, (2,) * 5000).direct_sum(Z2).direct_sum(FGAbelianGroup(0, (2,) * 5000))
        h = FGAbelianGroup(0, (2,) * 5000).direct_sum(FGAbelianGroup(0, (3,) * 5000))
        assert time.perf_counter() - started < 1.0
        assert g == FGAbelianGroup(0, (2,) * 10001)
        assert h == FGAbelianGroup(0, (6,) * 5000)

    def test_summing_many_equal_factors_is_linear(self):
        g = FGAbelianGroup(0, (2,) * 80_000)
        started = time.perf_counter()
        h = g.direct_sum(g)
        assert time.perf_counter() - started < 1.0
        assert h == FGAbelianGroup(0, (2,) * 160_000)

    @pytest.mark.parametrize("d", range(-12, 13))
    def test_cyclic_of_any_integer(self, d):
        # Z/0 = Z, Z/1 = Z/-1 = 0 and Z/-d = Z/d.
        expected = FGAbelianGroup(1) if d == 0 else FGAbelianGroup(0, (abs(d),) if abs(d) > 1 else ())
        assert FGAbelianGroup.cyclic(d) == expected == cokernel(1, [[d]])

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


class TestInexactCoordinates:
    """A coordinate that is not an int, or is a bool, is refused, never truncated."""

    G = FGAbelianGroup(1, (2,))

    @pytest.mark.parametrize("coords, index, kind", [([1.9, 1.2], 0, "float"), ([0, 1.7], 1, "float"), ([0, True], 1, "bool")])
    def test_reduce_element_names_the_index(self, coords, index, kind):
        with pytest.raises(TypeError) as exc:
            self.G.reduce_element(coords)
        assert str(exc.value) == f"element coordinate {index} must be an int, got {kind}"

    @pytest.mark.parametrize("coords", [[0, 1.0], [0, 1.7], [0, True], [0, "1"]])
    def test_element_order(self, coords):
        with pytest.raises(TypeError, match="coordinate 1"):
            self.G.element_order(coords)

    @pytest.mark.parametrize("coords", [[0, 1.0], [0, 1.7], [0, False]])
    def test_quotient_by(self, coords):
        with pytest.raises(TypeError, match="coordinate 1"):
            self.G.quotient_by(coords)
        assert self.G.quotient_by([0, 1]) == Z

    @pytest.mark.parametrize("alpha", [[1.0], [True], [0.5]])
    def test_cohomology_spec(self, alpha):
        with pytest.raises(TypeError, match="coordinate 0"):
            CohomologySpec(h0=Z, h1=TRIVIAL, h2=Z, h3=Z2, h4=Z, alpha=alpha)
        assert CohomologySpec(h0=Z, h1=TRIVIAL, h2=Z, h3=Z2, h4=Z, alpha=[1]).alpha_order() == 2


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

    @given(st.data())
    def test_quotient_matches_smith_form(self, data):
        g = diagonal(data.draw(st.integers(0, 2)), data.draw(FACTORS))
        n = g.n_generators
        coords = data.draw(st.lists(st.one_of(st.just(0), st.integers(-15, 15)), min_size=n, max_size=n))
        cols = [[d if i == g.free_rank + j else 0 for i in range(n)] for j, d in enumerate(g.torsion)]
        assert g.quotient_by(coords) == cokernel(n, cols + [coords])

    @given(st.integers(0, 3), CHAINS, st.data())
    def test_quotient_matches_the_oracle_on_long_chains(self, free_rank, factors, data):
        g = FGAbelianGroup(free_rank, factors)
        n = g.n_generators
        coords = data.draw(st.lists(COORDS, min_size=n, max_size=n))
        cols = [[d if i == free_rank + j else 0 for i in range(n)] for j, d in enumerate(factors)]
        assert g.quotient_by(coords) == cokernel(n, cols + [coords])

    def test_many_distinct_factors_are_fast(self):
        # The h3 of a 28.8 KB `ktheory --input` file: 300 distinct factors.
        g = FGAbelianGroup(0, tuple(2**i for i in range(1, 301)))
        rng = random.Random(1)
        coords = [rng.randrange(d) for d in g.torsion]
        started = time.perf_counter()
        q = g.quotient_by(coords)
        assert time.perf_counter() - started < 1.0
        assert math.prod(q.torsion) * g.element_order(coords) == math.prod(g.torsion)

    def test_uninvolved_torsion_generators_split_off(self):
        g = FGAbelianGroup(1, (2,) * 3000 + (4,))
        started = time.perf_counter()
        q = g.quotient_by((0,) * 3001 + (2,))
        assert time.perf_counter() - started < 1.0
        assert q == FGAbelianGroup(1, (2,) * 3001)

    def test_one_generator_per_factor_is_presented(self):
        # The quotient is one pass over the generators, however many share a factor.
        started = time.perf_counter()
        q = FGAbelianGroup(0, (2,) * 10**4).quotient_by((1,) * 10**4)
        assert time.perf_counter() - started < 1.0
        assert q == FGAbelianGroup(0, (2,) * 9999)

    def test_mixed_factors_and_free_generators_are_fast(self):
        g = FGAbelianGroup(3, (2,) * 5000 + (4,) * 5000)
        started = time.perf_counter()
        q = g.quotient_by((1, 2, 0) + (1,) * 10000)
        assert time.perf_counter() - started < 1.0
        assert q == FGAbelianGroup(2, (2,) * 5000 + (4,) * 5000)

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
            assert math.prod(q.torsion) * order == math.prod(g.torsion)


# Fuzzed specs: any JSON value, or a well-formed document (whose alpha may
# still have infinite order) with up to three fields, top-level or nested,
# replaced by any JSON value or dropped.
SMALL = st.integers(-3, 12)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL, st.floats(allow_nan=False), st.text(max_size=3)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(["free_rank", "torsion", "coords", "h3", "x"]), kids, max_size=3),
    ),
    max_leaves=10,
)
GROUP_NAMES = ("h0", "h1", "h2", "h3", "h4")
GROUP_DOCS = st.fixed_dictionaries(
    {"free_rank": st.integers(0, 3), "torsion": st.lists(st.sampled_from([2, 4, 8]), max_size=3).map(sorted)}
)
FIELD_PATHS = [(name,) for name in GROUP_NAMES + ("alpha",)] + [
    (name, key) for name in GROUP_NAMES for key in ("free_rank", "torsion", "x")
] + [("alpha", "coords"), ("x",)]
DROP = object()


def _with_alpha(groups):
    n = groups["h3"]["free_rank"] + len(groups["h3"]["torsion"])
    return st.lists(SMALL, min_size=n, max_size=n).map(lambda coords: {**groups, "alpha": {"coords": coords}})


def _edited(doc, edits):
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        target = doc
        for name in path[:-1]:
            target = target.get(name) if isinstance(target, dict) else None
        if isinstance(target, dict):
            if value is DROP:
                target.pop(path[-1], None)
            else:
                target[path[-1]] = value
    return doc


EDITS = st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.one_of(st.just(DROP), JSON)), max_size=3)
SPEC_DOCS = st.one_of(
    st.fixed_dictionaries({name: GROUP_DOCS for name in GROUP_NAMES}).flatmap(_with_alpha).flatmap(
        lambda doc: EDITS.map(lambda edits: _edited(doc, edits))
    ),
    JSON,
)

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
            h1=FGAbelianGroup(4),
            h2=FGAbelianGroup(6),
            h3=FGAbelianGroup(4),
            h4=Z,
            alpha=(0, 0, 0, 0),
        )
        assert k1_surface(spec) == FGAbelianGroup(8)

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
            h0=Z, h1=TRIVIAL, h2=FGAbelianGroup(22), h3=TRIVIAL, h4=Z, alpha=()
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
            assert page.k1() == k1_surface(spec) == h3.quotient_by(alpha)

    def test_equality_and_immutability(self):
        page = e4_page(ENRIQUES_TWISTED)
        assert page == e4_page(ENRIQUES_TWISTED)
        assert hash(page) == hash(e4_page(ENRIQUES_TWISTED))
        assert page != e4_page(ENRIQUES_UNTWISTED)
        assert page == E4Page(2, page.columns) == E4Page(h0_multiplier=2, columns=page.columns)
        for name in ("h0_multiplier", "columns"):
            with pytest.raises(AttributeError):
                setattr(page, name, None)
            with pytest.raises(AttributeError):
                delattr(page, name)
        assert page.h0_multiplier == 2
        assert pickle.loads(pickle.dumps(page)) == page

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
            pytest.param(  # keys that do not sort together
                lambda d: d["h0"].update({1: 1, "bogus": 1}), "h0", id="h0-unsortable-keys"
            ),
            pytest.param(lambda d: d.update(h5={}), "top level", id="top-level-extra-key"),
            pytest.param(lambda d: d["alpha"].update(typo=1), "alpha", id="alpha-extra-key"),
        ],
    )
    def test_malformed_input_names_field(self, mutate, field):
        doc = json.loads((DATA / "enriques.json").read_text())
        mutate(doc)
        with pytest.raises(SpecFormatError, match=field.replace(".", r"\.")):
            CohomologySpec.from_dict(doc)

    def test_from_file_accepts_str_and_path(self):
        path = DATA / "enriques.json"
        assert isinstance(path, Path)
        by_path = CohomologySpec.from_file(path)
        by_str = CohomologySpec.from_file(str(path))
        assert by_str.to_dict() == by_path.to_dict() == ENRIQUES_TWISTED.to_dict()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecFormatError, match="invalid JSON"):
            CohomologySpec.from_file(path)

    @given(SPEC_DOCS)
    def test_fuzzed_documents_raise_only_spec_format_error(self, doc):
        try:
            spec = CohomologySpec.from_dict(doc)
        except SpecFormatError:
            return
        assert CohomologySpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_roundtrip(self):
        spec = ENRIQUES_TWISTED
        assert CohomologySpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
