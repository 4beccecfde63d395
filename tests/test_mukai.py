import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaitwist import (
    BField,
    IntMatrix,
    MukaiVector,
    canonical_b_field,
    cover_involution,
    cover_involution_h2,
    exp_b,
    full_lattice,
    is_isometry,
    mukai_pairing,
    point_class,
    reflection,
    standard_lattice,
    twisted_involution,
    twisted_involution_matrix,
)
from mukaitwist.mukai import _norm_scalar, twisted_involution_coords
from mukaitwist.verify import sample_equivariant_isometry


# Entries the constructor accepts: ints (some beyond 64 bits), bools and Fractions.
INTS = st.integers(-(10**20), 10**20)
SCALARS = st.one_of(INTS, st.booleans(), st.fractions(max_denominator=4))
# (r, c, s) with int entries only (the fast path) or with any accepted entries.
TRIPLES = st.sampled_from([INTS, SCALARS]).flatmap(
    lambda e: st.tuples(e, st.lists(e, min_size=22, max_size=22), e)
)


def random_integral(rng, bound=50):
    return MukaiVector(
        rng.randint(-bound, bound),
        tuple(rng.randint(-bound, bound) for _ in range(22)),
        rng.randint(-bound, bound),
    )


def random_rational(rng, bound=20):
    def frac():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 12))

    return MukaiVector(frac(), tuple(frac() for _ in range(22)), frac())


class TestPairing:
    def test_point_class_is_isotropic(self):
        p = point_class()
        assert mukai_pairing(p, p) == 0

    def test_point_class_pairing_reads_rank(self):
        rng = random.Random(1)
        for _ in range(200):
            a = rng.randint(-40, 40)
            v = MukaiVector(2 * a, tuple(rng.randint(-9, 9) for _ in range(22)), rng.randint(-9, 9))
            assert mukai_pairing(point_class(), v) == -2 * a

    def test_invariant_square_closed_form(self):
        rng = random.Random(2)
        minus_e8 = standard_lattice("minus_e8")
        u = standard_lattice("u")
        for _ in range(1000):
            a = rng.randint(-20, 20)
            x = tuple(rng.randint(-20, 20) for _ in range(8))
            z1 = (rng.randint(-20, 20), rng.randint(-20, 20))
            s = rng.randint(-20, 20)
            v = MukaiVector(2 * a, x + x + z1 + z1 + (a, a), s)
            expected = 2 * minus_e8.norm(x) + 2 * u.norm(z1) + 2 * a * a - 4 * a * s
            assert mukai_pairing(v, v) == expected

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(100):
            u, v = random_integral(rng, 9), random_integral(rng, 9)
            assert mukai_pairing(u, v) == mukai_pairing(v, u)


class TestCoverInvolution:
    def test_fixes_point_class(self):
        assert cover_involution(point_class()) == point_class()

    def test_negates_z3(self):
        c = [0] * 22
        c[20] = 1
        v = MukaiVector.from_h2(c)
        out = cover_involution(v)
        assert out.c[20] == -1 and out.c[21] == 0
        assert out.c[:20] == (0,) * 20

    def test_is_involution(self):
        rng = random.Random(4)
        for _ in range(1000):
            v = random_integral(rng, 9)
            assert cover_involution(cover_involution(v)) == v

    def test_preserves_pairing(self):
        rng = random.Random(5)
        for _ in range(200):
            u, v = random_integral(rng, 9), random_rational(rng, 9)
            assert mukai_pairing(cover_involution(u), cover_involution(v)) == mukai_pairing(u, v)

    def test_h2_matrix_is_the_degree_two_block(self):
        # The vector form and the 22x22 matrix, the two remaining forms of the cover involution, agree.
        block = IntMatrix.of_map(lambda c: cover_involution(MukaiVector.from_h2(c)).c, 22)
        assert block == cover_involution_h2().matrix


class TestBField:
    def test_canonical_coordinates(self):
        b = canonical_b_field()
        half = Fraction(1, 2)
        assert b.coords == (0,) * 20 + (half, half)

    def test_doubled_square_is_two(self):
        assert canonical_b_field().times(2).square() == 2

    def test_involution_negates_canonical(self):
        b = canonical_b_field()
        image = cover_involution_h2()(b.coords)
        assert tuple(image) == tuple(-x for x in b.coords)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            BField((0,) * 21)
        with pytest.raises(TypeError):
            BField((0.5,) * 22)


class TestExpB:
    def test_degree_two_input(self):
        rng = random.Random(7)
        b = canonical_b_field()
        h2 = standard_lattice("mukai_h2")
        for _ in range(200):
            x = tuple(rng.randint(-9, 9) for _ in range(22))
            out = exp_b(b, MukaiVector.from_h2(x))
            assert out.r == 0
            assert out.c == x
            y = out.s
            assert y == h2.inner(x, b.coords)
            assert (2 * y) == int(2 * y)  # half-integral

    def test_group_law_roundtrip(self):
        rng = random.Random(8)
        b = canonical_b_field()
        for _ in range(1000):
            v = random_rational(rng, 9)
            assert exp_b(-b, exp_b(b, v)) == v

    def test_is_rational_isometry_for_arbitrary_b(self):
        rng = random.Random(9)
        for _ in range(100):
            b = BField(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(22)))
            u, v = random_rational(rng, 6), random_rational(rng, 6)
            assert mukai_pairing(exp_b(b, u), exp_b(b, v)) == mukai_pairing(u, v)


class TestTwistedInvolution:
    def test_fixes_point_class(self):
        assert twisted_involution(point_class()) == point_class()

    def test_closed_form_example(self):
        v = MukaiVector(2, (0,) * 22, 0)
        out = twisted_involution(v)
        assert out.r == 2 and out.s == 2
        assert out.c[20:22] == (2, 2)
        assert out.c[:20] == (0,) * 20

    def test_is_involution(self):
        rng = random.Random(10)
        for _ in range(1000):
            v = random_integral(rng, 30)
            assert twisted_involution(twisted_involution(v)) == v

    def test_integral_on_integral_vectors(self):
        rng = random.Random(11)
        for _ in range(200):
            assert all(type(x) is int for x in twisted_involution(random_integral(rng)).coords())

    def test_matches_composition_oracle(self):
        rng = random.Random(12)
        two_b = canonical_b_field().times(2)
        for _ in range(2000):
            v = random_integral(rng, 40)
            assert twisted_involution(v) == exp_b(two_b, cover_involution(v))

    def test_preserves_pairing(self):
        rng = random.Random(13)
        for _ in range(200):
            u, v = random_integral(rng, 9), random_integral(rng, 9)
            assert mukai_pairing(twisted_involution(u), twisted_involution(v)) == mukai_pairing(u, v)


class TestTwistedInvolutionCoords:
    """The one closed form of T, on 24 coordinates, against the vector map and the composition."""

    @settings(max_examples=60)
    @given(st.lists(INTS, min_size=24, max_size=24).map(tuple))
    def test_matches_vector_map_and_composition_oracle(self, x):
        t = twisted_involution_coords(x)
        v = MukaiVector.from_coords(x)
        assert t == twisted_involution(v).coords()
        assert t == exp_b(canonical_b_field().times(2), cover_involution(v)).coords()
        assert twisted_involution_coords(t) == x

    def test_matrix_is_the_map_on_unit_vectors(self):
        assert twisted_involution_matrix().matrix == IntMatrix.of_map(twisted_involution_coords, 24)


class TestTwistedInvolutionMatrix:
    def test_point_class_column(self):
        t = twisted_involution_matrix().matrix
        e = (0,) * 23 + (1,)
        assert t.mul_vec(e) == e

    def test_matrix_is_integral_composition(self):
        # Rebuild every column through the rational composition and compare.
        t = twisted_involution_matrix().matrix
        two_b = canonical_b_field().times(2)
        for i in range(24):
            e = MukaiVector.from_coords(tuple(1 if j == i else 0 for j in range(24)))
            column = exp_b(two_b, cover_involution(e)).coords()
            assert all(isinstance(x, int) for x in column)
            assert t.transpose().row(i) == column

    def test_squares_to_identity(self):
        t = twisted_involution_matrix().matrix
        assert t @ t == IntMatrix.identity(24)

    def test_is_isometry_of_full_lattice(self):
        assert is_isometry(full_lattice(), twisted_involution_matrix().matrix)

    def test_matrices_are_built_without_mukai_vectors(self, monkeypatch):
        # The one 24x24 matrix, of T, comes from the 24-coordinate closed form alone.
        cached = twisted_involution_matrix()
        made = []
        real_init = MukaiVector.__init__
        monkeypatch.setattr(MukaiVector, "__init__", lambda self, *args: made.append(args) or real_init(self, *args))
        assert twisted_involution_matrix.__wrapped__() == cached
        assert made == []


class TestFullLattice:
    def test_shape_and_invariants(self):
        lat = full_lattice()
        assert lat.rank == 24
        assert lat.is_even()
        assert lat.det() == 1

    def test_embeds_h2(self):
        h2 = standard_lattice("mukai_h2")
        rng = random.Random(14)
        for _ in range(50):
            a = tuple(rng.randint(-9, 9) for _ in range(22))
            b = tuple(rng.randint(-9, 9) for _ in range(22))
            assert h2.inner(a, b) == mukai_pairing(MukaiVector.from_h2(a), MukaiVector.from_h2(b))

    def test_gram_is_the_mukai_formula(self):
        # The pairing c.c' - r s' - r' s, written out on the unit vectors.
        h2 = standard_lattice("mukai_h2")
        units = [MukaiVector.from_coords(tuple(1 if j == i else 0 for j in range(24))) for i in range(24)]
        expected = [[h2.inner(u.c, v.c) - u.r * v.s - v.r * u.s for v in units] for u in units]
        assert full_lattice().gram.to_rows() == expected


def _rational_twist_conjugate(phi: IntMatrix, v: MukaiVector) -> MukaiVector:
    """exp(-b0) . phi . exp(b0) applied to v, exactly."""
    b = canonical_b_field()
    image = phi.mul_vec(exp_b(b, v).coords())
    return exp_b(-b, MukaiVector.from_coords(image))


def _commutes_with_twist(phi: IntMatrix) -> bool:
    t = twisted_involution_matrix().matrix
    return phi @ t == t @ phi


def _conjugate_commutes_with_cover(phi: IntMatrix) -> bool:
    for i in range(24):
        e = MukaiVector.from_coords(tuple(1 if j == i else 0 for j in range(24)))
        lhs = _rational_twist_conjugate(phi, cover_involution(e))
        rhs = cover_involution(_rational_twist_conjugate(phi, e))
        if lhs != rhs:
            return False
    return True


class TestCommutationEquivalence:
    """phi commutes with T iff exp(-b) phi exp(b) commutes with the cover involution."""

    def test_on_generated_families(self):
        lat = full_lattice()
        samples = [
            IntMatrix.identity(24),
            -IntMatrix.identity(24),
            twisted_involution_matrix().matrix,
            sample_equivariant_isometry(5, 4).matrix,
            sample_equivariant_isometry(6, 7).matrix,
        ]
        # a reflection whose mirror is NOT twist-eigen: first -E8 basis vector
        w = (0,) + (1,) + (0,) * 22
        samples.append(reflection(lat, w).matrix)
        seen_noncommuting = False
        for phi in samples:
            commute_t = _commutes_with_twist(phi)
            assert commute_t == _conjugate_commutes_with_cover(phi)
            seen_noncommuting |= not commute_t
        assert seen_noncommuting  # the family must exercise both branches


class TestMukaiVector:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            MukaiVector(0, (0,) * 21, 0)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            MukaiVector(0.5, (0,) * 22, 0)

    def test_fraction_normalization(self):
        v = MukaiVector(Fraction(4, 2), (0,) * 22, 0)
        assert isinstance(v.r, int) and v.r == 2
        assert all(type(x) is int for x in v.coords())

    @pytest.mark.parametrize("r, s", [(True, False), (0, 0)])
    def test_bools_become_ints(self, r, s):
        v = MukaiVector(r, (False, True) * 11, s)
        assert (v.r, v.c, v.s) == (int(r), (0, 1) * 11, int(s))
        assert type(v.r) is int and type(v.s) is int and all(type(x) is int for x in v.c)

    def test_integral_fraction_in_c_becomes_int(self):
        v = MukaiVector(0, (Fraction(4, 2),) + (0,) * 21, 0)
        assert type(v.c[0]) is int and v.c[0] == 2

    def test_mixed_vector_keeps_its_fractions(self):
        half = Fraction(1, 2)
        v = MukaiVector(1, (half, 3) + (0,) * 20, half)
        assert v.c[:2] == (half, 3) and type(v.c[0]) is Fraction and type(v.c[1]) is int
        assert v.s == half and type(v.s) is Fraction

    @pytest.mark.parametrize("where", ["r", "c", "s"])
    def test_float_anywhere_rejected(self, where):
        r, c, s = 0, [0] * 22, 0
        if where == "r":
            r = 1.0
        elif where == "c":
            c[5] = 1.0
        else:
            s = 1.0
        with pytest.raises(TypeError):
            MukaiVector(r, c, s)

    @pytest.mark.parametrize("n", [21, 23])
    def test_wrong_length_rejected_on_both_paths(self, n):
        with pytest.raises(ValueError, match="22 coordinates"):
            MukaiVector(0, (0,) * n, 0)
        with pytest.raises(ValueError, match="22 coordinates"):
            MukaiVector(0, (Fraction(1, 2),) * n, 0)

    @given(TRIPLES)
    def test_fields_are_norm_scalar_entrywise(self, triple):
        r, c, s = triple
        v = MukaiVector(r, c, s)
        expected = (_norm_scalar(r), tuple(map(_norm_scalar, c)), _norm_scalar(s))
        assert (v.r, v.c, v.s) == expected
        assert [type(x) for x in (v.r, *v.c, v.s)] == [type(x) for x in (expected[0], *expected[1], expected[2])]

    def test_arithmetic(self):
        rng = random.Random(15)
        u, v = random_integral(rng, 9), random_integral(rng, 9)
        assert (u + v).coords() == tuple(a + b for a, b in zip(u.coords(), v.coords()))
        assert u + v == v + u

    def test_integral_results_of_fractions_are_ints(self):
        rng = random.Random(16)
        for _ in range(50):
            u = random_rational(rng, 9)
            v = MukaiVector.from_coords(tuple(rng.randint(-9, 9) - x for x in u.coords()))
            w = MukaiVector.from_coords(tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(24)))
            for out in (u + v, v + u, w + w + w):
                assert all(type(x) is int for x in out.coords())

    def test_exp_b_of_integral_b_field_is_all_int(self):
        rng = random.Random(17)
        two_b = canonical_b_field().times(2)
        for _ in range(200):
            out = exp_b(two_b, random_integral(rng, 30))
            assert all(type(x) is int for x in out.coords())
        # A shear by a rational B-field lands back on an integral vector as ints.
        b = canonical_b_field()
        v = random_integral(rng, 30)
        assert all(type(x) is int for x in exp_b(-b, exp_b(b, v)).coords())

    def test_one_tuple_is_the_vector(self):
        rng = random.Random(18)
        v = random_integral(rng, 9)
        assert MukaiVector.__slots__ == ("_coords",)
        assert v.coords() is v.coords()
        assert v.coords() == (v.r, *v.c, v.s)
        assert MukaiVector.from_coords(v.coords()) == v

    def test_never_equals_or_hashes_like_a_tuple(self):
        v = MukaiVector(1, tuple(range(22)), 2)
        assert v != v.coords() and v.coords() != v
        assert hash(v) != hash(v.coords())
        assert len({v, v.coords(), MukaiVector.from_coords(v.coords())}) == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: MukaiVector.from_coords(v.coords()),
            lambda v: MukaiVector.from_h2(v.c),
            lambda v: v + v,
            lambda v: point_class(),
            twisted_involution,
            cover_involution,
            lambda v: exp_b(canonical_b_field(), v),
        ],
        ids=["from_coords", "from_h2", "add", "point_class", "twisted_involution", "cover_involution", "exp_b"],
    )
    def test_one_constructor(self, monkeypatch, build):
        # Every route to a vector passes through __init__, once.
        v = MukaiVector(3, tuple(range(22)), -4)
        made = []
        real_init = MukaiVector.__init__
        monkeypatch.setattr(MukaiVector, "__init__", lambda self, *args: made.append(args) or real_init(self, *args))
        out = build(v)
        assert type(out) is MukaiVector and len(made) == 1

    def test_from_coords_validates(self):
        with pytest.raises(ValueError, match="24 coordinates"):
            MukaiVector.from_coords((0,) * 23)
        with pytest.raises(TypeError):
            MukaiVector.from_coords((0.5,) + (0,) * 23)
        v = MukaiVector.from_coords([True] + [Fraction(4, 2)] * 22 + [Fraction(1, 2)])
        assert [type(x) for x in v.coords()] == [int] * 23 + [Fraction]
