import random
from fractions import Fraction

import pytest

from mukaitwist import (
    BField,
    IntMatrix,
    MukaiVector,
    canonical_b_field,
    cover_involution,
    cover_involution_h2,
    cover_involution_matrix,
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
from mukaitwist.verify import sample_equivariant_isometry


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

    def test_matrix_matches_vector_action(self):
        rng = random.Random(6)
        m = cover_involution_matrix()
        for _ in range(50):
            v = random_integral(rng, 9)
            assert tuple(m(v.coords())) == cover_involution(v).coords()

    def test_h2_matrix_is_the_degree_two_block(self):
        full = cover_involution_matrix().matrix.to_rows()
        block = [row[1:23] for row in full[1:23]]
        assert cover_involution_h2().matrix.to_rows() == block


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
            assert twisted_involution(random_integral(rng)).is_integral()

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
            assert t.column(i) == column

    def test_squares_to_identity(self):
        t = twisted_involution_matrix().matrix
        assert t @ t == IntMatrix.identity(24)

    def test_is_isometry_of_full_lattice(self):
        assert is_isometry(full_lattice(), twisted_involution_matrix().matrix)


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
        assert v.is_integral()

    def test_arithmetic(self):
        rng = random.Random(15)
        u, v = random_integral(rng, 9), random_integral(rng, 9)
        assert (u + v) - v == u
        assert -(-u) == u
        assert u.scale(3).r == 3 * u.r
