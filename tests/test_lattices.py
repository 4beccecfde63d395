import itertools
import random

import pytest

from mukaitwist import (
    IntMatrix,
    Isometry,
    Lattice,
    definiteness,
    determinant,
    direct_sum,
    fixed_sublattice,
    is_isometry,
    kernel_basis,
    reflection,
    short_vectors,
    signature,
    smith_normal_form,
    standard_lattice,
)
from mukaitwist.lattices import cover_involution_h2

from conftest import rational_det, rational_rank

U = standard_lattice("u")
E8 = standard_lattice("e8")
MINUS_E8 = standard_lattice("minus_e8")
H2 = standard_lattice("mukai_h2")


class TestStandardLattices:
    def test_u_gram(self):
        assert U.gram == IntMatrix.from_rows([[0, 1], [1, 0]])
        assert U.is_even()

    def test_minus_e8(self):
        assert MINUS_E8.rank == 8
        assert MINUS_E8.is_even()
        assert MINUS_E8.det() == 1
        assert definiteness(MINUS_E8.gram) == "negative definite"

    def test_minus_e8_leading_minors_alternate(self):
        # (-1)^k * minor > 0 certifies negative definiteness independently
        for k in range(1, 9):
            block = IntMatrix.from_rows(
                [[MINUS_E8.gram[i, j] for j in range(k)] for i in range(k)]
            )
            assert (-1) ** k * rational_det(block) > 0

    def test_e8_is_positive_definite_unimodular(self):
        assert determinant(E8.gram) == 1
        assert definiteness(E8.gram) == "positive definite"

    def test_mukai_h2(self):
        assert H2.rank == 22
        assert H2.is_even()
        assert H2.det() == -1
        assert rational_det(H2.gram) == -1

    def test_mukai_h2_is_five_block_sum(self):
        lat = direct_sum(MINUS_E8, MINUS_E8)
        for _ in range(3):
            lat = direct_sum(lat, U)
        assert lat.gram == H2.gram

    def test_direct_sum_shape(self):
        s = direct_sum(U, U)
        assert s.rank == 4
        assert s.gram[0, 1] == 1 and s.gram[2, 3] == 1 and s.gram[1, 2] == 0

    def test_direct_sum_det_multiplicative(self):
        s = direct_sum(MINUS_E8, U)
        assert s.rank == 10
        assert determinant(s.gram) == -1

    def test_enriques_h2(self):
        lat = standard_lattice("enriques_h2")
        assert lat.rank == 10
        assert lat.is_even()
        assert determinant(lat.gram) == -1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            standard_lattice("leech")

    def test_name_normalization(self):
        assert standard_lattice("minus-e8") is standard_lattice("minus_e8")


class TestInner:
    def test_hyperbolic_values(self):
        e, f = (1, 0), (0, 1)
        assert U.inner(e, f) == 1
        assert U.inner(e, e) == 0
        assert U.inner(f, f) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            U.inner((1, 0, 0), (0, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_involution_pairing_block_formula(self, seed):
        rng = random.Random(seed)
        tau = cover_involution_h2()
        for _ in range(250):
            ell = tuple(rng.randint(-9, 9) for _ in range(22))
            x, y = ell[0:8], ell[8:16]
            z1, z2, z3 = ell[16:18], ell[18:20], ell[20:22]
            expected = 2 * MINUS_E8.inner(x, y) + 2 * U.inner(z1, z2) - U.norm(z3)
            assert H2.inner(ell, tau(ell)) == expected


class TestIsometry:
    def test_identity(self):
        assert is_isometry(H2, IntMatrix.identity(22))

    def test_cover_involution_is_isometry(self):
        tau = cover_involution_h2()
        assert is_isometry(H2, tau.matrix)
        assert tau.matrix @ tau.matrix == IntMatrix.identity(22)

    def test_zero_column_rejected(self):
        m = IntMatrix.from_rows([[0, 0], [0, 1]])
        assert not is_isometry(U, m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_isometry(U, IntMatrix.identity(3))

    def test_constructor_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            Isometry(U, IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_unimodular_but_not_gram_preserving(self):
        m = IntMatrix.from_rows([[1, 1], [0, 1]])
        assert not is_isometry(U, m)

    def test_degenerate_form_needs_unimodular_matrix(self):
        # On Gram [[0]] every matrix preserves the form; only det decides.
        null = Lattice(IntMatrix.from_rows([[0]]))
        doubling = IntMatrix.from_rows([[2]])
        assert not is_isometry(null, doubling)
        with pytest.raises(ValueError):
            Isometry(null, doubling)
        assert is_isometry(null, IntMatrix.from_rows([[-1]]))

    def test_cover_involution_is_the_signed_permutation(self):
        # (x, y, z1, z2, z3) -> (y, x, z2, z1, -z3), written out entry by entry.
        src = list(range(8, 16)) + list(range(0, 8)) + [18, 19, 16, 17, 20, 21]
        sgn = [1] * 20 + [-1, -1]
        rows = [[sgn[i] if j == src[i] else 0 for j in range(22)] for i in range(22)]
        assert cover_involution_h2().matrix == IntMatrix.from_rows(rows)


class TestFixedSublattice:
    def test_involution_ranks(self):
        tau = cover_involution_h2()
        plus, gram_plus = fixed_sublattice(H2, tau, 1)
        minus, gram_minus = fixed_sublattice(H2, tau, -1)
        assert plus.cols == 10
        assert minus.cols == 12
        assert plus.cols + minus.cols == H2.rank
        # independent rank check
        shifted = tau.matrix - IntMatrix.identity(22)
        assert 22 - rational_rank(shifted) == 10

    def test_identity_fixes_everything(self):
        basis, gram = fixed_sublattice(U, Isometry(U, IntMatrix.identity(2)), 1)
        assert basis.cols == 2
        assert determinant(gram) == determinant(U.gram)

    def test_bases_are_saturated(self):
        tau = cover_involution_h2()
        for sign in (1, -1):
            basis, _ = fixed_sublattice(H2, tau, sign)
            s, _, _ = smith_normal_form(basis)
            assert all(s[i, i] == 1 for i in range(basis.cols))

    def test_restricted_gram_matches_inner(self):
        tau = cover_involution_h2()
        basis, gram = fixed_sublattice(H2, tau, -1)
        for i in range(basis.cols):
            for j in range(basis.cols):
                assert gram[i, j] == H2.inner(basis.column(i), basis.column(j))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            fixed_sublattice(U, IntMatrix.identity(2), 2)


def _mirror_candidates():
    """Vectors of square +-2 in mukai_h2 from its block structure."""
    vecs = []
    for i in range(16):  # -E8 basis vectors have square -2
        v = [0] * 22
        v[i] = 1
        vecs.append(tuple(v))
    for base in (16, 18, 20):  # U-block (1, +-1) have square +-2
        for sgn in (1, -1):
            v = [0] * 22
            v[base], v[base + 1] = 1, sgn
            vecs.append(tuple(v))
    return vecs


class TestReflection:
    def test_hyperbolic_golden(self):
        sigma = reflection(U, (1, 1))  # w = e + f, square 2
        assert sigma((1, 0)) == (0, -1)  # e -> -f
        assert sigma((1, 1)) == (-1, -1)

    def test_defining_property_and_involution(self):
        rng = random.Random(11)
        candidates = _mirror_candidates()
        for _ in range(100):
            w = candidates[rng.randrange(len(candidates))]
            sigma = reflection(H2, w)
            assert sigma(w) == tuple(-x for x in w)
            assert sigma.matrix @ sigma.matrix == IntMatrix.identity(22)

    def test_commutes_with_involution_on_eigenvectors(self):
        tau = cover_involution_h2()
        # w supported on the z3 block satisfies tau(w) = -w
        w = (0,) * 20 + (1, 1)
        sigma = reflection(H2, w)
        assert sigma.matrix @ tau.matrix == tau.matrix @ sigma.matrix

    def test_invalid_square_rejected(self):
        with pytest.raises(ValueError):
            reflection(U, (1, 0))  # square 0


class TestShortVectors:
    def test_hyperbolic_norm_zero(self):
        got = short_vectors(U, 0, 1)
        for v in ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)):
            assert v in got

    def test_hyperbolic_norm_two(self):
        assert short_vectors(U, 2, 1) == [(-1, -1), (1, 1)]

    def test_exhaustive_oracle(self):
        got = short_vectors(U, 2, 2)
        expected = [
            v
            for v in itertools.product(range(-2, 3), repeat=2)
            if 2 * v[0] * v[1] == 2
        ]
        assert got == expected

    def test_bound_zero(self):
        assert short_vectors(U, 0, 0) == [(0, 0)]
        assert short_vectors(U, 2, 0) == []

    def test_lexicographic_order(self):
        got = short_vectors(MINUS_E8, -2, 1)
        assert got == sorted(got)
        assert len(got) > 0


class TestSignature:
    def test_hyperbolic(self):
        assert signature(U.gram) == (1, 0, 1)
        assert definiteness(U.gram) == "indefinite"

    def test_definite_blocks(self):
        assert signature(E8.gram) == (8, 0, 0)
        assert signature(MINUS_E8.gram) == (0, 0, 8)

    def test_mukai_h2_signature(self):
        assert signature(H2.gram) == (3, 0, 19)

    def test_degenerate(self):
        g = IntMatrix.from_rows([[0, 0], [0, 1]])
        assert signature(g) == (1, 1, 0)
        assert definiteness(g) == "degenerate"
