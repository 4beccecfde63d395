import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaitwist import (
    IntMatrix,
    Isometry,
    Lattice,
    determinant,
    direct_sum,
    fixed_sublattice,
    full_lattice,
    is_isometry,
    kernel_basis,
    reflection,
    short_vectors,
    signature,
    smith_normal_form,
    standard_lattice,
    twisted_involution_matrix,
)
from mukaitwist.intmat import signature_and_det
from mukaitwist.lattices import cover_involution_h2, definiteness_from_signature, reflect, reflection_dual

from conftest import descartes_signature, rational_det, rational_rank

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
        assert definiteness_from_signature(signature(MINUS_E8.gram)) == "negative definite"

    def test_minus_e8_leading_minors_alternate(self):
        # (-1)^k * minor > 0 certifies negative definiteness independently
        for k in range(1, 9):
            block = IntMatrix.from_rows(
                [[MINUS_E8.gram[i, j] for j in range(k)] for i in range(k)]
            )
            assert (-1) ** k * rational_det(block) > 0

    def test_e8_is_positive_definite_unimodular(self):
        assert determinant(E8.gram) == 1
        assert definiteness_from_signature(signature(E8.gram)) == "positive definite"

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
        for _ in range(2):  # the error is raised on every call, never cached
            with pytest.raises(ValueError):
                standard_lattice("leech")

    def test_name_normalization(self):
        assert standard_lattice("minus-e8") is standard_lattice("minus_e8")
        assert standard_lattice("Minus-E8") is standard_lattice("minus_e8")

    @pytest.mark.parametrize("name", ["u", "e8", "minus_e8", "enriques_h2", "mukai_h2"])
    def test_every_spelling_is_the_same_cached_lattice(self, name):
        lat = standard_lattice(name)
        for spelling in (name.replace("_", "-"), name.replace("_", " "), name.upper(), name.replace("_", " ").title()):
            assert standard_lattice(spelling) is lat

    def test_spaces_are_not_deleted(self):
        with pytest.raises(ValueError):
            standard_lattice("minuse8")
        with pytest.raises(ValueError):
            standard_lattice("mukai h 2")


class TestInner:
    def test_hyperbolic_values(self):
        e, f = (1, 0), (0, 1)
        assert U.inner(e, f) == 1
        assert U.inner(e, e) == 0
        assert U.inner(f, f) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            U.inner((1, 0, 0), (0, 1))
        with pytest.raises(ValueError, match="vector length 1 "):
            U.inner((0, 1), (1,))
        with pytest.raises(ValueError, match="vector length 3 "):
            U.inner((1, 0, 0), (0, 1, 0))

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
        columns = basis.transpose()
        for i in range(basis.cols):
            for j in range(basis.cols):
                assert gram[i, j] == H2.inner(columns.row(i), columns.row(j))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            fixed_sublattice(U, Isometry(U, IntMatrix.identity(2)), 2)


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

    def test_wrong_length_rejected_naming_the_rank(self):
        for w in ((1, 1, 0), [1]):
            with pytest.raises(ValueError, match=r"^vector length \d != lattice rank 22$"):
                reflection_dual(H2, w)

    @pytest.mark.parametrize("w, square", [((1, 0), 0), ((1, 2), 4), ((1, -2), -4)])
    def test_wrong_square_rejected_naming_the_square(self, w, square):
        with pytest.raises(ValueError, match=rf"^reflection vector must have square \+-2, got {square}$"):
            reflection_dual(U, w)

    def test_dual_is_two_g_w_over_w_squared(self):
        assert reflection_dual(U, (1, 1)) == (1, 1)  # w^2 = 2: the dual is G w
        assert reflection_dual(U, (1, -1)) == (1, -1)  # w^2 = -2: G w = (-1, 1), negated


class TestVectorsStayTuples:
    """A matrix, an isometry and a reflection return tuples, for list, tuple or array input."""

    W = (0,) * 20 + (1, 1)  # square 2, anti-fixed by the cover involution

    @pytest.mark.parametrize("container", [list, tuple, lambda v: array("b", v)], ids=["list", "tuple", "array"])
    def test_results_are_tuples(self, container):
        tau = cover_involution_h2()
        dual = reflection_dual(H2, container(self.W))
        assert type(dual) is tuple
        w, dual = container(self.W), container(dual)

        def sigma(x):
            return reflect(x, w, dual)

        rows = tau.matrix.to_rows()
        orthogonal = (1,) + (0,) * 21  # sigma fixes it: nothing to subtract
        for x in (tuple(range(22)), orthogonal, self.W):
            want_tau = tuple(sum(a * c for a, c in zip(row, x)) for row in rows)
            k = H2.inner(x, self.W)  # the coefficient 2 <x,w> / <w,w>, as w^2 = 2
            want_sigma = tuple(c - k * wc for c, wc in zip(x, self.W))
            for act, want in ((tau.matrix.mul_vec, want_tau), (tau, want_tau), (sigma, want_sigma)):
                got = act(container(x))
                assert type(got) is tuple and got == want


@st.composite
def small_forms(draw):
    """A symmetric n x n matrix, 1 <= n <= 6, with entries in [-2, 2]."""
    n = draw(st.integers(1, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
    return IntMatrix(n, n, [x for row in rows for x in row])


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

    # The generator-pool harvest keeps the upper half of each scan as the one
    # vector of each pair +-v with a positive leading entry. That holds for a
    # nonzero target: negation reverses lex order, and 0 is no hit.
    @settings(max_examples=40)
    @given(small_forms(), st.integers(-4, 4).filter(bool), st.integers(0, 2))
    def test_upper_half_is_the_positive_leading_hits(self, gram, target, bound):
        hits = short_vectors(Lattice(gram), target, bound)
        assert len(hits) % 2 == 0
        assert hits[len(hits) // 2 :] == [v for v in hits if next(c for c in v if c) > 0]

    @settings(max_examples=20)
    @given(small_forms(), st.integers(0, 2))
    def test_target_zero_puts_the_zero_vector_in_the_middle(self, gram, bound):
        hits = short_vectors(Lattice(gram), 0, bound)
        assert len(hits) % 2 == 1
        assert hits[len(hits) // 2] == (0,) * gram.rows


@st.composite
def symmetric_matrices(draw, max_n=5):
    """A symmetric n x n matrix, many entries zero; half have a zero diagonal.

    The nonzero entries lie in [-3, 3] or, so that the exact divisions run on
    large minors, in [-10**6, 10**6].
    """
    n = draw(st.integers(0, max_n))
    zero_diagonal = draw(st.booleans())
    bound = draw(st.sampled_from([3, 10**6]))
    entry = st.just(0) | st.integers(-bound, bound)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return IntMatrix(n, n, [x for row in rows for x in row])


class TestSignatureAndDet:
    """One elimination gives the inertia and the determinant."""

    @settings(max_examples=300)
    @given(symmetric_matrices())
    def test_matches_signature_and_determinant(self, g):
        sig, det = signature_and_det(g)
        assert sig == signature(g) == descartes_signature(g)
        assert det == determinant(g) == rational_det(g)

    def test_zero_diagonal_inputs(self):
        # Every pivot of these starts from the congruence step.
        rng = random.Random(21)
        for _ in range(400):
            n = rng.randint(2, 6)
            rows = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 1, -1, 2, -2))
            g = IntMatrix.from_rows(rows)
            sig, det = signature_and_det(g)
            assert sig == descartes_signature(g)
            assert det == determinant(g) == rational_det(g)

    @pytest.mark.parametrize("name", ["u", "e8", "minus_e8", "enriques_h2", "mukai_h2", "full", "invariant"])
    def test_named_lattices(self, name):
        if name == "full":
            g = full_lattice().gram
        elif name == "invariant":
            _, g = fixed_sublattice(full_lattice(), twisted_involution_matrix(), 1)
        else:
            g = standard_lattice(name).gram
        assert signature_and_det(g) == (signature(g), determinant(g))

    def test_empty_and_degenerate(self):
        assert signature_and_det(IntMatrix(0, 0, ())) == ((0, 0, 0), 1)
        assert signature_and_det(IntMatrix.from_rows([[0, 0], [0, 1]])) == ((1, 1, 0), 0)
        assert signature_and_det(IntMatrix.from_rows([[0, 1], [1, 0]])) == ((1, 0, 1), -1)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            signature_and_det(IntMatrix.from_rows([[0, 1], [0, 0]]))


def test_signature_and_det_on_every_small_symmetric_matrix():
    # All 15,755 with n <= 3 and entries in [-2, 2]: each zero-diagonal
    # pattern, and each sign of the entry that starts the row move.
    for n in range(1, 4):
        places = list(itertools.combinations_with_replacement(range(n), 2))
        for entries in itertools.product(range(-2, 3), repeat=len(places)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), x in zip(places, entries):
                rows[i][j] = rows[j][i] = x
            g = IntMatrix.from_rows(rows)
            assert signature_and_det(g) == (descartes_signature(g), determinant(g))


class TestSignature:
    @settings(max_examples=300)
    @given(symmetric_matrices())
    def test_matches_descartes_oracle(self, g):
        assert signature(g) == descartes_signature(g)

    def test_full_enriques_and_invariant_lattices(self):
        assert signature(full_lattice().gram) == (4, 0, 20)
        assert signature(standard_lattice("enriques_h2").gram) == (1, 0, 9)
        _, invariant = fixed_sublattice(full_lattice(), twisted_involution_matrix(), 1)
        assert signature(invariant) == (2, 0, 10)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            signature(IntMatrix.from_rows([[0, 1], [0, 0]]))

    def test_hyperbolic(self):
        assert signature(U.gram) == (1, 0, 1)
        assert definiteness_from_signature(signature(U.gram)) == "indefinite"

    def test_definite_blocks(self):
        assert signature(E8.gram) == (8, 0, 0)
        assert signature(MINUS_E8.gram) == (0, 0, 8)

    def test_mukai_h2_signature(self):
        assert signature(H2.gram) == (3, 0, 19)

    def test_degenerate(self):
        g = IntMatrix.from_rows([[0, 0], [0, 1]])
        assert signature(g) == (1, 1, 0)
        assert definiteness_from_signature(signature(g)) == "degenerate"

    @pytest.mark.parametrize(
        "sig, expected",
        [
            ((8, 0, 0), "positive definite"),
            ((0, 0, 8), "negative definite"),
            ((3, 0, 19), "indefinite"),
            ((0, 0, 0), "indefinite"),
            ((1, 1, 0), "degenerate"),
            ((0, 2, 0), "degenerate"),
        ],
    )
    def test_definiteness_from_signature(self, sig, expected):
        assert definiteness_from_signature(sig) == expected
