import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mukaitwist import (
    IntMatrix,
    determinant,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
    solve,
    standard_lattice,
)
from mukaitwist.lattices import cover_involution_h2

from conftest import cofactor_det, random_matrix, rational_det, rational_rank


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5, bound=6, square=False):
    """A small IntMatrix, empty shapes included."""
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0, max_cols))
    return IntMatrix(rows, cols, draw(st.lists(st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols)))


def assert_hnf_shape(h: IntMatrix):
    pivots = []
    for i in range(h.rows):
        row = h.row(i)
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            # zero rows trail
            assert all(not any(h.row(t)) for t in range(i, h.rows))
            break
        if pivots:
            assert col > pivots[-1][1]
        pivots.append((i, col))
    for i, col in pivots:
        assert h[i, col] > 0
        for t in range(i):
            assert 0 <= h[t, col] < h[i, col]


class TestHermite:
    def test_identity(self):
        m = IntMatrix.identity(2)
        h, u = hermite_normal_form(m)
        assert h == m and u == m

    def test_already_in_form(self):
        m = IntMatrix.diagonal([2, 3])
        h, u = hermite_normal_form(m)
        assert h == m and u == IntMatrix.identity(2)

    def test_swap(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        h, u = hermite_normal_form(m)
        assert h == IntMatrix.identity(2)
        assert u == m
        assert u @ m == h
        assert abs(rational_det(u)) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_factorization(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = random_matrix(rng, rows, cols)
            h, u = hermite_normal_form(m)
            assert u @ m == h
            assert determinant(u) in (1, -1)
            assert_hnf_shape(h)

    @given(int_matrices())
    def test_against_rational_oracles(self, m):
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert abs(rational_det(u)) == 1
        assert_hnf_shape(h)
        assert sum(1 for i in range(h.rows) if any(h.row(i))) == rational_rank(m)

    @given(int_matrices(max_rows=4, square=True))
    def test_pivot_product_is_the_determinant(self, m):
        h, _ = hermite_normal_form(m)
        pivots = 1
        for i in range(h.rows):
            pivots *= h[i, i]
        assert pivots == abs(cofactor_det(m))


class TestSmith:
    def test_diag_2_3(self):
        m = IntMatrix.diagonal([2, 3])
        s, u, v = smith_normal_form(m)
        assert s == IntMatrix.diagonal([1, 6])
        assert u @ m @ v == s
        assert determinant(u) in (1, -1) and determinant(v) in (1, -1)

    def test_zero(self):
        m = IntMatrix.zero(3, 2)
        s, u, v = smith_normal_form(m)
        assert s == m

    def test_hyperbolic_gram_is_unimodular(self):
        m = standard_lattice("u").gram
        s, u, v = smith_normal_form(m)
        assert s == IntMatrix.identity(2)
        assert u @ m @ v == s

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_factorization(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(40):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols)
            s, u, v = smith_normal_form(m)
            assert u @ m @ v == s
            assert determinant(u) in (1, -1)
            assert determinant(v) in (1, -1)
            diag = [s[i, i] for i in range(min(rows, cols))]
            assert all(x >= 0 for x in diag)
            assert all(
                s[i, j] == 0 for i in range(rows) for j in range(cols) if i != j
            )
            nonzero = [d for d in diag if d]
            assert len(nonzero) == rational_rank(m)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            # zeros trail
            assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))

    @given(int_matrices())
    def test_against_rational_oracles(self, m):
        s, u, v = smith_normal_form(m)
        assert u @ m @ v == s
        assert abs(rational_det(u)) == 1 and abs(rational_det(v)) == 1
        diag = [s[i, i] for i in range(min(m.rows, m.cols))]
        assert s == IntMatrix(m.rows, m.cols, [diag[i] if i == j else 0 for i in range(m.rows) for j in range(m.cols)])
        rank = rational_rank(m)
        assert all(d > 0 for d in diag[:rank]) and not any(diag[rank:])
        assert all(b % a == 0 for a, b in zip(diag[:rank], diag[1:rank]))

    @given(int_matrices(max_rows=4, square=True))
    def test_invariant_factors_multiply_to_the_determinant(self, m):
        s, _, _ = smith_normal_form(m)
        product = 1
        for i in range(m.rows):
            product *= s[i, i]
        assert product == abs(cofactor_det(m))


class TestKernel:
    def test_sum_map(self):
        m = IntMatrix.from_rows([[1, 1]])
        k = kernel_basis(m)
        assert k.cols == 1
        assert k.column(0) in ((1, -1), (-1, 1))

    def test_identity_has_no_kernel(self):
        k = kernel_basis(IntMatrix.identity(3))
        assert k.shape == (3, 0)

    def test_involution_kernel_rank(self):
        tau = cover_involution_h2().matrix
        shifted = tau - IntMatrix.identity(22)
        k = kernel_basis(shifted)
        assert k.cols == 10
        assert 22 - rational_rank(shifted) == 10

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_kernel(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols, bound=4)
            k = kernel_basis(m)
            assert k.cols == cols - rational_rank(m)
            for j in range(k.cols):
                assert all(x == 0 for x in m.mul_vec(k.column(j)))
            if k.cols:
                s, _, _ = smith_normal_form(k)
                assert all(s[i, i] == 1 for i in range(k.cols))

    @given(int_matrices(bound=4))
    def test_against_rational_oracles(self, m):
        k = kernel_basis(m)
        assert k.shape == (m.cols, m.cols - rational_rank(m))
        assert rational_rank(k) == k.cols
        assert m @ k == IntMatrix.zero(m.rows, k.cols)
        if k.cols:
            # Saturated: the basis spans every integral kernel vector.
            s, _, _ = smith_normal_form(k)
            assert all(s[i, i] == 1 for i in range(k.cols))


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntMatrix.identity(5)) == 1

    def test_hyperbolic(self):
        assert determinant(standard_lattice("u").gram) == -1

    def test_minus_e8_is_unimodular(self):
        gram = standard_lattice("minus_e8").gram
        assert determinant(gram) == 1
        assert rational_det(gram) == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix.zero(2, 3))

    @pytest.mark.parametrize("seed", range(6))
    def test_against_cofactor_expansion(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            assert determinant(m) == cofactor_det(m)


class TestSolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip(self, seed):
        rng = random.Random(400 + seed)
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols, bound=5)
            x = [rng.randint(-5, 5) for _ in range(cols)]
            b = m.mul_vec(x)
            got = solve(m, b)
            assert got is not None
            assert m.mul_vec(got) == b

    @given(st.data())
    def test_against_rational_oracles(self, data):
        m = data.draw(int_matrices(bound=5))
        x = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols))
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=m.rows, max_size=m.rows))
        b = tuple(bi + si for bi, si in zip(m.mul_vec(x), shift))
        got = solve(m, b)
        augmented = IntMatrix(m.rows, m.cols + 1, [e for i in range(m.rows) for e in m.row(i) + (b[i],)])
        if not any(shift):
            assert got is not None
        if rational_rank(augmented) > rational_rank(m):
            assert got is None  # not even a rational solution
        if got is not None:
            assert m.mul_vec(got) == b

    def test_unsolvable(self):
        m = IntMatrix.from_rows([[2]])
        assert solve(m, (1,)) is None
        assert solve(m, (4,)) == (2,)


class TestIntMatrix:
    def test_entry_validation(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [1.5])
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [1, 2, 3])

    def test_big_integers_survive(self):
        big = 10**40
        m = IntMatrix.from_rows([[big, 0], [0, big]])
        assert (m @ m)[0, 0] == big * big
        assert determinant(m) == big * big

    def test_mul_vec_length_check(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2).mul_vec((1, 2, 3))
