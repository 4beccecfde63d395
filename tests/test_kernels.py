"""The integer kernels against their dense definitions and brute-force oracles."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box_norm_scan
from mukaitwist import IntMatrix, _kernels

# Small entries, and entries next to 2^62 and 10^30, where fixed-width
# arithmetic would overflow.
BIG = (2**62, 10**30)
ints = st.integers(-3, 3) | st.builds(
    lambda b, d, sign: sign * (b + d), st.sampled_from(BIG), st.integers(-2, 2), st.sampled_from((1, -1))
)
scalars = ints | st.builds(Fraction, ints, st.integers(1, 6))


@st.composite
def matrices(draw, square=False):
    """A rows x cols list of rows with entries drawn from `ints`, many of them zero."""
    n = draw(st.integers(0, 5))
    m = n if square else draw(st.integers(0, 5))
    entry = st.just(0) | ints
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


def sparse(a):
    return IntMatrix.from_rows(a).sparse_rows


def vectors(length):
    return st.lists(scalars, min_size=length, max_size=length)


@given(st.data())
def test_matvec_matches_dense_definition(data):
    a = data.draw(matrices())
    v = data.draw(vectors(len(a[0]) if a else 0))
    want = [sum(row[j] * v[j] for j in range(len(v))) for row in a]
    assert _kernels.matvec(sparse(a), v) == want


@given(st.data())
def test_bilinear_and_quadform_match_dense_definition(data):
    g = data.draw(matrices(square=True))
    n = len(g)
    u, v = data.draw(vectors(n)), data.draw(vectors(n))
    assert _kernels.bilinear(sparse(g), u, v) == sum(u[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
    assert _kernels.quadform(sparse(g), v) == sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))


@st.composite
def symmetric_grams(draw, max_n=5, entry_bound=3):
    """A flat symmetric n x n Gram with small entries, and its n."""
    n = draw(st.integers(0, max_n))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-entry_bound, entry_bound))
    return tuple(x for row in g for x in row), n


@given(symmetric_grams(), st.integers(-4, 4), st.integers(0, 2))
def test_pure_norm_scan_matches_box_oracle(gram, target, bound):
    flat, n = gram
    assert _kernels.norm_scan(flat, n, target, bound) == box_norm_scan(flat, n, target, bound)


@st.composite
def sparse_symmetric_grams(draw):
    """A flat symmetric Gram whose off-diagonal entries are mostly 0, and its n.

    Sparse enough that heads of a meet-in-the-middle split share coupling
    keys and some tail coordinates couple to no head coordinate, with
    nonzero entries free to land on either side of the split or across it.
    """
    n = draw(st.integers(6, 8))
    off = st.integers(-2, 2).filter(bool)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            if draw(st.integers(0, 4)) == 0:
                g[i][j] = g[j][i] = draw(off)
    return tuple(x for row in g for x in row), n


@settings(max_examples=30, deadline=None)
@given(sparse_symmetric_grams(), st.integers(-4, 4), st.integers(0, 1))
def test_norm_scan_on_wider_sparse_grams_matches_box_oracle(gram, target, bound):
    flat, n = gram
    assert _kernels.norm_scan(flat, n, target, bound) == box_norm_scan(flat, n, target, bound)


def test_norm_scan_small_cases():
    assert _kernels.norm_scan((), 0, 0, 1) == [()]
    assert _kernels.norm_scan((), 0, 2, 1) == []
    # n = 1: the head is empty, every coordinate is tail.
    assert _kernels.norm_scan((2,), 1, 2, 1) == [(-1,), (1,)]
    assert _kernels.norm_scan((2,), 1, 8, 2) == [(-2,), (2,)]
    assert _kernels.norm_scan((2,), 1, 4, 2) == []
    # bound = 0: only the origin is in the box.
    flat = (2, 1, 1, 2)
    assert _kernels.norm_scan(flat, 2, 0, 0) == [(0, 0)]
    assert _kernels.norm_scan(flat, 2, 2, 0) == []


def test_norm_scan_dense_rank_8_matches_box_oracle():
    # Every entry nonzero, so every head coordinate couples to every tail
    # coordinate. Column 4 reads 1, 3, 9, 27 on the head, so the coupling
    # key of a head in {-1, 0, 1}^4 is its balanced-ternary value: all 81
    # heads have their own key.
    rows = [
        [2, 1, 1, -1, 1, 1, -1, 1],
        [1, -2, -1, 1, 3, -1, 1, 1],
        [1, -1, 2, 1, 9, 1, 1, -1],
        [-1, 1, 1, -2, 27, 1, -1, 1],
        [1, 3, 9, 27, 2, -1, 1, 1],
        [1, -1, 1, 1, -1, -2, 1, -1],
        [-1, 1, 1, -1, 1, 1, 2, 1],
        [1, 1, -1, 1, 1, -1, 1, -2],
    ]
    assert all(rows[i][j] == rows[j][i] != 0 for i in range(8) for j in range(8))
    flat = tuple(x for row in rows for x in row)
    for target in (-2, 0, 2):
        hits = _kernels.norm_scan(flat, 8, target, 1)
        assert hits and hits == box_norm_scan(flat, 8, target, 1)


def test_dispatcher_falls_back_on_big_entries():
    big = 10**30
    out = _kernels.matmul((big, 0, 0, big), (big, 0, 0, big), 2, 2, 2)
    assert out[0] == big * big
    rows = IntMatrix.from_rows([[big, 1], [1, big]]).sparse_rows
    assert _kernels.bilinear(rows, (big, 0), (big, 1)) == big**3 + big


def test_dispatcher_falls_back_on_fractions():
    half = Fraction(1, 2)
    rows = IntMatrix.from_rows([[0, 1], [1, 0]]).sparse_rows
    assert _kernels.bilinear(rows, (half, half), (1, 1)) == 1


def test_empty_dimensions():
    assert _kernels.matmul((), (), 0, 0, 0) == []
    assert _kernels.matmul((), (), 2, 0, 0) in ([],)
    assert _kernels.matvec((), ()) == []
    assert _kernels.matvec(IntMatrix.zero(2, 0).sparse_rows, ()) == [0, 0]
    assert _kernels.bilinear((), (), ()) == 0


def test_dispatcher_rational_vectors_are_exact():
    half = Fraction(1, 2)
    rows = IntMatrix.from_rows([[2, 1], [1, 2]]).sparse_rows
    assert _kernels.quadform(rows, (half, 1)) == Fraction(7, 2)
    assert _kernels.matvec(rows, (half, half)) == [Fraction(3, 2), Fraction(3, 2)]
