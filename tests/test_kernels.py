"""The integer kernels against their dense definitions and brute-force oracles."""
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import box_norm_scan
from mukaitwist import IntMatrix, _kernels, cover_involution_h2, full_lattice, standard_lattice
from mukaitwist.lattices import reflection_dual

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
    want = tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)
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


@st.composite
def densely_coupled_grams(draw):
    """A flat symmetric Gram coupling every head coordinate to every tail one, its n, and a target.

    With h = n // 2 head coordinates, every entry g_ij with i < h <= j is
    nonzero, so every tail has its own projection, and column h reads 1, 3, 9
    on the head, so at bound 1 every head has its own key. The target is the
    value of the form at a point of the box, so there is at least one hit.
    """
    n = draw(st.integers(2, 6))
    h = n // 2
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cross = i < h <= j
            g[i][j] = g[j][i] = 3**i if cross and j == h else draw(st.integers(-3, 3).filter(lambda x: x or not cross))
    point = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    target = sum(g[i][j] * point[i] * point[j] for i in range(n) for j in range(n))
    return tuple(x for row in g for x in row), n, target


@settings(deadline=None)
@given(densely_coupled_grams())
def test_norm_scan_on_densely_coupled_grams_matches_box_oracle(case):
    flat, n, target = case
    hits = _kernels.norm_scan(flat, n, target, 1)
    assert hits and hits == box_norm_scan(flat, n, target, 1)


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
    empty = IntMatrix(0, 0, ()).sparse_rows
    assert _kernels.matvec(empty, ()) == ()
    assert _kernels.matvec(IntMatrix(2, 0, ()).sparse_rows, ()) == (0, 0)
    assert _kernels.bilinear(empty, (), ()) == 0


def test_dispatcher_rational_vectors_are_exact():
    half = Fraction(1, 2)
    rows = IntMatrix.from_rows([[2, 1], [1, 2]]).sparse_rows
    assert _kernels.quadform(rows, (half, 1)) == Fraction(7, 2)
    assert _kernels.matvec(rows, (half, half)) == (Fraction(3, 2), Fraction(3, 2))


# The compiled kernels against the dense definitions, in value and in type.
# The definitions sum from the int 0 over the nonzero matrix entries and, for
# bilinear, over the nonzero u_i, as the kernels' contract states: a zero u_i
# contributes nothing, so an all-zero u gives the int 0.


def dense_matvec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v)) if row[j]) for row in a)


def dense_bilinear(g, u, v):
    gv = dense_matvec(g, v)
    return sum(u[i] * gv[i] for i in range(len(g)) if u[i])


def typed(x):
    """A value with its type, or a tuple's type and its entries', so that == compares both."""
    return (tuple, [typed(e) for e in x]) if isinstance(x, tuple) else (type(x), x)


def assert_kernels_match(a, u, v):
    rows = sparse(a)
    assert typed(_kernels.matvec(rows, v)) == typed(dense_matvec(a, v))
    assert typed(_kernels.bilinear(rows, u, v)) == typed(dense_bilinear(a, u, v))
    assert typed(_kernels.quadform(rows, v)) == typed(dense_bilinear(a, v, v))


GRAMS = {name: standard_lattice(name).gram for name in ("u", "e8", "minus_e8", "enriques_h2", "mukai_h2")}
GRAMS["full"] = full_lattice().gram


@pytest.mark.parametrize("name", sorted(GRAMS))
@settings(max_examples=30)
@given(data=st.data())
def test_compiled_kernels_on_every_standard_gram(name, data):
    gram = GRAMS[name]
    u, v = data.draw(vectors(gram.rows)), data.draw(vectors(gram.rows))
    assert_kernels_match(gram.to_rows(), u, v)
    assert_kernels_match(gram.to_rows(), [0] * gram.rows, v)


HUGE = st.integers(-(2**100), 2**100)
huge_scalars = HUGE | st.builds(Fraction, HUGE, st.integers(1, 2**40))


@st.composite
def huge_cases(draw):
    """A square matrix with entries up to 2^100 in size, sparse or dense, and u, v.

    u is all Fraction zeros in a share of the cases.
    """
    n = draw(st.integers(0, 6))
    entry = (st.just(0) | HUGE) if draw(st.booleans()) else HUGE
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    vector = st.lists(huge_scalars, min_size=n, max_size=n)
    return a, draw(vector | st.just([Fraction(0)] * n)), draw(vector)


@given(huge_cases())
@example(([[3, 0], [0, 5]], [Fraction(0), Fraction(0)], [Fraction(1, 3), 2]))
@example(([[0, 0], [0, 2**100]], [Fraction(1, 2), 0], [1, 1]))  # a nonzero u_i on a zero row
def test_compiled_kernels_on_huge_and_rational_entries(case):
    assert_kernels_match(*case)


def test_each_matrix_compiles_each_form_once(monkeypatch):
    compiled = []
    real = _kernels._compile
    monkeypatch.setattr(_kernels, "_compile", lambda source: compiled.append(source) or real(source))
    gram = IntMatrix.from_rows([[2, -1, 0], [-1, 2, 7], [0, 7, -4]])
    for k in range(5):
        u, v = (k, 1, -k), (3, k, 1)
        assert gram.mul_vec(v) == dense_matvec(gram.to_rows(), v)
        assert _kernels.bilinear(gram.sparse_rows, u, v) == dense_bilinear(gram.to_rows(), u, v)
        assert _kernels.quadform(gram.sparse_rows, v) == dense_bilinear(gram.to_rows(), v, v)
    assert [source.split(":")[0] for source in compiled] == ["lambda v", "lambda u, v"]


def test_every_matvec_goes_through_the_module_binding(monkeypatch):
    # perfbench's tracer counts kernel calls by rebinding _kernels.matvec
    # wherever a loaded mukaitwist module binds it; a call that reached the
    # compiled form another way would go uncounted.
    real = _kernels.matvec
    calls = []

    def counted(rows, v):
        calls.append(v)
        return real(rows, v)

    for name, module in list(sys.modules.items()):
        if name == "mukaitwist" or name.startswith("mukaitwist."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    lat, tau = standard_lattice("mukai_h2"), cover_involution_h2()
    w = (0,) * 20 + (1, 1)
    for act in (lambda: reflection_dual(lat, w), lambda: lat.gram.mul_vec(w), lambda: tau(w)):
        calls.clear()
        act()
        assert calls == [w]


def test_a_used_matrix_still_pickles():
    gram = full_lattice().gram
    v = tuple(range(24))
    want = gram.mul_vec(v), _kernels.bilinear(gram.sparse_rows, v, v)
    copy = pickle.loads(pickle.dumps(gram))
    assert copy == gram
    assert (copy.mul_vec(v), _kernels.bilinear(copy.sparse_rows, v, v)) == want


# Loads _kernels alone, wraps its compile helper, then imports the package,
# which reuses the loaded module; prints the compiles made by the import and
# then by one call.
COUNT_IMPORT_COMPILES = """
import importlib.machinery, importlib.util, os, sys
package = importlib.machinery.PathFinder.find_spec("mukaitwist")
path = os.path.join(package.submodule_search_locations[0], "_kernels.py")
spec = importlib.util.spec_from_file_location("mukaitwist._kernels", path)
kernels = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernels)
sys.modules["mukaitwist._kernels"] = kernels
compiled = []
real = kernels._compile
kernels._compile = lambda source: compiled.append(source) or real(source)
import mukaitwist
import mukaitwist.cli
assert sys.modules["mukaitwist.lattices"]._kernels is kernels
print(len(compiled))
mukaitwist.standard_lattice("u").inner((1, 0), (0, 1))
print(len(compiled))
"""


def test_import_compiles_nothing():
    out = subprocess.run(
        [sys.executable, "-c", COUNT_IMPORT_COMPILES], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["0", "1"]
