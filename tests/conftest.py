"""Shared independent oracles for the test suite.

These deliberately avoid the library's own elimination code: determinants
and ranks are recomputed over Fractions with plain Gaussian elimination, and
small determinants by cofactor expansion, so normal-form bugs cannot hide
behind themselves.
"""
from fractions import Fraction
from itertools import combinations, product

from hypothesis import settings

from mukaitwist import IntMatrix

# Property tests run a fixed, bounded set of examples: the suite stays
# deterministic and its time does not depend on the machine's speed.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("tier1")


def rational_det(m: IntMatrix) -> Fraction:
    """Determinant by fraction-based Gaussian elimination."""
    assert m.rows == m.cols
    n = m.rows
    a = [[Fraction(x) for x in m.row(i)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def rational_rank(m: IntMatrix) -> int:
    """Rank by fraction-based row reduction."""
    a = [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        for i in range(rank + 1, m.rows):
            f = a[i][col] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def cofactor_det(m: IntMatrix) -> int:
    """Recursive cofactor expansion; fine for dims <= 4."""
    assert m.rows == m.cols
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = IntMatrix.from_rows(
            [[m[i, t] for t in range(n) if t != j] for i in range(1, n)]
        )
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def descartes_signature(g: IntMatrix) -> tuple[int, int, int]:
    """Inertia (n_plus, n_zero, n_minus) of a symmetric g from det(xI - g).

    The coefficient of x^(n-k) is (-1)^k times the sum of the k x k principal
    minors. A symmetric matrix has only real eigenvalues, so by Descartes'
    rule the sign changes of p(x) count the positive ones exactly and those of
    p(-x) the negative ones; the power of x dividing p counts the zero ones.
    """
    n = g.rows
    descending = [
        (-1) ** k * sum(cofactor_det(IntMatrix(k, k, [g[i, j] for i in s for j in s])) for s in combinations(range(n), k))
        for k in range(n + 1)
    ]
    ascending = descending[::-1]

    def sign_changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    n_zero = next(p for p, c in enumerate(ascending) if c)
    n_minus = sign_changes([(-1) ** p * c for p, c in enumerate(ascending)])
    return sign_changes(ascending), n_zero, n_minus


def random_matrix(rng, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return IntMatrix(rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])


def box_norm_scan(g, n: int, target: int, bound: int) -> list[tuple[int, ...]]:
    """Every v in [-bound, bound]^n with v^T G v == target, by brute force in lex order."""
    hits = []
    for v in product(range(-bound, bound + 1), repeat=n):
        q = sum(g[i * n + j] * v[i] * v[j] for i in range(n) for j in range(n))
        if q == target:
            hits.append(v)
    return hits


def reflection_matrix(gram: IntMatrix, w) -> IntMatrix:
    """The matrix I - (2 / w^T G w) w (G w)^T, entry by entry."""
    n = gram.rows
    gw = [sum(gram[i, j] * w[j] for j in range(n)) for i in range(n)]
    n2 = sum(w[i] * gw[i] for i in range(n))
    entries = [Fraction((1 if i == j else 0) * n2 - 2 * w[i] * gw[j], n2) for i in range(n) for j in range(n)]
    assert all(e.denominator == 1 for e in entries)
    return IntMatrix(n, n, [int(e) for e in entries])
