"""Integral lattices with symmetric bilinear forms.

A lattice is a free Z-module of finite rank with a fixed basis and a
symmetric integer Gram matrix. Vectors are plain tuples of coordinates in
that basis. Everything is immutable; all functions are pure.

Basis conventions (pinned so tests are reproducible):

* U is the hyperbolic plane with basis (e, f), Gram [[0, 1], [1, 0]].
* E8 uses the Dynkin-diagram Gram: nodes 1..7 in a chain, node 8 attached
  to node 5, diagonal 2, adjacency -1. minus_e8 is its negation.
* mukai_h2 = minus_e8 + minus_e8 + U + U + U in coordinate order
  (x: 1..8, y: 9..16, z1: 17..18, z2: 19..20, z3: 21..22); the K3 cover
  involution is then a literal signed permutation, see cover_involution_coords.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from . import _kernels
from .intmat import IntMatrix, determinant, kernel_basis

Vector = tuple[int, ...]


class Lattice:
    """A free Z-module with a symmetric integer Gram form."""

    __slots__ = ("gram", "rank", "label", "_det")

    def __init__(self, gram: IntMatrix, label: str = ""):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        self.gram = gram
        self.rank = gram.rows
        self.label = label
        self._det: int | None = None

    def _check_length(self, v: Sequence) -> None:
        if len(v) != self.rank:
            raise ValueError(f"vector length {len(v)} != lattice rank {self.rank}")

    def inner(self, u: Sequence, v: Sequence):
        """Bilinear form u . v; exact for integer and rational coordinates."""
        self._check_length(u)
        self._check_length(v)
        return _kernels.bilinear(self.gram.sparse_rows, tuple(u), tuple(v))

    def norm(self, v: Sequence):
        """The square v . v."""
        self._check_length(v)
        return _kernels.quadform(self.gram.sparse_rows, tuple(v))

    def is_even(self) -> bool:
        """True when every diagonal Gram entry is even (so all squares are)."""
        n = self.rank
        return all(self.gram[i, i] % 2 == 0 for i in range(n))

    def det(self) -> int:
        if self._det is None:
            self._det = determinant(self.gram)
        return self._det

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.gram == other.gram

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Lattice(rank={self.rank}{tag})"


class Isometry:
    """A form-preserving automorphism of a lattice, acting on coordinate columns.

    Construction raises ValueError unless is_isometry holds.
    """

    __slots__ = ("lattice", "matrix")

    def __init__(self, lattice: Lattice, matrix: IntMatrix):
        if not is_isometry(lattice, matrix):
            raise ValueError("matrix does not preserve the Gram form or is not unimodular")
        self.lattice = lattice
        self.matrix = matrix

    def __call__(self, v: Sequence[int]) -> Vector:
        return self.matrix.mul_vec(v)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if not isinstance(other, Isometry):
            return NotImplemented
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise ValueError("isometries act on different lattices")
        return Isometry(self.lattice, self.matrix @ other.matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.lattice == other.lattice and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"Isometry(rank={self.lattice.rank})"


def is_isometry(lattice: Lattice, matrix: IntMatrix) -> bool:
    """True iff M^T G M = G and |det M| = 1.

    The Gram identity gives det(M)^2 det G = det G, so |det M| = 1 is only
    computed when det G = 0.
    """
    if matrix.shape != (lattice.rank, lattice.rank):
        raise ValueError(f"matrix shape {matrix.shape} != rank {lattice.rank}")
    if matrix.transpose() @ lattice.gram @ matrix != lattice.gram:
        return False
    return lattice.det() != 0 or determinant(matrix) in (1, -1)


def _e8_gram() -> IntMatrix:
    adjacency = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    rows = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in adjacency:
        rows[i][j] = rows[j][i] = -1
    return IntMatrix.from_rows(rows)


def direct_sum(first: Lattice, second: Lattice, label: str = "") -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram, additive rank."""
    n1, n2 = first.rank, second.rank
    n = n1 + n2
    rows = [[0] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            rows[i][j] = first.gram[i, j]
    for i in range(n2):
        for j in range(n2):
            rows[n1 + i][n1 + j] = second.gram[i, j]
    if not label:
        label = f"{first.label or '?'} + {second.label or '?'}"
    return Lattice(IntMatrix.from_rows(rows), label)


def standard_lattice(name: str) -> Lattice:
    """Named standard lattices: u, e8, minus_e8, enriques_h2, mukai_h2."""
    return _standard_lattice(name.lower().replace("-", "_").replace(" ", ""))


@lru_cache(maxsize=None)
def _standard_lattice(key: str) -> Lattice:
    if key == "u":
        return Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]), "U")
    if key == "e8":
        return Lattice(_e8_gram(), "E8")
    if key in ("minus_e8", "minuse8"):
        return Lattice(-_e8_gram(), "-E8")
    if key == "enriques_h2":
        # Free part of the degree-2 cohomology of an Enriques surface.
        return direct_sum(standard_lattice("minus_e8"), standard_lattice("u"), "enriques_h2")
    if key == "mukai_h2":
        lat = standard_lattice("minus_e8")
        lat = direct_sum(lat, standard_lattice("minus_e8"))
        for _ in range(3):
            lat = direct_sum(lat, standard_lattice("u"))
        return Lattice(lat.gram, "mukai_h2")
    raise ValueError(
        f"unknown lattice {key!r}; expected one of u, e8, minus_e8, enriques_h2, mukai_h2"
    )


# Coordinate slices of mukai_h2: two -E8 blocks, then three U blocks.
X_SLICE = slice(0, 8)
Y_SLICE = slice(8, 16)
Z1_SLICE = slice(16, 18)
Z2_SLICE = slice(18, 20)
Z3_SLICE = slice(20, 22)


def cover_involution_coords(c: tuple) -> tuple:
    """The K3 cover involution on mukai_h2 coordinates: (x,y,z1,z2,z3) -> (y,x,z2,z1,-z3)."""
    z3 = c[Z3_SLICE]
    return c[Y_SLICE] + c[X_SLICE] + c[Z2_SLICE] + c[Z1_SLICE] + (-z3[0], -z3[1])


@lru_cache(maxsize=None)
def cover_involution_h2() -> Isometry:
    """The K3 cover involution on mukai_h2, as an isometry."""
    return Isometry(standard_lattice("mukai_h2"), IntMatrix.of_map(cover_involution_coords, 22))


def fixed_sublattice(
    lattice: Lattice, isometry: Isometry | IntMatrix, sign: int
) -> tuple[IntMatrix, IntMatrix]:
    """Z-basis of {v : M v = sign * v} and the Gram form restricted to it.

    The basis is returned as the columns of the first matrix; it is computed
    as an integer kernel, hence saturated. M need not be an involution.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    matrix = isometry.matrix if isinstance(isometry, Isometry) else isometry
    if matrix.shape != (lattice.rank, lattice.rank):
        raise ValueError("matrix shape does not match lattice rank")
    shifted = matrix - IntMatrix.identity(lattice.rank).scale(sign)
    basis = kernel_basis(shifted)
    restricted = basis.transpose() @ lattice.gram @ basis
    return basis, restricted


class Reflection:
    """The reflection x -> x - (2 <x,w> / <w,w>) w in a vector w of square +2 or -2.

    It acts on a vector as a rank-one update: one inner product with the
    stored G w, then a multiple of w subtracted. The matrix is derived from
    that action on demand. As <w,w> = +-2, the coefficient is +-<x,w>, so
    the reflection is integral on every integral lattice.
    """

    __slots__ = ("lattice", "w", "_gw", "_sign")

    def __init__(self, lattice: Lattice, w: Sequence[int]):
        lattice._check_length(w)
        w = tuple(w)
        gw = lattice.gram.mul_vec(w)
        n2 = sum(map(mul, w, gw))
        if n2 not in (2, -2):
            raise ValueError(f"reflection vector must have square +-2, got {n2}")
        self.lattice = lattice
        self.w = w
        self._gw = gw
        self._sign = n2 // 2  # 2 / <w,w>

    def __call__(self, x: Sequence[int]) -> Vector:
        self.lattice._check_length(x)
        k = self._sign * sum(map(mul, x, self._gw))
        if not k:
            return tuple(x)
        return tuple(xi - k * wi for xi, wi in zip(x, self.w))

    @property
    def matrix(self) -> IntMatrix:
        return IntMatrix.of_map(self, self.lattice.rank)


def reflection(lattice: Lattice, w: Sequence[int]) -> Isometry:
    """Reflection in a vector of square +2 or -2, as an isometry; see Reflection."""
    return Isometry(lattice, Reflection(lattice, w).matrix)


def short_vectors(lattice: Lattice, target_norm: int, coord_bound: int) -> list[Vector]:
    """All vectors with coordinates in [-coord_bound, coord_bound] of the given square.

    Naive box enumeration in lexicographic order; intended for the tiny
    norms and bounds needed to harvest reflection vectors.
    """
    if coord_bound < 0:
        raise ValueError("coord_bound must be >= 0")
    return [tuple(v) for v in _kernels.norm_scan(lattice.gram.flat, lattice.rank, target_norm, coord_bound)]


def signature(gram: IntMatrix) -> tuple[int, int, int]:
    """Inertia (n_plus, n_zero, n_minus), by exact symmetric congruence reduction."""
    if not gram.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    n = gram.rows
    a = [[Fraction(x) for x in gram.row(i)] for i in range(n)]
    pos = zero = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((t for t in range(k + 1, n) if a[t][t] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((t for t in range(k + 1, n) if a[k][t] != 0), None)
                if j is None:
                    zero += 1
                    continue
                for t in range(n):
                    a[k][t] += a[j][t]
                for t in range(n):
                    a[t][k] += a[t][j]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        factors = [a[i][k] / d for i in range(k + 1, n)]
        for i, f in zip(range(k + 1, n), factors):
            if f:
                for t in range(n):
                    a[i][t] -= f * a[k][t]
        for i, f in zip(range(k + 1, n), factors):
            if f:
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return pos, zero, neg


def definiteness(gram: IntMatrix) -> str:
    """'positive definite', 'negative definite', 'indefinite' or 'degenerate'."""
    pos, zero, neg = signature(gram)
    if zero:
        return "degenerate"
    if neg == 0:
        return "positive definite" if pos else "indefinite"
    if pos == 0:
        return "negative definite"
    return "indefinite"
