"""Integral lattices with symmetric bilinear forms.

A lattice is a free Z-module of finite rank with a fixed basis and a
symmetric integer Gram matrix. Vectors are plain tuples of coordinates in
that basis. Lattice and Isometry are records (mukaitwist._record.Record):
they refuse assignment, so the lattices that standard_lattice caches cannot
change. A reflection is no object: reflection_dual checks its vector and
returns its dual, and reflect applies it to a vector. All functions are pure.

Basis conventions (pinned so tests are reproducible):

* U is the hyperbolic plane with basis (e, f), Gram [[0, 1], [1, 0]].
* E8 uses the Dynkin-diagram Gram: nodes 1..7 in a chain, node 8 attached
  to node 5, diagonal 2, adjacency -1. minus_e8 is its negation.
* mukai_h2 = minus_e8 + minus_e8 + U + U + U in coordinate order
  (x: 1..8, y: 9..16, z1: 17..18, z2: 19..20, z3: 21..22); the K3 cover
  involution is then a literal signed permutation, see cover_involution_coords.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import itemgetter, mul, neg

from . import _kernels
from ._record import Record, set_field
# signature is not used here: the package re-exports it from this module, and
# the benchmark's tracer wraps it as mukaitwist.lattices.signature.
from .intmat import IntMatrix, determinant, kernel_basis, signature

Vector = tuple[int, ...]


class Lattice(Record):
    """A free Z-module with a symmetric integer Gram form; the Gram is the whole value."""

    __slots__ = ("gram", "rank", "_det")
    _fields = ("gram",)

    def __init__(self, gram: IntMatrix):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        super().__init__(gram)
        set_field(self, "rank", gram.rows)
        set_field(self, "_det", None)

    def _check_length(self, v: Sequence) -> None:
        if len(v) != self.rank:
            raise ValueError(f"vector length {len(v)} != lattice rank {self.rank}")

    def inner(self, u: Sequence, v: Sequence):
        """Bilinear form u . v; exact for integer and rational coordinates."""
        if not len(u) == len(v) == self.rank:
            self._check_length(u)
            self._check_length(v)
        return _kernels.bilinear(self.gram, u, v)

    def norm(self, v: Sequence):
        """The square v . v."""
        self._check_length(v)
        return _kernels.quadform(self.gram, v)

    def is_even(self) -> bool:
        """True when every diagonal Gram entry is even (so all squares are)."""
        n = self.rank
        return all(self.gram[i, i] % 2 == 0 for i in range(n))

    def det(self) -> int:
        if self._det is None:
            set_field(self, "_det", determinant(self.gram))
        return self._det


class Isometry(Record):
    """A form-preserving automorphism of a lattice, acting on coordinate columns.

    Construction raises ValueError unless is_isometry holds.
    """

    __slots__ = ("lattice", "matrix")
    _fields = ("lattice", "matrix")

    def __init__(self, lattice: Lattice, matrix: IntMatrix):
        if not is_isometry(lattice, matrix):
            raise ValueError("matrix does not preserve the Gram form or is not unimodular")
        super().__init__(lattice, matrix)

    def __call__(self, v: Sequence[int]) -> Vector:
        return self.matrix.mul_vec(v)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if not isinstance(other, Isometry):
            return NotImplemented
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise ValueError("isometries act on different lattices")
        return Isometry(self.lattice, self.matrix @ other.matrix)


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


def direct_sum(first: Lattice, second: Lattice) -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram, additive rank, first's coordinates first."""
    n1, n2 = first.rank, second.rank
    n = n1 + n2
    rows = [[0] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            rows[i][j] = first.gram[i, j]
    for i in range(n2):
        for j in range(n2):
            rows[n1 + i][n1 + j] = second.gram[i, j]
    return Lattice(IntMatrix.from_rows(rows))


@lru_cache(maxsize=None)
def standard_lattice(name: str) -> Lattice:
    """Named standard lattices: u, e8, minus_e8, enriques_h2, mukai_h2.

    Case is ignored, and a hyphen or a space reads as an underscore.
    """
    return _standard_lattice(name.lower().replace("-", "_").replace(" ", "_"))


@lru_cache(maxsize=None)
def _standard_lattice(key: str) -> Lattice:
    if key == "u":
        return Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
    if key == "e8":
        return Lattice(_e8_gram())
    if key == "minus_e8":
        return Lattice(-_e8_gram())
    if key == "enriques_h2":
        # Free part of the degree-2 cohomology of an Enriques surface.
        return direct_sum(standard_lattice("minus_e8"), standard_lattice("u"))
    if key == "mukai_h2":
        lat = standard_lattice("minus_e8")
        lat = direct_sum(lat, standard_lattice("minus_e8"))
        for _ in range(3):
            lat = direct_sum(lat, standard_lattice("u"))
        return lat
    raise ValueError(
        f"unknown lattice {key!r}; expected one of u, e8, minus_e8, enriques_h2, mukai_h2"
    )


# Coordinate slices of mukai_h2: two -E8 blocks, then three U blocks.
X_SLICE = slice(0, 8)
Y_SLICE = slice(8, 16)
Z1_SLICE = slice(16, 18)
Z2_SLICE = slice(18, 20)
Z3_SLICE = slice(20, 22)


# The cover involution's permutation part: output coordinate k of its first
# 20 copies input coordinate COVER_SWAP[k], that is (x, y, z1, z2) -> (y, x, z2, z1).
COVER_SWAP = tuple(i for block in (Y_SLICE, X_SLICE, Z2_SLICE, Z1_SLICE) for i in range(22)[block])
_cover_swap = itemgetter(*COVER_SWAP)


def cover_involution_coords(c: tuple) -> tuple:
    """The K3 cover involution on mukai_h2 coordinates: (x,y,z1,z2,z3) -> (y,x,z2,z1,-z3)."""
    return (*_cover_swap(c), -c[20], -c[21])


@lru_cache(maxsize=None)
def cover_involution_h2() -> Isometry:
    """The K3 cover involution on mukai_h2, as an isometry."""
    return Isometry(standard_lattice("mukai_h2"), IntMatrix.of_map(cover_involution_coords, 22))


def fixed_sublattice(lattice: Lattice, isometry: Isometry, sign: int) -> tuple[IntMatrix, IntMatrix]:
    """Z-basis of {v : M v = sign * v} and the Gram form restricted to it, for M = isometry.matrix.

    The basis is returned as the columns of the first matrix; it is computed
    as an integer kernel, hence saturated. M need not be an involution.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    matrix = isometry.matrix
    if matrix.shape != (lattice.rank, lattice.rank):
        raise ValueError("matrix shape does not match lattice rank")
    identity = IntMatrix.identity(lattice.rank)
    shifted = matrix - (identity if sign == 1 else -identity)
    basis = kernel_basis(shifted)
    restricted = basis.transpose() @ lattice.gram @ basis
    return basis, restricted


def reflection_dual(lattice: Lattice, w: Sequence[int]) -> Vector:
    """2 G w / <w,w> for a vector w of square +2 or -2: the dual of the reflection in w.

    The reflection x -> x - (2 <x,w> / <w,w>) w is x -> x - <x, dual> w,
    see reflect. As <w,w> = +-2, the dual is +-G w, so the reflection is
    integral on every integral lattice. This is the one place the square
    of a reflection vector is checked.
    """
    lattice._check_length(w)
    gw = _kernels.matvec(lattice.gram, w)
    n2 = sum(map(mul, w, gw))
    if n2 not in (2, -2):
        raise ValueError(f"reflection vector must have square +-2, got {n2}")
    return gw if n2 == 2 else tuple(map(neg, gw))


def reflect(x: Sequence[int], w: Sequence[int], dual: Sequence[int]) -> Vector:
    """x - <x, dual> w: the reflection in w applied to x, for dual = reflection_dual(lattice, w)."""
    k = sum(map(mul, x, dual))
    if not k:
        return tuple(x)
    return tuple(xi - k * wi for xi, wi in zip(x, w))


def reflection(lattice: Lattice, w: Sequence[int]) -> Isometry:
    """Reflection in a vector of square +2 or -2, as an isometry; see reflection_dual."""
    dual = reflection_dual(lattice, w)
    return Isometry(lattice, IntMatrix.of_map(lambda x: reflect(x, w, dual), lattice.rank))


def short_vectors(lattice: Lattice, target_norm: int, coord_bound: int) -> list[Vector]:
    """All vectors with coordinates in [-coord_bound, coord_bound] of the given square.

    In lexicographic order, from ``_kernels.norm_scan``: a meet-in-the-middle
    scan that files the tail half-box once and looks each head up in it, so
    it suits the small bounds needed to harvest reflection vectors, not
    large ones.
    """
    if coord_bound < 0:
        raise ValueError("coord_bound must be >= 0")
    return _kernels.norm_scan(lattice.gram.flat, lattice.rank, target_norm, coord_bound)


def definiteness_from_signature(sig: tuple[int, int, int]) -> str:
    """'positive definite', 'negative definite', 'indefinite' or 'degenerate' for a form of signature sig."""
    pos, zero, neg = sig
    if zero:
        return "degenerate"
    if neg == 0:
        return "positive definite" if pos else "indefinite"
    if pos == 0:
        return "negative definite"
    return "indefinite"
