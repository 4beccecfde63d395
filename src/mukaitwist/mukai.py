"""The full Mukai lattice H0 + H2 + H4 of a K3 cover, with twists.

Vectors are triples (r, c, s): r in H0, c a 22-tuple in the mukai_h2 basis,
s in H4. The pairing is

    <(r, c, s), (r', c', s')> = c . c' - r s' - r' s,

the unique standard convention compatible with the pinned golden values
<(0,0,1), v> = -2a (for r_v = 2a) and v^2 = 2x^2 + 2z1^2 + 2a^2 - 4as.

The cover involution acts on c by (x,y,z1,z2,z3) -> (y,x,z2,z1,-z3) and
fixes H0 and H4. A B-field is a rational degree-2 class; exp_b(b, -) is the
unipotent shear (r, c, s) -> (r, c + r b, s + c.b + r b^2 / 2), an isometry
of the rational Mukai lattice. The canonical Enriques B-field b0 has
z3 = (1/2, 1/2); the twisted involution

    T = exp(2 b0) o (cover involution)

is integral and squares to the identity.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .intmat import IntMatrix
from .lattices import Isometry, Lattice, cover_involution_coords, standard_lattice

Scalar = Union[int, Fraction]

H2_RANK = 22
FULL_RANK = 24


def _norm_scalar(x) -> Scalar:
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MukaiVector:
    """An element (r, c, s) of the (rational) Mukai lattice."""

    __slots__ = ("r", "c", "s")

    def __init__(self, r: Scalar, c: Sequence[Scalar], s: Scalar):
        c = tuple(_norm_scalar(x) for x in c)
        if len(c) != H2_RANK:
            raise ValueError(f"degree-2 part must have {H2_RANK} coordinates, got {len(c)}")
        self.r = _norm_scalar(r)
        self.c = c
        self.s = _norm_scalar(s)

    @classmethod
    def zero(cls) -> "MukaiVector":
        return cls(0, (0,) * H2_RANK, 0)

    @classmethod
    def from_h2(cls, c: Sequence[Scalar]) -> "MukaiVector":
        """Embed a degree-2 class as (0, c, 0)."""
        return cls(0, c, 0)

    @classmethod
    def from_coords(cls, coords: Sequence[Scalar]) -> "MukaiVector":
        if len(coords) != FULL_RANK:
            raise ValueError(f"expected {FULL_RANK} coordinates, got {len(coords)}")
        return cls(coords[0], coords[1:23], coords[23])

    def coords(self) -> tuple[Scalar, ...]:
        return (self.r, *self.c, self.s)

    def is_integral(self) -> bool:
        return (
            isinstance(self.r, int)
            and isinstance(self.s, int)
            and all(isinstance(x, int) for x in self.c)
        )

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(
            self.r + other.r,
            tuple(a + b for a, b in zip(self.c, other.c)),
            self.s + other.s,
        )

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(
            self.r - other.r,
            tuple(a - b for a, b in zip(self.c, other.c)),
            self.s - other.s,
        )

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, tuple(-x for x in self.c), -self.s)

    def scale(self, k: Scalar) -> "MukaiVector":
        return MukaiVector(k * self.r, tuple(k * x for x in self.c), k * self.s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MukaiVector):
            return NotImplemented
        return self.r == other.r and self.s == other.s and self.c == other.c

    def __hash__(self) -> int:
        return hash((self.r, self.c, self.s))

    def __repr__(self) -> str:
        return f"MukaiVector(r={self.r}, c={self.c}, s={self.s})"


def point_class() -> MukaiVector:
    """The H4 generator (0, 0, 1); fixed by the twisted involution."""
    return MukaiVector(0, (0,) * H2_RANK, 1)


class BField:
    """A rational degree-2 class used to twist the Mukai lattice."""

    __slots__ = ("coords", "_sq")

    def __init__(self, coords: Sequence[Scalar]):
        coords = tuple(_norm_scalar(x) for x in coords)
        if len(coords) != H2_RANK:
            raise ValueError(f"B-field must have {H2_RANK} coordinates, got {len(coords)}")
        self.coords = coords
        self._sq: Scalar | None = None

    def square(self) -> Scalar:
        if self._sq is None:
            self._sq = standard_lattice("mukai_h2").inner(self.coords, self.coords)
        return self._sq

    def times(self, k: Scalar) -> "BField":
        return BField(tuple(k * x for x in self.coords))

    def __neg__(self) -> "BField":
        return self.times(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BField):
            return NotImplemented
        return self.coords == other.coords

    def __repr__(self) -> str:
        return f"BField({self.coords})"


def canonical_b_field() -> BField:
    """The Enriques B-field: (e + f) / 2 in the third hyperbolic block."""
    half = Fraction(1, 2)
    return BField((0,) * 20 + (half, half))


def mukai_pairing(u: MukaiVector, v: MukaiVector) -> Scalar:
    """<(r,c,s), (r',c',s')> = c.c' - r s' - r' s."""
    cc = standard_lattice("mukai_h2").inner(u.c, v.c)
    return cc - u.r * v.s - v.r * u.s


def cover_involution(v: MukaiVector) -> MukaiVector:
    """Extend the K3 cover involution by the identity on H0 and H4."""
    return MukaiVector(v.r, cover_involution_coords(v.c), v.s)


def exp_b(b: BField | Sequence[Scalar], v: MukaiVector) -> MukaiVector:
    """The unipotent shear e^b: (r, c, s) -> (r, c + r b, s + c.b + r b^2 / 2)."""
    if not isinstance(b, BField):
        b = BField(b)
    cb = standard_lattice("mukai_h2").inner(v.c, b.coords)
    half_sq = Fraction(b.square(), 2)
    return MukaiVector(
        v.r,
        tuple(x + v.r * y for x, y in zip(v.c, b.coords)),
        v.s + cb + v.r * half_sq,
    )


def twisted_involution(v: MukaiVector) -> MukaiVector:
    """T = exp(2 b0) o (cover involution); integral on integral vectors.

    Closed form: with z3 = (a, b),

        T(r, (x, y, z1, z2, z3), s)
            = (r, (y, x, z2, z1, (r - a, r - b)), s - a - b + r),

    that is, the cover involution on c with r added to its z3 block, and s
    shifted by r - a - b. The composition route exp_b(2 b0, cover_involution(v))
    is kept as an independent oracle in the test suite.
    """
    r = v.r
    a, b = v.c[20], v.c[21]
    c = cover_involution_coords(v.c)[:20] + (r - a, r - b)
    return MukaiVector(r, c, v.s - a - b + r)


@lru_cache(maxsize=None)
def full_lattice() -> Lattice:
    """The rank-24 integral Mukai lattice in coordinates (r, c_1..c_22, s)."""
    basis = [
        MukaiVector.from_coords(tuple(1 if i == j else 0 for j in range(FULL_RANK)))
        for i in range(FULL_RANK)
    ]
    rows = [[mukai_pairing(basis[i], basis[j]) for j in range(FULL_RANK)] for i in range(FULL_RANK)]
    return Lattice(IntMatrix.from_rows(rows), "mukai_full")


def _full_isometry(f) -> Isometry:
    """The isometry of the full lattice given by an integral map f on MukaiVectors."""
    matrix = IntMatrix.of_map(lambda coords: f(MukaiVector.from_coords(coords)).coords(), FULL_RANK)
    return Isometry(full_lattice(), matrix)


@lru_cache(maxsize=None)
def twisted_involution_matrix() -> Isometry:
    """The 24x24 integer matrix of the twisted involution, as an isometry."""
    return _full_isometry(twisted_involution)


@lru_cache(maxsize=None)
def cover_involution_matrix() -> Isometry:
    """The 24x24 matrix of the cover involution extended to the full lattice."""
    return _full_isometry(cover_involution)
