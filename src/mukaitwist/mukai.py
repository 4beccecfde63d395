"""The full Mukai lattice H0 + H2 + H4 of a K3 cover, with twists.

A Mukai vector is one 24-tuple (r, c_1..c_22, s): r in H0, c a 22-tuple in
the mukai_h2 basis, s in H4; r, c and s are views of it. The pairing is the
full lattice's Gram: mukai_h2's Gram in the middle, -1 at (0, 23) and
(23, 0), that is

    <(r, c, s), (r', c', s')> = c . c' - r s' - r' s,

the unique standard convention compatible with the pinned golden values
<(0,0,1), v> = -2a (for r_v = 2a) and v^2 = 2x^2 + 2z1^2 + 2a^2 - 4as.

The cover involution acts on c by (x,y,z1,z2,z3) -> (y,x,z2,z1,-z3) and
fixes H0 and H4. A B-field is a rational degree-2 class; exp_b(b, -) is the
unipotent shear (r, c, s) -> (r, c + r b, s + c.b + r b^2 / 2), an isometry
of the rational Mukai lattice. The canonical Enriques B-field b0 has
z3 = (1/2, 1/2); the twisted involution

    T = exp(2 b0) o (cover involution)

is integral and squares to the identity. Its one closed form is
twisted_involution_coords, on the 24 coordinates; twisted_involution applies
it to a MukaiVector. T's 24x24 matrix is IntMatrix.of_map of that closed
form; the cover involution's only matrix is the 22x22 cover_involution_h2.
MukaiVector has one constructor: every vector passes through its __init__.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import add, itemgetter

from ._record import Record, set_field
from .intmat import _INT_ONLY, IntMatrix
from .lattices import COVER_SWAP, Isometry, Lattice, cover_involution_coords, standard_lattice

# For annotations only, which are not evaluated: naming Fraction loads nothing.
Scalar = "int | Fraction"

H2_RANK = 22
FULL_RANK = 24


def _norm_scalar(x) -> Scalar:
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    from fractions import Fraction  # loaded by the first rational entry, not by the int path

    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MukaiVector(Record):
    """An element (r, c, s) of the (rational) Mukai lattice, held as its 24 coordinates."""

    __slots__ = ("_coords",)
    _fields = ("r", "c", "s")

    def __init__(self, r: Scalar, c: Sequence[Scalar], s: Scalar):
        coords = (r, *c, s)
        if len(coords) != FULL_RANK:
            raise ValueError(f"degree-2 part must have {H2_RANK} coordinates, got {len(coords) - 2}")
        # Exact ints (not bool) are already normal; only other entries need _norm_scalar.
        if not _INT_ONLY.issuperset(map(type, coords)):
            coords = tuple(map(_norm_scalar, coords))
        set_field(self, "_coords", coords)

    def _key(self) -> tuple:
        return (self._coords,)  # r, c and s in the one tuple they view

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
        return self._coords

    # Read-only views of the one tuple.
    r = property(lambda self: self._coords[0])
    c = property(lambda self: self._coords[1:23])
    s = property(lambda self: self._coords[23])

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector.from_coords(tuple(map(add, self._coords, other._coords)))


def point_class() -> MukaiVector:
    """The H4 generator (0, 0, 1); fixed by the twisted involution."""
    return MukaiVector(0, (0,) * H2_RANK, 1)


class BField(Record):
    """A rational degree-2 class used to twist the Mukai lattice."""

    __slots__ = ("coords", "_sq")
    _fields = ("coords",)

    def __init__(self, coords: Sequence[Scalar]):
        coords = tuple(_norm_scalar(x) for x in coords)
        if len(coords) != H2_RANK:
            raise ValueError(f"B-field must have {H2_RANK} coordinates, got {len(coords)}")
        super().__init__(coords)
        set_field(self, "_sq", None)

    def square(self) -> Scalar:
        if self._sq is None:
            set_field(self, "_sq", standard_lattice("mukai_h2").inner(self.coords, self.coords))
        return self._sq

    def times(self, k: Scalar) -> "BField":
        return BField(tuple(k * x for x in self.coords))

    def __neg__(self) -> "BField":
        return self.times(-1)


def canonical_b_field() -> BField:
    """The Enriques B-field: (e + f) / 2 in the third hyperbolic block."""
    from fractions import Fraction

    half = Fraction(1, 2)
    return BField((0,) * 20 + (half, half))


def mukai_pairing(u: MukaiVector, v: MukaiVector) -> Scalar:
    """<(r,c,s), (r',c',s')> = c.c' - r s' - r' s, read off the Gram of full_lattice()."""
    return full_lattice().inner(u.coords(), v.coords())


# COVER_SWAP read on 24 coordinates, where c_i is coordinate i + 1.
_cover_swap_c = itemgetter(*(i + 1 for i in COVER_SWAP))


def cover_involution(v: MukaiVector) -> MukaiVector:
    """Extend the K3 cover involution by the identity on H0 and H4."""
    return MukaiVector(v.r, cover_involution_coords(v.c), v.s)


def exp_b(b: BField, v: MukaiVector) -> MukaiVector:
    """The unipotent shear e^b: (r, c, s) -> (r, c + r b, s + c.b + r b^2 / 2), for a BField b."""
    from fractions import Fraction

    x = v.coords()
    r, c = x[0], x[1:23]
    cb = standard_lattice("mukai_h2").inner(c, b.coords)
    half_sq = _norm_scalar(Fraction(b.square(), 2))
    return MukaiVector(r, [ci + r * bi for ci, bi in zip(c, b.coords)], x[23] + cb + r * half_sq)


def twisted_involution_coords(x: tuple) -> tuple:
    """T = exp(2 b0) o (cover involution) on 24 coordinates; integral on integers.

    The one closed form of T: with z3 = (a, b),

        T(r, (x, y, z1, z2, z3), s)
            = (r, (y, x, z2, z1, (r - a, r - b)), s - a - b + r),

    that is, the cover involution on c with r added to its z3 block, and s
    shifted by r - a - b. The composition route exp_b(2 b0, cover_involution(v))
    is kept as an independent oracle in the test suite.
    """
    r, a, b = x[0], x[21], x[22]
    return (r, *_cover_swap_c(x), r - a, r - b, x[23] - a - b + r)


def twisted_involution(v: MukaiVector) -> MukaiVector:
    """T applied to a Mukai vector; see twisted_involution_coords."""
    return MukaiVector.from_coords(twisted_involution_coords(v.coords()))


@lru_cache(maxsize=None)
def full_lattice() -> Lattice:
    """The rank-24 integral Mukai lattice in coordinates (r, c_1..c_22, s)."""
    h2 = standard_lattice("mukai_h2").gram
    rows = [[0] * FULL_RANK, *([0, *h2.row(i), 0] for i in range(H2_RANK)), [0] * FULL_RANK]
    rows[0][23] = rows[23][0] = -1
    return Lattice(IntMatrix.from_rows(rows))


@lru_cache(maxsize=None)
def twisted_involution_matrix() -> Isometry:
    """The 24x24 integer matrix of the twisted involution, as an isometry."""
    return Isometry(full_lattice(), IntMatrix.of_map(twisted_involution_coords, FULL_RANK))
