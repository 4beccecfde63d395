"""Finitely generated abelian groups and twisted K^1 of compact surfaces.

Groups are kept in canonical form: a free rank plus a chain of invariant
factors d1 | d2 | ... (each >= 2). Elements are integer coordinate tuples
over the generators, free generators first, then one generator per torsion
factor. Presentations are canonicalized through the Smith normal form.

The degree computation is the spectral-sequence endgame for a compact
surface twisted by a torsion class alpha in H^3: the only differential that
can act sends the H^0 generator to a multiple of alpha, killing nothing
else, so the page stabilizes at

    (k . H^0,  H^1,  H^2,  H^3 / <alpha>,  H^4),   k = order(alpha),

and K^1 = H^1 + H^3/<alpha>. Degree 0 is reported only as the graded triple
(k . H^0, H^2, H^4); the extension problem is not resolved here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm
from pathlib import Path
from typing import Sequence

from .intmat import IntMatrix, smith_normal_form


class FGAbelianGroup:
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        if not isinstance(free_rank, int) or free_rank < 0:
            raise ValueError("free_rank must be a non-negative integer")
        torsion = tuple(torsion)
        for d in torsion:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factors must be integers >= 2, got {d!r}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain: {a} does not divide {b}")
        self.free_rank = free_rank
        self.torsion = torsion

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0)

    @classmethod
    def free(cls, n: int) -> "FGAbelianGroup":
        return cls(n)

    @classmethod
    def cyclic(cls, d: int) -> "FGAbelianGroup":
        return cls(0, (d,)) if d != 0 else cls(1)

    @classmethod
    def from_presentation(cls, n_generators: int, relations: Sequence[Sequence[int]]) -> "FGAbelianGroup":
        """Cokernel of the map whose columns are the given relations in Z^n."""
        k = len(relations)
        for col in relations:
            if len(col) != n_generators:
                raise ValueError("relation length does not match generator count")
        # A generator that no relation touches is free in the cokernel. Leaving
        # it out of the Smith form keeps that form (and its dense n x n
        # transform) to the generators the relations involve.
        touched = sorted({i for col in relations for i, x in enumerate(col) if x})
        flat = [relations[j][i] for i in touched for j in range(k)]
        s, _, _ = smith_normal_form(IntMatrix(len(touched), k, flat))
        diag = [s[i, i] for i in range(min(len(touched), k))]
        nonzero = [d for d in diag if d]
        return cls(n_generators - len(nonzero), tuple(d for d in nonzero if d > 1))

    @property
    def n_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def torsion_order(self) -> int:
        """Order of the torsion subgroup."""
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def _relation_columns(self) -> list[list[int]]:
        n = self.n_generators
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * n
            col[self.free_rank + i] = d
            cols.append(col)
        return cols

    def reduce_element(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Normalize element coordinates: torsion entries reduced mod their factor."""
        if len(coords) != self.n_generators:
            raise ValueError(f"element has {len(coords)} coordinates, group has {self.n_generators} generators")
        out = list(int(x) for x in coords)
        for i, d in enumerate(self.torsion):
            out[self.free_rank + i] %= d
        return tuple(out)

    def element_order(self, coords: Sequence[int]) -> int | None:
        """Order of the element, or None when infinite."""
        coords = self.reduce_element(coords)
        if any(coords[: self.free_rank]):
            return None
        order = 1
        for c, d in zip(coords[self.free_rank :], self.torsion):
            order = lcm(order, d // gcd(d, c))
        return order

    def quotient_by(self, coords: Sequence[int]) -> "FGAbelianGroup":
        """The quotient by the cyclic subgroup generated by one element."""
        coords = self.reduce_element(coords)
        # Free generators the element does not involve stay free; only the
        # others and the torsion generators are presented.
        free = [c for c in coords[: self.free_rank] if c]
        sub = FGAbelianGroup(len(free), self.torsion)
        q = FGAbelianGroup.from_presentation(
            sub.n_generators, sub._relation_columns() + [free + list(coords[self.free_rank :])]
        )
        return FGAbelianGroup(self.free_rank - len(free) + q.free_rank, q.torsion)

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        # No relation touches a free generator, so the free ranks add and only
        # the torsion factors are presented, one generator each.
        torsion = self.torsion + other.torsion
        n = len(torsion)
        cols = [[d if i == j else 0 for i in range(n)] for j, d in enumerate(torsion)]
        return FGAbelianGroup(self.free_rank + other.free_rank, FGAbelianGroup.from_presentation(n, cols).torsion)

    def times(self, k: int) -> "FGAbelianGroup":
        """The subgroup k.G = {k x : x in G}, up to isomorphism."""
        if k == 0:
            return FGAbelianGroup.trivial()
        k = abs(k)
        torsion = tuple(t for d in self.torsion if (t := d // gcd(d, k)) > 1)
        return FGAbelianGroup(self.free_rank, torsion)

    def to_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FGAbelianGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FGAbelianGroup(free_rank={self.free_rank}, torsion={list(self.torsion)})"


class SpecFormatError(ValueError):
    """Malformed cohomology input; the message names the offending field."""


def _group_from_dict(data, field: str) -> FGAbelianGroup:
    if not isinstance(data, dict):
        raise SpecFormatError(f"{field}: expected an object with free_rank and torsion")
    extra = set(data) - {"free_rank", "torsion"}
    if extra:
        raise SpecFormatError(f"{field}: unknown keys {sorted(extra)}")
    free_rank = data.get("free_rank", 0)
    torsion = data.get("torsion", [])
    if not isinstance(free_rank, int) or isinstance(free_rank, bool) or free_rank < 0:
        raise SpecFormatError(f"{field}.free_rank: expected a non-negative integer")
    if not isinstance(torsion, list) or any(not isinstance(d, int) or isinstance(d, bool) for d in torsion):
        raise SpecFormatError(f"{field}.torsion: expected a list of integers")
    try:
        return FGAbelianGroup(free_rank, torsion)
    except ValueError as exc:
        raise SpecFormatError(f"{field}.torsion: {exc}") from exc


class CohomologySpec:
    """Integral cohomology of a compact surface plus a torsion twist class in H^3."""

    __slots__ = ("h0", "h1", "h2", "h3", "h4", "alpha")

    def __init__(
        self,
        h0: FGAbelianGroup,
        h1: FGAbelianGroup,
        h2: FGAbelianGroup,
        h3: FGAbelianGroup,
        h4: FGAbelianGroup,
        alpha: Sequence[int],
    ):
        self.h0 = h0
        self.h1 = h1
        self.h2 = h2
        self.h3 = h3
        self.h4 = h4
        self.alpha = h3.reduce_element(alpha)
        if h3.element_order(self.alpha) is None:
            raise ValueError("alpha must have finite order: free coordinates must vanish")

    @classmethod
    def enriques(cls, twisted: bool) -> "CohomologySpec":
        """The Enriques surface: H* = (Z, 0, Z^10 + Z/2, Z/2, Z), twist optional."""
        return cls(
            h0=FGAbelianGroup.free(1),
            h1=FGAbelianGroup.trivial(),
            h2=FGAbelianGroup(10, (2,)),
            h3=FGAbelianGroup.cyclic(2),
            h4=FGAbelianGroup.free(1),
            alpha=(1,) if twisted else (0,),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CohomologySpec":
        if not isinstance(data, dict):
            raise SpecFormatError("top level: expected a JSON object")
        groups = {}
        for field in ("h0", "h1", "h2", "h3", "h4"):
            if field not in data:
                raise SpecFormatError(f"{field}: missing")
            groups[field] = _group_from_dict(data[field], field)
        if "alpha" not in data:
            raise SpecFormatError("alpha: missing")
        alpha = data["alpha"]
        if not isinstance(alpha, dict) or "coords" not in alpha:
            raise SpecFormatError("alpha: expected an object with a coords list")
        coords = alpha["coords"]
        if not isinstance(coords, list) or any(not isinstance(x, int) or isinstance(x, bool) for x in coords):
            raise SpecFormatError("alpha.coords: expected a list of integers")
        if len(coords) != groups["h3"].n_generators:
            raise SpecFormatError(
                f"alpha.coords: expected {groups['h3'].n_generators} coordinates"
                f" (generators of h3), got {len(coords)}"
            )
        try:
            return cls(alpha=coords, **groups)
        except ValueError as exc:
            raise SpecFormatError(f"alpha: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "CohomologySpec":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SpecFormatError(
                f"top level: {path} is not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from exc
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError is a ValueError, as is an integer literal over
            # Python's digit limit; nesting too deep to decode is a RecursionError.
            raise SpecFormatError(f"top level: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "h0": self.h0.to_dict(),
            "h1": self.h1.to_dict(),
            "h2": self.h2.to_dict(),
            "h3": self.h3.to_dict(),
            "h4": self.h4.to_dict(),
            "alpha": {"coords": list(self.alpha)},
        }

    def alpha_order(self) -> int:
        order = self.h3.element_order(self.alpha)
        assert order is not None  # enforced at construction
        return order


@dataclass(frozen=True)
class E4Page:
    """The stable page of the twisted degree computation for a surface.

    columns = (k.H0, H1, H2, H3/<alpha>, H4) with k the order of the twist
    class; the first entry is recorded both as an abstract group and via the
    multiplier k.
    """

    h0_multiplier: int
    columns: tuple[FGAbelianGroup, FGAbelianGroup, FGAbelianGroup, FGAbelianGroup, FGAbelianGroup]

    def k1(self) -> FGAbelianGroup:
        return self.columns[1].direct_sum(self.columns[3])

    def k0_graded(self) -> tuple[FGAbelianGroup, FGAbelianGroup, FGAbelianGroup]:
        """Associated graded pieces of degree 0; the extension problem is not resolved."""
        return (self.columns[0], self.columns[2], self.columns[4])


def e4_page(spec: CohomologySpec) -> E4Page:
    """Run the one nonzero differential and return the stable page."""
    k = spec.alpha_order()
    return E4Page(
        h0_multiplier=k,
        columns=(
            spec.h0.times(k),
            spec.h1,
            spec.h2,
            spec.h3.quotient_by(spec.alpha),
            spec.h4,
        ),
    )


def k1_surface(spec: CohomologySpec) -> FGAbelianGroup:
    """K^1 of a compact surface twisted by alpha: H^1 + H^3/<alpha>."""
    return spec.h1.direct_sum(spec.h3.quotient_by(spec.alpha))
