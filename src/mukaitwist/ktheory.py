"""Finitely generated abelian groups and twisted K^1 of compact surfaces.

Groups are kept in canonical form: a free rank plus a chain of invariant
factors d1 | d2 | ... (each >= 2). Elements are integer coordinate tuples
over the generators, free generators first, then one generator per torsion
factor. Direct sums, being diagonal, are folded into the chain with gcd and
lcm.

A quotient by one element x comes from a closed form, with no Smith form.
The free coordinates collapse to their gcd on one free generator, a factor
0 at the top of the chain; the other free generators stay free. What is
left is the cokernel of [D | x], D = diag(d_1, ..., d_k) along a
divisibility chain. An i x i minor of [D | x] is nonzero only as a product
of i diagonal entries, or as x_t times i - 1 diagonal entries from rows
other than t. Along the chain the smallest of these products divide all
the others: d_1...d_i, d_1...d_(i-1) * x_t for t >= i, and
x_t * d_1...d_i / d_t for t < i. So the i-th determinantal divisor is

    Delta_i = d_1...d_(i-1) * c_i,   c_i = gcd(d_i, gcd(x_t : t >= i), R_i),

with R_1 = 0 and R_(i+1) = (d_(i+1) / d_i) * gcd(R_i, x_i), and the
invariant factors are s_i = Delta_i / Delta_(i-1) = d_(i-1) * c_i / c_(i-1).
That is one pass of gcds, linear in the number of factors.

The degree computation is the spectral-sequence endgame for a compact
surface twisted by a torsion class alpha in H^3: the only differential that
can act sends the H^0 generator to a multiple of alpha, killing nothing
else, so the page stabilizes at

    (k . H^0,  H^1,  H^2,  H^3 / <alpha>,  H^4),   k = order(alpha),

and K^1 = H^1 + H^3/<alpha>. Degree 0 is reported only as the graded triple
(k . H^0, H^2, H^4); the extension problem is not resolved here. The page
is an E4Page. It, the groups and the CohomologySpec are immutable, hashable
records (mukaitwist._record.Record), so assignment cannot bypass the checks
their constructors make.
"""
from __future__ import annotations

import json
import os
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate
from math import gcd, lcm

from ._record import Record


def _fold_factor(chain: list[int], x: int) -> None:
    """Fold Z/x into the invariant-factor chain (descending), in place.

    Top down, each entry d and the carry x become lcm(d, x) and the new
    carry gcd(d, x), as Z/d + Z/x = Z/lcm + Z/gcd; the fold stops once the
    carry is 1. Entries that x divides are left unchanged by that step, and
    they form the top of what remains, so they are skipped by bisection.
    Each real step replaces x by a proper divisor. A carry that divides
    every entry left goes at the bottom, an append, so folding many equal
    factors moves no entry.
    """
    i = 0
    while x > 1:
        i = bisect_left(chain, True, i, key=lambda d: d % x != 0)
        if i == len(chain):
            chain.append(x)
            return
        d = chain[i]
        chain[i], x = lcm(d, x), gcd(d, x)
        i += 1


class FGAbelianGroup(Record):
    """A finitely generated abelian group in invariant-factor form; immutable."""

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        if not isinstance(free_rank, int) or isinstance(free_rank, bool) or free_rank < 0:
            raise ValueError("free_rank must be a non-negative integer")
        torsion = tuple(torsion)
        for d in torsion:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factors must be integers >= 2, got {d!r}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain: {a} does not divide {b}")
        super().__init__(free_rank, torsion)

    @classmethod
    def cyclic(cls, d: int) -> "FGAbelianGroup":
        """Z/d for any integer d: Z for 0, trivial for +-1, Z/|d| otherwise."""
        if d == 0:
            return cls(1)
        return cls(0, (abs(d),) if abs(d) > 1 else ())

    @property
    def n_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def reduce_element(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Normalize element coordinates: torsion entries reduced mod their factor.

        Every coordinate must be an int (a bool is not one), so inexact input
        raises TypeError rather than being truncated.
        """
        if len(coords) != self.n_generators:
            raise ValueError(f"element has {len(coords)} coordinates, group has {self.n_generators} generators")
        out = list(coords)
        for i, x in enumerate(out):
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"element coordinate {i} must be an int, got {type(x).__name__}")
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
        """The quotient by the cyclic subgroup generated by one element.

        The invariant factors s_i of [diag(d_1, ..., d_k[, 0]) | x], read in
        one pass of gcds from the closed form the module docstring derives
        (r is R_i, carry is gcd(R_i, x_i)). Free generators past the first
        are untouched and stay free.
        """
        coords = self.reduce_element(coords)
        kept = min(self.free_rank, 1)
        factors = self.torsion + (0,) * kept
        x = coords[self.free_rank :] + (gcd(*coords[: self.free_rank]),) * kept
        tails = list(accumulate(reversed(x), gcd))[::-1]  # gcd(x_t : t >= i)
        s, d_prev, c_prev, carry = [], 1, 1, 0
        for d, x_i, tail in zip(factors, x, tails):
            r = d // d_prev * carry
            c = gcd(d, tail, r)
            s.append(d_prev * c // c_prev)
            d_prev, c_prev, carry = d, c, gcd(r, x_i)
        return FGAbelianGroup(self.free_rank - kept + s.count(0), tuple(t for t in s if t > 1))

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        chain = list(reversed(self.torsion))
        for d in other.torsion:
            _fold_factor(chain, d)
        chain.reverse()
        return FGAbelianGroup(self.free_rank + other.free_rank, chain)

    def times(self, k: int) -> "FGAbelianGroup":
        """The subgroup k.G = {k x : x in G}, up to isomorphism."""
        if k == 0:
            return FGAbelianGroup(0)
        k = abs(k)
        torsion = tuple(t for d in self.torsion if (t := d // gcd(d, k)) > 1)
        return FGAbelianGroup(self.free_rank, torsion)

    def to_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class SpecFormatError(ValueError):
    """Malformed cohomology input; the message names the offending field."""


def _reject_unknown_keys(data: dict, known: tuple[str, ...], field: str) -> None:
    extra = set(data) - set(known)
    if extra:
        raise SpecFormatError(f"{field}: unknown keys {sorted(extra, key=str)}")


def _group_from_dict(data, field: str) -> FGAbelianGroup:
    if not isinstance(data, dict):
        raise SpecFormatError(f"{field}: expected an object with free_rank and torsion")
    _reject_unknown_keys(data, ("free_rank", "torsion"), field)
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


class CohomologySpec(Record):
    """Integral cohomology of a compact surface plus a torsion twist class in H^3; immutable."""

    __slots__ = _fields = ("h0", "h1", "h2", "h3", "h4", "alpha")

    def __init__(
        self,
        h0: FGAbelianGroup,
        h1: FGAbelianGroup,
        h2: FGAbelianGroup,
        h3: FGAbelianGroup,
        h4: FGAbelianGroup,
        alpha: Sequence[int],
    ):
        alpha = h3.reduce_element(alpha)
        if h3.element_order(alpha) is None:
            raise ValueError("alpha must have finite order: free coordinates must vanish")
        super().__init__(h0, h1, h2, h3, h4, alpha)

    @classmethod
    def enriques(cls, twisted: bool) -> "CohomologySpec":
        """The Enriques surface: H* = (Z, 0, Z^10 + Z/2, Z/2, Z), twist optional."""
        return cls(
            h0=FGAbelianGroup(1),
            h1=FGAbelianGroup(0),
            h2=FGAbelianGroup(10, (2,)),
            h3=FGAbelianGroup.cyclic(2),
            h4=FGAbelianGroup(1),
            alpha=(1,) if twisted else (0,),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CohomologySpec":
        if not isinstance(data, dict):
            raise SpecFormatError("top level: expected a JSON object")
        _reject_unknown_keys(data, ("h0", "h1", "h2", "h3", "h4", "alpha"), "top level")
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
        _reject_unknown_keys(alpha, ("coords",), "alpha")
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
    def from_file(cls, path: str | os.PathLike) -> "CohomologySpec":
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
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


class E4Page(Record):
    """The stable page of the twisted degree computation for a surface; immutable.

    columns = (k.H0, H1, H2, H3/<alpha>, H4) with k the order of the twist
    class; the first entry is recorded both as an abstract group and via the
    multiplier k.
    """

    __slots__ = _fields = ("h0_multiplier", "columns")

    def __init__(
        self,
        h0_multiplier: int,
        columns: tuple[FGAbelianGroup, FGAbelianGroup, FGAbelianGroup, FGAbelianGroup, FGAbelianGroup],
    ):
        super().__init__(h0_multiplier, columns)

    def k1(self) -> FGAbelianGroup:
        """K^1 = H^1 + H^3/<alpha>, the odd columns of the stable page."""
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
    """K^1 of a compact surface twisted by alpha, read off the stable page."""
    return e4_page(spec).k1()
