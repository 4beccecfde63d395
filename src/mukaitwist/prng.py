"""Deterministic, splittable PRNG for the verification suites.

The generator is SplitMix64 (Steele, Lea, Flood): 64-bit state advanced by
the golden-gamma constant, output whitened by a two-round xorshift-multiply
finalizer. It is pinned here, rather than using the interpreter default, so
that a (trials, seed) pair identifies the same sample sequence on any
platform or reimplementation.

Per-trial substreams are derived by index, never by sharing state:

    state_0(seed, index) = mix64((seed + GAMMA * index) mod 2**64)

so trials can run in any order, or in parallel, and produce identical
samples.

mix64 and next_u64 are the reference definitions. integers is the one
rejection loop: count uniform draws from [lo, hi], each taking the top
bits of next_u64 until they land below hi - lo + 1, with the state in a
local and mix64 written out. integer is integers(lo, hi, 1) and below is
integers(0, n - 1, 1), so all three draw the same values and leave the
same state.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & _MASK
        return mix64(self.state)

    def below(self, n: int) -> int:
        """Uniform draw from [0, n) by rejection on the top bits."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return self.integers(0, n - 1, 1)[0]

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self.integers(lo, hi, 1)[0]

    def integers(self, lo: int, hi: int, count: int) -> tuple[int, ...]:
        """count uniform draws from [lo, hi]; () when count <= 0, whatever lo and hi."""
        if count <= 0:
            return ()
        if lo > hi:
            raise ValueError("empty range")
        n = hi - lo + 1
        shift = 64 - (n - 1).bit_length()
        if shift == 64:  # n == 1 takes no draw
            return (lo,) * count
        state = self.state
        out = []
        append = out.append
        for _ in range(count):
            while True:
                state = (state + GAMMA) & _MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                r = (z ^ (z >> 31)) >> shift
                if r < n:
                    append(lo + r)
                    break
        self.state = state
        return tuple(out)


def substream(seed: int, index: int) -> SplitMix64:
    """Independent stream for trial 'index' of a run seeded with 'seed'."""
    return SplitMix64(mix64((seed + GAMMA * index) & _MASK))
