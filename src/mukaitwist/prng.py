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

mix64 and next_u64 are the reference definitions. integers draws count
uniform values from [lo, hi] by rejection: each candidate is the top bits
of one next_u64, kept when it lands below hi - lo + 1. integer is
integers(lo, hi, 1), so both draw the same values and leave the same state.

integers evaluates its candidates as lane batches: m consecutive outputs
computed at once in 128-bit lanes of one Python int, lane k holding
state + (k + 1) GAMMA mod 2**64. The batch is exact, lane by lane, because
no operation of mix64 carries a bit out of its lane:

- every xor-shift shifts the whole int right and masks each lane back to its
  low 64 bits, so the bits that a lane receives from the lane above are
  dropped;
- a 64-bit lane value times a 64-bit constant is below 2**128, so the
  product of the whole int with the constant is the lane products side by
  side, and masking reduces each mod 2**64.

The top bits of each lane come out through to_bytes and one struct.Struct
per lane count, cached. One loop walks each batch's candidates in order and
keeps those below hi - lo + 1. At the count-th kept, the state is set to
the batch's start plus (its lane + 1) GAMMA, just after that candidate, as
next_u64 one at a time would leave it, and the call returns. A batch that
keeps too few advances the state by m GAMMA, and the next batch is sized
for the draws still needed. So integers(lo, hi, a + b) is
integers(lo, hi, a) + integers(lo, hi, b), with the same final state.

A batch holds the expected number of candidates plus need // 8 + 2. Each
lane adds big-int work to every call, so a margin wide enough for one batch
nearly always costs more than the small second batches it saves.
"""
from __future__ import annotations

from functools import lru_cache

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MAX_LANES = 512  # candidates per batch


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
        bits = (n - 1).bit_length()
        if bits > 64:
            raise ValueError(f"range [{lo}, {hi}] holds {n} values; one draw covers at most 2**64")
        if not bits:  # n == 1 takes no draw
            return (lo,) * count
        shift = 64 - bits
        state, out, need = self.state, [], count
        while True:
            # The expected number of candidates and a margin; see the module doc.
            m = min((need << bits) // n + need // 8 + 2, _MAX_LANES)
            ones, ramp, mask, unpack = _lanes(m)
            z = (state * ones + ramp) & mask  # lane k: state + (k + 1) GAMMA
            z = ((z ^ (z >> 30) & mask) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27) & mask) * 0x94D049BB133111EB) & mask
            # The top bits of each output; what the shift brings into a lane's
            # high half from the lane above is never unpacked.
            for used, r in enumerate(unpack(((z ^ (z >> 31) & mask) >> shift).to_bytes(16 * m, "little")), 1):
                if r < n:
                    out.append(lo + r)
                    need -= 1
                    if not need:  # the state ends just after this candidate
                        self.state = (state + used * GAMMA) & _MASK
                        return tuple(out)
            state = (state + m * GAMMA) & _MASK


@lru_cache(maxsize=64)
def _lanes(m: int) -> tuple:
    """The constants of a batch of m lanes, and its unpacker.

    They are 1 in every lane, (k + 1) GAMMA in lane k, and 2**64 - 1 in every
    lane. The unpacker reads the low 64 bits of each 128-bit lane from the
    little-endian bytes of the batch.
    """
    import struct  # here, so that a process that draws nothing does not load it

    ones = sum(1 << (128 * k) for k in range(m))
    ramp = GAMMA * sum((k + 1) << (128 * k) for k in range(m))
    return ones, ramp, _MASK * ones, struct.Struct("<" + "Q8x" * m).unpack


def substream(seed: int, index: int) -> SplitMix64:
    """Independent stream for trial 'index' of a run seeded with 'seed'."""
    return SplitMix64(mix64((seed + GAMMA * index) & _MASK))
