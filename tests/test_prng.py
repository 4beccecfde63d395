"""SplitMix64 pinned to its published reference outputs and to the library's draws.

Every report depends on these draws, so a faster generator must reproduce
them exactly.
"""
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mukaitwist.prng import GAMMA, SplitMix64, substream


def reference_integers(rng, lo, hi, count):
    """count draws from [lo, hi], each by next_u64 and rejection on its top bits."""
    out = []
    for _ in range(count):
        n = hi - lo + 1
        bits = (n - 1).bit_length()
        while True:
            r = rng.next_u64() >> (64 - bits) if bits else 0
            if r < n:
                out.append(lo + r)
                break
    return tuple(out)


def test_reference_outputs():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert SplitMix64(1234567).next_u64() == 6457827717110365317


def test_substream_draws_are_pinned():
    assert substream(1729, 0).integers(-50, 50, 22) == (
        42, 32, 33, -45, 30, -37, 35, -10, 18, 36, -29, -4, -18, -32, 2, -10, 42, 17, -9, -47, 33, 34,
    )
    assert substream(1729, 99999).integers(-50, 50, 22) == (
        -28, 12, -4, 17, 44, -50, 40, 42, 12, -1, -28, -20, 7, -45, -30, -39, 31, 5, -44, 2, -28, 2,
    )
    assert substream(7, 3).integers(-50, 50, 22) == (
        28, -15, -5, 20, -45, -7, -29, 17, 30, 9, 5, 19, 31, 11, 9, 39, 23, 45, 19, 26, 25, 0,
    )


def test_integer_rejects_draws_out_of_range():
    # From seed 0 the top 7 bits of the first output are 113, outside [0, 100]:
    # that draw is rejected and the second, 55, is returned.
    rng = SplitMix64(0)
    assert rng.integer(0, 100) == 55
    assert rng.state == 2 * GAMMA % 2**64  # two draws taken
    # integer(0, 2) keeps the top 2 bits; the raw draws 3, 1, 0, 3, 0, 1, 0, 3, ...
    # give 1, 0, 0, 1, 0, ... with every 3 rejected.
    rng = SplitMix64(0)
    assert [rng.integer(0, 2) for _ in range(8)] == [1, 0, 0, 1, 0, 0, 1, 2]


SEEDS = st.integers(0, 2**64 - 1)
# hi - lo: small spans, spans of 2^k values (a whole number of top bits), of
# 2^k + 1 and 2^k + 2 values (acceptance just over 1/2) and any span up to
# the 2^64 values one output can cover.
SPANS = st.one_of(
    st.integers(0, 300),
    st.integers(0, 64).map(lambda k: 2**k - 1),
    st.integers(0, 63).map(lambda k: 2**k),
    st.integers(0, 63).map(lambda k: 2**k + 1),
    st.integers(0, 2**64 - 1),
)


@given(SEEDS, st.integers(-(2**70), 2**70), SPANS, st.integers(0, 40))
@example(0, 5, 0, 10)  # lo == hi: no draw
@example(0, 0, 2**64 - 1, 5)  # the whole 64-bit output, no rejection
@example(1, -3, 3, 0)
@example(7, -50, 2**63, 220)  # acceptance just over 1/2: batches run short
@example(7, -50, 2**63, 600)  # more candidates than _MAX_LANES: batches run short at the cap
@example(1729, -50, 100, 220)  # one phi trial's pairing coordinates
# One draw, as integer takes it: spans of 1, 2^k, 2^k + 1 and 2^64 - 1.
@example(3, -1, 1, 1)
@example(3, 0, 2**20, 1)
@example(5, 7, 2**63 + 1, 1)
@example(9, -(2**63), 2**64 - 1, 1)
@example(11, 0, 9105, 1)  # a phi word letter: integer(0, len(pool) - 1)
def test_integers_and_integer_match_reference(seed, lo, span, count):
    hi = lo + span
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    assert fast.integers(lo, hi, count) == reference_integers(ref, lo, hi, count)
    assert fast.state == ref.state
    if count:
        assert fast.integer(lo, hi) == reference_integers(ref, lo, hi, 1)[0]
        assert fast.state == ref.state


@given(SEEDS, st.integers(-100, 100), st.integers(1, 100))
def test_empty_range(seed, lo, gap):
    rng = SplitMix64(seed)
    assert rng.integers(lo, lo - gap, 0) == ()
    with pytest.raises(ValueError):
        rng.integers(lo, lo - gap, 1)
    with pytest.raises(ValueError):
        rng.integer(lo, lo - gap)
    assert rng.state == SplitMix64(seed).state


@given(
    SEEDS,
    st.integers(-(2**70), 2**70),
    SPANS | st.sampled_from((2**63, 2**64 - 1)),
    st.integers(0, 300),
    st.integers(0, 300),
)
@example(7, -50, 2**63, 220, 80)  # 2^63 + 1 values: acceptance just over 1/2
@example(7, 0, 2**64 - 1, 150, 150)  # every output accepted
def test_merged_draws_equal_consecutive_draws(seed, lo, span, a, b):
    # The premise of drawing a whole trial in one call.
    hi = lo + span
    merged, split = SplitMix64(seed), SplitMix64(seed)
    assert merged.integers(lo, hi, a + b) == split.integers(lo, hi, a) + split.integers(lo, hi, b)
    assert merged.state == split.state


def test_range_wider_than_one_output_is_refused():
    # 2^64 + 1 values need 65 top bits of a 64-bit output.
    for hi, count in ((2**64, 1), (2**70, 3)):
        message = rf"range \[0, {hi}\] holds {hi + 1} values; one draw covers at most 2\*\*64"
        rng = SplitMix64(0)
        with pytest.raises(ValueError, match=message):
            rng.integers(0, hi, count)
        with pytest.raises(ValueError, match=message):
            rng.integer(0, hi)
        assert rng.state == 0  # no draw taken
        with pytest.raises(ValueError):
            reference_integers(SplitMix64(0), 0, hi, count)
