"""SplitMix64 pinned to its published reference outputs and to the library's draws.

Every report depends on these draws, so a faster generator must reproduce
them exactly.
"""
from mukaitwist.prng import GAMMA, SplitMix64, substream


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


def test_below_rejects_draws_out_of_range():
    # From seed 0 the top 7 bits of the first output are 113, outside [0, 101):
    # that draw is rejected and the second, 55, is returned.
    rng = SplitMix64(0)
    assert rng.below(101) == 55
    assert rng.state == 2 * GAMMA % 2**64  # two draws taken
    # below(3) keeps the top 2 bits; the raw draws 3, 1, 0, 3, 0, 1, 0, 3, ...
    # give 1, 0, 0, 1, 0, ... with every 3 rejected.
    rng = SplitMix64(0)
    assert [rng.below(3) for _ in range(8)] == [1, 0, 0, 1, 0, 0, 1, 2]
