"""benchmarks/record.py's verdict on alternating pairs, on fixed numbers."""
import importlib.util
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"


def _pair_verdict():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pair_verdict


pair_verdict = _pair_verdict()

# Median 1.00, quartiles 0.9925 and 1.01: a spread of 0.0175, inside any bound below.
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
# Median 2.5, quartiles 2 and 3: a spread of 1, wider than a quarter of the median.
WIDE = [2, 3] * 5


@pytest.mark.parametrize(
    "other, this, better, bound, expected",
    [
        (PARENT, [x - 0.1 for x in PARENT], "lower", 0.25, (10, "gain")),
        (PARENT, [x + 0.1 for x in PARENT], "higher", 0.25, (10, "gain")),
        # Nine wins and a tie still make nine in ten; eight and two ties do not.
        (PARENT, [x - 0.1 for x in PARENT[:9]] + PARENT[9:], "lower", 0.25, (9, "gain")),
        (PARENT, [x - 0.1 for x in PARENT[:8]] + PARENT[8:], "lower", 0.25, (8, "within the bound")),
        (PARENT, PARENT, "lower", 0.25, (0, "within the bound")),
        (PARENT, [x * 1.04 for x in PARENT], "lower", 0.05, (0, "within the bound")),
        (PARENT, [x * 1.06 for x in PARENT], "lower", 0.05, (0, "worse beyond the bound")),
        (PARENT, [x * 0.7 for x in PARENT], "higher", 0.25, (0, "worse beyond the bound")),
        (WIDE, WIDE[::-1], "lower", 0.25, (5, "unresolved")),
        (WIDE, [x * 1.2 for x in WIDE], "lower", 0.25, (0, "unresolved")),
        # Every run better than every parent run, by less than the parent's spread.
        (WIDE, [1.9, 1.95] * 5, "lower", 0.25, (10, "within the bound")),
        (WIDE, [x * 1.3 for x in WIDE], "lower", 0.25, (0, "worse beyond the bound")),
    ],
)
def test_pair_verdict(other, this, better, bound, expected):
    assert pair_verdict(other, this, better, bound) == expected
