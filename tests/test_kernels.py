"""Backend parity: the compiled kernels must agree with the pure ones exactly."""
import random
from fractions import Fraction

import pytest

from mukaitwist import _kernels
from mukaitwist._kernels import _pure

fast = _kernels._fast
needs_fast = pytest.mark.skipif(fast is None, reason="compiled kernels not built")


def rand_flat(rng, n, bound=50):
    return tuple(rng.randint(-bound, bound) for _ in range(n))


@needs_fast
@pytest.mark.parametrize("seed", range(5))
def test_matmul_parity(seed):
    rng = random.Random(seed)
    for _ in range(50):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a, b = rand_flat(rng, n * k), rand_flat(rng, k * m)
        assert fast.matmul(a, b, n, k, m) == _pure.matmul(a, b, n, k, m)


@needs_fast
@pytest.mark.parametrize("seed", range(5))
def test_bilinear_and_matvec_parity(seed):
    rng = random.Random(50 + seed)
    for _ in range(50):
        n = rng.randint(1, 8)
        g = rand_flat(rng, n * n)
        u, v = rand_flat(rng, n), rand_flat(rng, n)
        assert fast.bilinear(g, u, v, n) == _pure.bilinear(g, u, v, n)
        assert fast.quadform(g, v, n) == _pure.quadform(g, v, n)
        assert fast.matvec(g, v, n, n) == _pure.matvec(g, v, n, n)


@needs_fast
def test_norm_scan_parity_and_order():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        flat = tuple(x for row in g for x in row)
        target = rng.randint(-4, 4)
        got = fast.norm_scan(flat, n, target, 2)
        want = _pure.norm_scan(flat, n, target, 2)
        assert got == want
        assert got == sorted(got)  # lexicographic


@needs_fast
def test_fast_overflow_raises():
    big = 2**40
    with pytest.raises(OverflowError):
        fast.matmul((big, 0, 0, big), (1, 0, 0, 1), 2, 2, 2)
    # result overflow with in-bound entries
    e = 2**30
    with pytest.raises(OverflowError):
        fast.bilinear((e, e, e, e), (e, e), (e, e), 2)


def test_dispatcher_falls_back_on_big_entries():
    big = 10**30
    out = _kernels.matmul((big, 0, 0, big), (big, 0, 0, big), 2, 2, 2)
    assert out[0] == big * big


def test_dispatcher_falls_back_on_fractions():
    half = Fraction(1, 2)
    assert _kernels.bilinear((0, 1, 1, 0), (half, half), (1, 1), 2) == 1


def test_empty_dimensions():
    assert _kernels.matmul((), (), 0, 0, 0) == []
    assert _kernels.matmul((), (), 2, 0, 0) in ([],)
    assert _kernels.matvec((), (), 0, 0) == []


@needs_fast
@pytest.mark.parametrize("seed", range(3))
def test_dispatcher_matches_pure_near_boundary(seed):
    rng = random.Random(900 + seed)
    for _ in range(30):
        n = rng.randint(1, 4)
        bound = 2**30  # exactly at the fast-path entry limit
        g = tuple(rng.randint(-bound, bound) for _ in range(n * n))
        u = tuple(rng.randint(-bound, bound) for _ in range(n))
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        assert _kernels.bilinear(g, u, v, n) == _pure.bilinear(g, u, v, n)


def test_dispatcher_rational_vectors_are_exact():
    half = Fraction(1, 2)
    g = (2, 1, 1, 2)
    assert _kernels.quadform(g, (half, 1), 2) == _pure.quadform(g, (half, 1), 2) == Fraction(7, 2)
    assert _kernels.matvec(g, (half, half), 2, 2) == [Fraction(3, 2), Fraction(3, 2)]


class FakeFast:
    """Stands in for the compiled backend: counts calls, answers or raises."""

    def __init__(self, error=None):
        self.calls = 0
        self.error = error

    def bilinear(self, g, u, v, n):
        self.calls += 1
        if self.error is not None:
            raise self.error
        return "fast"


def dispatched_bilinear(monkeypatch, fake):
    monkeypatch.setattr(_kernels, "_fast", fake)
    return _kernels._kernel("bilinear", 1, 2)


class TestDispatchRule:
    G = (0, 1, 1, 0)

    def test_int_vectors_run_fast(self, monkeypatch):
        fake = FakeFast()
        assert dispatched_bilinear(monkeypatch, fake)(self.G, (1, 1), (1, 1), 2) == "fast"
        assert fake.calls == 1

    def test_rational_vectors_never_reach_fast(self, monkeypatch):
        fake = FakeFast()
        bilinear = dispatched_bilinear(monkeypatch, fake)
        half = Fraction(1, 2)
        assert bilinear(self.G, (half, half), (1, 1), 2) == 1
        assert bilinear(self.G, (1, 1), (half, Fraction(3, 2)), 2) == 2
        assert fake.calls == 0

    def test_overflow_reruns_on_pure(self, monkeypatch):
        fake = FakeFast(OverflowError("entry exceeds fast-kernel bound"))
        assert dispatched_bilinear(monkeypatch, fake)(self.G, (1, 1), (1, 1), 2) == 2
        assert fake.calls == 1

    def test_other_errors_propagate(self, monkeypatch):
        fake = FakeFast(TypeError("bug in the fast path"))
        with pytest.raises(TypeError, match="bug in the fast path"):
            dispatched_bilinear(monkeypatch, fake)(self.G, (1, 1), (1, 1), 2)

    def test_without_fast_the_kernels_are_pure(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_fast", None)
        assert _kernels._kernel("bilinear", 1, 2) is _pure.bilinear
