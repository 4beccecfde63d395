"""Benchmark the compiled integer kernels against the pure-Python fallback.

Usage:
    python benchmarks/bench_kernels.py [--quick]

Workloads mirror the hot paths of the verification suites: 24x24 matrix
products (isometry checks), rank-22 bilinear forms (Mukai pairings), and the
norm box scan that harvests reflection vectors. Entries stay within the
fast path's checked-int64 range, as they do in the real suites.
"""
import argparse
import random
import time

from mukaitwist._kernels import _fast, _pure
from mukaitwist.lattices import fixed_sublattice, standard_lattice
from mukaitwist.mukai import full_lattice, twisted_involution_matrix


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def build_workloads(quick: bool):
    rng = random.Random(1)
    t = twisted_involution_matrix().matrix.flat
    h2 = standard_lattice("mukai_h2").gram.flat
    u = tuple(rng.randint(-50, 50) for _ in range(22))
    v = tuple(rng.randint(-50, 50) for _ in range(22))
    _, fixed_gram = fixed_sublattice(full_lattice(), twisted_involution_matrix(), 1)
    scale = 0.1 if quick else 1.0
    return [
        ("matmul 24x24", lambda k: k.matmul(t, t, 24, 24, 24), int(2000 * scale)),
        ("matvec 24x24", lambda k: k.matvec(t, t[:24], 24, 24), int(20000 * scale)),
        ("bilinear n=22", lambda k: k.bilinear(h2, u, v, 22), int(20000 * scale)),
        ("quadform n=22", lambda k: k.quadform(h2, v, 22), int(20000 * scale)),
        ("norm scan 12^3^12", lambda k: k.norm_scan(fixed_gram.flat, 12, 2, 1), max(1, int(3 * scale))),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer repetitions")
    args = parser.parse_args()

    if _fast is None:
        print("compiled kernels are not available; only timing the pure backend")
    backends = [("pure", _pure)] + ([("cython", _fast)] if _fast is not None else [])

    print(f"{'workload':<20} " + " ".join(f"{name:>12}" for name, _ in backends) + "   speedup")
    for label, call, repeats in build_workloads(args.quick):
        times = []
        for _, mod in backends:
            times.append(timeit(lambda: call(mod), repeats))
        cols = " ".join(f"{t * 1e6:>10.1f}us" for t in times)
        speedup = f"{times[0] / times[-1]:>8.1f}x" if len(times) > 1 else ""
        print(f"{label:<20} {cols} {speedup}")

    # correctness spot check: identical outputs on a shared workload
    if _fast is not None:
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 8)
            g = tuple(rng.randint(-9, 9) for _ in range(n * n))
            w = tuple(rng.randint(-9, 9) for _ in range(n))
            assert _fast.bilinear(g, w, w, n) == _pure.bilinear(g, w, w, n)
        print("backend outputs agree on 200 random bilinear forms")


if __name__ == "__main__":
    main()
