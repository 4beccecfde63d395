"""Record the benchmark of one checkout as BENCH_<pr>.json, or run one workload
in this checkout and another in alternating pairs.

Run from the root of a checkout:

    python3 benchmarks/record.py --pr N
    python3 benchmarks/record.py --alternate OTHER_CHECKOUT --workload W --pairs N [--seed S]

A record holds, for the checkout as it is:

- each workload that BENCHMARK.json declares, run by perfbench/run.py for
  its run_seconds 5 times with --trace 0, seeds 1..5: every end-to-end
  metric with its 5 values, median and quartiles, plus the operations
  attempted and failed;
- one --trace 1 run per workload (seed 1): the per-layer metrics;
- `verify claims` and `verify phi-integrality` at their defaults and again
  with --jobs 1, and `python -c pass`, the interpreter's start-up beneath
  every command, each timed as the wall time of a fresh process, 3 times;
- the Tier-1 suite once, with --durations=0: its wall time, its outcome line
  and every test that took at least 0.5 s as its own row;
- the commit (and whether the tree differs from it), the machine, the core
  count, the Python version, KERNEL_BACKEND, and whether
  PYTHONDONTWRITEBYTECODE was set where record.py started.

A record lays the layers out; it is no evidence of a change, since two
records made one after the other also differ by the host's drift. Evidence
is --alternate.

Every child is launched with PYTHONDONTWRITEBYTECODE removed from its
environment, so perfbench's warm-up launch writes the bytecode and no timed
process compiles the package from source.

--alternate first compares the bytes of BENCHMARK.json and of every file
under perfbench/ (bytecode caches aside) in the two checkouts; if any
differ, it names the first and exits 2 before any run. It then runs
`perfbench/run.py --workload W --trace 0 --seconds <run_seconds>` in
OTHER_CHECKOUT (the parent, say) and in this checkout, one after the other,
for N pairs with seeds S, S + 1, ... (S is 1 by default). The other
checkout runs first in the first pair, and the first side switches on each
pair. Before the pairs each side runs once for 1 s, uncounted, so that no
counted run is the first in its checkout (a cold checkout reads a higher
peak_rss_mib). It prints every pair, then for each end-to-end metric the
other checkout's median and quartiles, this checkout's median, how many
pairs this checkout won (ties count for neither), and a verdict by
BENCHMARK.json's `better` and `bound` (see pair_verdict). After the pairs
each side runs once with --trace 1 at seed S for TRACED_SECONDS (1 s), the
other first, and every per-layer metric whose unit is `count` gets a row:
the other side's value, this side's, and `equal` or `differs`. Last it
lists every run, traced ones too, that was incorrect or had failed
operations.

Compare two copies made the same way, such as two `git archive` copies,
each unpacked into its own directory, and run --alternate from one of them:

    mkdir parent change
    git -C REPO archive PARENT | tar -x -C parent
    git -C REPO archive HEAD | tar -x -C change
    cd change && python3 benchmarks/record.py --alternate ../parent --workload cli --pairs 10

Do not compare a working checkout with an archive: run from a working
checkout, the cli workload once read about 2.5 % slower than the same files
run from an archive, for a reason not yet found.

One set of pairs is not enough to read a verdict of "worse beyond the
bound" or "unresolved": one set of ten cli pairs once read the same code
10 % slower while the sets before and after it read it within 1.5 %. Run a
second set at another --seed before reading such a verdict, and report
both.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUNS = 5  # --trace 0 runs per workload, for the median and quartiles
VERIFY_RUNS = 3
VERIFY_COMMANDS = {
    "verify_claims_s": ["-m", "mukaitwist", "verify", "claims"],
    "verify_phi_s": ["-m", "mukaitwist", "verify", "phi-integrality"],
    "verify_claims_jobs1_s": ["-m", "mukaitwist", "verify", "claims", "--jobs", "1"],
    "verify_phi_jobs1_s": ["-m", "mukaitwist", "verify", "phi-integrality", "--jobs", "1"],
    "python_floor_s": ["-c", "pass"],
}
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--durations=0"]
SLOW_TEST_S = 0.5  # Tier-1 tests at least this slow get their own row
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
BYTECODE_OFF = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))  # Python reads any non-empty value as set
# A count repeats exactly for a fixed seed and length, so one short traced run per side is enough.
TRACED_SECONDS = 1


def run(args: list[str], env: dict | None = None, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, float]:
    """One fresh child process in the checkout, and its wall time."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env or ENV, capture_output=True, text=True)
    return proc, time.perf_counter() - t


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def perfbench(workload: str, seed: int, seconds: int, trace: int, checkout: Path = ROOT) -> tuple[dict, dict]:
    """One perfbench run in a checkout: its result object and its provenance."""
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc, _ = run(args + ["--trace", str(trace)], cwd=checkout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench {workload} seed {seed} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[-2].removeprefix("provenance: "))
    return json.loads(lines[-1]), provenance


def record_workload(workload: str, seconds: int) -> tuple[dict, dict]:
    results = []
    for seed in range(1, RUNS + 1):
        result, provenance = perfbench(workload, seed, seconds, 0)
        results.append(result)
        print(f"{workload} seed {seed}: " + json.dumps({k: m["value"] for k, m in result["metrics"].items()}), flush=True)
    end_to_end = {
        name: {"unit": metric["unit"], **summary([r["metrics"][name]["value"] for r in results])}
        for name, metric in results[0]["metrics"].items()
    }
    traced, _ = perfbench(workload, 1, seconds, 1)
    return {
        "end_to_end": end_to_end,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results) and traced["correct"],
        "per_layer": {name: {"unit": m["unit"], "value": m["value"]} for name, m in traced["metrics"].items()},
    }, provenance


def record_verify() -> dict:
    env = dict(ENV, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name, argv in VERIFY_COMMANDS.items():
        walls = []
        for _ in range(VERIFY_RUNS):
            proc, wall = run(argv, env)
            if proc.returncode != 0:
                raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
            walls.append(wall)
        out[name] = {"unit": "s", **summary(walls)}
        print(f"{name}: {walls}", flush=True)
    return out


def record_tier1() -> dict:
    proc, wall = run(TIER1, dict(ENV, PYTHONPATH=str(ROOT / "src")))
    outcome = proc.stdout.strip().splitlines()[-1]
    slow = {}
    for line in proc.stdout.splitlines():
        m = re.match(r"([0-9.]+)s (call|setup|teardown)\s+(\S+)", line)
        if m and float(m[1]) >= SLOW_TEST_S:
            slow[f"{m[3]} ({m[2]})"] = float(m[1])
    print(f"tier-1: {outcome}, {wall:.1f} s wall", flush=True)
    return {"wall_s": wall, "exit_code": proc.returncode, "outcome": outcome, "slow_tests_s": slow}


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(pr: int) -> None:
    if not (ROOT / "perfbench" / "run.py").is_file():
        raise SystemExit("error: run from the root of a mukaitwist checkout; perfbench/run.py is missing")
    seconds = BENCHMARK["run_seconds"]
    workloads, provenance = {}, {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        workloads[workload], provenance = record_workload(workload, seconds)
    doc = {
        "pr": pr,
        "commit": git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(git("status", "--porcelain", "--untracked-files=no")),
        "machine": f"{platform.machine()}, {cpu_model()}",
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel_backend": provenance["kernel_backend"],
        "pythondontwritebytecode_set": BYTECODE_OFF,
        "runs": RUNS,
        "seconds": seconds,
        "workloads": workloads,
        "verify": record_verify(),
        "tier1": record_tier1(),
    }
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name}")


def pair_verdict(other: list[float], this: list[float], better: str, bound: float) -> tuple[int, str]:
    """The pairs this checkout won, and one metric's verdict; other[i] and this[i] ran in pair i.

    A tie counts for neither side. The verdict is
    - "gain": this checkout wins at least 9 in 10 of the pairs, and its
      median beats the other's by more than the other's interquartile range;
    - "worse beyond the bound": this median is worse than the other's by
      more than bound, a fraction of the other's median;
    - "unresolved": the other's interquartile range is wider than that
      bound, and not every run of this checkout beats every run of the other;
    - "within the bound": none of these.
    """
    sign = 1 if better == "lower" else -1
    xs, ys = [sign * x for x in other], [sign * y for y in this]  # lower is better in these
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    gap = statistics.median(ys) - median
    won = sum(y < x for x, y in zip(xs, ys))
    if won >= 0.9 * len(ys) and -gap > q3 - q1:
        return won, "gain"
    if gap > bound * abs(median):
        return won, "worse beyond the bound"
    if q3 - q1 > bound * abs(median) and max(ys) >= min(xs):
        return won, "unresolved"
    return won, "within the bound"


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """BENCHMARK.json and every file under perfbench/ but bytecode caches, by their path in the checkout."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    names = {path: path.relative_to(checkout) for path in paths if path.is_file()}
    return {name.as_posix(): path.read_bytes() for path, name in names.items() if "__pycache__" not in name.parts}


def alternate(other: Path, workload: str, pairs: int, seed: int) -> None:
    sides = {"other": other, "this": ROOT}
    mine, theirs = benchmark_files(ROOT), benchmark_files(other)
    if "perfbench/run.py" not in mine:
        raise SystemExit(f"error: {ROOT} is not the root of a mukaitwist checkout; perfbench/run.py is missing")
    differing = sorted(name for name in mine.keys() | theirs.keys() if mine.get(name) != theirs.get(name))
    if differing:
        print(f"error: {other} and {ROOT} hold different benchmarks; {differing[0]} differs", file=sys.stderr)
        raise SystemExit(2)
    for checkout in sides.values():
        perfbench(workload, seed, 1, 0, checkout)  # warm-up, uncounted
    seconds = BENCHMARK["run_seconds"]
    results: dict[str, list[dict]] = {"other": [], "this": []}
    for k in range(pairs):
        order = ("other", "this") if k % 2 == 0 else ("this", "other")
        for side in order:
            results[side].append(perfbench(workload, seed + k, seconds, 0, sides[side])[0])
        values = {side: {name: m["value"] for name, m in results[side][-1]["metrics"].items()} for side in sides}
        print(
            f"pair {k + 1}, seed {seed + k}, {order[0]} first: "
            + "; ".join(f"{name} {values['other'][name]:.6g} -> {values['this'][name]:.6g}" for name in values["this"]),
            flush=True,
        )
    traced = {side: perfbench(workload, seed, TRACED_SECONDS, 1, checkout)[0] for side, checkout in sides.items()}
    print(f"other = {other}, this = {ROOT}; {workload}, {pairs} pairs of {seconds} s runs")
    print(f"{'metric':14} {'better':6} {'bound':>5} {'other median [q1, q3]':>32} {'this median':>12} {'pairs better':>12}  verdict")
    for metric in BENCHMARK["end_to_end"]:
        name, better = metric["name"], metric["better"]
        if name not in results["this"][0]["metrics"]:
            continue
        xs, ys = ([r["metrics"][name]["value"] for r in results[side]] for side in sides)
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        won, text = pair_verdict(xs, ys, better, metric["bound"])
        print(
            f"{name:14} {better:6} {metric['bound']:5.0%} {f'{median:.6g} [{q1:.6g}, {q3:.6g}]':>32} "
            f"{statistics.median(ys):12.6g} {f'{won}/{pairs}':>12}  {text}"
        )
    print(f"counts of one --trace 1 run per side, seed {seed}, {TRACED_SECONDS} s")
    print(f"{'metric':32} {'other':>12} {'this':>12}")
    for name, m in traced["this"]["metrics"].items():
        if m["unit"] == "count":
            x, y = traced["other"]["metrics"][name]["value"], m["value"]
            print(f"{name:32} {x:12} {y:12}  {'equal' if x == y else 'differs'}")
    runs = [(f"seed {seed + k}", side, r) for side in sides for k, r in enumerate(results[side])]
    runs += [(f"traced, seed {seed}", side, traced[side]) for side in sides]
    bad = [
        f"{side} checkout, {label}: correct {r['correct']}, {r['failed']} of {r['attempted']} operations failed"
        for label, side, r in runs
        if not r["correct"] or r["failed"]
    ]
    print(f"runs incorrect or with failed operations: {len(bad) or 'none'}")
    for line in bad:
        print(f"  {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, help="the number in the name of the record to write")
    parser.add_argument("--alternate", metavar="OTHER_CHECKOUT", help="the checkout to run alternating pairs against")
    parser.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed (default 1)")
    args = parser.parse_args()
    if args.alternate:
        if args.workload is None or args.pairs is None or args.pairs < 2:
            parser.error("--alternate needs --workload W and --pairs N with N >= 2")
        alternate(Path(args.alternate).resolve(), args.workload, args.pairs, args.seed)
    elif args.pr is None:
        parser.error("give --pr N to record, or --alternate OTHER_CHECKOUT")
    else:
        record(args.pr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
