"""The mukaitwist benchmark: workloads claims, phi and cli, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {claims,phi,cli} --seed N --seconds S --trace {0,1}

The library is used as the checkout holds it (`src/` on PYTHONPATH) and is
measured from outside: every timed process is a fresh interpreter started by
this script, one at a time. With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run instead, plus the tracing overhead. Every
output is checked against perfbench/oracle.py, which does not import the
library. See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable
from functools import partial
from pathlib import Path

import oracle
from tracing import read_layers

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
PYTHON = sys.executable
CHILD = ["-c", "import sys, child; sys.exit(child.main(sys.argv[1:]))"]
IMPORT_TIMER = "import time; t = time.perf_counter(); import mukaitwist; print(time.perf_counter() - t)"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))

# Work per run is fixed from --seconds by these rates, never measured at run
# time, so both sides of a comparison do the same work.
CLAIMS_TRIALS_PER_S = 2000  # the CLI default is 100000 trials
PHI_WORDS_PER_S = 60  # the CLI default is 1000 words
CLI_ROUND_S = 2.5  # one round of cli commands takes about this long
VALID_FILES = 8  # per cli round
MALFORMED_FILES = 2  # per cli round

# A shared virtual machine can run about 28% slower for 3 to 30 seconds at a
# time (see README.md), so a run repeats identical work and reports the best
# repeat, as timeit does; a median or mean moves with the share of slow time.
CLAIMS_REPEATS = 6  # fresh claims processes per run
PHI_REPEATS = 6  # identical word batches after the one pool harvest
CLI_PASSES = 6  # passes over the cli command list
SETUP_SAMPLES = 24  # fresh set-ups per claims or cli run, spread over the run
START_SAMPLES = 15  # bare interpreter starts and imports per traced run
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "command_p50_s": "s",
}

PER_LAYER = {
    "kernels.matmul.calls": "count",
    "kernels.matmul.s": "s",
    "kernels.norm_scan.calls": "count",
    "kernels.norm_scan.s": "s",
    "kernels.norm_scan.hits": "count",
    "kernels.bilinear.calls": "count",
    "kernels.bilinear.s": "s",
    "kernels.quadform.calls": "count",
    "kernels.quadform.s": "s",
    "kernels.matvec.calls": "count",
    "kernels.matvec.s": "s",
    "intmat.new.calls": "count",
    "intmat.matmul.calls": "count",
    "intmat.matmul.s": "s",
    "intmat.hnf.s": "s",
    "intmat.snf.calls": "count",
    "intmat.snf.s": "s",
    "intmat.kernel_basis.s": "s",
    "intmat.determinant.s": "s",
    "intmat.solve.s": "s",
    "lattices.isometry_new.calls": "count",
    "lattices.isometry_new.s": "s",
    "lattices.isometry_compose.calls": "count",
    "lattices.reflection.calls": "count",
    "lattices.reflection.s": "s",
    "lattices.short_vectors.s": "s",
    "lattices.fixed_sublattice.s": "s",
    "lattices.inner.calls": "count",
    "lattices.inner.s": "s",
    "lattices.signature.s": "s",
    "mukai.vector_new.calls": "count",
    "mukai.pairing.calls": "count",
    "mukai.pairing.s": "s",
    "mukai.twisted_involution.calls": "count",
    "mukai.twisted_involution.s": "s",
    "prng.substream.calls": "count",
    "prng.substream.s": "s",
    "verify.pool.s": "s",
    "verify.pool.size": "count",
    "verify.phi.words.s": "s",
    "verify.square.trials.s": "s",
    "verify.square.sweep.s": "s",
    "verify.characteristic.s": "s",
    "verify.invariant_lattice.s": "s",
    "ktheory.from_file.s": "s",
    "ktheory.k1_surface.calls": "count",
    "ktheory.k1_surface.s": "s",
    "ktheory.e4_page.s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.ktheory.s": "s",
    "cli.main.lattice_info.s": "s",
    "cli.command_p90_s": "s",
    "cli.commands": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run to its end; no result is printed."""


@dataclass
class Proc:
    rc: int
    stdout: str
    stderr: str
    t_spawn: float
    t_exit: float
    rss_mib: float

    @property
    def latency(self) -> float:
        return self.t_exit - self.t_spawn


def _on_alarm(signum, frame):
    raise TimeoutError


def launch(args: list[str]) -> Proc:
    """Start one fresh interpreter, wait for it, and read its own resource usage."""
    with open(OUT / "child.out", "w+") as out, open(OUT / "child.err", "w+") as err:
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen([PYTHON, *args], stdout=out, stderr=err, env=ENV, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {args}") from None
            t_exit = time.perf_counter()
        finally:
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read(), err.read(), t_spawn, t_exit, usage.ru_maxrss / 1024)


def last_line(proc: Proc) -> str:
    if proc.rc != 0:
        raise BenchError(f"child exited with {proc.rc}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def last_json(proc: Proc) -> dict:
    return json.loads(last_line(proc))


def setup_seconds(workload: str, seed: int) -> float:
    """Time from a fresh start until the package and its caches are ready."""
    proc = launch(CHILD + ["setup", workload, str(seed)])
    return last_json(proc)["t_setup"] - proc.t_spawn


def start_seconds() -> dict:
    """Bare interpreter start, and the import of the package, in fresh processes."""
    interpreter = [launch(["-c", "pass"]).latency for _ in range(START_SAMPLES)]
    imports = [float(last_line(launch(["-c", IMPORT_TIMER]))) for _ in range(START_SAMPLES)]
    return {"cli.interpreter_s": min(interpreter), "cli.import_s": min(imports)}


# ------------------------------------------------------------ claims and phi


def run_suite(workload: str, seed: int, size: int, repeats: int, spans: Path | None = None):
    """One fresh process: set up, run the CLI command `repeats` times, gather evidence, exit.

    Returns the process, its parsed result, the per-call rates, the wall time,
    the operations attempted and the problems found in the outputs.
    """
    args = CHILD + ["run", workload, str(seed), str(size), str(repeats)] + ([str(spans)] if spans else [])
    proc = launch(args)
    res = last_json(proc)
    # Wall time leaves out the evidence gathered for the checks after the work.
    wall = (res["t_done"] - proc.t_spawn) + (proc.t_exit - res["t_end"])
    evidence = res["evidence"]
    rates, attempted, problems = [], 0, []
    for k, call in enumerate(res["calls"]):
        if call["rc"] not in (0, 1):  # 1 is a failed check, which the report shows
            raise BenchError(f"{workload}: the CLI exited with {call['rc']}: {call['stdout'][-2000:]}")
        doc = json.loads(call["stdout"])
        # The spot-check evidence is per process, so it is checked with the first call.
        if workload == "claims":
            classes = oracle.sample_classes(seed) if k == 0 else []
            problems += oracle.check_claims(doc, size, classes, evidence["library_squares"][: len(classes)])
        else:
            problems += oracle.check_phi(doc, size, evidence["matrices"] if k == 0 else [])
        n = sum(c["trials_run"] for c in doc["checks"])
        attempted += n
        rates.append(n / call["s"])
    if workload == "phi" and len(evidence["matrices"]) != oracle.SPOT_WORDS:
        problems.append("phi: spot-check words missing")
    return proc, res, rates, wall, attempted, problems


def suite(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int, int, list[str]]:
    if workload == "claims":
        size, repeats = CLAIMS_TRIALS_PER_S * seconds // CLAIMS_REPEATS, 1
    else:
        size, repeats = PHI_WORDS_PER_S * seconds // PHI_REPEATS, PHI_REPEATS
    if trace:
        return traced_suite(workload, seed, size, repeats)
    if workload == "claims":
        setups, walls, rates, rss, attempted, problems = [], [], [], [], 0, []
        for _ in range(CLAIMS_REPEATS):
            setups += [setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES // CLAIMS_REPEATS)]
            proc, _, call_rates, wall, n, found = run_suite(workload, seed, size, repeats)
            walls.append(wall)
            rates += call_rates
            rss.append(proc.rss_mib)
            attempted += n
            problems += found
        metrics = {"wall_s": min(walls), "setup_s": min(setups), "checks_per_s": max(rates), "peak_rss_mib": max(rss)}
    else:
        proc, res, rates, wall, attempted, problems = run_suite(workload, seed, size, repeats)
        metrics = {
            "wall_s": wall,
            "setup_s": res["t_setup"] - proc.t_spawn,  # the one pool harvest of the run
            "checks_per_s": max(rates),
            "peak_rss_mib": proc.rss_mib,
        }
    metrics["command_p50_s"] = metrics["wall_s"]  # one invocation per process
    return metrics, attempted, 0, problems


def traced_suite(workload: str, seed: int, size: int, repeats: int) -> tuple[dict, int, int, list[str]]:
    """One process of the run's work untraced, then the same traced."""
    _, _, _, wall_plain, attempted, problems = run_suite(workload, seed, size, repeats)
    spans = OUT / f"{workload}.spans"
    _, res, _, wall_traced, traced_attempted, traced_problems = run_suite(workload, seed, size, repeats, spans)
    layers, counters = read_layers(str(spans))
    extra = start_seconds()
    extra["trace.overhead_s"] = wall_traced - wall_plain
    if workload == "claims":
        sweep, _ = read_layers(str(spans) + ".sweep")
        extra["verify.square.sweep.s"] = sweep["verify.square"][1]
        extra["verify.square.trials.s"] = layers["verify.square"][1] - extra["verify.square.sweep.s"]
    else:
        extra["verify.pool.size"] = res["evidence"]["pool_size"]
    return layer_metrics(layers, counters, extra), attempted + traced_attempted, 0, problems + traced_problems


# ------------------------------------------------------------------------ cli


@dataclass
class Command:
    argv: list[str]
    rc: int
    check: Callable[[Proc], list[str]]


def _json_check(fn, *args):
    def check(proc: Proc) -> list[str]:
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return [f"not JSON: {proc.stdout[:200]!r}"]
        return fn(*args, doc)

    return check


def cli_commands(seed: int, rounds: int) -> list[Command]:
    """Seeded cohomology files, a fixed share of them malformed, plus the fixed commands."""
    rng = random.Random(f"cli-{seed}")
    folder = OUT / "cli"
    folder.mkdir(exist_ok=True)
    commands = []
    for r in range(rounds):
        for k in range(VALID_FILES + MALFORMED_FILES):
            path = folder / f"round{r}-file{k}.json"
            argv = ["ktheory", "--input", str(path.relative_to(ROOT)), "--json"]
            if k < VALID_FILES:
                spec = oracle.cohomology(rng)
                commands.append(Command(argv, 0, _json_check(oracle.check_ktheory, spec)))
            else:
                spec, field = oracle.malformed_cohomology(rng)
                commands.append(Command(argv, 2, lambda p, field=field: oracle.check_malformed(field, p.rc, p.stderr)))
            path.write_text(json.dumps(spec))
        for twisted in (True, False):
            flag = "--twisted" if twisted else "--untwisted"
            commands.append(Command(["ktheory", "--enriques", flag, "--json"], 0, _json_check(oracle.check_enriques, twisted)))
        for name in oracle.LATTICES:
            commands.append(Command(["lattice", "info", "--name", name, "--json"], 0, _json_check(oracle.check_lattice, name)))
    return commands


def closed_loop(commands: list[Command], spans: Path | None = None, between=None) -> tuple[list[Proc], int, list[str]]:
    """One client: each `mukaitwist` process starts after the previous one exits.

    `between`, when given, is called at SETUP_SAMPLES evenly spaced points of
    the loop; what it runs is not part of any command's latency.
    """
    stops = {len(commands) * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES)} if between else set()
    procs = []
    for i, command in enumerate(commands):
        if i in stops:
            between()
        if spans is None:
            procs.append(launch(["-m", "mukaitwist", *command.argv]))
        else:
            procs.append(launch(CHILD + ["cli", str(spans / f"{i}.spans"), *command.argv]))
    failed = 0
    problems = []
    for command, proc in zip(commands, procs):
        if proc.rc != command.rc:
            failed += 1
            continue
        problems += command.check(proc)
    return procs, failed, problems


def cli(seed: int, seconds: int, trace: bool) -> tuple[dict, int, int, list[str]]:
    commands = cli_commands(seed, max(1, round(seconds / (CLI_ROUND_S * CLI_PASSES))))
    if trace:
        return traced_cli(commands)
    setups = []
    procs, failed, problems = closed_loop(commands * CLI_PASSES, between=lambda: setups.append(setup_seconds("cli", seed)))
    n = len(commands)
    best = [min(p.latency for p in procs[i::n]) for i in range(n)]  # each command's best pass
    metrics = {
        "wall_s": sum(best),
        "setup_s": min(setups),
        "checks_per_s": n / sum(best),
        "peak_rss_mib": max(p.rss_mib for p in procs),
        "command_p50_s": statistics.median(best),
    }
    return metrics, len(procs), failed, problems


def traced_cli(commands: list[Command]) -> tuple[dict, int, int, list[str]]:
    plain, failed, problems = closed_loop(commands)
    spans = OUT / "cli-spans"
    spans.mkdir(exist_ok=True)
    traced, traced_failed, traced_problems = closed_loop(commands, spans)
    layers: dict[str, list] = {}
    counters: dict[str, int] = {}
    for i in range(len(commands)):
        file_layers, file_counters = read_layers(str(spans / f"{i}.spans"))
        for name, (calls, self_s) in file_layers.items():
            entry = layers.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, value in file_counters.items():
            counters[name] = counters.get(name, 0) + value
    extra = start_seconds()
    extra["cli.command_p90_s"] = statistics.quantiles([p.latency for p in plain], n=10)[-1]
    extra["cli.commands"] = len(commands)
    extra["trace.overhead_s"] = sum(p.latency for p in traced) - sum(p.latency for p in plain)
    metrics = layer_metrics(layers, counters, extra)
    return metrics, 2 * len(commands), failed + traced_failed, problems + traced_problems


# ---------------------------------------------------------------------- main


def layer_metrics(layers: dict, counters: dict, extra: dict) -> dict:
    """Every per-layer metric: call counts and self times of spans, counters, extras."""
    out = {}
    for name in PER_LAYER:
        base, kind = name.rsplit(".", 1)
        if name in extra:
            out[name] = extra[name]
        elif kind == "calls":
            out[name] = layers.get(base, (0, 0.0))[0]
        elif kind == "s":
            out[name] = layers.get(base, (0, 0.0))[1]
        else:
            out[name] = counters.get(name, 0)
    return out


def provenance(backend: str) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown (git failed)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
    }


WORKLOADS = {"claims": partial(suite, "claims"), "phi": partial(suite, "phi"), "cli": cli}


def main() -> int:
    parser = argparse.ArgumentParser(description="mukaitwist benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mukaitwist" / "__init__.py").is_file():
        print("error: run from the root of a mukaitwist checkout; src/mukaitwist is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # Also compiles the bytecode, so no timed process pays for that.
        warm = last_line(launch(["-c", "import mukaitwist, mukaitwist.cli, child, tracing; print(mukaitwist.KERNEL_BACKEND)"]))
        prov = provenance(warm)
        metrics, attempted, failed, problems = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record.update(provenance=prov, problems=problems, result=result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("provenance: " + json.dumps(prov))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
