"""Code that runs inside the fresh processes the benchmark starts.

    child setup WORKLOAD SEED                    -- import, build the caches, print the clock
    child run WORKLOAD SEED SIZE CALLS [SPANS]   -- set up, run the CLI command CALLS times, gather evidence
    child cli SPANS ARG...                       -- one traced `mukaitwist ARG...` invocation

Every mode prints one JSON line. Clock readings are time.perf_counter, which
is CLOCK_MONOTONIC on Linux and so comparable with the parent's readings.
Evidence for the independent checks is gathered after the timed work; the
parent leaves that stretch out of the wall time.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time

# Only the package itself is imported up front: `setup` times a fresh
# process until the package is imported and its caches are built.
import mukaitwist

COORD_BOUND = 50
WORD_LENGTH = 8


def setup(workload: str, seed: int, tracer=None) -> None:
    """The caches a workload needs, built through public calls."""
    mukaitwist.full_lattice()
    mukaitwist.twisted_involution_matrix()
    mukaitwist.cover_involution_h2()
    # Zero trials: only the cached kernel basis of T - 1 is computed.
    mukaitwist.verify_characteristic_congruence(mukaitwist.TrialConfig(trials=0))
    if workload == "phi":
        harvest = mukaitwist.sample_equivariant_isometry  # its first call builds the pool
        if tracer is not None:
            harvest = tracer.wrap("verify.pool", harvest)
        harvest(seed, 0)


def command(workload: str, seed: int, size: int) -> list[str]:
    if workload == "claims":
        return ["verify", "claims", "--trials", str(size), "--seed", str(seed), "--coord-bound", str(COORD_BOUND), "--json"]
    return ["verify", "phi-integrality", "--trials", str(size), "--word-length", str(WORD_LENGTH), "--seed", str(seed), "--json"]


def call_main(argv: list[str], tracer) -> tuple[int, str]:
    import mukaitwist.cli

    main = mukaitwist.cli.main
    if tracer is not None:
        main = tracer.wrap("cli.main." + "_".join(a.replace("-", "_") for a in argv[:2] if not a.startswith("-")), main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def evidence(workload: str, seed: int) -> dict:
    import oracle
    from mukaitwist import verify

    if workload == "claims":
        squares = []
        for ell in oracle.sample_classes(seed):
            v = mukaitwist.MukaiVector.from_h2(ell)
            doubled = v + mukaitwist.twisted_involution(v)
            squares.append(mukaitwist.mukai_pairing(doubled, doubled))
        return {"library_squares": squares}
    words = [
        mukaitwist.sample_equivariant_isometry(s, WORD_LENGTH).matrix.to_rows()
        for s in oracle.sample_word_seeds(seed)
    ]
    # The pool has no public accessor; its size is read from the cache it fills.
    return {"matrices": words, "pool_size": len(verify._generator_pool())}


def run(workload: str, seed: int, size: int, repeats: int, spans: str | None) -> dict:
    import mukaitwist.cli  # noqa: F401  imported before the tracer rebinds its names

    tracer = None
    if spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup(workload, seed, tracer)
    t_setup = time.perf_counter()
    calls = []
    for _ in range(repeats):
        started = time.perf_counter()
        rc, stdout = call_main(command(workload, seed, size), tracer)
        calls.append({"rc": rc, "stdout": stdout, "s": time.perf_counter() - started})
    t_done = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans)
        if workload == "claims":
            # The sweep alone, to split the square check into sweep and trials.
            probe = Tracer()
            probe.install()
            mukaitwist.verify_square_congruence(
                mukaitwist.TrialConfig(trials=0, seed=seed, coord_bound=COORD_BOUND)
            )
            probe.uninstall()
            probe.write(spans + ".sweep")
    found = evidence(workload, seed)
    return {"calls": calls, "evidence": found, "t_setup": t_setup, "t_done": t_done, "t_end": time.perf_counter()}


def traced_cli(spans: str, argv: list[str]) -> int:
    import mukaitwist.cli  # noqa: F401  imported before the tracer rebinds its names
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc, stdout = call_main(argv, tracer)
    finally:
        tracer.uninstall()
        tracer.write(spans)
    sys.stdout.write(stdout)
    return rc


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], int(rest[1]), None)
        print(json.dumps({"t_setup": time.perf_counter()}))
        return 0
    if mode == "run":
        spans = rest[4] if len(rest) > 4 else None
        print(json.dumps(run(rest[0], int(rest[1]), int(rest[2]), int(rest[3]), spans)))
        return 0
    if mode == "cli":
        return traced_cli(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")
