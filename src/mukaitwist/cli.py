"""Command-line interface.

Subcommands:

* ``verify claims``           -- square congruence, characteristic congruence,
                                 invariant-lattice structure
* ``verify phi-integrality``  -- equivariant-image parity stress test
* ``ktheory``                 -- twisted K^1 and the stable page for a surface
* ``lattice info``            -- rank/Gram/determinant/parity/definiteness

Exit codes: 0 all checks passed, 1 a verification failed (counterexample
printed), 2 usage or input error, 70 an internal fault, such as a map that
is not an isometry. main raises such a fault; run, the entry point of the
``mukaitwist`` script and of ``python -m mukaitwist``, prints its traceback
to stderr and returns EXIT_INTERNAL_FAULT, so no fault reads as 1. Reports
are plain text by default; ``--json`` emits a machine-readable document
with a fixed field order (schema in mukaitwist/data/report_schema.json).
Runs are reproducible: the default seed is fixed, and identical arguments
produce identical reports apart from elapsed_ms.

``verify --jobs N`` deals each sampled check's cases to N worker processes
(the parent and N - 1 forked children; see mukaitwist.verify). N must lie in
[1, the CPUs this process may run on]; it is checked before any process
starts. It defaults to that count capped at DEFAULT_JOBS_CAP, the most
workers measured to pay off: forks are serial and each worker holds its
own copy-on-write image, so more is not assumed to be faster. The report
does not depend on N, and N is not part of it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

from .intmat import signature_and_det
from .ktheory import CohomologySpec, SpecFormatError, e4_page
from .lattices import definiteness_from_signature, standard_lattice
from .mukai import full_lattice
from .verify import (
    DEFAULT_COORD_BOUND,
    DEFAULT_PHI_TRIALS,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    DEFAULT_WORD_LENGTH,
    TrialConfig,
    check_word_length,
    run_claims_suite,
    verify_phi_integrality,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL_FAULT = 70  # EX_SOFTWARE of sysexits.h

# The largest default --jobs: 2 workers beat 1 at both suites' defaults on a
# 2-core host; more workers have not been measured.
DEFAULT_JOBS_CAP = 2


def usable_cores() -> int:
    """The CPUs this process may run on: the largest --jobs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mukaitwist",
        description="Exact checks on the twisted Mukai lattice of an Enriques cover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    vsub = verify.add_subparsers(dest="suite", required=True)

    claims = vsub.add_parser("claims", help="congruence and invariant-lattice checks")
    claims.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    claims.add_argument("--seed", type=int, default=DEFAULT_SEED)
    claims.add_argument("--coord-bound", type=int, default=DEFAULT_COORD_BOUND)
    claims.add_argument("--json", action="store_true")
    claims.set_defaults(word_length=None)

    phi = vsub.add_parser("phi-integrality", help="equivariant-image parity stress test")
    phi.add_argument("--trials", type=int, default=DEFAULT_PHI_TRIALS)
    phi.add_argument("--word-length", type=int, default=DEFAULT_WORD_LENGTH)
    phi.add_argument("--seed", type=int, default=DEFAULT_SEED)
    phi.add_argument("--json", action="store_true")
    phi.set_defaults(coord_bound=DEFAULT_COORD_BOUND)
    for suite in (claims, phi):
        suite.add_argument(
            "--jobs",
            type=int,
            default=min(usable_cores(), DEFAULT_JOBS_CAP),
            help=f"worker processes, from 1 to the usable CPUs (default: those, at most {DEFAULT_JOBS_CAP});"
            " the report does not depend on it",
        )

    kth = sub.add_parser("ktheory", help="twisted K^1 of a surface from its cohomology")
    source = kth.add_mutually_exclusive_group(required=True)
    source.add_argument("--enriques", action="store_true", help="use the bundled Enriques cohomology")
    source.add_argument("--input", metavar="FILE", help="JSON cohomology file")
    twist = kth.add_mutually_exclusive_group()
    twist.add_argument("--twisted", action="store_true", help="nonzero twist class (with --enriques)")
    twist.add_argument("--untwisted", action="store_true", help="zero twist class (with --enriques)")
    kth.add_argument("--json", action="store_true")

    lat = sub.add_parser("lattice", help="lattice diagnostics")
    lsub = lat.add_subparsers(dest="lattice_command", required=True)
    info = lsub.add_parser("info", help="rank, Gram, determinant, parity, definiteness")
    info.add_argument(
        "--name",
        required=True,
        choices=["u", "e8", "minus-e8", "mukai-h2", "mukai-full"],
    )
    info.add_argument("--json", action="store_true")

    return parser


@contextmanager
def _any_int_digits():
    """Lift Python's digit limit on int-to-text conversion while a report is formatted.

    A result can have more digits than any one input number: K1 of two
    factors under the limit is their product. The limit stays on input,
    where CohomologySpec.from_file relies on it to refuse an over-long
    number. Before Python 3.10.7 there is no limit to lift.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(doc: dict, as_json: bool, text_lines: list[str], started: float) -> None:
    doc["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def _verification_text(reports) -> list[str]:
    lines = []
    for r in reports:
        status = "ok" if r.passed else "FAILED"
        lines.append(f"{r.check_name}: {status} ({r.trials_run} checks, {r.elapsed_s:.2f}s)")
        if r.counterexample is not None:
            lines.append(f"  counterexample: {json.dumps(r.counterexample)}")
    lines.append("all checks passed" if all(r.passed for r in reports) else "VERIFICATION FAILED")
    return lines


def _run_verify(args) -> int:
    started = time.perf_counter()
    cores = usable_cores()
    if not 1 <= args.jobs <= cores:
        print(f"error: --jobs must be in [1, {cores}] (the usable CPUs), got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = TrialConfig(trials=args.trials, seed=args.seed, coord_bound=args.coord_bound)
        if args.suite == "phi-integrality":
            check_word_length(args.word_length)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Past the argument checks a ValueError is an internal fault, not a usage error: it propagates.
    if args.suite == "claims":
        reports = run_claims_suite(cfg, jobs=args.jobs)
    else:
        reports = [verify_phi_integrality(cfg, word_length=args.word_length, jobs=args.jobs)]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": f"verify {args.suite}",
        "config": cfg.to_dict() | {"word_length": args.word_length},
        "checks": [r.check_json() for r in reports],
    }
    _emit(doc, args.json, _verification_text(reports), started)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION_FAILED


def _run_ktheory(args) -> int:
    started = time.perf_counter()
    if args.input and (args.twisted or args.untwisted):
        print("error: --twisted/--untwisted only apply to --enriques", file=sys.stderr)
        return EXIT_USAGE
    if args.enriques and not (args.twisted or args.untwisted):
        print("error: --enriques requires --twisted or --untwisted", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.enriques:
            spec = CohomologySpec.enriques(twisted=args.twisted)
            source = "enriques (bundled)"
        else:
            spec = CohomologySpec.from_file(args.input)
            source = args.input
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecFormatError as exc:
        print(f"error: malformed cohomology file: {exc}", file=sys.stderr)
        return EXIT_USAGE

    with _any_int_digits():
        page = e4_page(spec)
        k1 = page.k1()
        k = page.h0_multiplier
        k0 = page.k0_graded()

        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "ktheory",
            "result": {
                "source": source,
                "cohomology": spec.to_dict(),
                "alpha_order": k,
                "e4_page": {
                    "h0_multiplier": page.h0_multiplier,
                    "columns": [g.to_dict() | {"display": str(g)} for g in page.columns],
                },
                "k1": k1.to_dict() | {"display": str(k1)},
                "k0_graded": {
                    "columns": [g.to_dict() | {"display": str(g)} for g in k0],
                    "extension_resolved": False,
                },
            },
        }

        alpha_desc = "zero" if k == 1 else f"nonzero of order {k}"
        cols = page.columns
        text = [
            f"input: {source}",
            "cohomology: H0 = {}, H1 = {}, H2 = {}, H3 = {}, H4 = {}".format(
                spec.h0, spec.h1, spec.h2, spec.h3, spec.h4
            ),
            f"twist class alpha: {alpha_desc}",
            f"stable page: [{k}*H0 = {cols[0]} | H1 = {cols[1]} | H2 = {cols[2]}"
            f" | H3/alpha = {cols[3]} | H4 = {cols[4]}]",
            f"K1 = {k1}",
            "K0 graded pieces (extension problem not resolved): "
            + " | ".join(str(g) for g in k0),
        ]
        _emit(doc, args.json, text, started)
    return EXIT_OK


def _run_lattice_info(args) -> int:
    started = time.perf_counter()
    if args.name == "mukai-full":
        lattice = full_lattice()
    else:
        lattice = standard_lattice(args.name)
    sig, det = signature_and_det(lattice.gram)
    defi = definiteness_from_signature(sig)
    even = lattice.is_even()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "lattice info",
        "result": {
            "name": args.name,
            "rank": lattice.rank,
            "det": det,
            "even": even,
            "definiteness": defi,
            "signature": {"positive": sig[0], "zero": sig[1], "negative": sig[2]},
            "gram": lattice.gram.to_rows(),
        },
    }
    text = [
        f"lattice: {args.name}",
        f"rank: {lattice.rank}",
        f"det: {det}",
        f"parity: {'even' if even else 'odd'}",
        f"definiteness: {defi} (signature {sig[0]}+, {sig[2]}-, {sig[1]} null)",
        "gram:",
    ]
    text += ["  " + " ".join(f"{e:3d}" for e in lattice.gram.row(i)) for i in range(lattice.rank)]
    _emit(doc, args.json, text, started)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "ktheory":
        return _run_ktheory(args)
    return _run_lattice_info(args)


def run(argv: list[str] | None = None) -> int:
    """main, with an internal fault printed as its traceback and returned as EXIT_INTERNAL_FAULT."""
    try:
        return main(argv)
    except Exception:
        import traceback  # only on a fault: the commands never load it

        traceback.print_exc()
        return EXIT_INTERNAL_FAULT


if __name__ == "__main__":
    sys.exit(run())
