"""Acceptance suite: one test per shipped guarantee, at full advertised scale.

Each test prints a single PASS/FAIL line (visible in the live pytest output)
and enforces its runtime budget.
"""
import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mukaitwist import (
    IntMatrix,
    MukaiVector,
    TrialConfig,
    canonical_b_field,
    cover_involution,
    cover_involution_h2,
    determinant,
    exp_b,
    fixed_sublattice,
    full_lattice,
    hermite_normal_form,
    is_isometry,
    mukai_pairing,
    point_class,
    smith_normal_form,
    standard_lattice,
    twisted_involution,
    twisted_involution_matrix,
    verify_characteristic_congruence,
    verify_invariant_lattice,
    verify_phi_integrality,
    verify_square_congruence,
)
from mukaitwist.cli import main as cli_main
from mukaitwist.intmat import solve
from mukaitwist.prng import substream

from conftest import rational_det

SEED = 20260811


def announce(capsys, number: int, label: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\nacceptance {number} [{label}]: {status}{suffix}")
    assert ok, f"acceptance criterion {number} ({label}) failed: {detail}"


def test_criterion_1_ktheory_dichotomy(capsys):
    start = time.perf_counter()
    code_u = cli_main(["ktheory", "--enriques", "--untwisted"])
    out_u = capsys.readouterr().out
    code_t = cli_main(["ktheory", "--enriques", "--twisted"])
    out_t = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = (
        code_u == 0
        and code_t == 0
        and "K1 = Z/2" in out_u
        and "K1 = 0" in out_t
        and elapsed < 1.0
    )
    announce(capsys, 1, "K-theory dichotomy", ok, f"{elapsed:.3f}s")


def test_criterion_2_square_congruence_suite(capsys):
    report = verify_square_congruence(TrialConfig(trials=100_000, seed=SEED, coord_bound=50))
    ok = report.passed and report.trials_run == 100_000 + 5775 and report.elapsed_s < 60
    detail = f"{report.trials_run} checks, {report.elapsed_s:.1f}s"
    if not report.passed:
        detail += f", counterexample {report.counterexample}"
    announce(capsys, 2, "square congruence", ok, detail)


def test_criterion_3_characteristic_congruence_suite(capsys):
    report = verify_characteristic_congruence(TrialConfig(trials=100_000, seed=SEED, coord_bound=50))
    ok = report.passed and report.trials_run == 100_000 and report.elapsed_s < 60
    detail = f"{report.trials_run} trials x 2 samplers, {report.elapsed_s:.1f}s"
    if not report.passed:
        detail += f", counterexample {report.counterexample}"
    announce(capsys, 3, "characteristic congruence", ok, detail)


def test_criterion_4_invariant_lattice_structure(capsys):
    start = time.perf_counter()
    report = verify_invariant_lattice()
    basis, gram = fixed_sublattice(full_lattice(), twisted_involution_matrix(), 1)
    checks = [report.passed, basis.cols == 12]
    checks.append(all(e % 2 == 0 for e in gram.flat))
    half = IntMatrix(12, 12, [e // 2 for e in gram.flat])
    checks.append(determinant(half) in (1, -1))
    checks.append(rational_det(half) in (1, -1))  # independent elimination
    checks.append(any(half[i, i] % 2 for i in range(12)))
    point_in_basis = solve(basis, point_class().coords())
    checks.append(point_in_basis is not None)
    half_point = half.mul_vec(point_in_basis)
    checks.append(all((half_point[i] - half[i, i]) % 2 == 0 for i in range(12)))
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 5
    announce(capsys, 4, "invariant lattice structure", ok, f"{elapsed:.2f}s")


def test_criterion_5_phi_integrality_stress(capsys):
    report = verify_phi_integrality(TrialConfig(trials=1000, seed=SEED, coord_bound=50), word_length=8)
    ok = report.passed and report.trials_run == 1000 and report.elapsed_s < 120
    detail = f"{report.trials_run} words, {report.elapsed_s:.1f}s"
    if not report.passed:
        detail += f", counterexample {report.counterexample}"
    announce(capsys, 5, "equivariant image parity", ok, detail)


def test_criterion_6_structural_invariants(capsys):
    start = time.perf_counter()
    checks = []
    t_iso = twisted_involution_matrix()
    t = t_iso.matrix
    checks.append(all(isinstance(e, int) for e in t.flat))
    checks.append(t @ t == IntMatrix.identity(24))
    checks.append(is_isometry(full_lattice(), t))
    b = canonical_b_field()
    checks.append(tuple(cover_involution_h2()(b.coords)) == tuple(-x for x in b.coords))
    checks.append(b.times(2).square() == 2)
    ok_roundtrip = True
    for i in range(1000):
        rng = substream(SEED, i)
        v = MukaiVector(
            Fraction(rng.integer(-30, 30), rng.integer(1, 8)),
            tuple(Fraction(rng.integer(-30, 30), rng.integer(1, 8)) for _ in range(22)),
            Fraction(rng.integer(-30, 30), rng.integer(1, 8)),
        )
        if exp_b(-b, exp_b(b, v)) != v:
            ok_roundtrip = False
            break
    checks.append(ok_roundtrip)
    tau = cover_involution_h2()
    h2 = standard_lattice("mukai_h2")
    plus, _ = fixed_sublattice(h2, tau, 1)
    minus, _ = fixed_sublattice(h2, tau, -1)
    checks.append(plus.cols == 10 and minus.cols == 12)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 5
    announce(capsys, 6, "structural invariants", ok, f"{elapsed:.2f}s, checks={checks}")


def test_criterion_7_oracle_equivalence(capsys):
    start = time.perf_counter()
    two_b = canonical_b_field().times(2)
    mismatches = 0
    for i in range(100_000):
        rng = substream(SEED + 1, i)
        v = MukaiVector(rng.integer(-50, 50), rng.integers(-50, 50, 22), rng.integer(-50, 50))
        if twisted_involution(v) != exp_b(two_b, cover_involution(v)):
            mismatches += 1
            break
    twist_elapsed = time.perf_counter() - start

    norm_form_failures = 0
    py_rng = random.Random(SEED + 2)
    for _ in range(10_000):
        rows, cols = py_rng.randint(1, 5), py_rng.randint(1, 5)
        m = IntMatrix(rows, cols, [py_rng.randint(-9, 9) for _ in range(rows * cols)])
        h, u = hermite_normal_form(m)
        if u @ m != h or determinant(u) not in (1, -1):
            norm_form_failures += 1
            break
        s, us, vs = smith_normal_form(m)
        if us @ m @ vs != s or determinant(us) not in (1, -1) or determinant(vs) not in (1, -1):
            norm_form_failures += 1
            break
        diag = [s[i, i] for i in range(min(rows, cols))]
        nonzero = [d for d in diag if d]
        if any(b % a for a, b in zip(nonzero, nonzero[1:])) or any(d < 0 for d in diag):
            norm_form_failures += 1
            break
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and norm_form_failures == 0
    announce(
        capsys, 7, "oracle equivalence", ok,
        f"twist oracle {twist_elapsed:.1f}s, normal forms {elapsed - twist_elapsed:.1f}s",
    )


def test_criterion_8_deterministic_reports(capsys):
    cmd = [sys.executable, "-m", "mukaitwist", "verify", "claims", "--seed", "42", "--json"]
    runs = []
    start = time.perf_counter()
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    elapsed = time.perf_counter() - start
    normalized = [re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', r) for r in runs]
    ok = normalized[0] == normalized[1] and runs[0] != ""
    # sanity: only the elapsed field may differ
    doc = json.loads(runs[0])
    ok = ok and doc["config"]["seed"] == 42 and all(c["passed"] for c in doc["checks"])
    announce(capsys, 8, "deterministic reports", ok, f"2 full runs, {elapsed:.1f}s")
