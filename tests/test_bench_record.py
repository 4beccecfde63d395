"""benchmarks/record.py's verdict on alternating pairs and the rows of a record, on fixed numbers."""
import importlib.util
import json
import subprocess
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


def _record(monkeypatch, root: Path, calls: list, traced: dict):
    """A fresh record.py whose checkout is root and whose perfbench runs are recorded in calls.

    A warm-up (1 s, --trace 0) reads incorrect with failed operations, so a
    warm-up that was counted would be listed. A traced run reads traced[checkout].
    """
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def perfbench(workload, seed, seconds, trace, checkout):
        calls.append((workload, seed, seconds, trace, checkout))
        if trace:
            counts, correct = traced[checkout]
            metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
            metrics["kernels.matmul.s"] = {"value": 0.5 * seed, "unit": "s"}  # a time gets no row
            return {"correct": correct, "attempted": 4, "failed": 0, "metrics": metrics}, {}
        warm = seconds == 1
        value = 1.0 + seed / 100 - (checkout == root) / 1000
        result = {"correct": not warm, "attempted": 4, "failed": 3 * warm, "metrics": {"wall_s": {"value": value, "unit": "s"}}}
        return result, {}

    monkeypatch.setattr(module, "ROOT", root)
    monkeypatch.setattr(module, "perfbench", perfbench)
    return module


def _checkout(path: Path, run_py: str = "print('run')\n") -> Path:
    (path / "perfbench" / "__pycache__").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text('{"run_seconds": 30}\n')
    (path / "perfbench" / "run.py").write_text(run_py)
    (path / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(path.name.encode())  # differs, skipped
    return path


def test_alternate_runs_warm_ups_pairs_then_one_traced_run_per_side(tmp_path, monkeypatch, capsys):
    other, this = _checkout(tmp_path / "other"), _checkout(tmp_path / "this")
    counts = {"kernels.matmul.calls": 7, "prng.substream.calls": 11, "verify.pool.size": 9106}
    traced = {other: (counts, True), this: (dict(counts, **{"prng.substream.calls": 12}), False)}
    calls = []
    record = _record(monkeypatch, this, calls, traced)
    record.alternate(other, "phi", 3, 5)

    seconds = record.BENCHMARK["run_seconds"]
    assert calls[:2] == [("phi", 5, 1, 0, other), ("phi", 5, 1, 0, this)]
    for k in range(3):
        order = (other, this) if k % 2 == 0 else (this, other)
        assert calls[2 + 2 * k : 4 + 2 * k] == [("phi", 5 + k, seconds, 0, side) for side in order]
    assert calls[8:] == [("phi", 5, record.TRACED_SECONDS, 1, other), ("phi", 5, record.TRACED_SECONDS, 1, this)]
    assert record.TRACED_SECONDS == 1

    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines if line.startswith("pair ")] == [["pair", "1,"], ["pair", "2,"], ["pair", "3,"]]
    rows = {line.split()[0]: line.split()[1:] for line in lines if line.split()[:1] and line.split()[0] in counts}
    assert rows == {
        "kernels.matmul.calls": ["7", "7", "equal"],
        "prng.substream.calls": ["11", "12", "differs"],
        "verify.pool.size": ["9106", "9106", "equal"],
    }
    assert [line.endswith("3/3  within the bound") for line in lines if line.startswith("wall_s ")] == [True]
    bad = lines.index("runs incorrect or with failed operations: 1")
    assert lines[bad + 1 :] == ["  this checkout, traced, seed 5: correct False, 0 of 4 operations failed"]


def test_alternate_refuses_checkouts_whose_benchmarks_differ(tmp_path, monkeypatch, capsys):
    other = _checkout(tmp_path / "other")
    this = _checkout(tmp_path / "this", run_py="print('changed')\n")
    calls = []
    record = _record(monkeypatch, this, calls, {})
    with pytest.raises(SystemExit) as exc:
        record.alternate(other, "claims", 2, 1)
    assert exc.value.code == 2
    assert "perfbench/run.py differs" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("value, expected", [("1", True), (None, False)])
def test_record_times_jobs1_and_the_interpreter_floor_and_notes_bytecode_writing(tmp_path, monkeypatch, value, expected):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    root = _checkout(tmp_path / "this")
    record = _record(monkeypatch, root, [], {root: ({}, True)})
    fake_perfbench = record.perfbench
    monkeypatch.setattr(
        record, "perfbench", lambda *args, checkout=root: (fake_perfbench(*args, checkout)[0], {"kernel_backend": "pure"})
    )
    monkeypatch.setattr(record, "git", lambda *args: "")
    launched = []

    def run(args, env=None, cwd=None):
        launched.append(args)
        assert "PYTHONDONTWRITEBYTECODE" not in env  # no child runs with it, whatever record.py started with
        return subprocess.CompletedProcess(args, 0, stdout="1 passed in 0.01s\n", stderr=""), 0.04 + len(launched) / 1000

    monkeypatch.setattr(record, "run", run)
    record.record(7)

    doc = json.loads((root / "BENCH_7.json").read_text())
    assert doc["pythondontwritebytecode_set"] is expected
    assert launched.count(["-c", "pass"]) == record.VERIFY_RUNS == 3
    for argv in (["verify", "claims"], ["verify", "phi-integrality"]):
        assert launched.count(["-m", "mukaitwist", *argv]) == 3
        assert launched.count(["-m", "mukaitwist", *argv, "--jobs", "1"]) == 3
    rows = doc["verify"]
    assert list(rows) == ["verify_claims_s", "verify_phi_s", "verify_claims_jobs1_s", "verify_phi_jobs1_s", "python_floor_s"]
    floor = rows["python_floor_s"]
    assert floor == {"unit": "s", **record.summary(floor["values"])} and len(floor["values"]) == 3


def test_record_where_git_fails_writes_commit_unknown_and_tree_differs_null(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-repository"))  # git fails, as in a `git archive` copy
    root = _checkout(tmp_path / "this")
    record = _record(monkeypatch, root, [], {root: ({}, True)})
    fake_perfbench = record.perfbench
    monkeypatch.setattr(
        record, "perfbench", lambda *args, checkout=root: (fake_perfbench(*args, checkout)[0], {"kernel_backend": "pure"})
    )
    passed = subprocess.CompletedProcess([], 0, stdout="1 passed in 0.01s\n", stderr="")
    monkeypatch.setattr(record, "run", lambda args, env=None, cwd=None: (passed, 0.04))
    assert record.git("status") is None
    record.record(7)

    doc = json.loads((root / "BENCH_7.json").read_text())
    assert doc["commit"] == "unknown"
    assert doc["tree_differs_from_commit"] is None
