import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import mukaitwist.mukai as mukai
import mukaitwist.verify as verify
from mukaitwist.cli import main
from mukaitwist.verify import VerificationReport

DATA = Path(__file__).resolve().parent.parent / "src" / "mukaitwist" / "data"
SCHEMA = json.loads((DATA / "report_schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


class TestKtheoryCommand:
    def test_untwisted_reports_z2(self, capsys):
        code, out, _ = run(capsys, "ktheory", "--enriques", "--untwisted")
        assert code == 0
        assert "K1 = Z/2" in out

    def test_twisted_reports_trivial(self, capsys):
        code, out, _ = run(capsys, "ktheory", "--enriques", "--twisted")
        assert code == 0
        assert "K1 = 0" in out

    def test_json_mode(self, capsys):
        code, doc, _ = run_json(capsys, "ktheory", "--enriques", "--twisted", "--json")
        assert code == 0
        assert doc["result"]["k1"] == {"free_rank": 0, "torsion": [], "display": "0"}
        assert doc["result"]["alpha_order"] == 2
        assert doc["result"]["k0_graded"]["extension_resolved"] is False

    def test_text_and_json_verdicts_agree(self, capsys):
        _, text_out, _ = run(capsys, "ktheory", "--enriques", "--untwisted")
        _, doc, _ = run_json(capsys, "ktheory", "--enriques", "--untwisted", "--json")
        assert doc["result"]["k1"]["display"] in text_out

    def test_input_file(self, capsys):
        code, out, _ = run(capsys, "ktheory", "--input", str(DATA / "enriques.json"))
        assert code == 0
        assert "K1 = 0" in out  # bundled file carries the nonzero twist

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ktheory", "--input", "/does/not/exist.json")
        assert code == 2
        assert "cannot read" in err

    def test_read_errors_keep_their_messages(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "ktheory", "--input", str(missing))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
        bad = tmp_path / "late.json"
        bad.write_bytes(b'{"h0": 1}\xfe')
        code, out, err = run(capsys, "ktheory", "--input", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: malformed cohomology file: top level: {bad} is not UTF-8 (invalid start byte at byte 9)\n"

    def test_malformed_file_names_field(self, capsys, tmp_path):
        doc = json.loads((DATA / "enriques.json").read_text())
        doc["h3"]["torsion"] = [3, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ktheory", "--input", str(bad))
        assert code == 2
        assert "h3.torsion" in err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(h5={"free_rank": 1, "torsion": []}), "top level: unknown keys ['h5']"),
            (lambda d: d["alpha"].update(typo=1), "alpha: unknown keys ['typo']"),
            (lambda d: d["h3"].update(bogus=1), "h3: unknown keys ['bogus']"),
        ],
        ids=["top-level", "alpha", "group"],
    )
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, mutate, message):
        doc = json.loads((DATA / "enriques.json").read_text())
        mutate(doc)
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ktheory", "--input", str(bad))
        assert code == 2
        assert message in err
        assert out == ""

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff")
        code, _, err = run(capsys, "ktheory", "--input", str(bad))
        assert code == 2
        assert str(bad) in err
        assert "UTF-8" in err

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "ktheory", "--input", str(deep))
        assert code == 2
        assert "malformed cohomology file: top level:" in err

    def test_integer_over_digit_limit_is_usage_error(self, capsys, tmp_path):
        doc = json.loads((DATA / "enriques.json").read_text())
        doc["h3"]["torsion"] = ["HUGE"]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 4999))
        code, _, err = run(capsys, "ktheory", "--input", str(huge))
        assert code == 2
        assert "malformed cohomology file: top level:" in err

    def test_huge_free_rank_takes_under_a_second(self, capsys, tmp_path):
        # Free generators stay out of the Smith forms, whose transforms are
        # dense and square in the number of generators.
        doc = json.loads((DATA / "enriques.json").read_text())
        doc["h1"]["free_rank"] = 10**6
        doc["h1"]["torsion"] = [2] * 50
        doc["alpha"]["coords"] = [0]
        spec = tmp_path / "huge_free.json"
        spec.write_text(json.dumps(doc))
        started = time.perf_counter()
        code, out, _ = run(capsys, "ktheory", "--input", str(spec))
        elapsed = time.perf_counter() - started
        assert code == 0
        assert "K1 = Z^1000000 + " + " + ".join(["Z/2"] * 51) in out
        assert elapsed < 1.0

    def test_enriques_requires_twist_choice(self, capsys):
        code, _, err = run(capsys, "ktheory", "--enriques")
        assert code == 2
        assert "--twisted or --untwisted" in err

    def test_twist_flags_conflict_with_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "ktheory", "--input", str(DATA / "enriques.json"), "--twisted")
        assert code == 2


class TestLatticeCommand:
    @pytest.mark.parametrize(
        "name, rank, det, even",
        [
            ("u", 2, -1, True),
            ("e8", 8, 1, True),
            ("minus-e8", 8, 1, True),
            ("mukai-h2", 22, -1, True),
            ("mukai-full", 24, 1, True),
        ],
    )
    def test_info(self, capsys, name, rank, det, even):
        code, doc, _ = run_json(capsys, "lattice", "info", "--name", name, "--json")
        assert code == 0
        res = doc["result"]
        assert res["rank"] == rank
        assert res["det"] == det
        assert res["even"] is even
        assert len(res["gram"]) == rank

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "lattice", "info", "--name", "minus-e8")
        assert code == 0
        assert "negative definite" in out

    @pytest.mark.parametrize("name", ["minus-e8", "mukai-full"])
    def test_signature_computed_once(self, capsys, monkeypatch, name):
        import mukaitwist.intmat as intmat
        import mukaitwist.lattices as lattices

        calls = []
        real = intmat.signature_and_det

        def counted(gram):
            calls.append(gram)
            return real(gram)

        # One elimination gives both the signature and det: no other runs.
        monkeypatch.setattr("mukaitwist.cli.signature_and_det", counted)
        for module in (intmat, lattices):
            for attr in ("signature", "determinant"):
                monkeypatch.setattr(module, attr, lambda gram: pytest.fail("a second elimination ran"))
        code, doc, _ = run_json(capsys, "lattice", "info", "--name", name, "--json")
        assert code == 0
        assert len(calls) == 1
        monkeypatch.undo()
        assert doc["result"]["definiteness"] == lattices.definiteness_from_signature(lattices.signature(calls[0]))
        assert doc["result"]["det"] == lattices.determinant(calls[0])

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "info", "--name", "leech"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_claims_small_run(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "claims", "--trials", "25", "--seed", "1", "--json"
        )
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert names == ["square-congruence", "characteristic-congruence", "invariant-lattice"]
        assert all(c["passed"] for c in doc["checks"])

    def test_zero_trials_exhaustive_still_runs(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "claims", "--trials", "0", "--seed", "1", "--json"
        )
        assert code == 0
        square = doc["checks"][0]
        assert square["trials_run"] == 5775

    def test_deterministic_modulo_elapsed(self, capsys):
        _, doc1, _ = run_json(capsys, "verify", "claims", "--trials", "30", "--seed", "42", "--json")
        _, doc2, _ = run_json(capsys, "verify", "claims", "--trials", "30", "--seed", "42", "--json")
        doc1["elapsed_ms"] = doc2["elapsed_ms"] = 0
        assert doc1 == doc2

    def test_phi_integrality_small_run(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "verify", "phi-integrality", "--trials", "5", "--word-length", "4",
            "--seed", "2", "--json",
        )
        assert code == 0
        assert doc["checks"][0]["name"] == "phi-integrality"
        assert doc["config"]["word_length"] == 4

    def test_failure_maps_to_exit_one(self, capsys, monkeypatch):
        fake = VerificationReport(
            check_name="square-congruence",
            trials_run=1,
            counterexample={"ell": [0] * 22},
            elapsed_s=0.0,
        )
        monkeypatch.setattr(verify, "run_claims_suite", lambda cfg, jobs: [fake])
        monkeypatch.setattr("mukaitwist.cli.run_claims_suite", lambda cfg, jobs: [fake])
        code, out, _ = run(capsys, "verify", "claims", "--trials", "1")
        assert code == 1
        assert "FAILED" in out
        assert "counterexample" in out

    def test_failure_json_keeps_schema(self, capsys, monkeypatch):
        fake = VerificationReport(
            check_name="square-congruence",
            trials_run=1,
            counterexample={"ell": [0] * 22},
            elapsed_s=0.0,
        )
        monkeypatch.setattr("mukaitwist.cli.run_claims_suite", lambda cfg, jobs: [fake])
        code, doc, _ = run_json(capsys, "verify", "claims", "--trials", "1", "--json")
        assert code == 1
        assert doc["checks"][0]["counterexample"] == {"ell": [0] * 22}

    def test_negative_trials_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "claims", "--trials", "-5")
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize("suite", ["claims", "phi-integrality"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_usage_error(self, capsys, suite, seed):
        code, out, err = run(capsys, "verify", suite, "--trials", "1", "--seed", str(seed))
        assert code == 2
        assert "seed" in err
        assert out == ""

    @pytest.mark.parametrize("trials", ["0", "1"])
    @pytest.mark.parametrize(
        "suite, flag, value, field",
        [("claims", "--coord-bound", 2**63, "coord_bound"), ("phi-integrality", "--word-length", 2**64, "word_length")],
    )
    def test_value_past_prng_range_is_usage_error(self, capsys, trials, suite, flag, value, field):
        code, out, err = run(capsys, "verify", suite, "--trials", trials, flag, str(value))
        assert code == 2
        assert field in err
        assert out == ""

    # No phi trials: a word of length near 2**64 would never finish.
    @pytest.mark.parametrize(
        "suite, trials, flag, value",
        [("claims", "1", "--coord-bound", 2**63 - 1), ("phi-integrality", "0", "--word-length", 2**64 - 1)],
    )
    def test_largest_value_in_prng_range_is_accepted(self, capsys, suite, trials, flag, value):
        code, _, err = run(capsys, "verify", suite, "--trials", trials, flag, str(value))
        assert code == 0
        assert err == ""

    def test_negative_word_length_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "phi-integrality", "--word-length", "-1", "--trials", "1")
        assert code == 2
        assert "word_length" in err
        assert out == ""

    def test_invariant_lattice_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "solve", lambda basis, target: None)
        code, doc, _ = run_json(capsys, "verify", "claims", "--trials", "1", "--json")
        assert code == 1
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["invariant-lattice"]
        assert "not in the computed invariant lattice" in failed[0]["counterexample"]["reason"]


class TestInternalFaults:
    """Past the argument checks a fault in the program raises with its traceback: it is no usage error."""

    @pytest.fixture(autouse=True)
    def real_caches_afterwards(self):
        caches = (mukai.twisted_involution_matrix, verify._invariant_basis, verify._generator_pool)
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    def test_twist_that_is_not_an_isometry_raises(self, capsys, monkeypatch):
        twist = mukai.twisted_involution_coords

        def no_shift(x):
            """T without the r - a - b shift of s."""
            return (*twist(x)[:23], x[23])

        monkeypatch.setattr(mukai, "twisted_involution_coords", no_shift)
        monkeypatch.setattr(verify, "twisted_involution_coords", no_shift)
        with pytest.raises(ValueError, match="does not preserve the Gram form"):
            main(["verify", "claims", "--trials", "3", "--jobs", "1", "--json"])
        assert capsys.readouterr().out == ""

    def test_harvested_vector_that_fails_its_check_raises(self, capsys, monkeypatch):
        scan = verify.short_vectors

        def padded_scan(lattice, target, bound):
            bad = (2,) + (0,) * (lattice.rank - 1)
            return [tuple(-c for c in bad), *scan(lattice, target, bound), bad]

        monkeypatch.setattr(verify, "short_vectors", padded_scan)
        with pytest.raises(ValueError, match="reflection vector must have square"):
            main(["verify", "phi-integrality", "--trials", "3", "--jobs", "1", "--json"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("word_length", [-1, 2**64])
    def test_word_length_is_a_usage_error_before_any_pool(self, capsys, monkeypatch, word_length):
        monkeypatch.setattr(verify, "_generator_pool", lambda: pytest.fail("built the generator pool"))
        monkeypatch.setattr("mukaitwist.cli.verify_phi_integrality", lambda *a, **k: pytest.fail("ran the suite"))
        code, out, err = run(capsys, "verify", "phi-integrality", "--trials", "3", "--word-length", str(word_length))
        assert code == 2
        assert "word_length" in err
        assert out == ""


class TestJobsFlag:
    @pytest.mark.parametrize("suite", ["claims", "phi-integrality"])
    def test_report_does_not_depend_on_jobs(self, capsys, monkeypatch, suite):
        # Two usable CPUs, whatever the host has, so "--jobs 2" passes validation.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["verify", suite, "--trials", "300" if suite == "claims" else "20", "--seed", "7", "--json"]
        outs = [run(capsys, *argv, "--jobs", jobs)[1] for jobs in ("1", "2")]
        assert "jobs" not in outs[0]
        assert len({re.sub(r'"elapsed_ms": [0-9.]+', "", out) for out in outs}) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("suite", ["claims", "phi-integrality"])
    @pytest.mark.parametrize("jobs", ["0", "-1", "3"])
    def test_out_of_range_is_usage_error(self, capsys, monkeypatch, suite, jobs):
        # Two usable CPUs, whatever the host has: "3" is rejected by validation alone.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code, out, err = run(capsys, "verify", suite, "--trials", "1", "--jobs", jobs)
        assert code == 2
        assert "--jobs" in err and "[1, 2]" in err
        assert out == ""

    @pytest.mark.parametrize("cpus, default", [(1, 1), (2, 2), (3, 2), (64, 2)])
    def test_default_is_the_usable_cores_capped(self, capsys, monkeypatch, cpus, default):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        seen = []
        fake = VerificationReport("phi-integrality", 1, None, 0.0)
        monkeypatch.setattr("mukaitwist.cli.run_claims_suite", lambda cfg, jobs: seen.append(jobs) or [])
        monkeypatch.setattr("mukaitwist.cli.verify_phi_integrality", lambda cfg, word_length, jobs: seen.append(jobs) or fake)
        assert main(["verify", "claims", "--trials", "1"]) == 0
        assert main(["verify", "phi-integrality", "--trials", "1"]) == 0
        assert seen == [default, default]

    def test_default_without_sched_getaffinity_is_one(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        seen = []
        monkeypatch.setattr("mukaitwist.cli.run_claims_suite", lambda cfg, jobs: seen.append(jobs) or [])
        assert main(["verify", "claims", "--trials", "1"]) == 0
        assert seen == [1]
        code, _, err = run(capsys, "verify", "claims", "--trials", "1", "--jobs", "2")
        assert code == 2 and "--jobs" in err


# Modules the parallel runner must not load at `import mukaitwist.cli`:
# process pools and thread machinery, and the modules it imports only on a
# failure path.
RUNNER_ONLY_MODULES = ("multiprocessing", "concurrent.futures", "threading", "signal", "traceback")


def test_cli_import_loads_no_runner_module():
    code = "import sys, mukaitwist.cli; print(' '.join(sys.modules))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "mukaitwist.cli" in loaded
    assert not loaded.intersection(RUNNER_ONLY_MODULES)


# Standard-library modules no command needs at `import mukaitwist.cli`.
# fractions (and with it decimal) loads on the first rational computation.
COLD_START_UNUSED_MODULES = ("dataclasses", "inspect", "typing", "pathlib", "fractions", "decimal")


def test_cli_import_loads_only_what_the_commands_use():
    code = (
        "import sys, mukaitwist.cli; print(' '.join(sys.modules)); "
        "mukaitwist.canonical_b_field(); print(' '.join(sys.modules))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    at_import, after_b_field = (set(line.split()) for line in proc.stdout.splitlines())
    assert "mukaitwist.cli" in at_import
    assert not at_import.intersection(COLD_START_UNUSED_MODULES)
    assert "fractions" in after_b_field


def test_no_command_loads_fractions():
    # fractions and decimal load only for rational Mukai entries (BField, exp_b).
    commands = [["lattice", "info", "--name", name] for name in ("u", "e8", "minus-e8", "mukai-h2", "mukai-full")]
    commands += [
        ["ktheory", "--enriques", "--twisted"],
        ["ktheory", "--enriques", "--untwisted"],
        ["ktheory", "--input", str(DATA / "enriques.json")],
        ["verify", "claims", "--trials", "1", "--jobs", "1"],
        ["verify", "phi-integrality", "--trials", "1", "--jobs", "1"],
    ]
    code = (
        "import sys; from mukaitwist.cli import main; "
        f"codes = [main(argv) for argv in {commands!r}]; "
        "print(codes, ' '.join(sys.modules), file=sys.stderr)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    codes, loaded = proc.stderr.rsplit("]", 1)
    assert codes == "[" + ", ".join(["0"] * len(commands))
    assert "mukaitwist.cli" in loaded.split()
    assert not {"fractions", "decimal"}.intersection(loaded.split())


class TestArgparseBehavior:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "claims", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_ktheory_requires_source(self):
        with pytest.raises(SystemExit) as exc:
            main(["ktheory"])
        assert exc.value.code == 2


# Cohomology files for the golden report: repeated and mixed torsion factors
# in h3, free h3 generators, and twists that do and do not involve them all.
GOLDEN_SPECS = [
    {"h1": (0, []), "h2": (10, [2]), "h3": (0, [2, 2, 2, 4, 12]), "alpha": [1, 1, 0, 2, 3]},
    {"h1": (2, [3]), "h2": (4, []), "h3": (2, [2, 2, 6, 6, 6]), "alpha": [0, 0, 1, 0, 3, 2, 4]},
    {"h1": (0, [2, 4]), "h2": (1, [5]), "h3": (1, [3, 3, 9, 9, 27]), "alpha": [0, 1, 2, 3, 0, 9]},
    {"h1": (1, []), "h2": (0, []), "h3": (3, [4, 4, 8]), "alpha": [0, 0, 0, 0, 0, 0]},
    {"h1": (0, []), "h2": (2, [2]), "h3": (0, [2] * 6 + [6] * 4 + [12]), "alpha": [1] * 11},
    {"h1": (0, [6]), "h2": (3, []), "h3": (2, [5, 10, 10, 30]), "alpha": [0, 0, 4, 6, 5, 12]},
]


# sha256 of the concatenated reports below, recorded before the Smith form
# was rebuilt from alternating Hermite forms.
GOLDEN_DIGEST = "153c3c86f04a83abd260b81201db5211da664f1d8296de3de02a6bc605d7c977"


def _golden_file(path: Path, spec: dict) -> None:
    def group(free_rank, torsion):
        return {"free_rank": free_rank, "torsion": torsion}

    doc = {
        "h0": group(1, []),
        "h1": group(*spec["h1"]),
        "h2": group(*spec["h2"]),
        "h3": group(*spec["h3"]),
        "h4": group(1, []),
        "alpha": {"coords": spec["alpha"]},
    }
    path.write_text(json.dumps(doc))


class TestGoldenReports:
    def test_reports_are_unchanged(self, capsys, tmp_path, monkeypatch):
        # One digest over the JSON reports of every command, timings removed:
        # a change to the normal forms or the group arithmetic that moves any
        # reported byte fails here.
        monkeypatch.chdir(tmp_path)
        commands = []
        for i, spec in enumerate(GOLDEN_SPECS):
            _golden_file(tmp_path / f"spec{i}.json", spec)
            commands.append(["ktheory", "--input", f"spec{i}.json", "--json"])
        commands += [["ktheory", "--enriques", twist, "--json"] for twist in ("--twisted", "--untwisted")]
        commands += [
            ["lattice", "info", "--name", name, "--json"]
            for name in ("u", "e8", "minus-e8", "mukai-h2", "mukai-full")
        ]
        commands.append(["verify", "claims", "--trials", "300", "--seed", "7", "--json"])
        commands.append(["verify", "phi-integrality", "--trials", "20", "--seed", "7", "--json"])
        outputs = []
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            outputs.append(re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', out))
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        assert digest == GOLDEN_DIGEST
