import json
import time
from pathlib import Path

import jsonschema
import pytest

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

    def test_malformed_file_names_field(self, capsys, tmp_path):
        doc = json.loads((DATA / "enriques.json").read_text())
        doc["h3"]["torsion"] = [3, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ktheory", "--input", str(bad))
        assert code == 2
        assert "h3.torsion" in err

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
            passed=False,
            counterexample={"ell": [0] * 22},
            config={},
            elapsed_s=0.0,
        )
        monkeypatch.setattr(verify, "run_claims_suite", lambda cfg: [fake])
        monkeypatch.setattr("mukaitwist.cli.run_claims_suite", lambda cfg: [fake])
        code, out, _ = run(capsys, "verify", "claims", "--trials", "1")
        assert code == 1
        assert "FAILED" in out
        assert "counterexample" in out

    def test_failure_json_keeps_schema(self, capsys, monkeypatch):
        fake = VerificationReport(
            check_name="square-congruence",
            trials_run=1,
            passed=False,
            counterexample={"ell": [0] * 22},
            config={},
            elapsed_s=0.0,
        )
        monkeypatch.setattr("mukaitwist.cli.run_claims_suite", lambda cfg: [fake])
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

    def test_invariant_lattice_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "solve", lambda basis, target: None)
        code, doc, _ = run_json(capsys, "verify", "claims", "--trials", "1", "--json")
        assert code == 1
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["invariant-lattice"]
        assert "not in the computed invariant lattice" in failed[0]["counterexample"]["reason"]


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
