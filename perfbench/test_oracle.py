"""Tests for the benchmark's independent checks: each accepts a correct output
and rejects a corrupted one.

    python3 -m pytest perfbench
"""
import copy
import json
import random
import sys
from pathlib import Path

import pytest

import oracle
import run

ROOT = Path(__file__).resolve().parent.parent
IDENTITY = [[1 if i == j else 0 for j in range(24)] for i in range(24)]


def claims_doc(trials: int) -> dict:
    return {
        "checks": [
            {"name": "square-congruence", "passed": True, "trials_run": trials + 5775},
            {"name": "characteristic-congruence", "passed": True, "trials_run": trials},
            {"name": "invariant-lattice", "passed": True, "trials_run": 6},
        ]
    }


def own_squares(classes):
    out = []
    for ell in classes:
        v = (0, *ell, 0)
        d = tuple(a + b for a, b in zip(v, oracle.twisted_involution(v)))
        out.append(oracle.pairing(oracle.FULL_GRAM, d, d))
    return out


def test_pinned_forms():
    assert oracle.determinant(oracle.E8) == 1
    assert oracle.determinant(oracle.H2_GRAM) == -1
    assert oracle.determinant(oracle.FULL_GRAM) == 1
    assert oracle.matmul(oracle.T_MATRIX, oracle.T_MATRIX) == IDENTITY
    t = oracle.T_MATRIX
    assert oracle.matmul(oracle.matmul(oracle.transpose(t), oracle.FULL_GRAM), t) == oracle.FULL_GRAM


def test_claims_check_accepts_and_rejects():
    classes = oracle.sample_classes(7, 5)
    squares = own_squares(classes)
    assert oracle.check_claims(claims_doc(100), 100, classes, squares) == []

    flipped = claims_doc(100)
    flipped["checks"][1]["passed"] = False
    assert any("did not pass" in p for p in oracle.check_claims(flipped, 100, classes, squares))

    short = claims_doc(100)
    short["checks"][0]["trials_run"] = 100
    assert any("trials_run" in p for p in oracle.check_claims(short, 100, classes, squares))

    wrong = squares[:-1] + [squares[-1] + 4]
    assert any("library square" in p for p in oracle.check_claims(claims_doc(100), 100, classes, wrong))


def test_phi_check_accepts_and_rejects():
    doc = {"checks": [{"name": "phi-integrality", "passed": True, "trials_run": 30}]}
    words = [IDENTITY, oracle.T_MATRIX]
    assert oracle.check_phi(doc, 30, words) == []

    flipped = copy.deepcopy(doc)
    flipped["checks"][0]["passed"] = False
    assert any("did not pass" in p for p in oracle.check_phi(flipped, 30, words))
    assert any("trials_run" in p for p in oracle.check_phi(doc, 31, words))

    odd = copy.deepcopy(IDENTITY)
    odd[5][23] = 1  # phi(0,0,1) gains an odd degree-2 coordinate
    problems = oracle.check_phi(doc, 30, [odd])
    assert any("odd degree-2" in p for p in problems)
    assert any("preserve" in p for p in problems)


def test_invariant_factors_match_hand_computation():
    # Z/2 + (Z/4 / <2>) = Z/2 + Z/2
    spec = {"h1": {"free_rank": 1, "torsion": [2]}, "h3": {"free_rank": 0, "torsion": [4]}, "alpha": {"coords": [2]}}
    assert oracle.expected_k1(spec) == {"free_rank": 1, "torsion": [2, 2]}
    # (Z/2 + Z/4) / <(1, 1)> = Z/2
    spec = {"h1": {"free_rank": 0, "torsion": []}, "h3": {"free_rank": 2, "torsion": [2, 4]}, "alpha": {"coords": [0, 0, 1, 1]}}
    assert oracle.expected_k1(spec) == {"free_rank": 2, "torsion": [2]}
    assert oracle.invariant_factors([[2, 0, 1], [0, 6, 3]]) == [1, 6]


def test_ktheory_check_accepts_and_rejects():
    spec = {"h1": {"free_rank": 1, "torsion": [3]}, "h3": {"free_rank": 0, "torsion": [2, 4]}, "alpha": {"coords": [1, 2]}}
    want = oracle.expected_k1(spec)
    assert oracle.check_ktheory(spec, {"result": {"k1": want}}) == []
    assert oracle.check_ktheory(spec, {"result": {"k1": dict(want, torsion=[3])}})
    assert oracle.check_ktheory(spec, {"result": {"k1": dict(want, free_rank=0)}})


def test_enriques_check_accepts_and_rejects():
    twisted = {"result": {"k1": {"free_rank": 0, "torsion": []}}}
    untwisted = {"result": {"k1": {"free_rank": 0, "torsion": [2]}}}
    assert oracle.check_enriques(True, twisted) == []
    assert oracle.check_enriques(False, untwisted) == []
    assert oracle.check_enriques(True, untwisted)
    assert oracle.check_enriques(False, twisted)


def lattice_doc(name: str) -> dict:
    rank, det, even, (pos, zero, neg), definiteness = oracle.LATTICES[name]
    return {
        "result": {
            "rank": rank,
            "det": det,
            "even": even,
            "definiteness": definiteness,
            "signature": {"positive": pos, "zero": zero, "negative": neg},
        }
    }


@pytest.mark.parametrize("name", sorted(oracle.LATTICES))
def test_lattice_check_accepts_and_rejects(name):
    assert oracle.check_lattice(name, lattice_doc(name)) == []
    wrong = lattice_doc(name)
    wrong["result"]["signature"]["positive"] += 1
    assert oracle.check_lattice(name, wrong)


def test_malformed_check_accepts_and_rejects():
    stderr = "error: malformed cohomology file: h1.free_rank: expected a non-negative integer\n"
    assert oracle.check_malformed("h1.free_rank", 2, stderr) == []
    assert oracle.check_malformed("h1.free_rank", 1, stderr)
    assert oracle.check_malformed("h2", 2, stderr)


def test_generated_files_against_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    from mukaitwist import CohomologySpec, SpecFormatError, k1_surface

    rng = random.Random(3)
    for _ in range(100):
        spec = oracle.cohomology(rng)
        k1 = k1_surface(CohomologySpec.from_dict(json.loads(json.dumps(spec))))
        assert oracle.check_ktheory(spec, {"result": {"k1": k1.to_dict()}}) == []
    for breaker in oracle.MALFORMATIONS:
        doc = oracle.cohomology(rng)
        field = breaker(doc)
        with pytest.raises(SpecFormatError) as info:
            CohomologySpec.from_dict(json.loads(json.dumps(doc)))
        assert str(info.value).startswith(f"{field}:")


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
