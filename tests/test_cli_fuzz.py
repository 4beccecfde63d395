"""Fuzz the command line at its input boundary, through cli.run.

cli.run turns an internal fault into exit 70 with a traceback, so a fault
cannot pass as a usage error: every fuzzed input must exit 0, or 2 with a
message that names the bad field, print no traceback and finish within a
time budget.
"""
import contextlib
import io
import json
import re
import time
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mukaitwist.cli import run, usable_cores

DATA = Path(__file__).resolve().parent.parent / "src" / "mukaitwist" / "data"
ENRIQUES = json.loads((DATA / "enriques.json").read_text())
BUDGET_S = 2.0
GROUPS = ("h0", "h1", "h2", "h3", "h4")
FIELD = re.compile(r"error: malformed cohomology file: (top level|alpha|h[0-4])(\.\w+)?: ")


def _run(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refuses the vector
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


# ---------------------------------------------------------------- ktheory


class Splice:
    """A JSON value written as raw text, one json.dumps cannot write: a huge integer or deep nesting."""

    def __init__(self, text: str):
        self.text = text


class Nest:
    """Wrap the value at a path in a list or an object."""

    def __init__(self, as_list: bool):
        self.as_list = as_list


DROP = object()
PATHS = [(g,) for g in GROUPS] + [
    (g, key) for g in GROUPS for key in ("free_rank", "torsion", "bogus")
] + [(g, "torsion", 0) for g in GROUPS] + [
    ("alpha",), ("alpha", "coords"), ("alpha", "coords", 0), ("alpha", "bogus"), ("bogus",)
]
HUGE = st.builds(
    lambda sign, lead, n: Splice(sign + str(lead) + "7" * (n - 1)),
    st.sampled_from(["", "-"]),
    st.integers(1, 9),
    st.integers(4290, 4310),
)
DEEP = st.builds(
    lambda depth, as_list: Splice("[" * depth + "1" + "]" * depth if as_list else '{"a":' * depth + "1" + "}" * depth),
    st.integers(1, 50_000),
    st.booleans(),
)
WRONG = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False), st.text(max_size=3)),
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(["free_rank", "x"]), kids, max_size=2)),
    max_leaves=6,
)
EDIT_VALUES = st.one_of(st.just(DROP), WRONG, HUGE, DEEP, st.builds(Nest, st.booleans()))
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"])


def _edit(doc, path, value, splices: list[str]) -> None:
    """Set, drop or nest the value at path; a list is edited at its first entry, if it has one."""
    target = doc
    for key in path[:-1]:
        target = target.get(key) if isinstance(target, dict) else None
    if isinstance(target, dict):
        key = path[-1]
    elif isinstance(target, list):
        key = 0
        if not target:
            if value is DROP:
                return
            target.append(None)
    else:
        return
    if value is DROP:
        target.pop(key, None) if isinstance(target, dict) else target.pop(key)
        return
    if isinstance(value, Nest):
        old = target.get(key) if isinstance(target, dict) else target[key]
        value = [old] if value.as_list else {"free_rank": old}
    elif isinstance(value, Splice):
        splices.append(value.text)
        value = f"\x00splice{len(splices) - 1}\x00"
    target[key] = value


@st.composite
def mutated_texts(draw) -> bytes:
    """enriques.json with up to three fields edited, each by a splice at most, then bytes corrupted or cut."""
    doc, splices = json.loads(json.dumps(ENRIQUES)), []
    for path, value in draw(st.lists(st.tuples(st.sampled_from(PATHS), EDIT_VALUES), min_size=1, max_size=3)):
        _edit(doc, path, value, splices)
    text = json.dumps(doc)
    for i, splice in enumerate(splices):
        text = text.replace(json.dumps(f"\x00splice{i}\x00"), splice)
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    corrupt = draw(st.sampled_from(["none", "insert", "cut"]))
    if corrupt == "insert":
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    elif corrupt == "cut":
        data = data[:at]
    return data


@st.composite
def chains(draw) -> list[int]:
    """A divisibility chain of up to three factors, each under 4,300 digits."""
    factors, d = [], 1
    for m in draw(st.lists(st.integers(2, 10**1400), max_size=3)):
        d *= m
        factors.append(d)
    return factors


@st.composite
def large_k1_documents(draw) -> bytes:
    """A valid document whose K1 = H1 + H3/<alpha> carries large factors from both h1 and h3."""
    doc = {g: {"free_rank": draw(st.integers(0, 3)), "torsion": draw(chains())} for g in GROUPS}
    h3 = doc["h3"]
    coords = [draw(st.integers(-(10**4000), 10**4000)) for _ in h3["torsion"]]
    doc["alpha"] = {"coords": [0] * h3["free_rank"] + coords}
    return json.dumps(doc).encode()


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.one_of(mutated_texts(), large_k1_documents()), st.booleans())
@example(  # ROADMAP item 3's probe: a K1 of 7,915 digits from two factors under the input limit
    json.dumps(
        {**ENRIQUES, "h1": {"free_rank": 0, "torsion": [10**4000 + 3]}, "h3": {"free_rank": 0, "torsion": [2**13000]}, "alpha": {"coords": [0]}}
    ).encode(),
    False,
)
def test_ktheory_input_exits_0_or_2_naming_the_field(tmp_path, data, as_json):
    path = tmp_path / "enriques.json"
    path.write_bytes(data)
    code, out, err, elapsed = _run(["ktheory", "--input", str(path), *(["--json"] if as_json else [])])
    assert "Traceback" not in err
    assert code in (0, 2), err[-2000:]
    if code == 2:
        assert FIELD.match(err), err[:300]
        assert out == ""
    else:
        assert err == "" and out
    assert elapsed < BUDGET_S


# ---------------------------------------------------------------- verify

# Each option's valid and invalid values. A valid count or length stays
# small: a huge valid --trials or --word-length runs for minutes.
NON_INTS = st.sampled_from(["x", "1.5", "", "-x"])


def _values(valid, *out_of_range):
    return valid.map(str), st.one_of(*(s.map(str) for s in out_of_range), NON_INTS)


# _run_verify refuses a --jobs above the usable CPUs before it starts any
# process, so no draw forks more than one worker.
JOBS = ["-1", "0", "1", "2", str(2**70), "x"]
VALID_JOBS = [s for s in JOBS if s.isdigit() and int(s) <= usable_cores() and s != "0"]
OPTIONS = {
    "--trials": _values(st.integers(0, 2), st.integers(max_value=-1)),
    "--seed": _values(st.integers(0, 2**64 - 1), st.integers(max_value=-1), st.integers(min_value=2**64)),
    "--coord-bound": _values(st.integers(1, 2**63 - 1), st.integers(max_value=0), st.integers(min_value=2**63)),
    "--word-length": _values(st.integers(0, 8), st.integers(max_value=-1), st.integers(min_value=2**64)),
    "--jobs": (st.sampled_from(VALID_JOBS), st.sampled_from([s for s in JOBS if s not in VALID_JOBS])),
}
# How a message names each option's field: argparse by the flag, the checks by the keyword.
NAMES = {"--trials": "trials", "--seed": "seed", "--coord-bound": "coord.bound", "--word-length": "word.length", "--jobs": "jobs"}


@st.composite
def verify_vectors(draw) -> tuple[list[str], list[str]]:
    """A verify argument vector, and the fields in it that are invalid; half the vectors are valid throughout."""
    suite = draw(st.sampled_from(["claims", "phi-integrality"]))
    flags = ["--seed", "--jobs", "--coord-bound" if suite == "claims" else "--word-length"]
    # --trials is always given: the default runs 100,000 trials.
    flags = ["--trials"] + [flag for flag in flags if draw(st.booleans())]
    all_valid = draw(st.booleans())
    argv, invalid = ["verify", suite], []
    for flag in draw(st.permutations(flags)):
        valid, wrong = OPTIONS[flag]
        is_valid = all_valid or draw(st.booleans())
        argv += [flag, draw(valid if is_valid else wrong)]
        if not is_valid:
            invalid.append(NAMES[flag])
    if draw(st.booleans()):
        argv.append("--json")
    return argv, invalid


@settings(max_examples=60)
@given(verify_vectors())
def test_verify_arguments_exit_0_or_2_naming_an_invalid_field(vector):
    argv, invalid = vector
    code, out, err, elapsed = _run(argv)
    assert "Traceback" not in err
    if invalid:
        assert code == 2, (argv, err)
        assert any(re.search(name, err) for name in invalid), (argv, invalid, err)
        assert out == ""
    else:
        assert code == 0 and err == "", (argv, err)
        assert out
    assert elapsed < BUDGET_S
