"""Independent arithmetic and output checks for the benchmark.

Nothing here imports mukaitwist. The Gram forms are rebuilt from the pinned
convention (E8 Dynkin Gram with nodes 1..7 in a chain and node 8 on node 5;
mukai_h2 = -E8 + -E8 + U + U + U; the full lattice adds H0 and H4 with the
pairing c.c' - r s' - r' s), the twisted involution is its closed form, and
group invariants come from determinantal divisors. Every check returns a list
of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

H2_RANK = 22
FULL_RANK = 24
SWEEP_CASES = comb(H2_RANK, 2) * 25  # two nonzero coordinates, entries in [-2, 2]
SPOT_CLASSES = 64  # degree-2 classes re-checked per claims run
SPOT_WORDS = 8  # equivariant words re-checked per phi run


def _e8_gram() -> list[list[int]]:
    g = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
        g[i][j] = g[j][i] = -1
    return g


def _block_sum(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


E8 = _e8_gram()
MINUS_E8 = [[-x for x in row] for row in E8]
U = [[0, 1], [1, 0]]
H2_GRAM = _block_sum([MINUS_E8, MINUS_E8, U, U, U])
# Coordinates (r, c_1..c_22, s): the H0/H4 pair enters as -r s' - r' s.
FULL_GRAM = _block_sum([[[0]], H2_GRAM, [[0]]])
FULL_GRAM[0][FULL_RANK - 1] = FULL_GRAM[FULL_RANK - 1][0] = -1


def pairing(gram: list[list[int]], u, v) -> int:
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) if u[i] for j in range(len(v)) if gram[i][j])


def twisted_involution(v) -> tuple[int, ...]:
    """T(r, (x, y, z1, z2, (a, b)), s) = (r, (y, x, z2, z1, (r - a, r - b)), s - a - b + r)."""
    r, c, s = v[0], v[1:23], v[23]
    a, b = c[20], c[21]
    return (r, *c[8:16], *c[0:8], *c[18:20], *c[16:18], r - a, r - b, s - a - b + r)


def _unit(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


T_MATRIX = [list(row) for row in zip(*(twisted_involution(_unit(i, FULL_RANK)) for i in range(FULL_RANK)))]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def determinant(a: list[list[int]]) -> int:
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return int(det)


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Invariant factors d_k / d_(k-1), with d_k the gcd of all k x k minors."""
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        d = 0
        for ri in combinations(range(n_rows), k):
            for ci in combinations(range(n_cols), k):
                d = gcd(d, determinant([[rows[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


# ---------------------------------------------------------------- seeded inputs


def sample_classes(seed: int, count: int = SPOT_CLASSES, bound: int = 50) -> list[list[int]]:
    """Degree-2 classes for the square-congruence spot check."""
    rng = random.Random(f"classes-{seed}")
    return [[rng.randint(-bound, bound) for _ in range(H2_RANK)] for _ in range(count)]


def sample_word_seeds(seed: int, count: int = SPOT_WORDS) -> list[int]:
    rng = random.Random(f"words-{seed}")
    return [rng.getrandbits(64) for _ in range(count)]


def _chain(rng: random.Random, length: int) -> list[int]:
    chain = []
    d = 1
    for _ in range(length):
        d *= rng.choice((2, 2, 3, 4, 5, 6))
        chain.append(d)
    return chain


def _group(rng: random.Random, max_free: int, max_torsion: int) -> dict:
    return {"free_rank": rng.randint(0, max_free), "torsion": _chain(rng, rng.randint(0, max_torsion))}


def cohomology(rng: random.Random) -> dict:
    """A valid cohomology file: small torsion chains and a torsion twist class."""
    h3 = _group(rng, 2, 3)
    if not h3["torsion"]:
        h3["torsion"] = _chain(rng, 1)
    alpha = [0] * h3["free_rank"] + [rng.randrange(d) for d in h3["torsion"]]
    return {
        "h0": {"free_rank": 1, "torsion": []},
        "h1": _group(rng, 2, 2),
        "h2": _group(rng, 12, 2),
        "h3": h3,
        "h4": {"free_rank": 1, "torsion": []},
        "alpha": {"coords": alpha},
    }


def _break_missing(doc: dict) -> str:
    del doc["h2"]
    return "h2"


def _break_free_rank(doc: dict) -> str:
    doc["h1"]["free_rank"] = -1
    return "h1.free_rank"


def _break_chain(doc: dict) -> str:
    doc["h3"]["torsion"] = [3, 4]
    doc["alpha"]["coords"] = [0] * (doc["h3"]["free_rank"] + 2)
    return "h3.torsion"


def _break_alpha_length(doc: dict) -> str:
    doc["alpha"]["coords"].append(0)
    return "alpha.coords"


def _break_alpha_type(doc: dict) -> str:
    doc["alpha"]["coords"][-1] = "1"
    return "alpha.coords"


def _break_unknown_key(doc: dict) -> str:
    doc["h4"]["rank"] = 1
    return "h4"


def _break_alpha_free(doc: dict) -> str:
    doc["h3"]["free_rank"] += 1
    doc["alpha"]["coords"].insert(0, 1)
    return "alpha"


MALFORMATIONS = (
    _break_missing,
    _break_free_rank,
    _break_chain,
    _break_alpha_length,
    _break_alpha_type,
    _break_unknown_key,
    _break_alpha_free,
)


def malformed_cohomology(rng: random.Random) -> tuple[dict, str]:
    """A cohomology file with one bad field, and the field the error must name."""
    doc = cohomology(rng)
    return doc, rng.choice(MALFORMATIONS)(doc)


# ---------------------------------------------------------------- output checks


def check_claims(doc: dict, trials: int, classes: list[list[int]], library_squares: list[int]) -> list[str]:
    """The claims report passes with the expected trial counts; (l + Tl)^2 = 0 mod 4."""
    problems = []
    checks = {c["name"]: c for c in doc.get("checks", [])}
    expected = {"square-congruence": trials + SWEEP_CASES, "characteristic-congruence": trials}
    for name in ("square-congruence", "characteristic-congruence", "invariant-lattice"):
        check = checks.get(name)
        if check is None:
            problems.append(f"{name}: missing from the report")
            continue
        if check.get("passed") is not True:
            problems.append(f"{name}: did not pass")
        if name in expected and check.get("trials_run") != expected[name]:
            problems.append(f"{name}: trials_run {check.get('trials_run')} != {expected[name]}")
    if len(classes) != len(library_squares):
        problems.append("square spot check: sample size mismatch")
    for ell, library in zip(classes, library_squares):
        v = (0, *ell, 0)
        doubled = tuple(a + b for a, b in zip(v, twisted_involution(v)))
        square = pairing(FULL_GRAM, doubled, doubled)
        if square % 4:
            problems.append(f"(l + Tl)^2 = {square} is not 0 mod 4 for l = {ell}")
        if square != library:
            problems.append(f"library square {library} != {square} for l = {ell}")
    return problems


def check_phi(doc: dict, words: int, matrices: list[list[list[int]]]) -> list[str]:
    """The phi report passes; sampled words are T-equivariant isometries with even phi(0,0,1)."""
    problems = []
    checks = doc.get("checks", [])
    if len(checks) != 1 or checks[0].get("name") != "phi-integrality":
        return ["phi-integrality: missing from the report"]
    if checks[0].get("passed") is not True:
        problems.append("phi-integrality: did not pass")
    if checks[0].get("trials_run") != words:
        problems.append(f"phi-integrality: trials_run {checks[0].get('trials_run')} != {words}")
    for k, m in enumerate(matrices):
        if matmul(matmul(transpose(m), FULL_GRAM), m) != FULL_GRAM:
            problems.append(f"word {k}: does not preserve the Mukai pairing")
        if matmul(m, T_MATRIX) != matmul(T_MATRIX, m):
            problems.append(f"word {k}: does not commute with T")
        image = [row[FULL_RANK - 1] for row in m]
        odd = [i for i in range(1, 23) if image[i] % 2]
        if odd:
            problems.append(f"word {k}: phi(0,0,1) has odd degree-2 coordinates {odd}")
    return problems


def expected_k1(spec: dict) -> dict:
    """K1 = H1 + H3/<alpha> from determinantal divisors of its presentation."""
    h1, h3 = spec["h1"], spec["h3"]
    alpha = spec["alpha"]["coords"][h3["free_rank"] :]
    t1, t3 = len(h1["torsion"]), len(h3["torsion"])
    # Rows: torsion generators of H1 then of H3; columns: relations.
    rows = [[0] * (t1 + t3 + 1) for _ in range(t1 + t3)]
    for i, d in enumerate(h1["torsion"] + h3["torsion"]):
        rows[i][i] = d
    for i, a in enumerate(alpha):
        rows[t1 + i][t1 + t3] = a
    torsion = [d for d in invariant_factors(rows) if d > 1] if rows else []
    return {"free_rank": h1["free_rank"] + h3["free_rank"], "torsion": torsion}


def check_ktheory(spec: dict, doc: dict) -> list[str]:
    k1 = doc.get("result", {}).get("k1", {})
    want = expected_k1(spec)
    problems = []
    if k1.get("free_rank") != want["free_rank"]:
        problems.append(f"K1 free rank {k1.get('free_rank')} != rank H1 + rank H3 = {want['free_rank']}")
    if k1.get("torsion") != want["torsion"]:
        problems.append(f"K1 torsion {k1.get('torsion')} != determinantal divisors {want['torsion']}")
    return problems


ENRIQUES_K1 = {True: {"free_rank": 0, "torsion": []}, False: {"free_rank": 0, "torsion": [2]}}


def check_enriques(twisted: bool, doc: dict) -> list[str]:
    k1 = doc.get("result", {}).get("k1", {})
    got = {"free_rank": k1.get("free_rank"), "torsion": k1.get("torsion")}
    want = ENRIQUES_K1[twisted]
    return [] if got == want else [f"Enriques K1 ({'twisted' if twisted else 'untwisted'}) {got} != {want}"]


# name: (rank, det, even, (positive, zero, negative), definiteness)
LATTICES = {
    "u": (2, -1, True, (1, 0, 1), "indefinite"),
    "e8": (8, 1, True, (8, 0, 0), "positive definite"),
    "minus-e8": (8, 1, True, (0, 0, 8), "negative definite"),
    "mukai-h2": (22, -1, True, (3, 0, 19), "indefinite"),
    "mukai-full": (24, 1, True, (4, 0, 20), "indefinite"),
}


def check_lattice(name: str, doc: dict) -> list[str]:
    result = doc.get("result", {})
    sig = result.get("signature", {})
    got = (
        result.get("rank"),
        result.get("det"),
        result.get("even"),
        (sig.get("positive"), sig.get("zero"), sig.get("negative")),
        result.get("definiteness"),
    )
    want = LATTICES[name]
    return [] if got == want else [f"lattice {name}: (rank, det, even, signature, definiteness) {got} != {want}"]


def check_malformed(field: str, returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode != 2:
        problems.append(f"malformed file ({field}): exit code {returncode} != 2")
    if f"{field}:" not in stderr:
        problems.append(f"malformed file: stderr does not name {field}: {stderr.strip()!r}")
    return problems
