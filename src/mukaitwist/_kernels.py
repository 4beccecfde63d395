"""Exact integer kernels.

Arbitrary precision throughout: ints in, ints out, or Fractions where a
vector entry is a Fraction. Nothing overflows or truncates.

``matvec``, ``bilinear`` and ``quadform`` take an ``IntMatrix`` and run the
forms it keeps in its ``matvec`` and ``bilinear`` slots; ``matvec`` returns a
tuple. A form reads only the nonzero entries a_ij of its matrix. The Gram
matrices of the standard lattices have at most four per row (50 of 484 for
mukai_h2), so a call costs a few products per coordinate, not a pass over
every entry.

Each form runs as one straight-line expression compiled for its matrix,
so no loop or pair is interpreted per call. For the rows of [[-2, 1], [1, -2]]:

    matvec:   lambda v: (-2*v[0] + v[1], v[0] + -2*v[1], )
    bilinear: lambda u, v: (u[0]*(-2*v[0] + v[1]) if u[0] else 0) + (u[1]*(v[0] + -2*v[1]) if u[1] else 0)

The text holds only indices and int literals. ``compile_form`` builds a
form from the matrix's dimensions and flat entries on its first use, and the
matrix keeps it in a slot that, like its entries, refuses assignment. So each
matrix compiles each form at most once, and importing the package compiles
nothing; this module imports nothing from the package. A zero u[i]
contributes nothing, so the value and type are those of summing u_i (A v)_i
over the nonzero u_i from the int 0. ``quadform`` is ``bilinear(v, v)``.
``matmul`` and ``norm_scan`` take flat row-major sequences.

``norm_scan`` enumerates a box by meeting in the middle: it splits the
coordinates into a head and a tail half and files every tail once, in lex
order, in one index by its coupled coordinates and its value of the form.
Each head, taken in lex order, looks its partners up there, so the hits come
out in lex order with no final sort, and a scan costs the head half-box times
the tails' distinct coupled parts rather than the whole box.
"""
from itertools import product
from operator import mul


def matmul(a, b, n, k, m):
    """(n x k) @ (k x m) -> flat list of length n*m."""
    out = [0] * (n * m)
    for i in range(n):
        ai = i * k
        row = [0] * m
        for t in range(k):
            at = a[ai + t]
            if at:
                bt = t * m
                for j in range(m):
                    v = b[bt + j]
                    if v:
                        row[j] += at * v
        out[i * m : (i + 1) * m] = row
    return out


def matvec(m, v):
    """A v for the IntMatrix A -> tuple, one entry per row."""
    return m.matvec(v)


def bilinear(m, u, v):
    """u^T G v for the symmetric IntMatrix G."""
    return m.bilinear(u, v)


def quadform(m, v, _bilinear=bilinear):
    """v^T G v for the symmetric IntMatrix G."""
    # bilinear is bound at definition, not looked up per call, so a caller
    # that rebinds the kernels' names (perfbench's tracer wraps every
    # binding) still sees one kernel call per quadform.
    return _bilinear(m, v, v)


def compile_form(name, rows, cols, flat):
    """The form name, "matvec" or "bilinear", compiled for the rows x cols matrix of these flat entries."""
    sparse = [[(j, a) for j, a in enumerate(flat[i * cols : (i + 1) * cols]) if a] for i in range(rows)]
    return _compile(_SOURCES[name](sparse))


def _compile(source):
    """The function of one generated lambda; its text holds only indices and int literals."""
    return eval(source, {"__builtins__": {}})


_CHUNK = 64  # terms per flat sum: the compiler recurses once per nested +


def _sum(terms):
    """The text of the sum of the terms' texts, as a tree of short flat sums; '0' for none."""
    while len(terms) > _CHUNK:
        terms = [f"({' + '.join(terms[k : k + _CHUNK])})" for k in range(0, len(terms), _CHUNK)]
    return " + ".join(terms) or "0"


def _dot(row):
    """The text of sum_j a_j v[j] over one sparse row."""
    return _sum([("" if a == 1 else "-" if a == -1 else f"{a}*") + f"v[{j}]" for j, a in row])


def _matvec_source(rows):
    return f"lambda v: ({''.join(_dot(row) + ', ' for row in rows)})"


def _bilinear_source(rows):
    terms = [f"(u[{i}]*({_dot(row)}) if u[{i}] else 0)" for i, row in enumerate(rows)]
    return f"lambda u, v: {_sum(terms)}"


_SOURCES = {"matvec": _matvec_source, "bilinear": _bilinear_source}


def _half_box(g, n, lo, hi, xs):
    """Every v in the box over coordinates lo..hi-1, in lex order, with its Q(v)."""
    terms = [
        (i - lo, j - lo, g[i * n + j] if i == j else 2 * g[i * n + j])
        for i in range(lo, hi)
        for j in range(i, hi)
        if g[i * n + j]
    ]
    return [(v, sum(w * v[i] * v[j] for i, j, w in terms)) for v in product(xs, repeat=hi - lo)]


def norm_scan(g, n, target, bound):
    """All v in the box [-bound, bound]^n with v^T G v == target, in lex order.

    Meet in the middle (Horowitz-Sahni): v splits into a head a over
    coordinates 0..h-1, h = n // 2, and a tail t over h..n-1, and
    Q(v) = Q_head(a) + Q_tail(t) + key(a) . proj(t), where proj(t) holds t's
    entries on the tail coordinates that some head coordinate couples to and
    key(a) holds 2 sum_i g_ij a_i for each of them. One index, built once,
    files every tail in lex order under its proj and then under its Q_tail.
    Each head, in lex order, looks up target - Q_head(a) - key(a) . proj in
    each projection's dict; its own few tails are sorted and a + t appended,
    so the hits come out in lex order with no sort of the whole list. Memory
    stays linear in the two half-boxes plus the hits; the time is the head
    half-box times the number of projections, at most the whole box when
    every tail has its own projection.
    """
    xs = range(-bound, bound + 1)
    h = n // 2
    # The tail coordinates that some head coordinate couples to.
    coupled = [j for j in range(h, n) if any(g[i * n + j] for i in range(h))]
    index = {}
    for t, qt in _half_box(g, n, h, n, xs):
        index.setdefault(tuple(t[j - h] for j in coupled), {}).setdefault(qt, []).append(t)
    hits = []
    for a, qa in _half_box(g, n, 0, h, xs):
        key = [2 * sum(g[i * n + j] * a[i] for i in range(h)) for j in coupled]
        found = []
        for proj, by_q in index.items():
            found += by_q.get(target - qa - sum(map(mul, key, proj)), ())
        hits += [a + t for t in sorted(found)]
    return hits
