"""Exact integer kernels.

Arbitrary precision throughout: ints in, ints out, or Fractions where a
vector entry is a Fraction. Nothing overflows or truncates.

``matvec``, ``bilinear`` and ``quadform`` take a matrix as its ``SparseRows``
(``IntMatrix.sparse_rows``), for each row the (j, a_ij) pairs with a_ij != 0,
and ``matvec`` returns a tuple. The Gram matrices of the standard lattices
have at most four nonzero entries per row (50 of 484 for mukai_h2), so a call
costs a few products per coordinate, not a pass over every entry.

Each form runs as one straight-line expression compiled for its matrix,
so no loop or pair is interpreted per call. For the rows of [[-2, 1], [1, -2]]:

    matvec:   lambda v: (-2*v[0] + v[1], v[0] + -2*v[1], )
    bilinear: lambda u, v: (u[0]*(-2*v[0] + v[1]) if u[0] else 0) + (u[1]*(v[0] + -2*v[1]) if u[1] else 0)

The text holds only indices and int literals. A form is compiled on its
first call and kept on the ``SparseRows`` that ``IntMatrix`` caches, so each
matrix compiles each form at most once, and importing the package compiles
nothing. A zero u[i] contributes nothing, so the value and type are those of
summing u_i (A v)_i over the nonzero u_i from the int 0. ``quadform`` is
``bilinear(v, v)``. ``matmul`` and ``norm_scan`` take flat row-major
sequences.

``norm_scan`` enumerates a box by meeting in the middle: it splits the
coordinates into a head and a tail half, matches the two halves' values of
the form through a dict, and sorts the hits once at the end, so a scan costs
about two half-boxes rather than the whole box.
"""
from itertools import product


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


def matvec(rows, v):
    """A v for the matrix A with the given SparseRows -> tuple, one entry per row."""
    return rows.matvec(v)


def bilinear(rows, u, v):
    """u^T G v for the symmetric matrix G with the given SparseRows."""
    return rows.bilinear(u, v)


def quadform(rows, v, _bilinear=bilinear):
    """v^T G v for the symmetric matrix G with the given sparse rows."""
    # bilinear is bound at definition, not looked up per call, so a caller
    # that rebinds the kernels' names (perfbench's tracer wraps every
    # binding) still sees one kernel call per quadform.
    return _bilinear(rows, v, v)


class SparseRows(tuple):
    """A matrix's sparse rows, holding its compiled matvec and bilinear forms.

    Each form is generated and compiled on its first use and kept as an
    instance attribute, so it is built once per matrix.
    """

    def __getattr__(self, name):
        build = _SOURCES.get(name)
        if build is None:
            raise AttributeError(name)
        form = self.__dict__[name] = _compile(build(self))
        return form

    def __reduce__(self):
        # The rows alone: a copy compiles its own forms on first use.
        return SparseRows, (tuple(self),)


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
    Q(v) = Q_head(a) + Q_tail(t) + key(a) . t, where key(a) holds
    2 sum_i g_ij a_i for each tail coordinate j that some head coordinate
    couples to. Heads are grouped by key. For each key one dict maps
    Q_tail(t) + key(a) . t to its tails, every head of the group looks up
    target - Q_head(a), and the dict is dropped before the next key, so
    memory stays linear in the two half-boxes plus the hits even when every
    head has its own key. Groups come out in no particular order; one sort at
    the end restores lex order.
    """
    xs = range(-bound, bound + 1)
    h = n // 2
    # Each tail coordinate (indexed within the tail) that some head coordinate
    # couples to, and the couplings (i, 2 g_ij) that make up its key entry.
    coupled, cols = [], []
    for j in range(h, n):
        col = [(i, 2 * g[i * n + j]) for i in range(h) if g[i * n + j]]
        if col:
            coupled.append(j - h)
            cols.append(col)
    groups = {}
    for a, qa in _half_box(g, n, 0, h, xs):
        key = tuple(sum(w * a[i] for i, w in col) for col in cols)
        groups.setdefault(key, []).append((a, qa))
    tails = _half_box(g, n, h, n, xs)
    hits = []
    for key, heads in groups.items():
        by_value = {}
        for t, qt in tails:
            by_value.setdefault(qt + sum(k * t[j] for k, j in zip(key, coupled)), []).append(t)
        for a, qa in heads:
            for t in by_value.get(target - qa, ()):
                hits.append(a + t)
    hits.sort()
    return hits
