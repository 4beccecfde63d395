"""Exact integer kernels.

Arbitrary precision throughout: ints in, ints out, or Fractions where a
vector entry is a Fraction. Nothing overflows or truncates.

``matvec``, ``bilinear`` and ``quadform`` read a matrix as its sparse rows
(``IntMatrix.sparse_rows``): for each row, the (j, a_ij) pairs with
a_ij != 0. The Gram matrices of the standard lattices have at most four
nonzero entries per row (50 of 484 for mukai_h2), so a call costs a few
products per coordinate, not a pass over every entry. ``matmul`` and
``norm_scan`` take flat row-major sequences.
"""


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
    """A v for the matrix A with the given sparse rows -> list, one entry per row."""
    out = []
    for row in rows:
        acc = 0
        for j, a in row:
            acc += a * v[j]
        out.append(acc)
    return out


def bilinear(rows, u, v):
    """u^T G v for the symmetric matrix G with the given sparse rows."""
    total = 0
    for ui, row in zip(u, rows):
        if ui:
            acc = 0
            for j, g in row:
                acc += g * v[j]
            total += ui * acc
    return total


def quadform(rows, v, _bilinear=bilinear):
    """v^T G v for the symmetric matrix G with the given sparse rows."""
    # bilinear is bound at definition, not looked up per call, so a caller
    # that rebinds the kernels' names (perfbench's tracer wraps every
    # binding) still sees one kernel call per quadform.
    return _bilinear(rows, v, v)


def norm_scan(g, n, target, bound):
    """All v in the box [-bound, bound]^n with v^T G v == target, in lex order.

    A depth-first walk over the coordinates, leftmost first, so hits come out
    in lexicographic order. With v_0..v_{k-1} fixed it carries the partial
    form q = Q(v_0..v_{k-1}, 0, ..) and the linear forms lin[j] =
    2 sum_{i<k} g_ij v_i, so choosing v_k = x adds x (lin[k] + g_kk x) to q
    and 2 g_kj x to each later lin[j]. A box point then costs O(1)
    amortised, not a pass over the whole form.
    """
    if n == 0:
        return [()] if target == 0 else []
    xs = range(-bound, bound + 1)
    diag = [g[k * n + k] for k in range(n)]
    # Twice the nonzero strictly-upper entries of row k: how v_k feeds later lin[j].
    couplings = [[(j, 2 * g[k * n + j]) for j in range(k + 1, n) if g[k * n + j]] for k in range(n)]
    last = n - 1
    prefix = [0] * n
    hits = []

    def scan(k, q, lin):
        d, l = diag[k], lin[k]
        if k == last:
            rest = target - q
            for x in xs:
                if x * (l + d * x) == rest:
                    prefix[k] = x
                    hits.append(tuple(prefix))
            return
        row = couplings[k]
        for x in xs:
            prefix[k] = x
            nxt = lin
            if x and row:
                nxt = lin[:]
                for j, w in row:
                    nxt[j] += w * x
            scan(k + 1, q + x * (l + d * x), nxt)

    scan(0, 0, [0] * n)
    return hits
