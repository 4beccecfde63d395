"""Dense exact-integer matrices: Hermite/Smith normal forms, kernels, determinants, signatures.

Entries are Python ints, so nothing can overflow silently; intermediate
swell in the normal forms is absorbed by arbitrary precision. Every matrix,
those built here included, passes IntMatrix's one constructor, which refuses
a dimension or entry that is not an int. IntMatrix is a record
(mukaitwist._record.Record): it refuses assignment, so a matrix that a cache
shares cannot change, and all functions here are pure. The forms that
mukaitwist._kernels compiles for a matrix's products with vectors live in its
matvec and bilinear slots, filled on first use, so they refuse assignment too.

Conventions, fixed once so golden tests are stable:

* ``hermite_normal_form`` is row-style: ``H = U @ M`` with ``U`` unimodular,
  ``H`` in row echelon form, pivots positive, entries above a pivot reduced
  into ``[0, pivot)``.
* ``smith_normal_form`` returns ``S = U @ M @ V`` diagonal with
  ``d1 | d2 | ... | dk >= 0`` and trailing zeros.

Both forms share one elimination, ``_hermite_rows``. The Smith form
alternates Hermite forms of the rows and of the columns; reducing above
every pivot on each pass keeps the entries of U and V small, where
eliminating without that reduction lets them grow to thousands of digits.
``determinant`` and ``signature_and_det`` share one fraction-free
elimination, ``_bareiss_step``, whose exact divisions keep every entry an
integer; ``signature`` reads the inertia of ``signature_and_det``.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import _kernels
from ._record import Record, require_int, set_field


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = a*x + b*y."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


_INT_ONLY = frozenset((int,))


def _exact_int(e) -> int:
    """An entry as a plain int (a bool converted), or TypeError; the constructor's slow path."""
    if isinstance(e, int):
        return int(e)
    raise TypeError(f"matrix entries must be exact ints, got {type(e).__name__}")


class IntMatrix(Record):
    """Immutable dense matrix over the integers, its entries flat in row-major order."""

    # matvec and bilinear hold the matrix's compiled forms (see mukaitwist._kernels).
    __slots__ = ("rows", "cols", "flat", "matvec", "bilinear")
    _fields = ("rows", "cols", "flat")

    def __init__(self, rows: int, cols: int, flat: Iterable[int]):
        require_int("rows", rows)
        require_int("cols", cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        flat = tuple(flat)
        if not _INT_ONLY.issuperset(map(type, flat)):
            flat = tuple(map(_exact_int, flat))
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "flat", flat)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @classmethod
    def of_map(cls, f, n: int) -> "IntMatrix":
        """The n x n matrix of a linear map f on Z^n: column j is f(e_j)."""
        cols = [f(tuple(1 if i == j else 0 for i in range(n))) for j in range(n)]
        return cls(n, n, [cols[j][i] for i in range(n) for j in range(n)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getattr__(self, name):
        # Reached only when a slot is empty. The forms are compiled on first
        # use, since most matrices (normal-form steps, products) never meet a
        # vector, and are then kept, so each is compiled once per matrix.
        if name not in ("matvec", "bilinear"):
            raise AttributeError(f"'IntMatrix' object has no attribute {name!r}")
        form = _kernels.compile_form(name, self.rows, self.cols, self.flat)
        set_field(self, name, form)
        return form

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self.flat[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError("matrix index out of range")
        return self.flat[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        r, c, d = self.rows, self.cols, self.flat
        return IntMatrix(c, r, [d[i * c + j] for j in range(c) for i in range(r)])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = _kernels.matmul(self.flat, other.flat, self.rows, self.cols, other.cols)
        return IntMatrix(self.rows, other.cols, out)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return _kernels.matvec(self, v)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, [a - b for a, b in zip(self.flat, other.flat)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-a for a in self.flat])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        n, d = self.rows, self.flat
        return all(d[i * n + j] == d[j * n + i] for i in range(n) for j in range(i + 1, n))


def _row_gcd_step(a: list[list[int]], u: list[list[int]], piv: int, i: int, col: int) -> None:
    """Zero a[i][col] against pivot row 'piv' with a unimodular 2x2 row transform."""
    p, q = a[piv][col], a[i][col]
    if q % p == 0:
        f = q // p
        a[i] = [x - f * y for x, y in zip(a[i], a[piv])]
        u[i] = [x - f * y for x, y in zip(u[i], u[piv])]
        return
    g, x, y = _xgcd(p, q)
    pg, qg = p // g, q // g
    # [[x, y], [-qg, pg]] has determinant (x*p + y*q)/g = 1
    ap, ai = a[piv], a[i]
    a[piv] = [x * s + y * t for s, t in zip(ap, ai)]
    a[i] = [-qg * s + pg * t for s, t in zip(ap, ai)]
    up, ui = u[piv], u[i]
    u[piv] = [x * s + y * t for s, t in zip(up, ui)]
    u[i] = [-qg * s + pg * t for s, t in zip(up, ui)]


def _hermite_rows(a: list[list[int]], u: list[list[int]]) -> None:
    """Row-reduce a to Hermite form in place, applying every row operation to u too."""
    r = len(a)
    piv = 0
    for col in range(len(a[0]) if r else 0):
        if piv >= r:
            break
        pivot_at = None
        for i in range(piv, r):
            if a[i][col]:
                pivot_at = i
                break
        if pivot_at is None:
            continue
        if pivot_at != piv:
            a[piv], a[pivot_at] = a[pivot_at], a[piv]
            u[piv], u[pivot_at] = u[pivot_at], u[piv]
        for i in range(piv + 1, r):
            if a[i][col]:
                _row_gcd_step(a, u, piv, i, col)
        if a[piv][col] < 0:
            a[piv] = [-x for x in a[piv]]
            u[piv] = [-x for x in u[piv]]
        p = a[piv][col]
        for i in range(piv):
            f = a[i][col] // p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[piv])]
                u[i] = [x - f * y for x, y in zip(u[i], u[piv])]
        piv += 1


def _transposed(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def _from_rows(a: list[list[int]], cols: int) -> IntMatrix:
    return IntMatrix(len(a), cols, [x for row in a for x in row])


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style HNF: returns (H, U) with H = U @ M and U unimodular."""
    a = m.to_rows()
    u = IntMatrix.identity(m.rows).to_rows()
    _hermite_rows(a, u)
    return _from_rows(a, m.cols), _from_rows(u, m.rows)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Returns (S, U, V) with S = U @ M @ V diagonal, d1 | d2 | ... | dk >= 0.

    Hermite forms of the rows and of the columns alternate until the matrix
    is diagonal (Kannan and Bachem, SIAM J. Comput. 8(4), 1979). Column
    operations are row operations on the transpose, recorded in V^T. Where
    d_i does not divide d_(i+1), column i+1 is added to column i and the
    alternation resumes, which replaces d_i by gcd(d_i, d_(i+1)).
    """
    r, c = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(r).to_rows()
    vt = IntMatrix.identity(c).to_rows()
    on_rows = True
    while True:
        if on_rows:
            _hermite_rows(a, u)
        else:
            at = _transposed(a)
            _hermite_rows(at, vt)
            a = _transposed(at)
        on_rows = not on_rows
        if any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(a)):
            continue
        # Diagonal and in echelon form: positive entries first, zeros trailing.
        broken = next((i for i in range(min(r, c) - 1) if a[i][i] and a[i + 1][i + 1] % a[i][i]), None)
        if broken is None:
            break
        for row in a:
            row[broken] += row[broken + 1]
        vt[broken] = [x + y for x, y in zip(vt[broken], vt[broken + 1])]
        # A column Hermite form would undo the addition; the rows go next.
        on_rows = True
    return _from_rows(a, c), _from_rows(u, r), _from_rows(_transposed(vt), c)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {v : M v = 0}; kernels of integer maps are saturated.

    Derivation: row-reduce the transpose, H = U M^T; the rows of U facing zero
    rows of H are exactly an integral basis of the kernel of M.
    """
    h, u = hermite_normal_form(m.transpose())
    rank = sum(1 for i in range(h.rows) if any(h.row(i)))
    vectors = [u.row(i) for i in range(rank, u.rows)]
    return IntMatrix(m.cols, len(vectors), [vec[i] for i in range(m.cols) for vec in vectors])


def _bareiss_step(a: list[list[int]], k: int, j: int, prev: int) -> int:
    """Eliminate on a[k][j], fraction-free: pop row k and column j, return the pivot d.

    Every other row becomes (row * d - a_ij * pivot row) // prev, where prev is
    the previous step's pivot (1 at the start). By Sylvester's identity each
    entry is then a minor of the input, so the division is exact. A row with
    a_ij = 0 is only scaled by d / prev.
    """
    pivot = a.pop(k)
    d = pivot.pop(j)
    for i, row in enumerate(a):
        f = row.pop(j)
        if f:
            a[i] = [(x * d - f * p) // prev for x, p in zip(row, pivot)]
        elif d != prev:
            a[i] = [x * d // prev for x in row]
    return d


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination; the last pivot is det."""
    if not m.is_square():
        raise ValueError(f"determinant requires a square matrix, got {m.shape}")
    a = m.to_rows()
    sign = d = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[0]), None)
        if k is None:
            return 0
        if k % 2:  # row k moves to the top past k rows
            sign = -sign
        d = _bareiss_step(a, k, 0, d)
    return sign * d


def signature_and_det(gram: IntMatrix) -> tuple[tuple[int, int, int], int]:
    """Inertia (n_plus, n_zero, n_minus) and determinant, by one Bareiss elimination.

    Each step pivots on the first nonzero diagonal entry. The remaining rows
    are prev times the Schur complement, which stays symmetric, so the pivot
    of the complement, d / prev, is positive when d and prev have one sign.
    What is left once every entry is zero is null.

    When the diagonal is all zero, take the first nonzero row k, its first
    nonzero column j > k and c = a_kj, and add row j to row k alone. Then
    a_kk = c, and the complement's diagonal, -a_ik (a_ik + a_ij) / c, is 0
    before j and -c at j, so j pivots next. The two pivots count the signs of
    c and -c, the inertia of the block [[0, c], [c, 0]] on k and j. The row
    move stays within the block's rows, so what is left is the symmetric
    matrix's own Schur complement of the block (Haynsworth's additivity).

    No move changes det and each entry stays a minor of the row-moved input,
    so divisions are exact; det is the last pivot, or 0 if a null part is left.
    """
    if not gram.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    a = gram.to_rows()
    pos = neg = 0
    d = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), (None, None))
            if k is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[j])]
        prev, d = d, _bareiss_step(a, k, k, d)
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
    return (pos, gram.rows - pos - neg, neg), 0 if a else d


def signature(gram: IntMatrix) -> tuple[int, int, int]:
    """Inertia (n_plus, n_zero, n_minus) of a symmetric matrix; see signature_and_det."""
    return signature_and_det(gram)[0]


def solve(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integral solution x of M x = b, or None if none exists."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    h, u = hermite_normal_form(m.transpose())
    residual = list(b)
    y = [0] * h.rows
    for i in range(h.rows):
        hrow = h.row(i)
        pivot_col = next((j for j, x in enumerate(hrow) if x), None)
        if pivot_col is None:
            break
        coef, rem = divmod(residual[pivot_col], hrow[pivot_col])
        if rem:
            return None
        if coef:
            for j in range(m.rows):
                residual[j] -= coef * hrow[j]
        y[i] = coef
    if any(residual):
        return None
    x = [0] * m.cols
    for i, yi in enumerate(y):
        if yi:
            urow = u.row(i)
            for j in range(m.cols):
                x[j] += yi * urow[j]
    return tuple(x)
