"""Dense exact-integer matrices: Hermite/Smith normal forms, kernels, determinants.

Entries are Python ints, so nothing can overflow silently; intermediate
swell in the normal forms is absorbed by arbitrary precision. Matrices are
immutable after construction and all functions here are pure.

Conventions, fixed once so golden tests are stable:

* ``hermite_normal_form`` is row-style: ``H = U @ M`` with ``U`` unimodular,
  ``H`` in row echelon form, pivots positive, entries above a pivot reduced
  into ``[0, pivot)``.
* ``smith_normal_form`` returns ``S = U @ M @ V`` diagonal with
  ``d1 | d2 | ... | dk >= 0`` and trailing zeros.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from . import _kernels


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


class IntMatrix:
    """Immutable dense matrix over the integers."""

    __slots__ = ("rows", "cols", "_d", "_sparse")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        data = []
        for e in entries:
            if isinstance(e, bool):
                e = int(e)
            elif not isinstance(e, int):
                raise TypeError(f"matrix entries must be exact ints, got {type(e).__name__}")
            data.append(e)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._d = tuple(data)

    @classmethod
    def _raw(cls, rows: int, cols: int, data: Iterable[int]) -> "IntMatrix":
        # Trusted path for entries produced by our own integer kernels.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._d = tuple(data)
        return m

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
        return cls._raw(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._raw(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])

    @property
    def flat(self) -> tuple[int, ...]:
        return self._d

    @property
    def sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each row i, the (j, a_ij) pairs with a_ij != 0, in column order.

        Built on first use and cached: most matrices (normal-form steps,
        products) are never multiplied by a vector.
        """
        try:
            return self._sparse
        except AttributeError:
            c, d = self.cols, self._d
            self._sparse = tuple(
                tuple((j, a) for j, a in enumerate(d[i * c : (i + 1) * c]) if a) for i in range(self.rows)
            )
            return self._sparse

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self._d[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._d[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self._d[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        r, c, d = self.rows, self.cols, self._d
        return IntMatrix._raw(c, r, [d[i * c + j] for j in range(c) for i in range(r)])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = _kernels.matmul(self._d, other._d, self.rows, self.cols, other.cols)
        return IntMatrix._raw(self.rows, other.cols, out)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(_kernels.matvec(self.sparse_rows, tuple(v)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._raw(self.rows, self.cols, [a + b for a, b in zip(self._d, other._d)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._raw(self.rows, self.cols, [a - b for a, b in zip(self._d, other._d)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._raw(self.rows, self.cols, [-a for a in self._d])

    def scale(self, k: int) -> "IntMatrix":
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError("scale factor must be an exact int")
        return IntMatrix._raw(self.rows, self.cols, [k * a for a in self._d])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        n, d = self.rows, self._d
        return all(d[i * n + j] == d[j * n + i] for i in range(n) for j in range(i + 1, n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._d == other._d

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._d))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


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


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style HNF: returns (H, U) with H = U @ M and U unimodular."""
    r, c = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(r).to_rows()
    piv = 0
    for col in range(c):
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
    return IntMatrix.from_rows(a) if r else IntMatrix.zero(0, c), IntMatrix.from_rows(u) if r else IntMatrix.identity(0)


def _col_gcd_step(a: list[list[int]], v: list[list[int]], piv: int, j: int, row: int) -> None:
    """Column analogue of _row_gcd_step, mirrored into the right transform v."""
    p, q = a[row][piv], a[row][j]
    if q % p == 0:
        f = q // p
        for rr in a:
            rr[j] -= f * rr[piv]
        for rr in v:
            rr[j] -= f * rr[piv]
        return
    g, x, y = _xgcd(p, q)
    pg, qg = p // g, q // g
    for rr in a:
        s, t = rr[piv], rr[j]
        rr[piv] = x * s + y * t
        rr[j] = -qg * s + pg * t
    for rr in v:
        s, t = rr[piv], rr[j]
        rr[piv] = x * s + y * t
        rr[j] = -qg * s + pg * t


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Returns (S, U, V) with S = U @ M @ V diagonal, d1 | d2 | ... | dk >= 0."""
    r, c = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(r).to_rows()
    v = IntMatrix.identity(c).to_rows()
    n = min(r, c)

    def clear_at(t: int) -> None:
        # Alternate row and column elimination until the cross at (t, t) is clean.
        while True:
            for i in range(t + 1, r):
                if a[i][t]:
                    _row_gcd_step(a, u, t, i, t)
            if all(a[t][j] == 0 for j in range(t + 1, c)):
                break
            for j in range(t + 1, c):
                if a[t][j]:
                    _col_gcd_step(a, v, t, j, t)
            if all(a[i][t] == 0 for i in range(t + 1, r)):
                break

    t = 0
    while t < n:
        found = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for rr in a:
                rr[t], rr[j] = rr[j], rr[t]
            for rr in v:
                rr[t], rr[j] = rr[j], rr[t]
        clear_at(t)
        t += 1

    rank = t
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    # Repair the divisibility chain; each fix replaces d_i by gcd(d_i, d_{i+1}).
    i = 0
    while i < rank - 1:
        if a[i + 1][i + 1] % a[i][i] != 0:
            for rr in a:
                rr[i] += rr[i + 1]
            for rr in v:
                rr[i] += rr[i + 1]
            clear_at(i)
            if a[i][i] < 0:
                a[i] = [-x for x in a[i]]
                u[i] = [-x for x in u[i]]
            if a[i + 1][i + 1] < 0:
                a[i + 1] = [-x for x in a[i + 1]]
                u[i + 1] = [-x for x in u[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1

    s_mat = IntMatrix.from_rows(a) if r else IntMatrix.zero(0, c)
    u_mat = IntMatrix.from_rows(u) if r else IntMatrix.identity(0)
    v_mat = IntMatrix.from_rows(v) if c else IntMatrix.identity(0)
    return s_mat, u_mat, v_mat


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {v : M v = 0}; kernels of integer maps are saturated.

    Derivation: row-reduce the transpose, H = U M^T; the rows of U facing zero
    rows of H are exactly an integral basis of the kernel of M.
    """
    h, u = hermite_normal_form(m.transpose())
    rank = sum(1 for i in range(h.rows) if any(h.row(i)))
    vectors = [u.row(i) for i in range(rank, u.rows)]
    return IntMatrix(m.cols, len(vectors), [vec[i] for i in range(m.cols) for vec in vectors])


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if not m.is_square():
        raise ValueError(f"determinant requires a square matrix, got {m.shape}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if a[i][k]:
                    swap = i
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


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
