"""Exact matrices, determinants, Sylvester matrices, resultants.

Determinants over field entries use fraction-free Bareiss elimination (with
row pivoting; divisions stay exact).  Determinants over polynomial entries
use cofactor expansion anchored on the row with the most structural zeros,
memoized over column subsets.
"""

from __future__ import annotations

from .errors import NonSquareMatrix, ZeroPolynomial
from .fields import Field
from .poly import Poly1, PolyN


class ExactMatrix:
    """Row-major exact matrix; entries are field elements or PolyN."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = list(entries)
        if rows * cols != len(entries):
            raise ValueError("entry count != rows*cols")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_list(self):
        return [self.entries[i * self.cols:(i + 1) * self.cols] for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def det_exact(m: ExactMatrix, field: Field):
    """Exact determinant; dispatches on entry kind."""
    if m.rows != m.cols:
        raise NonSquareMatrix(f"{m.rows}x{m.cols}")
    if m.rows == 0:
        return field.one
    if isinstance(m.entries[0], PolyN):
        return _det_cofactor(m.row_list(), PolyN.zero(m.entries[0].field, m.entries[0].nvars))
    return _det_bareiss(m.row_list(), field)


def _det_bareiss(rows, field: Field):
    n = len(rows)
    zero, one = field.zero, field.one
    sign = one
    prev = one
    for k in range(n - 1):
        if rows[k][k] == zero:
            for i in range(k + 1, n):
                if rows[i][k] != zero:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) / prev
            rows[i][k] = zero
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _det_cofactor(rows, zero):
    # put the row with the most zeros first so the top expansion branches least
    n = len(rows)
    order = sorted(range(n), key=lambda i: -sum(1 for x in rows[i] if x == zero))
    sign_flip = _perm_sign(order)
    rows = [rows[i] for i in order]
    memo = {}

    def minor(i, cols):
        if i == n:
            return None  # unreachable for n >= 1
        if len(cols) == 1:
            return rows[i][cols[0]]
        key = cols
        got = memo.get((i, key))
        if got is not None:
            return got
        acc = zero
        neg = False
        for idx, c in enumerate(cols):
            v = rows[i][c]
            if v == zero:
                neg = not neg
                continue
            sub = minor(i + 1, cols[:idx] + cols[idx + 1:])
            term = v * sub
            acc = acc - term if neg else acc + term
            neg = not neg
        memo[(i, key)] = acc
        return acc

    d = minor(0, tuple(range(n)))
    return -d if sign_flip < 0 else d


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def maximal_minors(rows, zero):
    """All maximal minors of an r x (r+1) matrix: entry j is the determinant
    with column j removed (remaining columns kept in order).  Shared by the
    paired interpolation determinants so both expansions reuse one pass."""
    r = len(rows)
    cols = len(rows[0])
    if cols != r + 1:
        raise ValueError("need r x (r+1)")
    if r == 0:
        raise ValueError("empty matrix")
    # G(i, T): det of rows i.. on column tuple T, expanded along row i
    memo = {}

    def g(i, T):
        if len(T) == 1:
            return rows[i][T[0]]
        got = memo.get(T)
        if got is not None:
            return got
        acc = zero
        neg = False
        for idx, c in enumerate(T):
            v = rows[i][c]
            if v != zero:
                term = v * g(i + 1, T[:idx] + T[idx + 1:])
                acc = acc - term if neg else acc + term
            neg = not neg
        memo[T] = acc
        return acc

    full = tuple(range(cols))
    return [g(0, full[:j] + full[j + 1:]) for j in range(cols)]


def vandermonde_product(points):
    """prod_{i<j} (a_j - a_i); zero iff the list has a duplicate.  The empty
    product (a single point) is 1."""
    points = list(points)
    if not points:
        raise ValueError("empty point list")
    acc = points[0] - points[0] + 1
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            acc = acc * (points[j] - points[i])
    return acc


def sylvester_matrix(p: Poly1, q: Poly1) -> ExactMatrix:
    """Sylvester matrix, fixed convention: the first deg q rows carry shifted
    coefficients of p (highest power first), the next deg p rows carry shifted
    coefficients of q."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial")
    dp, dq = int(p.degree), int(q.degree)
    size = dp + dq
    zero = p.field.zero
    rows = [[zero] * size for _ in range(size)]
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for j in range(dq):
        for t, c in enumerate(pc):
            rows[j][j + t] = c
    for j in range(dp):
        for t, c in enumerate(qc):
            rows[dq + j][j + t] = c
    return ExactMatrix.from_rows(rows) if size else ExactMatrix(0, 0, [])


def sylvester_and_resultant(p: Poly1, q: Poly1):
    m = sylvester_matrix(p, q)
    return m, det_exact(m, p.field)


def resultant(p: Poly1, q: Poly1):
    return sylvester_and_resultant(p, q)[1]
