"""Exact determinants, Sylvester matrices, resultants.

Every determinant goes through one fraction-free Bareiss kernel,
`bordered_dets`: an r x (r+1) block of shared data rows, eliminated once
with column pivoting, completed by one or more border rows.  Its divisions
are exact, so the same code runs over any integral domain whose `/` is exact
division: on field elements, and on the packed integer polynomials
(`poly._Packed`) of the multivariate combine step.
"""

from __future__ import annotations

from .errors import NonSquareMatrix, ZeroPolynomial
from .fields import Field
from .poly import Poly1


def det_exact(rows, field: Field):
    """Exact determinant of a square list of rows: the bordered kernel with
    the last row as border."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareMatrix(f"{n} rows, not all of length {n}")
    if n == 0:
        return field.one
    return bordered_dets(rows[:-1], [rows[-1]])[0]


def bordered_dets(data, borders):
    """det([data; b]) for each border row b, where data is r x (r+1).

    One fraction-free Bareiss pass over the shared data rows, with column
    pivoting (each swap flips the sign); every border row is eliminated
    alongside as the last row of its own matrix.  Each division v / prev is
    exact, so entries may come from any integral domain with exact `/`."""
    data = [list(r) for r in data]
    borders = [list(b) for b in borders]
    r = len(data)
    if any(len(row) != r + 1 for row in data + borders):
        raise ValueError("need r x (r+1) data and borders of length r+1")
    zero = borders[0][0] - borders[0][0]
    negate = False
    prev = None
    for k in range(r):
        pivot_row = data[k]
        j = next((j for j in range(k, r + 1) if pivot_row[j] != zero), None)
        if j is None:
            # rows 0..k are dependent: every bordered determinant vanishes
            return [zero for _ in borders]
        if j != k:
            for row in data[k:] + borders:
                row[k], row[j] = row[j], row[k]
            negate = not negate
        pivot = pivot_row[k]
        for row in data[k + 1:] + borders:
            lead = row[k]
            for c in range(k + 1, r + 1):
                v = row[c] * pivot - lead * pivot_row[c]
                row[c] = v if prev is None else v / prev
        prev = pivot
    return [-b[r] if negate else b[r] for b in borders]


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


def sylvester_matrix(p: Poly1, q: Poly1) -> list:
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
    return rows


def sylvester_and_resultant(p: Poly1, q: Poly1):
    rows = sylvester_matrix(p, q)
    return rows, det_exact(rows, p.field)


def resultant(p: Poly1, q: Poly1):
    return sylvester_and_resultant(p, q)[1]
