"""Exact determinants, Sylvester matrices, resultants.

Every determinant goes through one fraction-free Bareiss kernel (Bareiss
1968), `bordered_dets`, on integer rows: an r x (r+1) block of shared
data rows, eliminated once with column pivoting, completed by one or more
border rows.  The block may come from a taller system: rows that depend
on the rows before them are dropped, so with unit rows as borders the
kernel returns a vector spanning the nullspace of a rank-r system (the
scale system of the multivariate combine).  Its divisions are exact
integer divisions, `//`.

With a prime modulus the same loop runs on the rows' residues: each
pivot row is divided by its pivot, one inverse per pivot, and the product
of the pivots restores the determinant.  Every F_p caller passes residues
and p: the Hankel scan (`hankel._l_min`), pointwise interpolation
(`interp.alpha_beta`), the combine's scale system and the sparse sibling
solve (`reconstruct`).  Over Q the callers scale their rows to integers;
the Hankel scan first takes each determinant modulo a word-size prime,
since a nonzero residue proves it nonzero, and computes it exactly only
when the residue is zero.  Field elements reach the kernel only through
`det_exact`, which converts each row by `poly.ints_over` and maps the
result back by `poly.over` (resultants, `delta_det`).
"""

from __future__ import annotations

import math
from operator import index

from .errors import NonSquareMatrix, ZeroPolynomial
from .fields import Field
from .poly import Poly1, field_prime, ints_over, over


def det_exact(rows, field: Field):
    """Exact determinant of a square list of rows of ints and elements of
    `field`, in any mix: the kernel on each row as integers over one
    denominator (the last row as border), divided by the denominators'
    product.  Rows of ints alone give an int, the empty matrix `field.one`."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareMatrix(f"{n} rows, not all of length {n}")
    if n == 0:
        return field.one
    if all(type(x) is int for r in rows for x in r):
        return bordered_dets(rows[:-1], [rows[-1]])[0]
    p = field_prime(field)
    ints, dens = zip(*(ints_over(r, p) for r in rows))
    det = bordered_dets(ints[:-1], [ints[-1]], p)[0]
    return over(field, math.prod(dens))(det)


def bordered_dets(data, borders, modulus=None):
    """det([D; b]) for each border row b of length r+1, where D is the first
    r rows of `data` (rows of length r+1) that are linearly independent.
    Every entry is an int; anything else is TypeError.

    One fraction-free Bareiss pass with column pivoting (each swap flips the
    sign).  The data rows are eliminated one at a time, in order, against
    the pivot rows before them: a row that eliminates to zero is a
    combination of those rows and is dropped, and no row after the r-th
    pivot is read, so `data` may be a generator.  With fewer than r
    independent rows every determinant vanishes.  A square block, exactly
    r rows, is the plain bordered determinant.  Every border row is
    eliminated as the last row of its own matrix.  Each division v // prev
    is exact.

    With a prime `modulus` the pass runs on the residues, over F_modulus:
    each pivot row is divided by its pivot, one inverse per pivot, so a step
    is x - lead * y, and each determinant is the product of the pivots
    times its border's last entry, a residue in [0, modulus).  Independence
    is then independence mod the prime, and a nonzero residue proves the
    integer determinant nonzero."""
    def start(row):
        return [x % modulus for x in map(index, row)] if modulus else list(map(index, row))

    borders = list(map(start, borders))
    r = len(borders[0]) - 1
    if any(len(b) != r + 1 for b in borders):
        raise ValueError("borders of different lengths")
    pivots = []                 # per step k: (column swapped into k, pivot row)
    scale = 1                   # mod p: the product of the pivots

    def eliminate(row):
        prev = None
        for k, (j, pivot_row) in enumerate(pivots):
            if j != k:
                row[k], row[j] = row[j], row[k]
            pivot, lead = pivot_row[k], row[k]
            if modulus:
                if lead:
                    for c in range(k + 1, r + 1):
                        row[c] = (row[c] - lead * pivot_row[c]) % modulus
                continue
            for c in range(k + 1, r + 1):
                v = row[c] * pivot - lead * pivot_row[c]
                row[c] = v if prev is None else v // prev
            prev = pivot
        return row

    negate = False
    rows = iter(data)
    while len(pivots) < r:
        row = next(rows, None)
        if row is None:
            return [0 for _ in borders]
        if len(row) != r + 1:
            raise ValueError("need data rows of the borders' length r+1")
        k = len(pivots)
        row = eliminate(start(row))
        j = next((j for j in range(k, r + 1) if row[j]), None)
        if j is None:
            continue
        if j != k:
            row[k], row[j] = row[j], row[k]
            negate = not negate
        if modulus:
            scale = scale * row[k] % modulus
            inv = pow(row[k], -1, modulus)
            row[k + 1:] = [x * inv % modulus for x in row[k + 1:]]
        pivots.append((j, row))
    dets = [-b[r] if negate else b[r] for b in map(eliminate, borders)]
    return [d * scale % modulus for d in dets] if modulus else dets


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
