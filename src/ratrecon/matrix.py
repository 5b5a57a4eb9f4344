"""Exact determinants, Sylvester matrices, resultants.

Every determinant goes through one fraction-free Bareiss kernel,
`bordered_dets`: an r x (r+1) block of shared data rows, eliminated once
with column pivoting, completed by one or more border rows.  The block may
come from a taller system: rows that depend on the rows before them are
dropped, so with unit rows as borders the kernel returns a vector spanning
the nullspace of a rank-r system (the scale system of the multivariate
combine).  Its divisions are exact, so the same code runs over any integral
domain whose `/` is exact division: on plain integers (with `//`) and on
field elements (resultants, `delta_det`).

With a prime modulus the same loop runs on integer rows mod p: each pivot
row is divided by its pivot, one inverse per pivot, and the product of the
pivots restores the determinant.  Every F_p caller passes residues and p:
the Hankel scan (`hankel._l_min`), pointwise interpolation
(`interp.alpha_beta`), the combine's scale system and the sparse sibling
solve (`reconstruct`).  Over Q the Hankel scan first takes each
determinant modulo a word-size prime, since a nonzero residue proves it
nonzero, and computes it exactly only when the residue is zero; pointwise
interpolation over Q needs the exact values and scales its rows to
integers.
"""

from __future__ import annotations

from .errors import NonSquareMatrix, ZeroPolynomial
from .fields import Field
from .poly import Poly1


def det_exact(rows, field: Field):
    """Exact determinant of a square list of rows: the bordered kernel with
    the last row as border.  Rows of ints give an int; `field` only names
    the determinant of the empty matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareMatrix(f"{n} rows, not all of length {n}")
    if n == 0:
        return field.one
    return bordered_dets(rows[:-1], [rows[-1]])[0]


def bordered_dets(data, borders, modulus=None):
    """det([D; b]) for each border row b of length r+1, where D is the first
    r rows of `data` (rows of length r+1) that are linearly independent.

    One fraction-free Bareiss pass with column pivoting (each swap flips the
    sign).  The data rows are eliminated one at a time, in order, against
    the pivot rows before them: a row that eliminates to zero is a
    combination of those rows and is dropped, and no row after the r-th
    pivot is read, so `data` may be a generator.  With fewer than r
    independent rows every determinant vanishes.  A square block, exactly
    r rows, is the plain bordered determinant.  Every border row is
    eliminated as the last row of its own matrix.  Each division v / prev
    is exact, so entries may come from any integral domain with exact `/`,
    or be plain ints, which divide exactly with `//`.

    With a prime `modulus` the rows are ints and the pass runs on their
    residues, over F_modulus: each pivot row is divided by its pivot, one
    inverse per pivot, so a step is x - lead * y, and each determinant is
    the product of the pivots times its border's last entry, a residue in
    [0, modulus).  Independence is then independence mod the prime, and a
    nonzero residue proves the integer determinant nonzero."""
    borders = [list(b) for b in borders]
    r = len(borders[0]) - 1
    if any(len(b) != r + 1 for b in borders):
        raise ValueError("borders of different lengths")
    zero = borders[0][0] - borders[0][0]
    ints = isinstance(zero, int)
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
                row[c] = v if prev is None else (v // prev if ints else v / prev)
            prev = pivot
        return row

    def start(row):
        return [x % modulus for x in row] if modulus else list(row)

    negate = False
    rows = iter(data)
    while len(pivots) < r:
        row = next(rows, None)
        if row is None:
            return [zero for _ in borders]
        if len(row) != r + 1:
            raise ValueError("need data rows of the borders' length r+1")
        k = len(pivots)
        row = eliminate(start(row))
        j = next((j for j in range(k, r + 1) if row[j] != zero), None)
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
    dets = [-b[r] if negate else b[r] for b in map(eliminate, map(start, borders))]
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
