"""Exact determinants, Sylvester matrices, resultants.

Every elimination goes through one fraction-free Bareiss kernel (Bareiss
1968), `Echelon`, on integer rows: rows of one width added one at a time
with column pivoting, each either dropped as a combination of the rows
before it or kept as a new pivot row.  `bordered_dets` completes an
r x (r+1) block of the first r independent data rows by one or more
border rows; with unit rows as borders it returns a vector spanning the
nullspace of a rank-r system (the scale system of the multivariate
combine).  Its divisions are exact integer divisions, `//`.

With a prime modulus the same loop runs on the rows' residues: each
pivot row is divided by its pivot, one inverse per pivot, and the product
of the pivots restores the determinant.  Every F_p caller passes residues
and p: the combine's scale system and the sparse sibling solve
(`reconstruct`), and `interp.alpha_beta`, which only the tests call.  Over
Q the callers scale their rows to integers: the rank tests of the
countable-field refutation (`counterexample`) feed them to `Echelon`
directly.  Field
elements reach the kernel only through `det_exact`, which converts each
row by `poly.ints_over` and maps the result back by `poly.over`
(resultants, `delta_det`).
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


class Echelon:
    """Rows of one width, every entry an int (anything else is TypeError),
    eliminated one at a time by fraction-free Bareiss with column pivoting.
    `add` eliminates a row against the pivot rows before it: a row that
    eliminates to zero is a combination of them and is dropped, otherwise
    its first nonzero column becomes the next pivot (each column swap flips
    the sign).  `rank` counts the pivots; at width - 1 of them `dets` gives
    the bordered determinants.  Each division v // prev is exact.

    With a prime `modulus` the rows are eliminated as residues: each pivot
    row is divided by its pivot, one inverse per pivot, so a step is
    x - lead * y, and the product of the pivots restores each determinant.
    Independence is then independence mod the prime."""
    __slots__ = ("width", "modulus", "pivots", "columns", "scale", "negate")

    def __init__(self, width: int, modulus=None):
        self.width = width
        self.modulus = modulus
        self.pivots = []        # per step k: (column swapped into k, pivot row)
        self.columns = list(range(width))   # the original column at each place
        self.scale = 1          # mod p: the product of the pivots
        self.negate = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _start(self, row):
        modulus = self.modulus
        row = [x % modulus for x in map(index, row)] if modulus else list(map(index, row))
        if len(row) != self.width:
            raise ValueError(f"need rows of length {self.width}, not {len(row)}")
        return row

    def _eliminate(self, row):
        modulus, last = self.modulus, self.width
        prev = None
        for k, (j, pivot_row) in enumerate(self.pivots):
            if j != k:
                row[k], row[j] = row[j], row[k]
            pivot, lead = pivot_row[k], row[k]
            if modulus:
                if lead:
                    for c in range(k + 1, last):
                        row[c] = (row[c] - lead * pivot_row[c]) % modulus
                continue
            for c in range(k + 1, last):
                v = row[c] * pivot - lead * pivot_row[c]
                row[c] = v if prev is None else v // prev
            prev = pivot
        return row

    def add(self, row):
        """Eliminate `row`: the original column of its new pivot, or None
        when it depends on the rows added before it."""
        row = self._eliminate(self._start(row))
        k = len(self.pivots)
        j = next((j for j in range(k, self.width) if row[j]), None)
        if j is None:
            return None
        if j != k:
            row[k], row[j] = row[j], row[k]
            self.columns[k], self.columns[j] = self.columns[j], self.columns[k]
            self.negate = not self.negate
        modulus = self.modulus
        if modulus:
            self.scale = self.scale * row[k] % modulus
            inv = pow(row[k], -1, modulus)
            row[k + 1:] = [x * inv % modulus for x in row[k + 1:]]
        self.pivots.append((j, row))
        return self.columns[k]

    def dets(self, borders):
        """det([P; b]) for each border row b, where P are the width - 1
        pivot rows in the order they were added; every determinant vanishes
        at a lower rank.  Each border is eliminated as the last row of its
        own matrix; mod p each result is a residue in [0, modulus)."""
        borders = list(map(self._start, borders))
        r, modulus = self.width - 1, self.modulus
        if len(self.pivots) < r:
            return [0 for _ in borders]
        dets = [-b[r] if self.negate else b[r] for b in map(self._eliminate, borders)]
        return [d * self.scale % modulus for d in dets] if modulus else dets


def bordered_dets(data, borders, modulus=None):
    """det([D; b]) for each border row b of length r+1, where D is the first
    r rows of `data` (rows of length r+1) that are linearly independent:
    one `Echelon` pass.  No row after the r-th pivot is read, so `data` may
    be a generator.  With fewer than r independent rows every determinant
    vanishes.  A square block, exactly r rows, is the plain bordered
    determinant.  With a prime `modulus` each determinant is a residue, and
    a nonzero residue proves the integer determinant nonzero."""
    borders = list(borders)
    echelon = Echelon(len(borders[0]), modulus)
    rows = iter(data)
    while echelon.rank < echelon.width - 1 and (row := next(rows, None)) is not None:
        echelon.add(row)
    return echelon.dets(borders)


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
