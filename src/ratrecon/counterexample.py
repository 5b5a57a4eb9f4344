"""Executable demonstration that slice-wise polynomial does not imply
rational over a countable field.

Over a fixed enumeration a_0, a_1, ... of Q, the function

    f(a_n, a_m) = sum_{i=0}^{n+m} prod_{l=0}^{i} (a_n - a_l)(a_m - a_l)

has polynomial slices (the slice at a_m is a polynomial of degree exactly m)
while no single bivariate rational function of bounded degree can match its
table: slice degrees grow without bound.  The report refutes every degree
bound D on a finite grid via an exact cross-multiplied linear system, its
rows scaled to integers and eliminated one at a time by `matrix.Echelon`.

Q is countable but not algebraically closed; the construction needs only a
fixed enumeration of a countable infinite field.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat, tee
from operator import mul

from .fields import QQ, enumerate_countable
from .matrix import Echelon
from .poly import Poly1, ints_over
from .records import Record


def f_counter(n: int, m: int) -> Fraction:
    """The double sum-product, evaluated exactly.  Terms with i >= min(n, m)
    contain a vanishing factor, so the effective sum stops there."""
    an, am = enumerate_countable(n), enumerate_countable(m)
    terms = [(an - al) * (am - al) for al in map(enumerate_countable, range(min(n, m)))]
    return sum(accumulate(terms, mul), Fraction(0))


def slice_poly(m: int) -> Poly1:
    """The univariate slice at a_m: sum_{i<m} prod_{l<=i} (x - a_l)(a_m - a_l)
    in expanded coefficient form; degree exactly m for m >= 1."""
    am, acc = enumerate_countable(m), Poly1.zero(QQ)
    basis, scalar = Poly1.from_ints(QQ, [1]), Fraction(1)
    for al in map(enumerate_countable, range(m)):
        basis = basis * Poly1(QQ, [-al, Fraction(1)])
        scalar *= am - al
        acc = acc + basis.scale(scalar)
    return acc


class CounterexampleTable(Record):
    """First N enumeration elements and the N x N value table."""
    __slots__ = ("enumeration", "values")

    def __init__(self, enumeration: list, values: list):
        self.enumeration = enumeration
        self.values = values

    @classmethod
    def build(cls, n: int) -> "CounterexampleTable":
        """f_counter on the first n values.  Row k holds a_k's prefix products
        prod_{l<=t}(a_k - a_l), t < k, computed once; the value at (a_i, a_j)
        is the sum of the termwise products of rows i and j, the same sum as
        at (a_j, a_i), so it is computed once for i <= j and mirrored."""
        enum = [enumerate_countable(i) for i in range(n)]
        rows = [list(accumulate((ak - al for al in enum[:k]), mul))
                for k, ak in enumerate(enum)]
        values = [[None] * n for _ in range(n)]
        for i, ri in enumerate(rows):
            for j in range(i, n):
                values[i][j] = values[j][i] = sum(map(mul, ri, rows[j]), Fraction(0))
        return cls(enum, values)

    def block(self, n: int) -> "CounterexampleTable":
        """The table on the first n values: the top-left n x n block."""
        return CounterexampleTable(self.enumeration[:n],
                                   [row[:n] for row in self.values[:n]])

    def symmetric(self) -> bool:
        return all(row[j] == self.values[j][i]
                   for i, row in enumerate(self.values) for j in range(i))

    def slice_degrees(self) -> list:
        """m for the slice at a_m (`slice_poly`, zero at a_0, listed as 0):
        its x^m coefficient prod_{l<m}(a_m - a_l) is nonzero iff a_m is new."""
        return [m if m and a not in self.enumeration[:m] else 0
                for m, a in enumerate(self.enumeration)]

    def to_csv(self) -> str:
        lines = ["," + ",".join(str(a) for a in self.enumeration)]
        for a, row in zip(self.enumeration, self.values):
            lines.append(str(a) + "," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def _grid(table: CounterexampleTable, d_max: int):
    """Per grid point, row-major: (i, j), the monomials a_i^p a_j^q of total
    degree <= d_max in order of total degree, so that those of degree <= d
    come first, and the table's value there.  Each a_i's powers are
    computed once."""
    powers = [list(accumulate(repeat(a, d_max), mul, initial=Fraction(1)))
              for a in table.enumeration]
    for i, pi in enumerate(powers):
        for j, pj in enumerate(powers):
            yield ((i, j), [pi[p] * pj[t - p] for t in range(d_max + 1) for p in range(t + 1)],
                   table.values[i][j])


def _refute_polynomial(grid, d: int):
    """First point of `grid` (`_grid` of a degree bound >= d) where no
    total-degree-<=d polynomial can match the table, or None if one fits
    everywhere: the first row of the augmented system whose pivot lands in
    the value column."""
    size = (d + 1) * (d + 2) // 2
    echelon = Echelon(size + 1)
    for at, monos, value in grid:
        if echelon.add(ints_over(monos[:size] + [value], None)[0]) == size:
            return at
    return None


def _refute_rational(grid, d: int):
    """First point of `grid` (`_grid` of a degree bound >= d) at which the
    homogeneous cross-multiplied system f*Q - P = 0 (num and den of total
    degree <= d) reaches full rank, i.e. only the zero pair survives; None
    if a nonzero pair remains."""
    size = (d + 1) * (d + 2) // 2
    echelon = Echelon(2 * size)
    for at, monos, value in grid:
        monos = monos[:size]
        echelon.add(ints_over([-x for x in monos] + [value * x for x in monos], None)[0])
        if echelon.rank == echelon.width:
            return at
    return None


class NonrationalityReport(Record):
    __slots__ = ("n_grid", "d_max", "slice_degrees", "table_symmetric",
                 "per_degree")

    def __init__(self, n_grid: int, d_max: int, slice_degrees: list,
                 table_symmetric: bool, per_degree: list):
        self.n_grid = n_grid
        self.d_max = d_max
        self.slice_degrees = slice_degrees
        self.table_symmetric = table_symmetric
        self.per_degree = per_degree

    def to_json(self) -> dict:
        return {
            "kind": "nonrationality_refutation",
            "grid": self.n_grid,
            "d_max": self.d_max,
            "field": "q",
            "enumeration_note": ("enumeration of Q; countable but not "
                                 "algebraically closed, which the degree-growth "
                                 "demonstration does not need"),
            "slice_degrees": self.slice_degrees,
            "table_symmetric": self.table_symmetric,
            "per_degree": self.per_degree,
        }


def nonrationality_report(d_max: int, grid: int,
                          table: CounterexampleTable | None = None) -> NonrationalityReport:
    """Refute every bivariate rational degree bound D <= d_max on a
    grid x grid table of exact values: the top-left block of `table`, which
    has at least `grid` values, or else a table built for the report."""
    if grid < 2 * d_max + 2:
        raise ValueError(f"grid must be >= 2*d_max + 2 = {2 * d_max + 2}")
    table = CounterexampleTable.build(grid) if table is None else table.block(grid)
    # one pass over the grid's points, computed once, for each test and bound
    grids = iter(tee(_grid(table, d_max), 2 * (d_max + 1)))
    per_degree = []
    for d in range(d_max + 1):
        poly, rational = _refute_polynomial(next(grids), d), _refute_rational(next(grids), d)
        per_degree.append({
            "degree_bound": d, "polynomial_refuted": poly is not None,
            "polynomial_witness_index": list(poly) if poly else None,
            "rational_refuted": rational is not None,
            "rational_rank_full_at_index": list(rational) if rational else None})
    return NonrationalityReport(grid, d_max, table.slice_degrees(),
                                table.symmetric(), per_degree)
