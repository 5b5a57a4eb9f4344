import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ratrecon.counterexample import (
    CounterexampleTable,
    _grid,
    _refute_polynomial,
    _refute_rational,
    f_counter,
    nonrationality_report,
    slice_poly,
)
from ratrecon.fields import QQ, enumerate_countable
from ratrecon.matrix import Echelon
from ratrecon.poly import Poly1


def test_base_values():
    assert f_counter(0, 0) == 0
    for n in range(10):
        assert f_counter(n, 0) == 0
        assert f_counter(0, n) == 0


def test_symmetry():
    assert f_counter(3, 5) == f_counter(5, 3)
    t = CounterexampleTable.build(20)
    for i in range(20):
        for j in range(20):
            assert t.values[i][j] == t.values[j][i]


def f_counter_literal(n: int, m: int) -> Fraction:
    """The sum with its full upper limit n+m; the extra terms each contain
    a factor (a_n - a_n) or (a_m - a_m) and vanish."""
    an, am = enumerate_countable(n), enumerate_countable(m)
    acc = Fraction(0)
    for i in range(n + m + 1):
        prod = Fraction(1)
        for l in range(i + 1):
            al = enumerate_countable(l)
            prod *= (an - al) * (am - al)
        acc += prod
    return acc


def test_literal_sum_equivalence():
    # the full-range sum with upper limit n+m equals the effective-sum form
    for n in range(8):
        for m in range(8):
            assert f_counter(n, m) == f_counter_literal(n, m)


def test_slice_poly_small():
    assert slice_poly(0).is_zero()
    a0, a1 = enumerate_countable(0), enumerate_countable(1)
    expected = Poly1(QQ, [-a0, Fraction(1)]).scale(a1 - a0)  # (x - a0)(a1 - a0)
    assert slice_poly(1) == expected


def test_slice_degrees():
    for m in range(1, 31):
        assert int(slice_poly(m).degree) == m


def test_table_from_prefix_products_equals_f_counter():
    t = CounterexampleTable.build(20)
    assert t.enumeration == [enumerate_countable(i) for i in range(20)]
    assert t.values == [[f_counter(i, j) for j in range(20)] for i in range(20)]
    assert all(type(v) is Fraction for row in t.values for v in row)


def test_table_symmetric_and_slice_degrees():
    t = CounterexampleTable.build(12)
    assert t.symmetric()
    assert t.slice_degrees() == [0] + [int(slice_poly(m).degree) for m in range(1, 12)]
    t.values[7][3] += 1
    assert not t.symmetric()
    assert CounterexampleTable.build(0).slice_degrees() == []


def test_slice_consistency_with_table():
    for m in range(20):
        p = slice_poly(m)
        for n in range(20):
            assert p.eval(enumerate_countable(n)) == f_counter(n, m)


def test_grid_precondition():
    with pytest.raises(ValueError):
        nonrationality_report(5, 11)


def test_refutation_degree0():
    rep = nonrationality_report(0, 4)
    entry = rep.per_degree[0]
    assert entry["rational_refuted"] and entry["polynomial_refuted"]


def test_refutation_full():
    rep = nonrationality_report(5, 16)
    assert rep.table_symmetric
    assert rep.slice_degrees[1:] == list(range(1, 16))
    for entry in rep.per_degree:
        assert entry["polynomial_refuted"], entry
        assert entry["rational_refuted"], entry


def test_report_reads_the_top_left_block_of_a_larger_table():
    big = CounterexampleTable.build(12)
    small = big.block(8)
    assert small == CounterexampleTable.build(8)
    assert (nonrationality_report(3, 8, big).to_json()
            == nonrationality_report(3, 8).to_json())


@pytest.mark.parametrize("n, grid", [(3, 6), (9, 6), (6, 6)])
def test_counterexample_command_builds_one_table(capsys, monkeypatch, n, grid):
    # the CSV's n x n table and the report's grid x grid table are blocks
    # of the one table of max(n, grid) values
    import ratrecon.cli as cli
    built = []
    build = CounterexampleTable.build.__func__

    def counting_build(cls, k):
        built.append(k)
        return build(cls, k)

    monkeypatch.setattr(CounterexampleTable, "build", classmethod(counting_build))
    assert cli.main(["counterexample", "--n", str(n), "--dmax", "2",
                     "--grid", str(grid)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert built == [max(n, grid)]
    assert out["table"]["csv"] == CounterexampleTable.build(n).to_csv()
    assert out["certificate"] == nonrationality_report(2, grid).to_json()


def test_report_deterministic():
    a = json.dumps(nonrationality_report(2, 8).to_json(), sort_keys=True)
    b = json.dumps(nonrationality_report(2, 8).to_json(), sort_keys=True)
    assert a == b


def test_csv_export_shape():
    t = CounterexampleTable.build(3)
    lines = t.to_csv().strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("0,")


def rank(rows, p=None):
    """Rank by Gauss-Jordan from scratch: over Q on Fractions, or mod the
    prime p."""
    rows = [[x % p if p else Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        for k in range(r + 1, len(rows)):
            f = rows[k][c] * inv
            rows[k] = [(a - f * b) % p if p else a - f * b
                       for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def reference_refute_polynomial(table, d):
    """First row-major grid point at which the augmented system outranks
    the coefficient matrix, by rank computations from scratch."""
    monos = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    rows = []
    n = len(table.enumeration)
    for i in range(n):
        for j in range(n):
            ai, aj = table.enumeration[i], table.enumeration[j]
            rows.append([ai ** p * aj ** q for p, q in monos] + [table.values[i][j]])
            if rank([r[:-1] for r in rows]) < rank(rows):
                return (i, j)
    return None


def test_refute_polynomial_matches_rank_reference():
    grid = 7
    xs = [enumerate_countable(k) for k in range(grid)]
    quadratic = SimpleNamespace(enumeration=xs, values=[
        [3 * a * a - a * b + Fraction(1, 2) * b - 4 for b in xs] for a in xs])
    for table in (CounterexampleTable.build(grid), quadratic):
        for d in range(4):
            assert _refute_polynomial(_grid(table, 3), d) == \
                reference_refute_polynomial(table, d), d
    assert _refute_polynomial(_grid(quadratic, 1), 1) is not None
    assert _refute_polynomial(_grid(quadratic, 2), 2) is None


def reference_refute_rational(table, d):
    """First row-major grid point at which the cross-multiplied system has
    full rank, by bisection on the prefix (its rank never falls) with each
    rank computed from scratch."""
    monos = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    points, rows = [], []
    n = len(table.enumeration)
    for i in range(n):
        for j in range(n):
            ai, aj = table.enumeration[i], table.enumeration[j]
            m = [ai ** p * aj ** q for p, q in monos]
            points.append((i, j))
            rows.append([-x for x in m] + [table.values[i][j] * x for x in m])
    width = 2 * len(monos)
    if rank(rows) < width:
        return None
    lo, hi = width, len(rows)          # full at hi rows, never below width
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rank(rows[:mid]) == width else (mid + 1, hi)
    return points[lo - 1]


def test_refute_rational_matches_rank_reference():
    grid = 7
    xs = [enumerate_countable(k) for k in range(grid)]
    # (3xy - x + 2)/(x^2 + y^2 + 1): total degree 2, defined on all of Q^2
    planted = SimpleNamespace(enumeration=xs, values=[
        [(3 * a * b - a + 2) / (a * a + b * b + 1) for b in xs] for a in xs])
    for table in (CounterexampleTable.build(grid), planted):
        for d in range(4):
            assert _refute_rational(_grid(table, 3), d) == \
                reference_refute_rational(table, d), d
    assert _refute_rational(_grid(planted, 1), 1) is not None
    assert _refute_rational(_grid(planted, 2), 2) is None
    assert _refute_rational(_grid(planted, 3), 3) is None


@pytest.mark.parametrize("modulus", [None, 7], ids=["exact", "mod7"])
def test_echelon_add_tracks_the_rank_of_every_prefix(modulus):
    # random rows with zero, duplicate and dependent rows, and rows whose
    # last entry alone breaks a dependence, exact and mod 7
    rng = random.Random(5)
    for width in (1, 2, 3, 5):
        for _ in range(12):
            echelon, rows = Echelon(width, modulus), []
            for _ in range(2 * width + 3):
                kind = rng.randrange(5)
                if kind == 0 or not rows:
                    row = [rng.randint(-4, 4) for _ in range(width)]
                elif kind == 1:
                    row = list(rng.choice(rows))
                elif kind == 2:
                    row = [0] * width
                else:
                    a, b = rng.choice(rows), rng.choice(rows)
                    u, v = rng.randint(-3, 3), rng.randint(-3, 3)
                    row = [u * x + v * y for x, y in zip(a, b)]
                    if kind == 4:
                        row[-1] += rng.randint(1, 3)
                before = (rank(rows, modulus), rank([r[:-1] for r in rows], modulus))
                rows.append(row)
                after = (rank(rows, modulus), rank([r[:-1] for r in rows], modulus))
                col = echelon.add(row)
                assert echelon.rank == after[0]
                assert (col is None) == (after[0] == before[0])
                # the pivot is the last column exactly when the rest of
                # the row reduces to zero against the rows before it
                assert (col == width - 1) == (after[0] > before[0]
                                              and after[1] == before[1])
