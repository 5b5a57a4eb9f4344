"""Differential tests: the fraction-free bordered kernel against the
expansions it replaced.

The references below are earlier implementations, kept here and nowhere
else: a memoized Laplace expansion giving every maximal minor of an
r x (r+1) matrix (from which the paired determinants were assembled), a
memoized cofactor expansion for square determinants, and the Bareiss
kernel on field elements with exact `/` that `matrix.bordered_dets` was
before it took integer rows only.  The kernel's instances over Q and F_p
are fed to it as integer rows (each Q row times the lcm of its
denominators) or as residues with p, and compared with Laplace on the
same rows (mod p); `det_exact` and `interp.alpha_beta` are compared on
field elements.  Every instance must give exactly the same value, over Q
and small and large prime fields.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ratrecon.errors import FieldMismatch, InexactDivision
from ratrecon.fields import QQ, FpElement, PrimeField, random_element
from ratrecon.interp import DegreeProfile, SampleSet1, alpha_beta
from ratrecon.matrix import bordered_dets, det_exact
from ratrecon.poly import PolyN

F7 = PrimeField(7)
FP = PrimeField(1000003)
FIELDS = (QQ, F7, FP)

# ---------------------------------------------------------------------------
# reference implementation (maximal minors, cofactor expansion)


def ref_maximal_minors(rows, zero):
    """Entry j is the determinant of the r x (r+1) matrix with column j
    removed (remaining columns kept in order)."""
    r = len(rows)
    cols = len(rows[0])
    if cols != r + 1:
        raise ValueError("need r x (r+1)")
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


def ref_paired_determinants(dens, nums, points, n, m, powers):
    rows = [[den_i * ai ** j for j in range(n + 1)]
            + [num_i * ai ** j for j in range(m + 1)]
            for ai, den_i, num_i in zip(points, dens, nums)]
    zero = dens[0] - dens[0]
    minors = ref_maximal_minors(rows, zero)
    num_det = zero
    for j in range(n + 1):
        term = powers[j] * minors[j]
        num_det = num_det - term if j % 2 else num_det + term
    den_det = zero
    for j in range(m + 1):
        term = powers[j] * minors[n + 1 + j]
        den_det = den_det - term if j % 2 else den_det + term
    if ((n + 1) * m) % 2:
        den_det = -den_det
    return num_det, den_det


def _perm_sign(perm):
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


def ref_det_cofactor(rows, zero):
    """Cofactor expansion, most-zero row first, memoized over column subsets."""
    n = len(rows)
    order = sorted(range(n), key=lambda i: -sum(1 for x in rows[i] if x == zero))
    sign_flip = _perm_sign(order)
    rows = [rows[i] for i in order]
    memo = {}

    def minor(i, cols):
        if len(cols) == 1:
            return rows[i][cols[0]]
        got = memo.get((i, cols))
        if got is not None:
            return got
        acc = zero
        neg = False
        for idx, c in enumerate(cols):
            v = rows[i][c]
            if v == zero:
                neg = not neg
                continue
            term = v * minor(i + 1, cols[:idx] + cols[idx + 1:])
            acc = acc - term if neg else acc + term
            neg = not neg
        memo[(i, cols)] = acc
        return acc

    d = minor(0, tuple(range(n)))
    return -d if sign_flip < 0 else d


def brute_det(rows):
    """Permutation-expansion determinant: the independent oracle."""
    n = len(rows)
    acc = None
    for perm in itertools.permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term if _perm_sign(perm) > 0 else -term
        acc = term if acc is None else acc + term
    return acc


def ref_bordered_dets(data, borders):
    """The bordered kernel on field elements, as it was before it took
    integer rows only: each division v / prev is exact in a field."""
    borders = [list(b) for b in borders]
    r = len(borders[0]) - 1
    zero = borders[0][0] - borders[0][0]
    pivots = []

    def eliminate(row):
        prev = None
        for k, (j, pivot_row) in enumerate(pivots):
            if j != k:
                row[k], row[j] = row[j], row[k]
            pivot, lead = pivot_row[k], row[k]
            for c in range(k + 1, r + 1):
                v = row[c] * pivot - lead * pivot_row[c]
                row[c] = v if prev is None else v / prev
            prev = pivot
        return row

    negate = False
    rows = iter(data)
    while len(pivots) < r:
        row = next(rows, None)
        if row is None:
            return [zero for _ in borders]
        k = len(pivots)
        row = eliminate(list(row))
        j = next((j for j in range(k, r + 1) if row[j] != zero), None)
        if j is None:
            continue
        if j != k:
            row[k], row[j] = row[j], row[k]
            negate = not negate
        pivots.append((j, row))
    return [-b[r] if negate else b[r] for b in map(eliminate, borders)]


# ---------------------------------------------------------------------------
# instance generators with forced degeneracies


def _degenerate(rows, rng, zero, width):
    """Apply one of: nothing, zero leading columns, a duplicated row, a row
    that is a combination of two others."""
    kind = rng.randrange(4)
    r = len(rows)
    if kind == 1:
        for row in rows:
            for c in range(rng.randint(1, max(1, width - 1))):
                row[c] = zero
    elif kind == 2 and r >= 2:
        i, j = rng.sample(range(r), 2)
        rows[j] = list(rows[i])
    elif kind == 3 and r >= 3:
        i, j, k = rng.sample(range(r), 3)
        rows[k] = [a + b + b for a, b in zip(rows[i], rows[j])]
    return rows


def _square(field, rng, size):
    rows = [[random_element(field, rng, 9) for _ in range(size)] for _ in range(size)]
    return _degenerate(rows, rng, field.zero, size)


def _paired_instance(field, rng):
    """(dens, nums, points, n, m, y) with zero dens, zero nums and
    duplicate points mixed in."""
    n, m = rng.randint(0, 4), rng.randint(0, 4)
    l = n + m

    def pick():
        return random_element(field, rng, 9)

    points = [pick() for _ in range(l + 1)]
    dens = [pick() for _ in range(l + 1)]
    nums = [pick() for _ in range(l + 1)]
    kind = rng.randrange(4)
    if kind == 1:
        dens = [field.zero if rng.random() < 0.5 else d for d in dens]
    elif kind == 2 and l >= 1:
        points[1] = points[0]
    elif kind == 3:
        nums = [d * points[0] for d in dens]   # the constant function: rank drop
    return dens, nums, points, n, m, pick()


def _prime(field):
    return field.p if isinstance(field, PrimeField) else None


def _int_rows(field, rows):
    """The rows as the kernel takes them: residues over F_p, each row times
    the lcm of its denominators over Q, unchanged over Z."""
    if isinstance(field, PrimeField):
        return [[x.residue for x in row] for row in rows]
    out = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def _mod(values, p):
    return [v % p for v in values] if p else values


# ---------------------------------------------------------------------------
# differential checks


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7", "F1000003"])
def test_paired_determinants_match_minors_reference(field):
    # alpha_beta on the values num/den (num where den is 0) against the
    # reference with unit dens, on the instances with distinct abscissae
    rng = random.Random(f"paired/{field.descriptor()}")
    checked = 0
    for _ in range(120):
        dens, nums, points, n, m, y = _paired_instance(field, rng)
        if len(set(points)) < len(points):
            continue
        values = [v / d if d != field.zero else v for d, v in zip(dens, nums)]
        samples = SampleSet1(list(zip(points, values)))
        profile = DegreeProfile.from_de(max(n, m), n - m)
        powers = [y ** j for j in range(max(n, m) + 1)]
        want = ref_paired_determinants([field.one] * len(points), values, points, n, m,
                                       powers)
        assert alpha_beta(samples, profile, y) == want
        checked += 1
    assert checked > 30


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7", "F1000003"])
def test_det_exact_matches_cofactor_reference(field):
    rng = random.Random(f"det/{field.descriptor()}")
    for _ in range(100):
        rows = _square(field, rng, rng.randint(1, 6))
        want = ref_det_cofactor([list(r) for r in rows], field.zero)
        assert det_exact(rows, field) == want


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7", "F1000003"])
def test_bordered_dets_match_laplace_on_minors(field):
    rng = random.Random(f"bordered/{field.descriptor()}")
    p = _prime(field)
    for _ in range(60):
        r = rng.randint(0, 5)
        data = _degenerate([[random_element(field, rng, 9) for _ in range(r + 1)]
                            for _ in range(r)], rng, field.zero, r + 1)
        borders = [[random_element(field, rng, 9) for _ in range(r + 1)]
                   for _ in range(rng.randint(1, 3))]
        data, borders = _int_rows(field, data), _int_rows(field, borders)
        got = bordered_dets(data, borders, p)
        assert got == _mod(_laplace_bordered(data, borders, 0), p)


class _Integers:
    """Z as a field of the instance generators: `bordered_dets` runs on plain
    ints with exact `//`."""
    zero, one = 0, 1

    @staticmethod
    def descriptor():
        return "z"


def _entry(field, rng):
    if field is _Integers:
        return rng.randint(-9, 9)
    return random_element(field, rng, 9)


def _laplace_bordered(data, borders, zero):
    """det([data; b]) for each border b by the Laplace reference."""
    r = len(data)
    if r == 0:
        return [b[0] for b in borders]
    minors = ref_maximal_minors(data, zero)
    out = []
    for b in borders:
        want = zero
        for j in range(r + 1):
            term = b[j] * minors[j]
            want = want - term if (r + j) % 2 else want + term
        out.append(want)
    return out


def _tall_instance(field, rng):
    """(data, borders, kept): a data block of more than r rows in which rows
    that are combinations of the rows kept before them (zero rows,
    duplicates, sums) are mixed in; `kept` are the rows the kernel keeps,
    r of them (then any rows may follow) or fewer (rank-deficient)."""
    zero = field.zero
    r = rng.randint(1, 5)
    while True:
        base = [[_entry(field, rng) for _ in range(r + 1)] for _ in range(r)]
        if any(x != zero for x in ref_maximal_minors(base, zero)):
            break
    rank = r if rng.random() < 0.6 else rng.randint(0, r - 1)
    data, kept = [], []
    for row in base[:rank]:
        while kept and rng.random() < 0.5:
            coeffs = [rng.choice((0, 0, 1, -1, 2, 3)) for _ in kept]
            data.append([sum((c * k[col] for c, k in zip(coeffs, kept)), zero)
                         for col in range(r + 1)])
        data.append(row)
        kept.append(row)
    for _ in range(rng.randint(1, 4) if rank == r else r + rng.randint(1, 3) - len(data)):
        if rank == r:
            data.append([_entry(field, rng) for _ in range(r + 1)])
        else:
            coeffs = [rng.choice((0, 1, -2)) for _ in kept]
            data.append([sum((c * k[col] for c, k in zip(coeffs, kept)), zero)
                         for col in range(r + 1)])
    borders = [[_entry(field, rng) for _ in range(r + 1)] for _ in range(rng.randint(1, 3))]
    return data, borders, kept


@pytest.mark.parametrize("field", (QQ, PrimeField(101), FP, _Integers),
                         ids=["Q", "F101", "F1000003", "Z"])
def test_bordered_dets_on_a_tall_block_match_laplace_on_kept_rows(field):
    rng = random.Random(f"tall/{field.descriptor()}")
    p = _prime(field)
    for _ in range(80):
        data, borders, kept = (_int_rows(field, rows) for rows in _tall_instance(field, rng))
        assert len(data) > len(borders[0]) - 1
        got = bordered_dets(iter(data), borders, p)
        if len(kept) < len(borders[0]) - 1:
            assert got == [0] * len(borders)
        else:
            assert got == _mod(_laplace_bordered(kept, borders, 0), p)
        # a square block of the kept rows gives the same determinants
        if len(kept) == len(borders[0]) - 1:
            assert bordered_dets(kept, borders, p) == got


@pytest.mark.parametrize("field", (QQ, FP, _Integers), ids=["Q", "F1000003", "Z"])
def test_bordered_dets_unit_borders_span_the_nullspace(field):
    # unit borders give the cofactor vector: a kernel vector of every data
    # row, the dropped ones included, nonzero when r rows are kept
    rng = random.Random(f"unit/{field.descriptor()}")
    for _ in range(40):
        data, borders, kept = _tall_instance(field, rng)
        r = len(borders[0]) - 1
        if len(kept) < r:
            continue
        data = _int_rows(field, data[:data.index(kept[-1]) + 1])
        units = [[int(i == j) for i in range(r + 1)] for j in range(r + 1)]
        p = _prime(field)
        v = bordered_dets(data, units, p)
        assert any(v)
        for row in data:
            assert _mod([sum(a * b for a, b in zip(row, v))], p) == [0]


def test_bordered_dets_over_integers_divide_exactly():
    # large entries: float division would lose digits
    rng = random.Random("big-ints")
    for _ in range(20):
        size = rng.randint(2, 6)
        rows = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(size)] for _ in range(size)]
        assert bordered_dets(rows[:-1], [rows[-1]]) == [brute_det(rows)]


def test_polyn_division_exact_or_raises():
    x, y = PolyN.var(QQ, 2, 0), PolyN.var(QQ, 2, 1)
    one = PolyN.const(QQ, 2, QQ.one)
    f = (x + y) * (x - one)
    assert f / (x - one) == x + y
    with pytest.raises(ArithmeticError):
        f / (x + one)
    with pytest.raises(InexactDivision):
        x / y


# ---------------------------------------------------------------------------
# checks carried over from the earlier determinant routes


def test_det_bareiss_matches_cofactor_route():
    # the kernel and the cofactor reference agree on random 4x4 matrices
    rng = random.Random(19)
    for _ in range(100):
        rows = [[random_element(QQ, rng, 9) for _ in range(4)] for _ in range(4)]
        bareiss = det_exact(rows, QQ)
        cofactor = ref_det_cofactor([list(r) for r in rows], QQ.zero)
        assert bareiss == cofactor


def test_det_cofactor_polyn_matches_brute_force():
    rng = random.Random(10)
    for _ in range(20):
        rows = [[PolyN(QQ, 2, {(rng.randint(0, 2), rng.randint(0, 2)):
                               random_element(QQ, rng, 5)})
                 + PolyN.const(QQ, 2, random_element(QQ, rng, 5))
                 for _ in range(3)] for _ in range(3)]
        want = brute_det(rows)
        assert ref_det_cofactor([list(r) for r in rows], PolyN.zero(QQ, 2)) == want


def test_maximal_minors_match_cofactors():
    rng = random.Random(11)
    for _ in range(30):
        r = rng.randint(1, 4)
        rows = [[random_element(QQ, rng, 9) for _ in range(r + 1)] for _ in range(r)]
        minors = ref_maximal_minors(rows, QQ.zero)
        for j in range(r + 1):
            sub = [[row[c] for c in range(r + 1) if c != j] for row in rows]
            assert minors[j] == brute_det(sub)
            # the same minor as a bordered determinant of the integer rows:
            # unit border at column j
            ints = _int_rows(QQ, rows)
            border = [int(c == j) for c in range(r + 1)]
            sign = -1 if (r + j) % 2 else 1
            assert bordered_dets(ints, [border])[0] == sign * ref_maximal_minors(ints, 0)[j]


# ---------------------------------------------------------------------------
# the modular path: integer rows eliminated mod p against the exact kernels


def _over_field(field, rows):
    return [[field.from_int(x) for x in row] for row in rows]


def _exact_mod_p(field, data, borders):
    """The reference kernel over F_p (FpElement entries, exact `/`), as
    residues: it keeps the same rows as an elimination mod p."""
    return [d.residue for d in ref_bordered_dets(_over_field(field, data),
                                                 _over_field(field, borders))]


def _independent_mod_p(kept, p):
    """Whether the r x (r+1) integer block has rank r mod p."""
    return any(x % p for x in ref_maximal_minors(kept, 0))


MOD_FIELDS = (PrimeField(101), FP)


@pytest.mark.parametrize("field", MOD_FIELDS, ids=["F101", "F1000003"])
def test_modular_bordered_dets_on_square_matrices(field):
    # unreduced integer entries, some large; the residue of the exact integer
    # determinant, and the same value as the exact kernel over F_p
    p = field.p
    rng = random.Random(f"mod-square/{p}")
    for _ in range(100):
        size = rng.randint(1, 6)
        bound = rng.choice((9, p, 10 ** 12))
        rows = _degenerate([[rng.randint(-bound, bound) for _ in range(size)]
                            for _ in range(size)], rng, 0, size)
        got = bordered_dets(rows[:-1], [rows[-1]], p)
        assert got == [brute_det(rows) % p]
        assert got == _exact_mod_p(field, rows[:-1], [rows[-1]])


@pytest.mark.parametrize("field", MOD_FIELDS, ids=["F101", "F1000003"])
def test_modular_bordered_dets_on_singular_mod_p_matrices(field):
    # a multiple of p added to one entry of a row copied from another: the
    # integer determinant is p times a cofactor, nonzero, and its residue 0
    p = field.p
    rng = random.Random(f"mod-singular/{p}")
    seen = 0
    for _ in range(60):
        size = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        i, j = rng.sample(range(size), 2)
        rows[j] = list(rows[i])
        rows[j][rng.randrange(size)] += p * rng.choice((1, -1, 2))
        exact = brute_det(rows)
        seen += exact != 0
        assert exact % p == 0
        assert bordered_dets(rows[:-1], [rows[-1]], p) == [0]
        assert bordered_dets(rows[:-1], [rows[-1]]) == [exact]
    assert seen > 30


@pytest.mark.parametrize("field", MOD_FIELDS, ids=["F101", "F1000003"])
def test_modular_bordered_dets_on_tall_blocks(field):
    # rows that depend on earlier ones are dropped mod p as over Z; where the
    # kept rows stay independent mod p the residues are the exact integer
    # kernel's, reduced
    p = field.p
    rng = random.Random(f"mod-tall/{p}")
    compared = 0
    for _ in range(80):
        data, borders, kept = _tall_instance(_Integers, rng)
        r = len(borders[0]) - 1
        got = bordered_dets(iter(data), borders, p)
        assert got == _exact_mod_p(field, data, borders)
        if len(kept) == r and _independent_mod_p(kept, p):
            assert got == [d % p for d in bordered_dets(data, borders)]
            compared += 1
        if len(kept) < r:
            assert got == [0] * len(borders)
    assert compared > 30


@pytest.mark.parametrize("field", MOD_FIELDS, ids=["F101", "F1000003"])
def test_modular_bordered_dets_unit_borders_span_the_nullspace(field):
    p = field.p
    rng = random.Random(f"mod-unit/{p}")
    for _ in range(40):
        data, borders, kept = _tall_instance(_Integers, rng)
        r = len(borders[0]) - 1
        if len(kept) < r:
            continue
        data = data[:data.index(kept[-1]) + 1]
        units = [[int(i == j) for i in range(r + 1)] for j in range(r + 1)]
        v = bordered_dets(data, units, p)
        assert v == _exact_mod_p(field, data, units)
        assert all(0 <= x < p for x in v)
        for row in data:
            assert sum(a * b for a, b in zip(row, v)) % p == 0
        if _independent_mod_p(kept, p):
            assert any(v)
            assert v == [x % p for x in bordered_dets(data, units)]


# ---------------------------------------------------------------------------
# the integer-only kernel and the conversion at det_exact's edge

MIXED = ((1, 2), (1, 3), (2, 7)), ((3, 5), (1, 1), (5, 3)), ((1, 1), (2, 9), (7, 4))


def _mixed_layouts(field, as_int):
    """The matrix MIXED over `field` with all entries elements, then with
    each entry that `as_int` maps to a plain int replaced by it, one at a
    time, then all of them at once."""
    rows = [[field.from_int(a) / field.from_int(b) for a, b in row] for row in MIXED]
    spots = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
             if as_int(x) is not None]
    yield rows
    for chosen in [[s] for s in spots] + [spots]:
        mixed = [list(row) for row in rows]
        for i, j in chosen:
            mixed[i][j] = as_int(mixed[i][j])
        yield mixed


def test_det_exact_on_mixed_rows_over_q():
    # a plain int beside Fractions once sent every division to `//`
    want = Fraction(4897, 7560)
    layouts = list(_mixed_layouts(QQ, lambda x: int(x) if x.denominator == 1 else None))
    assert len(layouts) == 4
    for rows in layouts:
        assert det_exact(rows, QQ) == want
        assert ref_det_cofactor(rows, 0) == want


def test_det_exact_on_mixed_rows_over_f101():
    # the same layouts over F_101, where any entry can be its residue
    field = PrimeField(101)
    layouts = list(_mixed_layouts(field, lambda x: x.residue))
    want = ref_det_cofactor(layouts[0], field.zero)
    assert len(layouts) == 11
    for rows in layouts:
        got = det_exact(rows, field)
        if all(type(x) is int for row in rows for x in row):
            assert got % field.p == want.residue    # rows of ints alone: an int
        else:
            assert isinstance(got, FpElement) and got == want


def test_det_exact_on_int_rows_gives_an_int():
    rows = [[2, 7, 1], [8, 2, 8], [1, 8, 2]]
    for field in (QQ, PrimeField(101)):
        got = det_exact(rows, field)
        assert type(got) is int and got == brute_det(rows)
        assert det_exact([], field) is field.one


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4), PrimeField(101).from_int(3),
                                   PolyN.const(QQ, 2, QQ.one)],
                         ids=["fraction", "integral-fraction", "fp", "polyn"])
@pytest.mark.parametrize("modulus", [None, 101], ids=["exact", "mod"])
@pytest.mark.parametrize("where", ["data", "border"])
def test_bordered_dets_refuses_non_int_entries(entry, modulus, where):
    data = [[2, 3, 5], [7, 11, 13]]
    border = [1, 4, 9]
    for i in range(3):
        rows, last = [list(r) for r in data], list(border)
        (rows[i % 2] if where == "data" else last)[i] = entry
        with pytest.raises(TypeError):
            bordered_dets(rows, [last], modulus)


@pytest.mark.parametrize("field", (QQ, FP), ids=["Q", "F1000003"])
def test_det_exact_refuses_polyn_rows(field):
    x = PolyN.var(field, 2, 0)
    one = PolyN.const(field, 2, field.one)
    with pytest.raises(FieldMismatch):
        det_exact([[x, one], [one, x]], field)
