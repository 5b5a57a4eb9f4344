"""Differential tests: the fraction-free bordered kernel against the
expansions it replaced.

The reference below is the earlier implementation, kept here and nowhere
else: a memoized Laplace expansion giving every maximal minor of an
r x (r+1) matrix (from which the paired determinants were assembled), and a
memoized cofactor expansion for square determinants.  Every instance must
give exactly the same value, over Q, small and large prime fields, and for
PolyN entries over both.
"""

import itertools
import random

import pytest

from ratrecon.errors import InexactDivision
from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.interp import paired_determinants
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
    """(dens, nums, points, n, m, powers) with zero dens, zero nums and
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
    y = pick()
    powers = [y ** j for j in range(max(n, m) + 1)]
    return dens, nums, points, n, m, powers


def _with_apowers(dens, nums, points, n, m, powers):
    """The arguments of `paired_determinants` for the reference's."""
    apowers = [[a ** j for j in range(max(n, m) + 1)] for a in points]
    return dens, nums, apowers, n, m, powers


def _sparse_polyn(field, rng, nvars=2, terms=2, deg=2):
    return PolyN(field, nvars, {tuple(rng.randint(0, deg) for _ in range(nvars)):
                                random_element(field, rng, 5) for _ in range(terms)})


# ---------------------------------------------------------------------------
# differential checks


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7", "F1000003"])
def test_paired_determinants_match_minors_reference(field):
    rng = random.Random(f"paired/{field.descriptor()}")
    for _ in range(120):
        args = _paired_instance(field, rng)
        assert paired_determinants(*_with_apowers(*args)) == ref_paired_determinants(*args)


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
    for _ in range(60):
        r = rng.randint(0, 5)
        data = _degenerate([[random_element(field, rng, 9) for _ in range(r + 1)]
                            for _ in range(r)], rng, field.zero, r + 1)
        borders = [[random_element(field, rng, 9) for _ in range(r + 1)]
                   for _ in range(rng.randint(1, 3))]
        got = bordered_dets(data, borders)
        if r == 0:
            assert got == [b[0] for b in borders]
            continue
        minors = ref_maximal_minors(data, field.zero)
        for b, d in zip(borders, got):
            want = field.zero
            for j in range(r + 1):
                term = b[j] * minors[j]
                want = want - term if (r + j) % 2 else want + term
            assert d == want


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
    for _ in range(80):
        data, borders, kept = _tall_instance(field, rng)
        assert len(data) > len(borders[0]) - 1
        got = bordered_dets(iter(data), borders)
        if len(kept) < len(borders[0]) - 1:
            assert got == [field.zero] * len(borders)
        else:
            assert got == _laplace_bordered(kept, borders, field.zero)
        # a square block of the kept rows gives the same determinants
        if len(kept) == len(borders[0]) - 1:
            assert bordered_dets(kept, borders) == got


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
        data = data[:data.index(kept[-1]) + 1]
        units = [[field.one if i == j else field.zero for i in range(r + 1)]
                 for j in range(r + 1)]
        v = bordered_dets(data, units)
        assert any(x != field.zero for x in v)
        for row in data:
            assert sum((a * b for a, b in zip(row, v)), field.zero) == field.zero


def test_bordered_dets_over_integers_divide_exactly():
    # large entries: float division would lose digits
    rng = random.Random("big-ints")
    for _ in range(20):
        size = rng.randint(2, 6)
        rows = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(size)] for _ in range(size)]
        assert bordered_dets(rows[:-1], [rows[-1]]) == [brute_det(rows)]


@pytest.mark.parametrize("field", (QQ, FP), ids=["Q", "F1000003"])
def test_paired_determinants_polyn_match_minors_reference(field):
    rng = random.Random(f"paired-polyn/{field.descriptor()}")
    y = PolyN.var(field, 2, 1)
    for _ in range(25):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        l = n + m
        points = [random_element(field, rng, 9) for _ in range(l + 1)]
        dens = [_sparse_polyn(field, rng) + PolyN.const(field, 2, field.one)
                for _ in range(l + 1)]
        nums = [_sparse_polyn(field, rng) for _ in range(l + 1)]
        if rng.random() < 0.3 and l >= 1:
            points[1] = points[0]
        powers = [PolyN.const(field, 2, field.one)]
        while len(powers) <= max(n, m):
            powers.append(powers[-1] * y)
        args = (dens, nums, points, n, m, powers)
        assert paired_determinants(*_with_apowers(*args)) == ref_paired_determinants(*args)


@pytest.mark.parametrize("field", (QQ, FP), ids=["Q", "F1000003"])
def test_det_exact_polyn_matches_cofactor_reference(field):
    rng = random.Random(f"det-polyn/{field.descriptor()}")
    zero = PolyN.zero(field, 2)
    for _ in range(25):
        size = rng.randint(1, 4)
        rows = [[_sparse_polyn(field, rng, terms=rng.randint(0, 2)) for _ in range(size)]
                for _ in range(size)]
        rows = _degenerate(rows, rng, zero, size)
        want = ref_det_cofactor([list(r) for r in rows], zero)
        assert det_exact(rows, field) == want


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
        assert det_exact(rows, QQ) == want


def test_maximal_minors_match_cofactors():
    rng = random.Random(11)
    for _ in range(30):
        r = rng.randint(1, 4)
        rows = [[random_element(QQ, rng, 9) for _ in range(r + 1)] for _ in range(r)]
        minors = ref_maximal_minors(rows, QQ.zero)
        for j in range(r + 1):
            sub = [[row[c] for c in range(r + 1) if c != j] for row in rows]
            assert minors[j] == brute_det(sub)
            # the same minor as a bordered determinant: unit border at column j
            border = [QQ.one if c == j else QQ.zero for c in range(r + 1)]
            sign = -1 if (r + j) % 2 else 1
            assert bordered_dets(rows, [border])[0] == sign * minors[j]


# ---------------------------------------------------------------------------
# the modular path: integer rows eliminated mod p against the exact kernels


def _over_field(field, rows):
    return [[field.from_int(x) for x in row] for row in rows]


def _exact_mod_p(field, data, borders):
    """The exact kernel over F_p (FpElement entries, exact `/`), as residues:
    it keeps the same rows as an elimination mod p."""
    return [d.residue for d in bordered_dets(_over_field(field, data),
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
