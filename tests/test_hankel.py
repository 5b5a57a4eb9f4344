import json
import math
import random
from fractions import Fraction

import pytest
import sympy

import ratrecon.hankel as hankel
from ratrecon.errors import NoSolution, PoleAtOrigin, PrefixTooShort
from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.hankel import (
    RationalityCertificate,
    SeriesPrefix,
    certify_rationality,
    hankel_matrix,
    pade_reconstruct,
    series_of_ratfun,
)
from ratrecon.matrix import Echelon, det_exact
from ratrecon.poly import WORD_PRIME, Poly1, _strip, field_prime, poly1_ints
from ratrecon.ratfun import RatFun1, eea_rows, lift_row, normalize_ratfun1, rat_lift

P = WORD_PRIME


def q(n, d=1):
    return Fraction(n, d)


def qs(*ints):
    return SeriesPrefix(QQ, [q(v) for v in ints])


def fib_prefix(n):
    vals = [1, 1]
    while len(vals) <= n:
        vals.append(vals[-1] + vals[-2])
    return qs(*vals[:n + 1])


def squares_prefix(n):
    # sum of t^(i*i): coefficient 1 at perfect squares
    import math
    return qs(*[1 if math.isqrt(i) ** 2 == i else 0 for i in range(n + 1)])


def kronecker_scan(s, l_max, m_max):
    """All (l, m) with l <= l_max, m <= m_max whose Hankel determinants
    vanish for every n with l <= n <= N - 2m, ordered by m then l: the
    bounds check of `certify_rationality` and, per m, Kronecker's
    criterion by the determinant scan `reference_l_min`."""
    hankel._check_bounds(s, l_max, m_max)
    return [(l, m) for m in range(m_max + 1)
            for l in range(reference_l_min(s, m), l_max + 1)]


def brute_series(num, den, k):
    """Naive long division oracle for Taylor coefficients."""
    out = []
    rem = list(num) + [Fraction(0)] * (k + 1)
    for i in range(k + 1):
        c = rem[i] / den[0]
        out.append(c)
        for j, d in enumerate(den):
            rem[i + j] -= c * d
    return out


def test_hankel_matrix_examples():
    s = fib_prefix(6)
    assert hankel_matrix(s, 0, 1) == [[1, 1], [1, 2]]
    assert hankel_matrix(s, 1, 1) == [[1, 2], [2, 3]]
    assert hankel_matrix(s, 0, 2) == [[1, 1, 2], [1, 2, 3], [2, 3, 5]]
    with pytest.raises(PrefixTooShort):
        hankel_matrix(s, 3, 2)


@pytest.mark.parametrize("n, m", [(-1, 1), (0, -1), (-2, -3)])
def test_hankel_matrix_refuses_negative_arguments(n, m):
    # a negative n would wrap through Python's negative indexing
    s = qs(1, 2, 3, 4, 5, 6, 7)
    with pytest.raises(ValueError, match=f"must be >= 0, got n={n}, m={m}"):
        hankel_matrix(s, n, m)


def test_kronecker_scan_fibonacci():
    s = fib_prefix(20)
    cands = kronecker_scan(s, 5, 5)
    assert (0, 2) in cands
    assert all(m != 1 or l > 0 for (l, m) in cands)  # 2x2 Fibonacci dets are +-1
    assert (0, 1) not in cands
    assert cands == sorted(cands, key=lambda lm: (lm[1], lm[0]))


def test_kronecker_scan_geometric():
    s = qs(*[1] * 12)
    assert (0, 1) in kronecker_scan(s, 3, 3)


def test_kronecker_scan_squares_empty():
    s = squares_prefix(30)
    assert kronecker_scan(s, 3, 3) == []


def test_kronecker_scan_prefix_too_short():
    with pytest.raises(PrefixTooShort):
        kronecker_scan(qs(1, 1, 1), 3, 3)


def test_pade_geometric():
    f = pade_reconstruct(qs(1, 1, 1, 1, 1), 0, 1)
    expected = normalize_ratfun1(Poly1.from_ints(QQ, [1]), Poly1.from_ints(QQ, [1, -1]))
    assert f == expected


def test_pade_fibonacci_denominator():
    f = pade_reconstruct(fib_prefix(5), 1, 2)
    scale = QQ.inv(f.den.eval(QQ.zero))
    assert f.den.scale(scale) == Poly1.from_ints(QQ, [1, -1, -1])  # 1 - t - t^2


def test_pade_zero_series():
    f = pade_reconstruct(qs(*[0] * 8), 2, 2)
    assert f.is_zero()


def test_pade_no_solution():
    # prefix 1, 0 with n_deg 0, m_deg 1 is fine; engineer a Q(0)=0-only case:
    # series t has a_0 = 0; forcing n_deg = 0 makes every valid Q kill a_1
    s = qs(0, 1, 0, 0)
    with pytest.raises(NoSolution):
        pade_reconstruct(s, 0, 1)


def test_pade_prefix_too_short():
    # [1/1] needs a_0..a_3
    with pytest.raises(PrefixTooShort):
        pade_reconstruct(qs(1, 1, 1), 1, 1)


def test_series_of_ratfun_examples():
    f = normalize_ratfun1(Poly1.from_ints(QQ, [1]), Poly1.from_ints(QQ, [1, -1]))
    assert series_of_ratfun(f, 4).coeffs == [1, 1, 1, 1, 1]
    inv_x = normalize_ratfun1(Poly1.from_ints(QQ, [1]), Poly1.from_ints(QQ, [0, 1]))
    with pytest.raises(PoleAtOrigin):
        series_of_ratfun(inv_x, 2)


def test_series_of_ratfun_matches_brute_force():
    rng = random.Random(21)
    for _ in range(40):
        num = [random_element(QQ, rng, 9) for _ in range(rng.randint(1, 4))]
        den = [random_element(QQ, rng, 9) for _ in range(rng.randint(1, 4))]
        if not any(den) or den[0] == 0:
            continue
        f = normalize_ratfun1(Poly1(QQ, num), Poly1(QQ, den))
        got = series_of_ratfun(f, 8).coeffs
        want = brute_series([f.num[i] for i in range(9)],
                            [f.den[i] for i in range(int(f.den.degree) + 1)], 8)
        assert got == want


def test_certify_fibonacci():
    cert = certify_rationality(fib_prefix(20), 5, 5)
    assert cert.verdict == "RationalWitness"
    scale = QQ.inv(cert.witness.den.eval(QQ.zero))
    assert cert.witness.den.scale(scale) == Poly1.from_ints(QQ, [1, -1, -1])
    assert series_of_ratfun(cert.witness, 20).coeffs == fib_prefix(20).coeffs


def test_certify_squares_no_witness():
    cert = certify_rationality(squares_prefix(40), 4, 4)
    assert cert.verdict == "NoWitnessUpTo"
    assert (cert.l, cert.m) == (4, 4)
    assert cert.witness is None


def test_certify_roundtrip_example():
    # (1+t)/(1-2t)
    f = normalize_ratfun1(Poly1.from_ints(QQ, [1, 1]), Poly1.from_ints(QQ, [1, -2]))
    s = series_of_ratfun(f, 20)
    cert = certify_rationality(s, 3, 3)
    assert cert.verdict == "RationalWitness"
    assert cert.witness == f


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_certify_roundtrip_random(field):
    rng = random.Random(22)
    done = 0
    while done < 50:
        num = Poly1(field, [random_element(field, rng, 9) for _ in range(rng.randint(1, 4))])
        den = Poly1(field, [random_element(field, rng, 9) for _ in range(rng.randint(1, 4))])
        if num.is_zero() or den.is_zero() or den.eval(field.zero) == field.zero:
            continue
        f = normalize_ratfun1(num, den)
        if f.is_zero() or f.den.eval(field.zero) == field.zero:
            continue
        s = series_of_ratfun(f, 20)
        cert = certify_rationality(s, 4, 4)
        assert cert.verdict == "RationalWitness"
        # witness re-expansion is checked in-test, not trusted from the module
        assert series_of_ratfun(cert.witness, 20).coeffs == s.coeffs
        assert cert.witness == f
        done += 1


def test_kronecker_necessity():
    # for f with den(0) != 0 and deg den = m, H_n^m vanishes for
    # n >= deg num - m + 1
    rng = random.Random(23)
    done = 0
    while done < 50:
        num = Poly1(QQ, [random_element(QQ, rng, 9) for _ in range(rng.randint(1, 4))])
        den = Poly1(QQ, [random_element(QQ, rng, 9) for _ in range(rng.randint(1, 4))])
        if num.is_zero() or den.is_zero() or den.eval(QQ.zero) == QQ.zero:
            continue
        f = normalize_ratfun1(num, den)
        if f.is_zero():
            continue
        m = int(f.den.degree)
        s = series_of_ratfun(f, 25)
        start = max(int(f.num.degree) - m + 1, 0)
        for n in range(start, 25 - 2 * m + 1):
            assert det_exact(hankel_matrix(s, n, m), QQ) == QQ.zero
        done += 1


def test_certificate_json_shape():
    cert = certify_rationality(fib_prefix(20), 5, 5)
    obj = cert.to_json()
    assert obj["verdict"] == "RationalWitness"
    assert obj["witness_den_at0is1"] == "1 - t - t^2"
    s = SeriesPrefix.from_json(fib_prefix(6).to_json())
    assert s.coeffs == fib_prefix(6).coeffs


def test_negative_bounds_rejected():
    s = fib_prefix(20)
    for l_max, m_max in ((-1, 2), (2, -1), (-1, -1)):
        with pytest.raises(ValueError):
            kronecker_scan(s, l_max, m_max)
        with pytest.raises(ValueError):
            certify_rationality(s, l_max, m_max)


# -- reference: the eager scan that computes every determinant first --------


def eager_kronecker_scan(s, l_max, m_max):
    if s.n_max < l_max + 2 * m_max:
        raise PrefixTooShort("too short")
    zero = s.field.zero
    out = []
    for m in range(m_max + 1):
        dets = [det_exact(hankel_matrix(s, n, m), s.field)
                for n in range(s.n_max - 2 * m + 1)]
        l_min = len(dets)
        while l_min > 0 and dets[l_min - 1] == zero:
            l_min -= 1
        for l in range(l_min, l_max + 1):
            out.append((l, m))
    out.sort(key=lambda lm: (lm[1], lm[0]))
    return out


def eager_certify_rationality(s, l_max, m_max):
    for (l, m) in eager_kronecker_scan(s, l_max, m_max):
        for n_deg in range(max(l + m - 1, 0), l_max + m_max + 1):
            if s.n_max < n_deg + m + 1:
                break
            try:
                f = pade_reconstruct(s, n_deg, m)
            except NoSolution:
                continue
            if reference_matches_prefix(f, s):
                return RationalityCertificate(
                    "RationalWitness", l, m, f, len(s.coeffs))
    return RationalityCertificate("NoWitnessUpTo", l_max, m_max, None, len(s.coeffs))


def reference_certify(s, l_max, m_max):
    """The search before witnesses were read off the walk: for each m with
    l_min(m) <= l_max (by the determinant scan `reference_l_min`), the Pade
    approximant [n/m] for each n from l + m - 1 up to the bound, the first
    that re-expands to the prefix."""
    hankel._check_bounds(s, l_max, m_max)
    for m in range(m_max + 1):
        l = reference_l_min(s, m)
        if l > l_max:
            continue
        for n_deg in range(max(l + m - 1, 0), l_max + m_max + 1):
            if s.n_max < n_deg + m + 1:
                break
            try:
                f = pade_reconstruct(s, n_deg, m)
            except NoSolution:
                continue
            if reference_matches_prefix(f, s):
                return RationalityCertificate(
                    "RationalWitness", l, m, f, len(s.coeffs))
    return RationalityCertificate("NoWitnessUpTo", l_max, m_max, None, len(s.coeffs))


def random_prefix(field, rng, n_terms):
    kind = rng.choice(["zero", "poly", "shifted", "sparse", "random",
                       "factorial", "rational", "rational"])
    if kind == "zero":
        return [field.zero] * n_terms
    if kind == "sparse":
        return [field.from_int(int(rng.random() < 0.2)) for _ in range(n_terms)]
    if kind == "random":
        return [random_element(field, rng, 9) for _ in range(n_terms)]
    if kind == "factorial":
        c, r = rng.randint(1, 9), rng.randint(1, 5)
        return [field.from_int(c * r ** k * math.factorial(k)) for k in range(n_terms)]
    num = [random_element(field, rng, 9) for _ in range(rng.randint(1, 5))]
    if kind == "shifted":
        num = [field.zero] * rng.randint(1, 4) + num
    if kind in ("poly", "shifted"):
        return (num + [field.zero] * n_terms)[:n_terms]
    den = [field.one] + [random_element(field, rng, 9) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        num = [field.zero] * rng.randint(1, 3) + num
    f = normalize_ratfun1(Poly1(field, num), Poly1(field, den))
    return series_of_ratfun(f, n_terms - 1).coeffs


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7),
                                   PrimeField(1000003)])
def test_scan_and_certificate_match_eager_reference(field):
    rng = random.Random(f"hankel-diff/{field.descriptor()}")
    for _ in range(130):
        n_terms = rng.randint(1, 17)
        s = SeriesPrefix(field, random_prefix(field, rng, n_terms))
        m_max = rng.randint(0, (n_terms - 1) // 2)
        l_max = rng.randint(0, n_terms - 1 - 2 * m_max)
        assert kronecker_scan(s, l_max, m_max) == eager_kronecker_scan(s, l_max, m_max)
        got = json.dumps(certify_rationality(s, l_max, m_max).to_json(), sort_keys=True)
        want = json.dumps(eager_certify_rationality(s, l_max, m_max).to_json(),
                          sort_keys=True)
        assert got == want


@pytest.fixture
def eliminations(monkeypatch):
    """The rows of every `matrix.Echelon.add` call, the one elimination step
    of every determinant and nullspace."""
    rows = []
    add = Echelon.add

    def spy(self, row):
        rows.append(row)
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", spy)
    return rows


@pytest.fixture
def kronecker_ls(monkeypatch):
    """(m, l) of every `_kronecker_l` call, in order."""
    seen = []
    closed_form = hankel._kronecker_l

    def spy(r, m):
        seen.append((m, closed_form(r, m)))
        return seen[-1][1]

    monkeypatch.setattr(hankel, "_kronecker_l", spy)
    return seen


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_refusal_computes_no_determinant(field, eliminations, kronecker_ls):
    # no extended-Euclid row of the factorial prefix is a witness row, so no
    # l_min(m) is needed
    s = SeriesPrefix(field, [field.from_int(3 * 2 ** k * math.factorial(k))
                             for k in range(31)])
    cert = certify_rationality(s, 8, 10)
    assert cert.verdict == "NoWitnessUpTo"
    assert (eliminations, kronecker_ls) == ([], [])


# -- reference: the plain top-down scan that the closed form replaces -------


def reference_l_min(s, m):
    """Smallest l with det H(n, m) = 0 for l <= n <= N - 2m: every
    determinant from n = N - 2m downward, on the field elements, until the
    first nonzero one."""
    for n in range(s.n_max - 2 * m, -1, -1):
        if det_exact(hankel_matrix(s, n, m), s.field) != s.field.zero:
            return n + 1
    return 0


def nonnormal_prefix(field, rng, kind, n_terms):
    """A prefix whose Pade table has blocks: runs of zero coefficients, the
    zero series, terminating (polynomial) series, rational series with
    leading zeros or repeated denominator factors, or factorial refusals."""
    if kind == "zero":
        return [field.zero] * n_terms
    if kind == "zero_runs":
        out = []
        while len(out) < n_terms:
            run = rng.randint(1, 5)
            out += ([field.zero] * run if rng.random() < 0.5 else
                    [random_element(field, rng, 9) for _ in range(run)])
        return out[:n_terms]
    if kind == "factorial":
        c, r = rng.randint(1, 9), rng.randint(1, 5)
        return [field.from_int(c * r ** k * math.factorial(k)) for k in range(n_terms)]
    num = [field.zero] * rng.randint(0, 4) + \
        [random_element(field, rng, 9) for _ in range(rng.randint(1, 5))]
    if kind == "poly":
        return (num + [field.zero] * n_terms)[:n_terms]
    # kind == "rational": a power of (1 - c t^k) in the denominator
    c, k, e = random_element(field, rng, 9), rng.randint(1, 3), rng.randint(1, 3)
    factor = Poly1(field, [field.one] + [field.zero] * (k - 1) + [-c])
    den = Poly1(field, [field.one])
    for _ in range(e):
        den = den * factor
    f = normalize_ratfun1(Poly1(field, num), den)
    return series_of_ratfun(f, n_terms - 1).coeffs


NONNORMAL_KINDS = ("zero", "zero_runs", "factorial", "poly", "rational")


def last_rows(s, rows, m_top):
    """(m, r, t) for each m <= m_top whose last row of `rows` with
    deg t <= m has deg r <= N - m - 1: the row `_certify` takes for m under
    the widest bounds, m's candidate when t(0) != 0."""
    out = []
    for m in range(m_top + 1):
        fit = [(r, t) for r, t in rows if len(t) <= m + 1]
        if fit and len(fit[-1][0]) <= s.n_max - m:
            out.append((m, *fit[-1]))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(101), PrimeField(1000003)])
def test_l_min_matches_the_top_down_reference(field):
    # at every candidate row of 200 non-normal prefixes the closed form
    # max(deg r - m + 1, 0) is the determinant scan's l_min(m); over Q also
    # at every image row that lifts and passes the exact check
    rng = random.Random(f"l-min/{field.descriptor()}")
    rows_seen = {"r = 0": 0, "t(0) = 0": 0}
    checked = {"walk": 0, "lifted": 0}
    for case in range(200):
        kind = NONNORMAL_KINDS[case % len(NONNORMAL_KINDS)]
        n_terms = rng.randint(1, 26)
        s = SeriesPrefix(field, nonnormal_prefix(field, rng, kind, n_terms))
        m_top = s.n_max // 2
        ints, den, p, rows = hankel._walk(s, m_top)
        for r, t in eea_rows([0] * n_terms + [1], _strip(list(ints)), p):
            rows_seen["r = 0"] += not r
            rows_seen["t(0) = 0"] += t[0] == 0
        lifts = []
        if p is None:
            for m, r, t in last_rows(s, hankel._walk(s, m_top, P)[3], m_top):
                lifted = lift_row(r, t, P, 0 if t[0] else -1, den)
                if lifted is not None and hankel._solves(*lifted, ints, den):
                    lifts.append((m, *lifted))
        for source, found in (("walk", last_rows(s, rows, m_top)), ("lifted", lifts)):
            for m, r, t in found:
                if t[0]:
                    assert hankel._kronecker_l(r, m) == reference_l_min(s, m), \
                        (kind, s.coeffs, m, source)
                    checked[source] += 1
    # the inputs reach both kinds of non-normal row
    assert all(rows_seen.values()), rows_seen
    assert checked["walk"] > 600, checked
    assert field_prime(field) or checked["lifted"] > 600, checked


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_zero_tails_walk_stops_at_m_max(field, monkeypatch):
    # a row with deg t > m_max is no witness row for an m <= m_max: the walk
    # yields none, and the closed form on each candidate of the bounded walk
    # is the top-down scan's l_min(m)
    rng = random.Random(f"zero-tails/{field.descriptor()}")
    walks = []

    def spy_rows(modulus, u, p, top):
        walks.append(list(eea_rows(modulus, u, p, top)))
        return iter(walks[-1])

    monkeypatch.setattr(hankel, "eea_rows", spy_rows)
    for case in range(100):
        kind = NONNORMAL_KINDS[case % len(NONNORMAL_KINDS)]
        s = SeriesPrefix(field, nonnormal_prefix(field, rng, kind, rng.randint(1, 26)))
        m_max = rng.randint(0, s.n_max // 2)
        ints, _, p, got = hankel._walk(s, m_max)
        rows = list(eea_rows([0] * (s.n_max + 1) + [1], _strip(list(ints)), p))
        assert walks[-1] == got == [(r, t) for r, t in rows if len(t) - 1 <= m_max]
        for m, r, t in last_rows(s, got, m_max):
            if t[0]:
                assert hankel._kronecker_l(r, m) == reference_l_min(s, m), \
                    (kind, s.coeffs, m)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_witness_at_m10_takes_l_min_once_with_no_determinant(field, eliminations,
                                                             kronecker_ls):
    # P/Q with deg P = 3 and deg Q = 10: for m < 10 no extended-Euclid row is
    # a witness row, so l_min(m) is not needed; at m = 10 it is read off the
    # witness row, max(3 - 10 + 1, 0) = 0, with no determinant
    num = Poly1.from_ints(field, [2, -1, 3, 5])
    den = Poly1.from_ints(field, [1, 4, -2, 0, 1, 3, -1, 2, 0, 1, 7])
    f = normalize_ratfun1(num, den)
    s = series_of_ratfun(f, 8 + 2 * 12 + 4)
    cert = certify_rationality(s, 8, 12)
    assert (cert.verdict, cert.l, cert.m, cert.witness) == ("RationalWitness", 0, 10, f)
    assert (kronecker_ls, eliminations) == ([(10, 0)], [])


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_certificate_walks_once_and_computes_no_pade_approximant(field, monkeypatch,
                                                                kronecker_ls):
    # Fibonacci within wide and tight bounds, whose witness row has deg t = 2;
    # a factorial refusal; and t^3, whose row (0, t) at m = 1 has t(0) = 0,
    # so it is no witness row and l_min(1) is not needed.  Over Q all four
    # are settled on the one walk mod the word prime: t^3's image row lifts
    # to (0, t), which the exact check proves a row over Q
    walks = []

    def spy_rows(*args):
        walks.append(args)
        return eea_rows(*args)

    def no_call(*args):
        raise AssertionError("the certificate computes no Pade approximant")

    monkeypatch.setattr(hankel, "eea_rows", spy_rows)
    monkeypatch.setattr(hankel, "pade_reconstruct", no_call)
    monkeypatch.setattr(hankel, "rational_reconstruct", no_call)
    fact = [math.factorial(k) for k in range(31)]
    fib = [int(c) for c in fib_prefix(24).coeffs]
    own = field_prime(field) or P
    for coeffs, l_max, m_max, verdict, ms, primes in (
            (fib, 5, 5, "RationalWitness", [2], [own]),
            (fib, 0, 2, "RationalWitness", [2], [own]),
            (fact, 8, 10, "NoWitnessUpTo", [], [own]),
            ([0, 0, 0, 1], 1, 1, "NoWitnessUpTo", [], [own])):
        walks.clear()
        kronecker_ls.clear()
        s = SeriesPrefix(field, [field.from_int(c) for c in coeffs])
        assert certify_rationality(s, l_max, m_max).verdict == verdict
        assert ([p for _, _, p, _ in walks], [m for m, _ in kronecker_ls]) == (primes, ms)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7), PrimeField(101),
                                   PrimeField(1000003)])
def test_certificate_is_the_pade_search_on_every_prefix_kind(field):
    # at least 3000 prefixes over the five fields: every certificate, verdict,
    # (l, m) and witness, equals the search that tries each Pade approximant
    rng = random.Random(f"hankel-rows/{field.descriptor()}")
    witnesses = 0
    for case in range(640):
        n_terms = rng.randint(1, 25)
        if case % 2:
            coeffs = nonnormal_prefix(field, rng, NONNORMAL_KINDS[case // 2 % 5], n_terms)
        else:
            coeffs = random_prefix(field, rng, n_terms)
        s = SeriesPrefix(field, coeffs)
        m_max = rng.randint(0, min(8, s.n_max // 2))
        l_max = rng.randint(0, min(8, s.n_max - 2 * m_max))
        got = certify_rationality(s, l_max, m_max).to_json()
        want = reference_certify(s, l_max, m_max).to_json()
        assert got == want, (coeffs, l_max, m_max)
        witnesses += "witness" in got
    assert witnesses > 150, witnesses


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7), PrimeField(101),
                                   PrimeField(1000003)])
def test_certificate_eliminates_no_row(field, eliminations):
    # every random and non-normal prefix kind, and over Q the bench-shaped
    # witnesses and refusals: no row reaches the elimination kernel of every
    # determinant and nullspace
    rng = random.Random(f"no-elimination/{field.descriptor()}")
    verdicts = set()
    for case in range(300):
        n_terms = rng.randint(1, 25)
        if field is QQ and case % 7 == 6:
            coeffs, l_max, m_max = bench_series(rng, BENCH_SHAPES[case // 7 % 3])
        else:
            coeffs = (nonnormal_prefix(field, rng, NONNORMAL_KINDS[case // 2 % 5], n_terms)
                      if case % 2 else random_prefix(field, rng, n_terms))
            m_max = rng.randint(0, min(8, (len(coeffs) - 1) // 2))
            l_max = rng.randint(0, min(8, len(coeffs) - 1 - 2 * m_max))
        verdicts.add(certify_rationality(SeriesPrefix(field, coeffs), l_max, m_max).verdict)
    assert eliminations == []
    assert verdicts == {"RationalWitness", "NoWitnessUpTo"}


@pytest.mark.parametrize("coeffs,m,det", [
    ((1, 2, 3, 4, P), 0, P),            # H(4, 0) = (P)
    ((1, 2, 1, 1, P + 1), 1, P),        # H(2, 1) = [[1, 1], [1, P + 1]]
    ((1, 2, 1, 0, 2 * P), 1, 2 * P),    # H(2, 1) = [[1, 0], [0, 2P]]
])
def test_q_zero_residue_takes_the_exact_determinant(coeffs, m, det, eliminations):
    # the top determinant H(N - 2m, m) is a nonzero multiple of the word
    # prime: its residue is 0, so only the exact determinant may decide, and
    # it does; the certificate, which takes no determinant, is the eager one
    s = qs(*coeffs)
    n = s.n_max - 2 * m
    assert det_exact(hankel_matrix(s, n, m), QQ) == det and det % P == 0
    assert reference_l_min(s, m) == n + 1
    for l_max, m_max in ((0, 0), (4, 0), (2, 1), (0, 2)):
        eliminations.clear()
        got = json.dumps(certify_rationality(s, l_max, m_max).to_json(), sort_keys=True)
        assert eliminations == []
        want = json.dumps(eager_certify_rationality(s, l_max, m_max).to_json(),
                          sort_keys=True)
        assert got == want


def reference_matches_prefix(f, s):
    """The witness check before it ran on integers: the exact re-expansion of
    f on the field elements equals the whole prefix."""
    try:
        return series_of_ratfun(f, s.n_max).coeffs == s.coeffs
    except PoleAtOrigin:
        return False


@pytest.mark.parametrize("height", [9, 2 ** 31, 10 ** 40],
                         ids=["height-9", "height-2^31", "height-10^40"])
def test_matches_prefix_is_the_re_expansion_check(height):
    # pairs P/Q over Q of coefficients of the given height, not always
    # coprime and Q(0) sometimes 0, against prefixes that are their series,
    # that series with one coefficient moved, or unrelated; P/Q and
    # t*P/(t*Q) have the same series but only the first has Q(0) != 0
    field = QQ
    rng = random.Random(f"matches/q/{height}")
    t = Poly1(field, [field.zero, field.one])
    seen = {True: 0, False: 0}
    for case in range(150):
        num = Poly1(field, [random_element(field, rng, height)
                            for _ in range(rng.randint(0, 5))])
        den = Poly1(field, [random_element(field, rng, height)
                            for _ in range(rng.randint(1, 5))])
        if den.is_zero():
            continue
        n_terms = rng.randint(1, 20)
        q0 = den.eval(field.zero) != field.zero
        if q0 and case % 3:
            coeffs = series_of_ratfun(RatFun1(num, den), n_terms - 1).coeffs
            if case % 3 == 2:
                k = rng.randrange(n_terms)
                coeffs[k] = coeffs[k] + field.one
        else:
            coeffs = [random_element(field, rng, height) for _ in range(n_terms)]
        s = SeriesPrefix(field, coeffs)
        ints, den_ints, _, _ = hankel._walk(s, 0)
        for f in (RatFun1(num, den), RatFun1(num * t, den * t)):
            want = reference_matches_prefix(f, s)
            # P/Q = (pn*qd)/(qn*pd), one integer row
            (pn, pd), (qn, qd) = poly1_ints(f.num), poly1_ints(f.den)
            r, u = [c * qd for c in pn], [c * pd for c in qn]
            got = qn[0] != 0 and hankel._solves(r, u, ints, den_ints)
            assert got == want, (num, den, coeffs)
            seen[want] += 1
    assert min(seen.values()) > 30, seen


# -- over Q: the certificate settled on the word-prime image ----------------


def q_path(s, l_max, m_max):
    """`certify_rationality` on the walk over Q alone: the image is off."""
    return hankel._certify(s, l_max, m_max, None)


@pytest.fixture
def images(monkeypatch):
    """The result of every `_certify` call mod `WORD_PRIME`, in order (None
    where the walk over Q answers)."""
    seen = []
    certify = hankel._certify

    def spy(s, l_max, m_max, q):
        cert = certify(s, l_max, m_max, q)
        if q == P:
            seen.append(cert)
        return cert

    monkeypatch.setattr(hankel, "_certify", spy)
    return seen


@pytest.fixture
def walk_primes(monkeypatch):
    """The prime of every `eea_rows` walk the certificate starts: WORD_PRIME
    for the image, None for the walk over Q."""
    primes = []

    def spy(modulus, u, p, top):
        primes.append(p)
        return eea_rows(modulus, u, p, top)

    monkeypatch.setattr(hankel, "eea_rows", spy)
    return primes


def bench_series(rng, shape):
    """As the benchmark's Q certificates, (coeffs, l_max, m_max): the prefix
    of P/Q with deg P = n0, deg Q = m0, Q(0) = 1 and coefficients of height
    9, l_max + 2*m_max + 5 terms long, or c * r^k * k! for 41 terms."""
    if shape == "factorial":
        c, r = rng.randint(1, 9), rng.randint(1, 5)
        return [q(c * r ** k * math.factorial(k)) for k in range(41)], 10, 10
    n0, m0, l_max, m_max = shape

    def height9(nonzero=False):
        while True:
            c = q(rng.randint(-9, 9), rng.randint(1, 9))
            if c or not nonzero:
                return c
    num = [height9() for _ in range(n0)] + [height9(True)]
    den = [q(1)] + [height9() for _ in range(m0 - 1)] + [height9(True)]
    f = RatFun1(Poly1(QQ, num), Poly1(QQ, den))
    return series_of_ratfun(f, l_max + 2 * m_max + 4).coeffs, l_max, m_max


BENCH_SHAPES = ((2, 6, 6, 8), (3, 10, 8, 12), "factorial")


def test_image_certificate_is_the_q_walk_on_every_prefix_kind(images):
    # 2100 prefixes over Q: seeded random and non-normal ones of up to 25
    # terms, and bench-shaped rational and factorial ones; every certificate
    # equals the one of the walk over Q, byte for byte
    rng = random.Random("hankel-image")
    settled = {"witness": 0, "refusal": 0}
    for case in range(2100):
        if case % 7 == 6:
            coeffs, l_max, m_max = bench_series(rng, BENCH_SHAPES[case // 7 % 3])
        else:
            n_terms = rng.randint(1, 25)
            if case % 2:
                coeffs = nonnormal_prefix(QQ, rng, NONNORMAL_KINDS[case // 2 % 5], n_terms)
            else:
                coeffs = random_prefix(QQ, rng, n_terms)
            m_max = rng.randint(0, min(8, (n_terms - 1) // 2))
            l_max = rng.randint(0, min(8, n_terms - 1 - 2 * m_max))
        s = SeriesPrefix(QQ, coeffs)
        got = json.dumps(certify_rationality(s, l_max, m_max).to_json(), sort_keys=True)
        want = json.dumps(q_path(s, l_max, m_max).to_json(), sort_keys=True)
        assert got == want, (coeffs, l_max, m_max)
        if images[-1] is not None:
            settled["witness" if images[-1].witness else "refusal"] += 1
    # all are settled on the image, witnesses and refusals alike
    assert len(images) == 2100
    assert sum(settled.values()) == 2100 and min(settled.values()) > 400, settled


@pytest.mark.parametrize("name, coeffs, l_max, m_max, verdict, primes", [
    # the prefix's denominator is the word prime
    ("den", [q(a) + q(b, P) for a, b in zip(fib_prefix(20).coeffs,
                                            [0] + fib_prefix(19).coeffs)],
     3, 3, "RationalWitness", [P, None]),
    # the witness (1 + 40000 t)/(1 - t) has a coefficient beyond sqrt(p/2)
    ("bound", [q(1)] + [q(40001)] * 12, 2, 2, "RationalWitness", [P, None]),
    # t^3: the image row (0, t) at m = 1 has t(0) = 0; its lift is checked
    # exactly, which proves that m = 1 has no candidate, and the image refuses
    ("t(0)", [q(0), q(0), q(0), q(1)], 1, 1, "NoWitnessUpTo", [P]),
    # P/(1 - t)^2: the image is the zero series, whose row (0, 1) lifts to
    # the witness 0, and the exact check refuses it
    ("check", [q(k * P) for k in range(1, 14)], 3, 3, "RationalWitness", [P, None]),
])
def test_forced_fallbacks_answer_exactly(name, coeffs, l_max, m_max, verdict, primes,
                                         images, walk_primes):
    s = SeriesPrefix(QQ, coeffs)
    cert = certify_rationality(s, l_max, m_max)
    assert walk_primes == primes
    assert images == [None if primes[-1] is None else cert]
    assert cert.verdict == verdict
    if cert.witness is not None:
        assert series_of_ratfun(cert.witness, s.n_max).coeffs == coeffs
    assert cert.to_json() == q_path(s, l_max, m_max).to_json()


def test_a_coefficient_beyond_the_bound_has_no_lift():
    bound = math.isqrt(P // 2)
    assert rat_lift([40000], P) is None
    assert rat_lift([-bound % P, pow(bound, -1, P)], P) == [-bound * bound, 1]


def test_bench_shaped_q_certificates_walk_the_image_only(walk_primes):
    rng = random.Random(4501)
    for case in range(60):
        coeffs, l_max, m_max = bench_series(rng, BENCH_SHAPES[case % 3])
        cert = certify_rationality(SeriesPrefix(QQ, coeffs), l_max, m_max)
        assert cert.verdict == ("NoWitnessUpTo" if case % 3 == 2 else "RationalWitness")
        assert walk_primes == [P] * (case + 1)


def test_lifted_witnesses_re_expand_to_the_prefix_under_sympy(images):
    # 200 witnesses settled on the image: sympy's series of P/Q, an
    # expansion independent of this library, is the whole prefix
    rng = random.Random("hankel-sympy")
    t = sympy.Symbol("t")
    checked = 0
    while checked < 200:
        coeffs = random_prefix(QQ, rng, rng.randint(2, 20))
        s = SeriesPrefix(QQ, coeffs)
        m_max = rng.randint(0, min(4, s.n_max // 2))
        cert = certify_rationality(s, s.n_max - 2 * m_max, m_max)
        if images[-1] is None or cert.witness is None:
            continue
        w = cert.witness
        num, den = (sum(sympy.Rational(c.numerator, c.denominator) * t ** k
                        for k, c in enumerate(part.coeffs))
                    for part in (w.num, w.den))
        series = sympy.series(num / den, t, 0, len(coeffs)).removeO()
        got = [series.coeff(t, k) for k in range(len(coeffs))]
        assert got == [sympy.Rational(c.numerator, c.denominator) for c in coeffs]
        checked += 1
