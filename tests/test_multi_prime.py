"""Forced multi-prime cases of every univariate reconstruction over Q.

Over Q each reconstruction reads its rows off walks mod word primes,
`poly.WORD_PRIME` first and then the primes below it, joined by CRT,
lifted and checked exactly (`ratfun.lift_rows`).  Each case here makes
the first prime fail in one way: a denominator 0 mod a prime, abscissae
congruent mod the first prime, a coefficient beyond what one or two
primes lift, a first image row that is not coprime mod the prime; or it
has a row over Q that is not coprime.  Every answer is held to the walk
over Q (`q_walk`) or to the Poly1 extended Euclid of
`tests/test_rational_reconstruct.py`, and to sympy where it applies; each
case pins the primes whose images answered.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest
import q_walk
import sympy
from test_rational_reconstruct import SwitchingOracle, eea_reconstruct
from test_word_lift import exact_point

from ratrecon import hankel, interp, ratfun
from ratrecon.errors import BetaZero, NoFit
from ratrecon.fields import QQ
from ratrecon.hankel import (
    SeriesPrefix,
    certify_rationality,
    pade_reconstruct,
    series_of_ratfun,
)
from ratrecon.interp import (
    DegreeProfile,
    SampleSet1,
    detect_profile_with_fit,
    fit_ratfun,
    interp_point,
)
from ratrecon.poly import Poly1
from ratrecon.ratfun import RatFun1, moduli, normalize_ratfun1, rational_reconstruct
from ratrecon.reconstruct import ReconConfig

P1, P2, P3, P4, P5 = islice(moduli(None, lambda: 10 ** 6), 5)
X = sympy.Symbol("x")


@pytest.fixture
def taken(monkeypatch):
    """For every `lift_rows` call of `interp`, `hankel` and `ratfun`, in
    order, the primes whose images it took."""
    calls = []
    lift_rows = ratfun.lift_rows

    def spy(image, check, p, bits, den=1):
        calls.append([])

        def spied(q):
            calls[-1].append(q)
            return image(q)
        return lift_rows(spied, check, p, bits, den)

    for module in (interp, hankel, ratfun):
        monkeypatch.setattr(module, "lift_rows", spy)
    return calls


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoFit, BetaZero) as exc:
        return type(exc)


def qpoly(*cs):
    return Poly1(QQ, [Fraction(c) for c in cs])


def to_sympy(f: RatFun1):
    return (sum(sympy.Rational(c.numerator, c.denominator) * X ** k
                for k, c in enumerate(f.num.coeffs))
            / sum(sympy.Rational(c.numerator, c.denominator) * X ** k
                  for k, c in enumerate(f.den.coeffs)))


BIG = Fraction(10 ** 6, 7)        # beyond sqrt(p1/2), within sqrt(p1*p2/2)
HUGE = Fraction(10 ** 12, 7)      # beyond sqrt(p1*p2/2)

# (name, numerator over x^2 + 3, abscissae, the primes that answer the fit)
FIT_CASES = [
    ("den-p1", qpoly(1, 2), [Fraction(1, P1), 2, 3, 4, 5], [P1, P2]),
    ("den-p2", qpoly(BIG, 2), [Fraction(1, P2), 2, 3, 4, 5], [P1, P2, P3]),
    ("congruent", qpoly(1, 2), [1, 1 + P1, 2, 3, 4], [P1, P2]),
    ("within", qpoly(BIG, 1), [1, 2, 3, 4, 5], [P1, P2]),
    ("beyond", qpoly(HUGE, 1), [1, 2, 3, 4, 5], [P1, P2, P3, P4]),
    # (x - 1 - P1)/(x - 1 - 2*P1): mod P1 its row at x = 1..4 is
    # (x - 1, x - 1), not coprime, yet the image of the coprime row over Q
    ("not-coprime-mod-p1", None, [1, 2, 3, 4], [P1, P2, P3, P4]),
]


def case_function(name, num):
    if name == "not-coprime-mod-p1":
        return normalize_ratfun1(qpoly(-1 - P1, 1), qpoly(-1 - 2 * P1, 1))
    return normalize_ratfun1(num, qpoly(3, 0, 1))


@pytest.mark.parametrize("name, num, xs, primes", FIT_CASES,
                         ids=[case[0] for case in FIT_CASES])
def test_fit_and_point_take_the_next_primes(name, num, xs, primes, taken):
    f = case_function(name, num)
    xs = [Fraction(x) for x in xs]
    n, m = int(f.num.degree), int(f.den.degree)
    samples = SampleSet1([(x, f.eval(x)) for x in xs[:n + m + 2]])
    assert fit_ratfun(samples, n, m) == q_walk.fit(samples, n, m) == f
    assert taken == [primes]
    # sympy: the fit's values at the samples
    assert all(to_sympy(f).subs(X, sympy.Rational(x.numerator, x.denominator))
               == sympy.Rational(v.numerator, v.denominator) for x, v in samples.points)
    head = SampleSet1(samples.points[:n + m + 1])
    profile = DegreeProfile.from_de(max(n, m), n - m)
    target = Fraction(11, 3)
    taken.clear()
    assert interp_point(head, profile, target) == exact_point(head, profile, target)
    assert interp_point(head, profile, target) == f.eval(target)
    assert taken[0][0] == P1 and len(taken[0]) > 1


def test_a_row_over_q_that_is_not_coprime_refuses_at_the_first_prime(taken):
    # the constant -2 at x = 1, 2, 3 and -1 at x = 4: the row of type (1, 1)
    # is (x - 4)*(12, -1), not coprime over Q, so no fit; the first prime
    # lifts it and the exact row decides
    samples = SampleSet1([(Fraction(x), Fraction(v)) for x, v in
                          ((1, -2), (2, -2), (3, -2), (4, -1))])
    assert outcome(fit_ratfun, samples, 1, 1) == NoFit
    assert outcome(q_walk.fit, samples, 1, 1) == NoFit
    assert taken == [[P1]]


# -- detection -------------------------------------------------------------

DETECT_CASES = [
    # a coefficient 1/P1: every value's denominator is divisible by P1, the
    # image mod P1 is bad from the first point, the passes with no
    # candidate settle at P2, and the candidate, whose coefficient 1/P1 is
    # beyond sqrt(p2*p3/2), is lifted from the join of four primes
    ("den-p1", normalize_ratfun1(qpoly(Fraction(1, P1), 1), qpoly(1, 0, 1)),
     [P1, P2, P3, P4, P5]),
    # a coefficient 1/P2 + BIG: the candidate is lifted from the join of
    # P1, P3, P4 and P5, P2 being bad
    ("den-p2", normalize_ratfun1(qpoly(Fraction(1, P2) + BIG, 1), qpoly(1, 0, 1)),
     [P1, P2, P3, P4, P5]),
    ("within", normalize_ratfun1(qpoly(BIG, 1), qpoly(2, 1)), [P1, P2]),
    ("beyond", normalize_ratfun1(qpoly(HUGE, 1), qpoly(2, 1)), [P1, P2, P3, P4]),
]


@pytest.mark.parametrize("name, f, primes", DETECT_CASES, ids=[c[0] for c in DETECT_CASES])
def test_detection_takes_the_next_primes(name, f, primes, taken, monkeypatch):
    # the same profile, fit and queries as detection on the walk over Q;
    # the candidate pass that answers takes the pinned primes, and every
    # other pass a prefix of them
    cfg = ReconConfig(height_bound=50)
    oracle = SwitchingOracle(f, f, 0)
    got = detect_profile_with_fit(oracle, QQ, cfg, random.Random(7))
    queries, oracle.queries = oracle.queries, []
    assert got[1] == f
    assert taken[-1] == primes, taken
    assert all(t == primes[:len(t)] for t in taken), taken
    monkeypatch.setattr(interp, "_candidate", q_walk.candidate)
    assert detect_profile_with_fit(oracle, QQ, cfg, random.Random(7)) == got
    assert oracle.queries == queries


# -- certificates ----------------------------------------------------------


def series(num, den, n_terms):
    return series_of_ratfun(normalize_ratfun1(num, den), n_terms - 1).coeffs


@pytest.mark.parametrize("name, num, walks", [
    # the prefix's denominator is divisible by P2: that prime is not walked
    ("den-p2", qpoly(1, Fraction(1, P2)), [P1, P3, P4, P5]),
    ("beyond", qpoly(1, HUGE), [P1, P2, P3, P4]),
], ids=["den-p2", "beyond"])
def test_certificate_takes_the_next_primes(name, num, walks, monkeypatch):
    seen = []
    eea_rows = hankel.eea_rows
    monkeypatch.setattr(hankel, "eea_rows", lambda m, u, p, top: seen.append(p)
                        or eea_rows(m, u, p, top))
    s = SeriesPrefix(QQ, series(num, qpoly(1, -1, -1), 16))
    cert = certify_rationality(s, 3, 3)
    assert seen == walks
    assert cert.to_json() == q_walk.certify(s, 3, 3).to_json()
    assert cert.witness == normalize_ratfun1(num, qpoly(1, -1, -1))
    # sympy: the witness re-expands to the prefix
    expansion = sympy.series(to_sympy(cert.witness), X, 0, len(s.coeffs)).removeO()
    assert [expansion.coeff(X, k) for k in range(len(s.coeffs))] == [
        sympy.Rational(c.numerator, c.denominator) for c in s.coeffs]


# -- rational_reconstruct and pade_reconstruct ------------------------------


def congruence_holds(f, modulus, u):
    """sympy: num = den*u mod modulus."""
    def sym(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * X ** k
                   for k, c in enumerate(p.coeffs))
    return sympy.rem(sympy.expand(sym(f.num) - sym(f.den) * sym(u)), sym(modulus), X) == 0


@pytest.mark.parametrize("name, modulus, f, primes", [
    # lc(modulus) = P1: the image mod P1 drops a degree
    ("lc-p1", qpoly(1, 0, 0, 0, P1), normalize_ratfun1(qpoly(1, 2), qpoly(3, 1)), [P1, P2]),
    # the series' denominator is divisible by P2, and its coefficient 1/P2
    # takes the join of P1, P3, P4 and P5
    ("den-p2", qpoly(0, 0, 0, 0, 1), normalize_ratfun1(qpoly(BIG, Fraction(1, P2)),
                                                       qpoly(1, 1)), [P1, P2, P3, P4, P5]),
    ("within", qpoly(0, 0, 0, 0, 1), normalize_ratfun1(qpoly(BIG, 1), qpoly(1, 1)),
     [P1, P2]),
    ("beyond", qpoly(0, 0, 0, 0, 1), normalize_ratfun1(qpoly(HUGE, 1), qpoly(1, 1)),
     [P1, P2, P3, P4]),
    # the roots 1 and 1 + P1 of the modulus are congruent mod P1: a walk mod
    # P1 of a modulus with a double root, whose row still has the degrees
    # of the row over Q and lifts at the first prime
    ("congruent", qpoly(1 + P1, -2 - P1, 1) * qpoly(6, -5, 1),
     normalize_ratfun1(qpoly(1, 2), qpoly(3, 1)), [P1]),
    # mod P1 the row (x - 1 - P1, x - 1 - 2*P1) is (x - 1, x - 1), not coprime
    ("not-coprime-mod-p1", qpoly(-1, 1) * qpoly(-2, 1) * qpoly(-3, 1) * qpoly(-4, 1),
     normalize_ratfun1(qpoly(-1 - P1, 1), qpoly(-1 - 2 * P1, 1)), [P1, P2, P3, P4]),
], ids=["lc-p1", "den-p2", "within", "beyond", "congruent", "not-coprime-mod-p1"])
def test_rational_reconstruct_takes_the_next_primes(name, modulus, f, primes, taken):
    # u = f mod modulus: the numerator times the inverse of the denominator
    _, inv, _ = ext_gcd(f.den, modulus)
    u = (f.num * inv).divmod(modulus)[1]
    got = rational_reconstruct(modulus, u, 1, 1)
    assert got == eea_reconstruct(modulus, u, 1, 1) == f
    assert taken == [primes]
    assert congruence_holds(got, modulus, u)


def ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g over the field of a and b."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly1(field, [field.one]), Poly1.zero(field)
    t0, t1 = Poly1.zero(field), Poly1(field, [field.one])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1, s0, s1, t0, t1 = (r1, r, s1, s0 + (q * s1).scale(-field.one),
                                  t1, t0 + (q * t1).scale(-field.one))
    inv = field.inv(r0.leading())
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def test_a_row_over_q_that_is_not_coprime_has_no_reconstruction(taken):
    # u = x^2 mod x^3: the first row of type (1, 1) is (0, x), which
    # shares the factor x with the modulus: None
    modulus, u = qpoly(0, 0, 0, 1), qpoly(0, 0, 1)
    assert rational_reconstruct(modulus, u, 1, 1) is None
    assert eea_reconstruct(modulus, u, 1, 1) is None
    assert taken == [[P1]]


def test_pade_reconstruct_takes_the_next_primes(taken):
    f = normalize_ratfun1(qpoly(1, HUGE), qpoly(1, -1, -1))
    s = SeriesPrefix(QQ, series(f.num, f.den, 6))
    assert pade_reconstruct(s, 1, 2) == f
    assert taken == [[P1, P2, P3, P4]]
