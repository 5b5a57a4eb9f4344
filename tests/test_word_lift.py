"""The word-prime images of `fit_ratfun` and `interp_point` over Q, and
`interp_point` against the determinants of `alpha_beta` on every field.

Over Q both solve their samples mod `poly.WORD_PRIME` and, where that
prime cannot answer, mod the next primes below it, join the rows by CRT,
lift them to Q and check the lift exactly on every sample
(`ratfun.lift_rows`); the pool mod p is the only path over F_p.  These
tests hold the fit to the walk over Q (`q_walk.fit`, the tests' copy of
the path that the primes replaced) and the value to the calibrated ratio
of the two determinants, with the same results and exceptions on seeded
random sample sets, force each case that needs more than one prime and
pin which primes answer, pin the primes bench-shaped data takes, and
check that `interp_point` computes no determinant.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
import q_walk

from ratrecon import interp, matrix
from ratrecon.errors import BetaZero
from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.interp import (
    DegreeProfile,
    SampleSet1,
    alpha_beta,
    fit_ratfun,
    interp_point,
    interp_sign,
)
from ratrecon.poly import WORD_PRIME, Poly1, field_prime
from ratrecon.ratfun import moduli, normalize_ratfun1

FP = PrimeField(1000003)
F101 = PrimeField(101)
P1, P2, P3 = itertools.islice(moduli(None, lambda: 10 ** 6), 3)


def outcome(fn, *args):
    """(type, value) of the result, or the type of the exception raised."""
    try:
        got = fn(*args)
    except Exception as exc:    # the two paths must raise the same type
        return type(exc)
    return type(got), got


def exact_point(samples, profile, a):
    """`interp_point` on the exact path alone: the calibrated ratio of the
    determinants of `alpha_beta`."""
    alpha, beta = alpha_beta(samples, profile, a)
    if beta == alpha - alpha:
        raise BetaZero("denominator determinant vanished")
    v = alpha / beta
    return -v if interp_sign(profile.n, profile.m) < 0 else v


def exact_fit(samples, n, m):
    """`fit_ratfun` on the walk over Q (over F_p the pool mod p)."""
    return q_walk.fit(samples, n, m)


@pytest.fixture
def lifts(monkeypatch):
    """For every `ratfun.lift_rows` call of interp, in order, the primes
    whose images it took: [WORD_PRIME] where the first prime answers."""
    seen = []
    lift_rows = interp.lift_rows

    def spy(image, check, p, bits, den=1):
        seen.append([])

        def spied(q):
            seen[-1].append(q)
            return image(q)
        return lift_rows(spied, check, p, bits, den)

    monkeypatch.setattr(interp, "lift_rows", spy)
    return seen


def rand_poly(rng, deg, height, field=QQ):
    """Degree exactly deg (the zero polynomial for -1)."""
    cs = [random_element(field, rng, height) for _ in range(deg + 1)]
    while cs and not cs[-1]:
        cs[-1] = random_element(field, rng, height)
    return Poly1(field, cs)


def draw_case(field, rng, trial):
    """(samples, n, m, target) over `field`: n + m + 2 or n + m + 3 samples
    with n, m <= 5 and coefficients of height 9 (10^6 one time in four) at
    abscissae of height 50 (10^6 one time in four); over F_p every element
    is a uniform residue.  Kind 0 has random values, kind 1
    the values of a function of degrees at most (n, m), kind 2 the same with
    one value moved (an unattainable point, and no fit), kind 3 a function
    with a pole at the target.  Half the functions have the degrees (n, m),
    the rest lower ones.  One target in five is a node."""
    height = 10 ** 6 if rng.random() < 0.25 else 9
    kind = trial % 4
    n, m = rng.randint(0, 5), rng.randint(1 if kind == 3 else 0, 5)
    full = rng.random() < 0.5     # the degrees of the profile, else below them
    num = rand_poly(rng, n if full else rng.randint(-1, n), height, field)
    den = rand_poly(rng, m - (kind == 3) if full else rng.randint(0, m - (kind == 3)),
                    height, field)
    pole = random_element(field, rng, 12)
    if kind == 3:
        den = den * Poly1(field, [-pole, field.one])
    pts = []
    while len(pts) < n + m + 2 + rng.randint(0, 1):
        a = random_element(field, rng, 10 ** 6 if rng.random() < 0.25 else 50)
        if a not in pts and den.eval(a):
            pts.append(a)
    if kind == 0:
        vals = [random_element(field, rng, height) for _ in pts]
    else:
        vals = [num.eval(a) / den.eval(a) for a in pts]
    if kind == 2:
        vals[rng.randrange(n + m + 1)] += field.one
    if rng.random() < 0.2:
        target = pts[rng.randrange(n + m + 1)]
    elif kind == 3:
        target = pole
    else:
        target = random_element(field, rng, 50)
    return SampleSet1(list(zip(pts, vals))), n, m, target


def test_lift_answers_as_the_exact_path(lifts):
    """Over Q the fit against the walk over Q and the value against
    `exact_point`; over F_101 and F_1000003, where the one prime answers,
    the value against `exact_point`."""
    rng = random.Random(4301)
    fits, points = Counter(), Counter()     # calls by the primes they took
    refusals = 0                            # BetaZero at the first prime
    for trial in range(2000):
        samples, n, m, target = draw_case(QQ, rng, trial)
        want = outcome(exact_fit, samples, n, m)
        del lifts[:]
        assert outcome(fit_ratfun, samples, n, m) == want, trial
        fits[len(lifts[0])] += 1
        head = SampleSet1(samples.points[:n + m + 1])
        profile = DegreeProfile.from_de(max(n, m), n - m)
        want = outcome(exact_point, head, profile, target)
        del lifts[:]
        assert outcome(interp_point, head, profile, target) == want, trial
        points[len(lifts[0])] += 1
        refusals += lifts[0] == [P1] and want is BetaZero
    # most fits take one prime, the coefficients of height 10^6 a few more;
    # a point through random values of height 10^6 has a row of thousands
    # of digits, which takes up to 128 primes (a join is lifted at 1, 2, 4,
    # ... primes); the first prime refuses at poles (measured: fits 1728 of
    # 2000 at one prime, at most 8; points 883, at most 128)
    assert fits[1] > 1500 and points[1] > 700, (fits, points)
    assert 2000 - fits[1] > 200 and 2000 - points[1] > 1000, (fits, points)
    assert max(fits) <= 8 and max(points) <= 128, (fits, points)
    assert refusals > 100, refusals
    del lifts[:]
    for field in (F101, FP):
        rng = random.Random(4303)
        refusals = 0
        for trial in range(2000):
            samples, n, m, target = draw_case(field, rng, trial)
            head = SampleSet1(samples.points[:n + m + 1])
            profile = DegreeProfile.from_de(max(n, m), n - m)
            want = outcome(exact_point, head, profile, target)
            assert outcome(interp_point, head, profile, target) == want, (field, trial)
            refusals += want is BetaZero
        # values and refusals both take a sizeable share
        assert 300 < refusals < 1700, (field, refusals)
    assert all(primes in ([F101.p], [FP.p]) for primes in lifts)


def fallback_case(samples, n, m, target, lifts, primes):
    """Both functions take the images mod `primes` on these samples, the
    first prime failing, and answer as the walk over Q does."""
    head = SampleSet1(samples.points[:n + m + 1])
    profile = DegreeProfile.from_de(max(n, m), n - m)
    got = fit_ratfun(samples, n, m), interp_point(head, profile, target)
    assert lifts == [primes, primes]
    assert got == (exact_fit(samples, n, m), exact_point(head, profile, target))
    return got


def sample(f, pts):
    return SampleSet1([(a, f.num.eval(a) / f.den.eval(a)) for a in pts])


def test_a_denominator_of_the_word_prime_falls_back(lifts):
    f = normalize_ratfun1(Poly1.from_ints(QQ, [1, 2]), Poly1.from_ints(QQ, [3, 0, 1]))
    pts = [Fraction(1, WORD_PRIME), 2, 3, 4, 5]
    fit, value = fallback_case(sample(f, pts), 1, 2, Fraction(7), lifts, [P1, P2])
    assert fit == f and value == Fraction(15, 52)


def test_abscissae_congruent_mod_the_word_prime_fall_back(lifts):
    f = normalize_ratfun1(Poly1.from_ints(QQ, [1, 2]), Poly1.from_ints(QQ, [3, 0, 1]))
    pts = [1, 1 + WORD_PRIME, 2, 3, 4]
    fit, value = fallback_case(sample(f, pts), 1, 2, Fraction(7), lifts, [P1, P2])
    assert fit == f and value == Fraction(15, 52)


def test_a_coefficient_beyond_the_lift_bound_falls_back(lifts):
    c = Fraction(10 ** 6, 7)
    f = normalize_ratfun1(Poly1(QQ, [QQ.one, c]), Poly1.from_ints(QQ, [2, 1]))
    fit, value = fallback_case(sample(f, [1, 2, 3, 4]), 1, 1, Fraction(5), lifts,
                               [P1, P2])
    assert fit == f and value == (1 + 5 * c) / 7


def bench_shaped(field, rng, l):
    """As the benchmark's interp instances: numerator and denominator of
    degrees n and l - n, coprime, with coefficients of height 9 over Q
    (uniform residues over F_p), and l + 3 samples at abscissae of height
    50 off the poles."""
    n = rng.randint(0, l)
    while True:
        if field is QQ:
            num, den = rand_poly(rng, n, 9), rand_poly(rng, l - n, 9)
        else:
            num, den = (Poly1.from_ints(field, [rng.randrange(field.p) or 1
                                                for _ in range(d + 1)])
                        for d in (n, l - n))
        f = normalize_ratfun1(num, den)
        if f.den.degree == l - n:
            break
    pts = []
    while len(pts) < l + 3:
        a = random_element(field, rng, 50)
        if a not in pts and f.den.eval(a) != field.zero:
            pts.append(a)
    return f, sample(f, pts)


def spy_rows(monkeypatch):
    """The prime of every `first_row` that interp calls."""
    primes = []
    first_row = interp.first_row

    def spy(modulus, u, p, n, m):
        primes.append(p)
        return first_row(modulus, u, p, n, m)

    monkeypatch.setattr(interp, "first_row", spy)
    return primes


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_bench_shaped_data_takes_the_lift_over_q_only(field, monkeypatch, lifts):
    # every point and fit of bench-shaped data takes one prime: over Q
    # WORD_PRIME, whose lift answers (measured: at most 1 prime per call)
    primes = spy_rows(monkeypatch)
    rng = random.Random(4302)
    for trial in range(30):
        f, samples = bench_shaped(field, rng, 12)
        n, m = len(f.num.coeffs) - 1, len(f.den.coeffs) - 1
        head = SampleSet1(samples.points[:n + m + 1])
        a = samples.points[-1][0]
        value = interp_point(head, DegreeProfile.from_de(max(n, m), n - m), a)
        assert value == samples.points[-1][1]
        assert fit_ratfun(samples, n, m) == f
        assert primes == [field_prime(field) or WORD_PRIME] * 2 * (trial + 1)
    assert lifts == [[field_prime(field) or WORD_PRIME]] * 60


def test_interp_point_computes_no_determinant(monkeypatch, lifts):
    calls = []
    for module, name in ((interp, "alpha_beta"), (interp, "bordered_dets"),
                         (matrix, "bordered_dets")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    primes = spy_rows(monkeypatch)
    for field in (QQ, F101, FP):
        rng = random.Random(4304)
        for trial in range(300):
            samples, n, m, target = draw_case(field, rng, trial)
            head = SampleSet1(samples.points[:n + m + 1])
            outcome(interp_point, head, DegreeProfile.from_de(max(n, m), n - m), target)
    assert calls == []
    # the Q cases include points that take more than one prime
    assert sum(len(taken) > 1 for taken in lifts) > 30
    assert primes.count(P2) == sum(P2 in taken for taken in lifts)
