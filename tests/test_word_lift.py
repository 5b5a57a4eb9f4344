"""The word-prime image of `fit_ratfun` and `interp_point` over Q, and
`interp_point` against the determinants of `alpha_beta` on every field.

Over Q both first solve their samples mod `poly.WORD_PRIME`, lift the row
to Q and check the lift exactly on every sample (`interp._solve_mod` at
that prime); the exact path, the Newton pool over Q and its extended-Euclid
row (`_solve_mod` at None), answers wherever a step fails, and the pool
mod p is the only path over F_p.  These tests hold
the fit to the exact path and the value to the calibrated ratio of the
two determinants, with the same results and exceptions on seeded random
sample sets, force each kind of fallback, pin which path bench-shaped
data takes, and check that `interp_point` computes no determinant.
"""

import random
from fractions import Fraction

import pytest

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
from ratrecon.poly import WORD_PRIME, Poly1
from ratrecon.ratfun import normalize_ratfun1

FP = PrimeField(1000003)
F101 = PrimeField(101)


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
    """`fit_ratfun` on the exact path alone: its one modulus is None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "moduli", lambda p: (None,))
        return fit_ratfun(samples, n, m)


@pytest.fixture
def lifts(monkeypatch):
    """The results of every `_solve_mod` call mod `WORD_PRIME`, in order."""
    seen = []
    solve_mod = interp._solve_mod

    def spy(samples, n, m, accept, q):
        solved = solve_mod(samples, n, m, accept, q)
        if q == WORD_PRIME:
            seen.append(solved)
        return solved

    monkeypatch.setattr(interp, "_solve_mod", spy)
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
    """Over Q the fit against the exact path and the value against
    `exact_point`; over F_101 and F_1000003, where no lift runs, the value
    against `exact_point`."""
    rng = random.Random(4301)
    fits = points = lifted_refusals = 0     # answers of the lift
    for trial in range(2000):
        samples, n, m, target = draw_case(QQ, rng, trial)
        want = outcome(exact_fit, samples, n, m)
        del lifts[:]
        assert outcome(fit_ratfun, samples, n, m) == want, trial
        fits += lifts[0] is not None
        head = SampleSet1(samples.points[:n + m + 1])
        profile = DegreeProfile.from_de(max(n, m), n - m)
        want = outcome(exact_point, head, profile, target)
        del lifts[:]
        assert outcome(interp_point, head, profile, target) == want, trial
        points += lifts[0] is not None
        lifted_refusals += lifts[0] is not None and want is BetaZero
    # each path answers a sizeable share, and the lift refuses at poles
    assert 600 < fits < 1400 and 400 < points < 1400, (fits, points)
    assert lifted_refusals > 100, lifted_refusals
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
    assert lifts == []


def fallback_case(samples, n, m, target, lifts):
    """Both functions fall back on these samples and answer as the exact
    path does."""
    head = SampleSet1(samples.points[:n + m + 1])
    profile = DegreeProfile.from_de(max(n, m), n - m)
    got = fit_ratfun(samples, n, m), interp_point(head, profile, target)
    assert lifts == [None, None]
    assert got == (exact_fit(samples, n, m), exact_point(head, profile, target))
    return got


def sample(f, pts):
    return SampleSet1([(a, f.num.eval(a) / f.den.eval(a)) for a in pts])


def test_a_denominator_of_the_word_prime_falls_back(lifts):
    f = normalize_ratfun1(Poly1.from_ints(QQ, [1, 2]), Poly1.from_ints(QQ, [3, 0, 1]))
    pts = [Fraction(1, WORD_PRIME), 2, 3, 4, 5]
    fit, value = fallback_case(sample(f, pts), 1, 2, Fraction(7), lifts)
    assert fit == f and value == Fraction(15, 52)


def test_abscissae_congruent_mod_the_word_prime_fall_back(lifts):
    f = normalize_ratfun1(Poly1.from_ints(QQ, [1, 2]), Poly1.from_ints(QQ, [3, 0, 1]))
    pts = [1, 1 + WORD_PRIME, 2, 3, 4]
    fit, value = fallback_case(sample(f, pts), 1, 2, Fraction(7), lifts)
    assert fit == f and value == Fraction(15, 52)


def test_a_coefficient_beyond_the_lift_bound_falls_back(lifts):
    c = Fraction(10 ** 6, 7)
    f = normalize_ratfun1(Poly1(QQ, [QQ.one, c]), Poly1.from_ints(QQ, [2, 1]))
    fit, value = fallback_case(sample(f, [1, 2, 3, 4]), 1, 1, Fraction(5), lifts)
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
    """The prime of every `first_row` that interp calls: WORD_PRIME for the
    lift's image, the field's own (None over Q) for the exact path."""
    primes = []
    first_row = interp.first_row

    def spy(modulus, u, p, n, m):
        primes.append(p)
        return first_row(modulus, u, p, n, m)

    monkeypatch.setattr(interp, "first_row", spy)
    return primes


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_bench_shaped_data_takes_the_lift_over_q_only(field, monkeypatch):
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
        exact = [p for p in primes if p != WORD_PRIME]
        assert len(exact) == (0 if field is QQ else 2 * (trial + 1))


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
    # the Q cases include fallbacks to the pool over Q
    assert primes.count(None) > 30 and lifts.count(None) == primes.count(None)
