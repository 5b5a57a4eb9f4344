"""Differential tests: the extended-Euclid reconstruction against the linear
algebra it replaced.

The reference below is the earlier implementation, kept here and nowhere
else: coefficient fitting through the nullspace of the cross-multiplied
system, degree detection by walking every (n, m) with a fresh fit per pair,
and Pade approximation through the nullspace of the Hankel-type window.
Every instance must give the same function or the same refusal, and degree
detection must query the oracle at exactly the same points.
"""

import random

from ratrecon.errors import (
    AmbiguousFit,
    BudgetExhausted,
    DomainTooSparse,
    NoFit,
    NoSolution,
)
from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.hankel import SeriesPrefix, pade_reconstruct
from ratrecon.interp import (
    DegreeProfile,
    SampleSet1,
    SamplingBudget,
    _draw_defined,
    detect_profile_with_fit,
    fit_ratfun,
)
from ratrecon.poly import Poly1, gcd_poly1
from ratrecon.ratfun import normalize_ratfun1, rational_reconstruct

FP = PrimeField(1000003)
FIELDS = (QQ, FP)

# ---------------------------------------------------------------------------
# reference implementation (nullspace fit, degree walk, nullspace Pade)


def ref_nullspace(rows, ncols, field):
    if not rows:
        return [[field.one if i == j else field.zero for i in range(ncols)]
                for j in range(ncols)]
    rows = [list(r) for r in rows]
    zero = field.zero
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def ref_fit(samples, n_deg, m_deg, field):
    rows = [[-(a ** j) for j in range(n_deg + 1)]
            + [f * a ** j for j in range(m_deg + 1)]
            for a, f in samples.points]
    basis = ref_nullspace(rows, n_deg + m_deg + 2, field)
    if not basis:
        raise NoFit("empty nullspace")
    candidates = list(basis)
    if len(basis) > 1:
        acc = basis[0]
        for v in basis[1:]:
            acc = [x + y for x, y in zip(acc, v)]
        candidates.append(acc)
    seen = []
    for v in candidates:
        num, den = Poly1(field, v[:n_deg + 1]), Poly1(field, v[n_deg + 1:])
        if den.is_zero() or any(den.eval(a) == field.zero for a, _ in samples.points):
            continue
        f = normalize_ratfun1(num, den)
        if f not in seen:
            seen.append(f)
    if not seen:
        raise NoFit("every candidate denominator vanishes at a sample")
    if len(seen) > 1:
        raise AmbiguousFit("distinct functions fit all samples")
    return seen[0]


def ref_detect(oracle, field, budget, rng):
    taken, pool = set(), []
    for total in range(budget.max_degree + 1):
        for n_deg in range(total + 1):
            while len(pool) < total + 2:
                pool.append(_draw_defined(oracle, field, budget, rng, taken))
            try:
                fit = ref_fit(SampleSet1(list(pool)), n_deg, total - n_deg, field)
            except NoFit:
                continue
            fresh = [_draw_defined(oracle, field, budget, rng, taken)
                     for _ in range(budget.validation_extra)]
            pool.extend(fresh)
            if all(fit.defined_at(a) and fit.eval(a) == v for a, v in fresh):
                return DegreeProfile.of(fit), fit
    raise BudgetExhausted("walk exhausted")


def ref_pade(s, n_deg, m_deg):
    field, zero = s.field, s.field.zero
    rows = [[s.coeffs[k - j] if k - j >= 0 else zero for j in range(m_deg + 1)]
            for k in range(n_deg + 1, n_deg + m_deg + 1)]
    sol = next((v for v in ref_nullspace(rows, m_deg + 1, field) if v[0] != zero), None)
    if sol is None:
        raise NoSolution("only Q(0) = 0 fits")
    qcoeffs = [c * field.inv(sol[0]) for c in sol]
    pcoeffs = []
    for k in range(n_deg + 1):
        acc = zero
        for j in range(min(k, m_deg) + 1):
            acc = acc + qcoeffs[j] * s.coeffs[k - j]
        pcoeffs.append(acc)
    return normalize_ratfun1(Poly1(field, pcoeffs), Poly1(field, qcoeffs))


# ---------------------------------------------------------------------------
# random inputs


def rand_poly(field, rng, deg, height=9):
    """Degree exactly deg; deg < 0 gives the zero polynomial."""
    if deg < 0:
        return Poly1.zero(field)
    while True:
        p = Poly1(field, [random_element(field, rng, height) for _ in range(deg + 1)])
        if not p.is_zero() and p.degree == deg:
            return p


def rand_ratfun(field, rng, n, m):
    """Canonical function with numerator degree n (-1: zero) and denominator
    degree m; small heights over Q make poles at sample points likely."""
    while True:
        p, q = rand_poly(field, rng, n, 3), rand_poly(field, rng, m, 3)
        if p.is_zero() or gcd_poly1(p, q).degree == 0:
            return normalize_ratfun1(p, q)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoFit, NoSolution, BudgetExhausted, DomainTooSparse) as e:
        return type(e).__name__


def test_rational_reconstruct_examples():
    x = Poly1.x(QQ)
    one = Poly1(QQ, [QQ.one])
    # 1/(1 - t) mod t^3: the series 1 + t + t^2
    modulus, series = x ** 3, Poly1.from_ints(QQ, [1, 1, 1])
    f = rational_reconstruct(modulus, series, 1, 1)
    assert (f.num, f.den) == (Poly1.from_ints(QQ, [-1]), Poly1.from_ints(QQ, [-1, 1]))
    assert rational_reconstruct(modulus, series) == f
    # a polynomial is its own reconstruction, zero gives 0/1
    assert rational_reconstruct(modulus, x, 2, 0) == normalize_ratfun1(x, one)
    assert rational_reconstruct(modulus, Poly1.zero(QQ)) == normalize_ratfun1(
        Poly1.zero(QQ), one)
    # t mod t^2 with deg P <= 0: only Q = t solves, which is not coprime to t^2
    assert rational_reconstruct(x ** 2, x, 0, 1) is None


def test_minimal_total_degree_ties_go_to_the_smaller_numerator():
    # P and 1/Q, both of total degree 2, through the four roots of P*Q - 1:
    # the walk over (total, numerator degree) meets (0, 2) before (2, 0)
    field = PrimeField(101)
    rng = random.Random(7)
    elements = [field.from_int(k) for k in range(101)]
    while True:
        p, q = rand_poly(field, rng, 2), rand_poly(field, rng, 2)
        roots = [a for a in elements if (p * q).eval(a) == field.one]
        if len(roots) == 4:
            break
    modulus = Poly1(field, [field.one])
    for a in roots:
        modulus = modulus * Poly1(field, [-a, field.one])
    samples = SampleSet1([(a, p.eval(a)) for a in roots])
    inv_q = normalize_ratfun1(Poly1(field, [field.one]), q)
    assert ref_fit(samples, 2, 0, field) == normalize_ratfun1(p, Poly1(field, [field.one]))
    assert ref_fit(samples, 0, 2, field) == inv_q
    assert rational_reconstruct(modulus, p) == inv_q


def test_fit_matches_nullspace_reference():
    rng = random.Random(2024)
    refusals = 0
    for trial in range(400):
        field = FIELDS[trial % 2]
        n0, m0 = rng.randint(-1, 4), rng.randint(0, 4)
        f = rand_ratfun(field, rng, n0, m0)
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        count = n + m + 2 + rng.randint(0, 2)
        pts = []
        while len(pts) < count:
            a = random_element(field, rng, 12)
            if a not in pts and f.defined_at(a):
                pts.append(a)
        vals = [f.eval(a) for a in pts]
        if trial % 7 == 0:   # corrupt one value: no low-degree fit survives
            vals[rng.randrange(count)] += field.one
        samples = SampleSet1(list(zip(pts, vals)))
        want = outcome(ref_fit, samples, n, m, field)
        assert outcome(fit_ratfun, samples, n, m) == want, (trial, n, m)
        refusals += want == "NoFit"
    assert 50 < refusals < 350


def test_pade_matches_nullspace_reference():
    rng = random.Random(2025)
    refusals = 0
    for trial in range(400):
        field = FIELDS[trial % 2]
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        length = n + m + 2 + rng.randint(0, 2)
        kind = trial % 4
        if kind == 0:    # arbitrary coefficients
            coeffs = [random_element(field, rng, 5) for _ in range(length)]
        elif kind == 1:  # t^s times arbitrary: Q(0) = 0 is often forced
            s = rng.randint(1, 3)
            coeffs = [field.zero] * s + [random_element(field, rng, 5)
                                         for _ in range(length - s)]
        else:            # a rational series, possibly of higher degree than (n, m)
            g = rand_ratfun(field, rng, rng.randint(-1, 4), rng.randint(0, 4))
            while g.den.eval(field.zero) == field.zero:
                g = rand_ratfun(field, rng, rng.randint(-1, 4), rng.randint(0, 4))
            c0 = field.inv(g.den.eval(field.zero))
            coeffs = []
            for k in range(length):
                acc = g.num[k]
                for j in range(1, min(k, int(g.den.degree)) + 1):
                    acc = acc - g.den[j] * coeffs[k - j]
                coeffs.append(acc * c0)
        prefix = SeriesPrefix(field, coeffs)
        want = outcome(ref_pade, prefix, n, m)
        assert outcome(pade_reconstruct, prefix, n, m) == want, (trial, n, m)
        refusals += want == "NoSolution"
    assert refusals > 20


class SwitchingOracle:
    """Answers with `first` for the first `switch` queries and with `then`
    afterwards, recording every queried point.  A switch makes an early fit
    fail its validation, which exercises the retry on the enlarged pool."""

    def __init__(self, first, then, switch):
        self.first, self.then, self.switch = first, then, switch
        self.queries = []

    def __call__(self, a):
        self.queries.append(a)
        f = self.first if len(self.queries) <= self.switch else self.then
        return f.eval(a) if f.defined_at(a) else None


def test_detect_matches_degree_walk_and_its_queries():
    rng = random.Random(2026)
    budgets = [SamplingBudget(), SamplingBudget(max_degree=3),
               SamplingBudget(validation_extra=1, height_bound=4),
               SamplingBudget(validation_extra=0, max_degree=5),
               SamplingBudget(height_bound=2, max_consecutive_undefined=6)]
    outcomes = set()
    for trial in range(300):
        field = FIELDS[trial % 2]
        budget = budgets[trial % len(budgets)]
        first = rand_ratfun(field, rng, rng.randint(-1, 4), rng.randint(0, 4))
        then = first
        if trial % 3 == 0:
            then = rand_ratfun(field, rng, rng.randint(-1, 5), rng.randint(0, 5))
        seed = rng.getrandbits(32)
        switch = rng.randint(1, 12)
        runs = []
        for detect in (ref_detect, detect_profile_with_fit):
            oracle = SwitchingOracle(first, then, switch)
            got = outcome(detect, oracle, field, budget, random.Random(seed))
            runs.append((got, oracle.queries))
        (want, want_queries), (got, got_queries) = runs
        assert got == want, trial
        assert got_queries == want_queries, trial
        outcomes.add(want if isinstance(want, str) else "fit")
    assert outcomes == {"fit", "BudgetExhausted", "DomainTooSparse"}

