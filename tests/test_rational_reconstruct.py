"""Differential tests for univariate rational reconstruction.

Two references are kept here and nowhere else.  The first is the linear
algebra that extended Euclid replaced: coefficient fitting through the
nullspace of the cross-multiplied system, degree detection by walking
every (n, m) with a fresh fit per pair, and Pade approximation through the
nullspace of the Hankel-type window.  The second is the extended Euclid on
`Poly1` field elements, with its Newton pool, that the integer kernel
replaced.  Every instance must give the same function or the same refusal,
and degree detection must query the oracle at exactly the same points.
"""

import importlib
import pathlib
import random
from collections import Counter

import pytest

from ratrecon import interp, ratfun
from ratrecon.errors import (
    BudgetExhausted,
    DomainTooSparse,
    FieldMismatch,
    NoFit,
    NoSolution,
)
from ratrecon.fields import QQ, FpElement, PrimeField, random_element
from ratrecon.hankel import SeriesPrefix, pade_reconstruct
from ratrecon.interp import (
    MAX_CONSECUTIVE_UNDEFINED,
    DegreeProfile,
    SampleSet1,
    detect_profile_with_fit,
    fit_ratfun,
)
from ratrecon.poly import WORD_PRIME, Poly1, field_prime, gcd_poly1
from ratrecon.ratfun import (
    RatFun1,
    _coprime,
    eea_rows,
    normalize_ratfun1,
    rational_reconstruct,
    reconstruct_ints,
)
from ratrecon.reconstruct import ReconConfig

FP = PrimeField(1000003)
F101 = PrimeField(101)
FIELDS = (QQ, FP)


class AmbiguousFit(Exception):
    """The reference fit found more than one distinct function."""

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


def ref_draw_defined(oracle, field, budget, rng, taken):
    # interp._draw_defined before the sampler: `taken` holds the abscissae
    misses = 0
    while True:
        a = random_element(field, rng, budget.height_bound)
        if a in taken:
            misses += 1
            if misses > MAX_CONSECUTIVE_UNDEFINED:
                raise DomainTooSparse("cannot find a fresh sample point")
            continue
        v = oracle(a)
        if v is None:
            misses += 1
            if misses > MAX_CONSECUTIVE_UNDEFINED:
                raise DomainTooSparse(
                    f"{misses} consecutive undefined oracle responses")
            continue
        taken.add(a)
        return a, v


def ref_detect(oracle, field, budget, rng):
    taken, pool = set(), []
    for total in range(budget.max_degree + 1):
        for n_deg in range(total + 1):
            while len(pool) < total + 2:
                pool.append(ref_draw_defined(oracle, field, budget, rng, taken))
            try:
                fit = ref_fit(SampleSet1(list(pool)), n_deg, total - n_deg, field)
            except NoFit:
                continue
            fresh = [ref_draw_defined(oracle, field, budget, rng, taken)
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
# reference implementation (extended Euclid and Newton pool on Poly1)


def eea_reconstruct(modulus, u, n=None, m=None, rejected=None):
    """`ratfun.rational_reconstruct` on Poly1 rows.  Without bounds, rows
    passed over for failing the coprimality test go to `rejected`."""
    field = modulus.field
    minus = -field.one
    r0, r1 = modulus, u.divmod(modulus)[1]
    t0, t1 = Poly1.zero(field), Poly1(field, [field.one])
    rows = []
    while True:
        if n is not None and r1.degree <= n:
            return eea_coprime_row(r1, t1) if t1.degree <= m else None
        rows.append((max(r1.degree, 0) + t1.degree, r1.degree, r1, t1))
        if r1.is_zero():
            break
        q, rem = r0.divmod(r1)
        r0, r1, t0, t1 = r1, rem, t1, t0 + (q * t1).scale(minus)
    for _, _, r, t in sorted(rows, key=lambda row: row[:2]):
        f = eea_coprime_row(r, t)
        if f is not None:
            return f
        if rejected is not None:
            rejected.append((r, t))


def eea_gcd(a, b):
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a


def eea_coprime_row(r, t):
    field = r.field
    if r.is_zero():
        return RatFun1(r, Poly1(field, [field.one])) if t.degree == 0 else None
    if eea_gcd(r, t).degree > 0:
        return None
    inv = field.inv(t.leading())
    return RatFun1(r.scale(inv), t.scale(inv))


def eea_add_point(modulus, u, a, v):
    """Extend the Newton interpolant u at the roots of `modulus` by (a, v)."""
    field = modulus.field
    c = (v - u.eval(a)) / modulus.eval(a)
    return modulus * Poly1(field, [-a, field.one]), u + modulus.scale(c)


def eea_pool(field, points):
    modulus, u = Poly1(field, [field.one]), Poly1.zero(field)
    for a, v in points:
        modulus, u = eea_add_point(modulus, u, a, v)
    return modulus, u


def eea_fit(samples, n_deg, m_deg, field):
    fit = eea_reconstruct(*eea_pool(field, samples.points), n_deg, m_deg)
    if fit is None:
        raise NoFit("no fit")
    return fit


def eea_detect(oracle, field, budget, rng):
    cap = budget.max_degree
    taken = set()
    modulus, u = Poly1(field, [field.one]), Poly1.zero(field)
    for _ in range((cap + 2) * (cap + 3)):
        k = int(modulus.degree)
        fit = eea_reconstruct(modulus, u)
        prof = DegreeProfile.of(fit)
        if prof.l <= min(k - 2, cap):
            fresh = [ref_draw_defined(oracle, field, budget, rng, taken)
                     for _ in range(budget.validation_extra)]
            if all(fit.defined_at(a) and fit.eval(a) == v for a, v in fresh):
                return prof, fit
        elif max(k - 1, 0) > cap:
            break
        else:
            fresh = [ref_draw_defined(oracle, field, budget, rng, taken)]
        for a, v in fresh:
            modulus, u = eea_add_point(modulus, u, a, v)
    raise BudgetExhausted("no profile")


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
    x = Poly1.from_ints(QQ, [0, 1])
    one = Poly1(QQ, [QQ.one])
    # 1/(1 - t) mod t^3: the series 1 + t + t^2
    modulus, series = Poly1.from_ints(QQ, [0, 0, 0, 1]), Poly1.from_ints(QQ, [1, 1, 1])
    f = rational_reconstruct(modulus, series, 1, 1)
    assert (f.num, f.den) == (Poly1.from_ints(QQ, [-1]), Poly1.from_ints(QQ, [-1, 1]))
    assert rational_reconstruct(modulus, series) == f
    # a polynomial is its own reconstruction, zero gives 0/1
    assert rational_reconstruct(modulus, x, 2, 0) == normalize_ratfun1(x, one)
    assert rational_reconstruct(modulus, Poly1.zero(QQ)) == normalize_ratfun1(
        Poly1.zero(QQ), one)
    # t mod t^2 with deg P <= 0: only Q = t solves, which is not coprime to t^2
    assert rational_reconstruct(Poly1.from_ints(QQ, [0, 0, 1]), x, 0, 1) is None
    with pytest.raises(ZeroDivisionError):
        rational_reconstruct(Poly1.zero(QQ), x)
    with pytest.raises(FieldMismatch):
        rational_reconstruct(modulus, Poly1.from_ints(FP, [1, 1]))


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
    budgets = [ReconConfig(), ReconConfig(max_degree=3),
               ReconConfig(validation_extra=1, height_bound=4),
               ReconConfig(height_bound=2),
               ReconConfig(height_bound=1), ReconConfig(height_bound=1000)]
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



# ---------------------------------------------------------------------------
# the integer kernel against the Poly1 extended Euclid

KERNEL_FIELDS = (QQ, F101, FP)


def distinct_points(field, rng, count, height):
    pts = []
    while len(pts) < count:
        a = random_element(field, rng, height)
        if a not in pts:
            pts.append(a)
    return pts


def kernel_instance(field, rng, trial):
    """(modulus, u) of one of five kinds: an interpolation modulus
    prod(x - a_i) or a Pade modulus t^N; u zero, arbitrary, starting at
    t^s, longer than the modulus, or the interpolant of a function with a
    pole at one node, whose low rows share a factor with the modulus."""
    height = 10 ** 6 if trial % 4 == 0 else 9
    size = rng.randint(1, 9)
    kind = rng.randrange(5)
    pade = trial % 2 == 1 and kind != 4
    if pade:
        modulus = Poly1(field, [field.zero] * size + [field.one])
    else:
        pts = distinct_points(field, rng, size, height)
        modulus = Poly1(field, [field.one])
        for a in pts:
            modulus = modulus * Poly1(field, [-a, field.one])
    if kind == 0:
        u = Poly1.zero(field)
    elif kind == 1:
        u = Poly1(field, [random_element(field, rng, height) for _ in range(size)])
    elif kind == 2:
        s = rng.randint(1, size)
        u = Poly1(field, [field.zero] * s
                  + [random_element(field, rng, height) for _ in range(size - s)])
    elif kind == 3:
        u = Poly1(field, [random_element(field, rng, height)
                          for _ in range(size + rng.randint(1, 4))])
    else:
        f = rand_ratfun(field, rng, rng.randint(0, 3), rng.randint(0, 3))
        values = [(a, f.eval(a) if f.defined_at(a) else field.zero) for a in pts]
        pole = rng.randrange(size)
        values[pole] = (pts[pole], random_element(field, rng, height))
        modulus, u = eea_pool(field, values)
    return modulus, u


def test_kernel_matches_poly1_eea():
    rng = random.Random(2027)
    rejected = []
    solved = set()
    for trial in range(450):
        field = KERNEL_FIELDS[trial % 3]
        modulus, u = kernel_instance(field, rng, trial)
        size = int(modulus.degree)
        before = len(rejected)
        want = eea_reconstruct(modulus, u, rejected=rejected)
        assert want is not None
        assert rational_reconstruct(modulus, u) == want, trial
        solved.add((field, len(rejected) > before))
        for n in range(size):
            for m in {size - 1 - n, (size - 1 - n) // 2}:
                want = eea_reconstruct(modulus, u, n, m)
                assert rational_reconstruct(modulus, u, n, m) == want, (trial, n, m)
    # every field meets the tie rule, and many rows fail coprimality
    assert solved == {(f, r) for f in KERNEL_FIELDS for r in (False, True)}
    assert len(rejected) > 50


def test_kernel_large_rational_heights():
    # Q samples and values of height up to 10^6 keep the rows exact
    rng = random.Random(2028)
    for _ in range(40):
        pts = distinct_points(QQ, rng, rng.randint(2, 9), 10 ** 6)
        values = [(a, random_element(QQ, rng, 10 ** 6)) for a in pts]
        modulus, u = eea_pool(QQ, values)
        assert rational_reconstruct(modulus, u) == eea_reconstruct(modulus, u)
        f = rational_reconstruct(modulus, u)
        assert all(f.defined_at(a) and f.eval(a) == v for a, v in values)


def test_fit_matches_poly1_eea():
    rng = random.Random(2029)
    refusals = 0
    for trial in range(300):
        field = KERNEL_FIELDS[trial % 3]
        height = 10 ** 6 if trial % 6 == 0 else 12
        f = rand_ratfun(field, rng, rng.randint(-1, 4), rng.randint(0, 4))
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        pts = []
        while len(pts) < n + m + 2 + rng.randint(0, 2):
            a = random_element(field, rng, height)
            if a not in pts and f.defined_at(a):
                pts.append(a)
        vals = [f.eval(a) for a in pts]
        if trial % 5 == 0:
            vals[rng.randrange(len(vals))] += field.one
        samples = SampleSet1(list(zip(pts, vals)))
        want = outcome(eea_fit, samples, n, m, field)
        assert outcome(fit_ratfun, samples, n, m) == want, (trial, n, m)
        refusals += want == "NoFit"
    assert 30 < refusals < 270


def test_detect_matches_poly1_eea_and_its_queries():
    rng = random.Random(2030)
    budgets = [ReconConfig(), ReconConfig(max_degree=3),
               ReconConfig(height_bound=10 ** 6),
               ReconConfig(validation_extra=1, height_bound=4),
               ReconConfig(height_bound=2),
               ReconConfig(height_bound=1), ReconConfig(height_bound=1000)]
    outcomes = set()
    for trial in range(300):
        field = KERNEL_FIELDS[trial % 3]
        budget = budgets[trial % len(budgets)]
        first = rand_ratfun(field, rng, rng.randint(-1, 4), rng.randint(0, 4))
        then = first
        if trial % 3 == 0:
            then = rand_ratfun(field, rng, rng.randint(-1, 5), rng.randint(0, 5))
        seed = rng.getrandbits(32)
        switch = rng.randint(1, 12)
        runs = []
        for detect in (eea_detect, detect_profile_with_fit):
            oracle = SwitchingOracle(first, then, switch)
            got = outcome(detect, oracle, field, budget, random.Random(seed))
            runs.append((got, oracle.queries))
        (want, want_queries), (got, got_queries) = runs
        assert got == want, trial
        assert got_queries == want_queries, trial
        outcomes.add((field, want if isinstance(want, str) else "fit"))
    for field in KERNEL_FIELDS:
        assert (field, "fit") in outcomes and (field, "BudgetExhausted") in outcomes
    assert (QQ, "DomainTooSparse") in outcomes


def test_detection_builds_field_elements_only_for_its_answer(monkeypatch):
    # the pool, the kernel and the validation run on residues: an F_p
    # detection builds one element per drawn abscissa, one per oracle value
    # and one per coefficient of the fit it returns, and no others
    rng = random.Random(2031)
    p = FP.p
    for _ in range(5):
        f = rand_ratfun(FP, rng, rng.randint(1, 4), rng.randint(1, 4))
        num = [c.residue for c in f.num.coeffs]
        den = [c.residue for c in f.den.coeffs]
        values = []

        def oracle(a):
            x = a.residue
            d = sum(c * pow(x, k, p) for k, c in enumerate(den)) % p
            if not d:
                return None
            n = sum(c * pow(x, k, p) for k, c in enumerate(num))
            values.append(FpElement(n * pow(d, -1, p), FP))
            return values[-1]

        built = []
        init = FpElement.__init__

        def counting_init(elem, residue, field):
            built.append(residue)
            init(elem, residue, field)

        draws = []
        sampler = PrimeField._sampler

        def counting_sampler(field, stream, height_bound):
            draw = sampler(field, stream, height_bound)
            return lambda: draws.append(1) or draw()

        monkeypatch.setattr(PrimeField, "_sampler", counting_sampler)
        monkeypatch.setattr(FpElement, "__init__", counting_init)
        try:
            prof, fit = detect_profile_with_fit(oracle, FP, ReconConfig(),
                                                random.Random(rng.getrandbits(32)))
        finally:
            monkeypatch.undo()
        assert fit == f
        coefficients = len(fit.num.coeffs) + len(fit.den.coeffs)
        assert len(built) <= len(draws) + len(values) + coefficients


# ---------------------------------------------------------------------------
# the bounded walk: `eea_rows` up to a cofactor degree, and the total-degree
# `limit` of the unbounded selection that detection passes it

LIMIT_CASES = ((PrimeField(5), 10), (F101, 10), (FP, 10),
               (QQ, 1), (QQ, 10), (QQ, 1000))


def limit_pool_points(field, height, rng, kind):
    """Up to 9 points with distinct abscissae of the height box, with the
    values of the zero function (kind 0), a nonzero constant (1), a
    polynomial (2) or a fraction of low degree (3, and 4 with one value
    moved, whose low rows then share a factor with the modulus); a value at
    a pole is drawn at random."""
    box = field.p if field != QQ else 4 * height - 1    # at most s_h
    pts = distinct_points(field, rng, min(rng.randint(1, 9), box), height)
    if kind == 0:
        f = rand_ratfun(field, rng, -1, 0)
    elif kind == 1:
        f = rand_ratfun(field, rng, 0, 0)
    elif kind == 2:
        f = rand_ratfun(field, rng, rng.randint(1, 3), 0)
    else:
        f = rand_ratfun(field, rng, rng.randint(0, 2), rng.randint(1, 2))
    vals = [f.eval(a) if f.defined_at(a) else random_element(field, rng, height)
            for a in pts]
    if kind == 4:
        vals[rng.randrange(len(vals))] += field.one
    return list(zip(pts, vals))


def limit_pool(field, height, rng, kind):
    """The Newton pool (`interp._NewtonPool`) of `limit_pool_points`."""
    pool = interp._NewtonPool(field)
    for a, v in limit_pool_points(field, height, rng, kind):
        pool.add(a, v)
    return pool


def test_bounded_walk_is_the_prefix_of_the_rows_and_divides_no_further(monkeypatch):
    # `eea_rows(..., top)` yields the rows with deg t <= top, a prefix of the
    # unbounded rows (none for top = -1), and divides only for the rows it
    # yields: once per row after the first
    rng = random.Random(2034)
    divisions = []
    divmod_ints = ratfun.divmod_ints

    def counting_divmod(a, b, p):
        divisions.append(1)
        return divmod_ints(a, b, p)

    for trial in range(600):
        field, height = LIMIT_CASES[trial % len(LIMIT_CASES)]
        pool = limit_pool(field, height, rng, trial // len(LIMIT_CASES) % 5)
        mod, u, p = pool.modulus, pool.u, pool.p
        rows = list(eea_rows(mod, u, p))
        assert not rows[-1][0] and all(r for r, _ in rows[:-1]), trial
        for top in range(-1, len(mod) + 1):
            monkeypatch.setattr(ratfun, "divmod_ints", counting_divmod)
            divisions.clear()
            walked = list(eea_rows(mod, u, p, top))
            monkeypatch.undo()
            assert walked == [(r, t) for r, t in rows if len(t) - 1 <= top], (trial, top)
            assert len(divisions) == max(len(walked) - 1, 0), (trial, top)


def test_limit_returns_the_unbounded_selection_within_it():
    # for every limit from -1 to the pool size, the selection under `limit`
    # is the unbounded one when its total degree is within the limit, else
    # None
    rng = random.Random(2032)
    seen = set()
    for trial in range(600):
        field, height = LIMIT_CASES[trial % len(LIMIT_CASES)]
        pool = limit_pool(field, height, rng, trial // len(LIMIT_CASES) % 5)
        mod, u, p = pool.modulus, pool.u, pool.p
        k = len(mod) - 1
        rows = list(eea_rows(mod, u, p))
        want = reconstruct_ints(mod, u, p)
        total = max(len(want[0]) - 1, 0) + len(want[1]) - 1
        for limit in range(-1, k + 1):
            got = reconstruct_ints(mod, u, p, limit=limit)
            assert got == (want if total <= limit else None), (trial, limit)
        # coverage: a quotient of degree >= 2 below the first row, a
        # non-coprime row passed over, and zero and constant interpolants
        drops = [len(r0) - len(r1) for (r0, _), (r1, _) in zip(rows, rows[1:]) if r1]
        first = min(rows, key=lambda row: (max(len(row[0]) - 1, 0) + len(row[1]) - 1,
                                           len(row[0]) - 1))
        seen.add((field, "jump") if any(d >= 2 for d in drops) else None)
        seen.add((field, "passed over") if not _coprime(*first, p) else None)
        seen.add((field, "zero" if not u else "constant" if len(u) == 1 else "fit"))
    for field, _ in LIMIT_CASES:
        assert {(field, c) for c in ("jump", "passed over", "zero", "constant")} <= seen


def test_detection_walks_once_per_pass_within_its_bound(monkeypatch):
    # each pass is settled with no walk of its pool (the normality gate, or
    # over Q a walk of the pool's image mod WORD_PRIME), or walks the pool's
    # rows once, up to its bound min(k - 2, max_degree) at pool size k; then
    # it draws one point, or the validation points of the candidate it
    # tries, so the pool sizes of the passes rise by one or validation_extra
    rng = random.Random(2033)
    budget = ReconConfig()
    events = []
    settled = interp._settled

    def spy_settled(gate, pool, lim):
        events.append(["pass", lim, None])
        events[-1][2] = verdict = settled(gate, pool, lim)
        return verdict

    def spy_rows(modulus, u, p, top):
        rows = list(eea_rows(modulus, u, p, top))
        assert all(len(t) - 1 <= top for _, t in rows)
        events.append(["walk", len(modulus) - 1, p, top])
        return iter(rows)

    def spy_draw(*args):
        events.append(["draw"])
        return draw_defined(*args)

    draw_defined = interp._draw_defined
    monkeypatch.setattr(interp, "_settled", spy_settled)
    monkeypatch.setattr(ratfun, "eea_rows", spy_rows)
    monkeypatch.setattr(interp, "_draw_defined", spy_draw)
    verdicts = []
    for trial in range(30):
        field = KERNEL_FIELDS[trial % 3]
        f = rand_ratfun(field, rng, rng.randint(-1, 4), rng.randint(0, 4))
        events.clear()
        _, fit = detect_profile_with_fit(SwitchingOracle(f, f, 0), field, budget,
                                         random.Random(trial))
        assert fit == f
        at = [i for i, e in enumerate(events) if e[0] == "pass"]
        sizes, draws = [], 0
        for i, j in zip(at, at[1:] + [len(events)]):
            _, lim, verdict = events[i]
            k = draws
            walks = [e for e in events[i + 1:j] if e[0] == "walk"]
            draws += sum(e[0] == "draw" for e in events[i + 1:j])
            assert lim == min(k - 2, budget.max_degree)
            assert walks == ([] if verdict else [["walk", k, field_prime(field), lim]])
            sizes.append(k)
            verdicts.append((field, verdict))
        gaps = [b - a for a, b in zip(sizes, sizes[1:])] + [draws - sizes[-1]]
        assert set(gaps) <= {1, budget.validation_extra}
        assert gaps[-1] == budget.validation_extra
    # over F_p most passes walk nothing, the ones that try a candidate walk;
    # over Q these pools stay below IMAGE_BITS, so every pass walks
    for field in KERNEL_FIELDS:
        settled = [v for f, v in verdicts if f == field]
        if field == QQ:
            assert not any(settled)
        else:
            assert 2 * len(settled) // 3 < sum(settled) < len(settled)


# ---------------------------------------------------------------------------
# the normality gate of detection (`interp._GatedPool`, `interp._settled`)


def gate_oracle(field, height, rng, kind, prime):
    """A SwitchingOracle for one differential trial: the zero function (kind
    0), a fraction of low degree (1), a polynomial (2), a function with
    roots in the height box, whose values are often zero (3), one above
    the detection cap of 3 (4), or over Q a fraction with a coefficient
    1/prime, whose values' denominators are divisible by the image's prime
    (5); a third of them switch to another fraction after a few queries."""
    if kind == 0:
        f = rand_ratfun(field, rng, -1, 0)
    elif kind == 1:
        f = rand_ratfun(field, rng, rng.randint(0, 3), rng.randint(1, 3))
    elif kind == 2:
        f = rand_ratfun(field, rng, rng.randint(1, 4), 0)
    elif kind == 3:
        num = Poly1(field, [field.one])
        for _ in range(rng.randint(1, 3)):
            root = random_element(field, rng, height)
            num = num * Poly1(field, [-root, field.one])
        f = normalize_ratfun1(num, rand_poly(field, rng, rng.randint(0, 2), 3))
    elif kind == 4:
        f = rand_ratfun(field, rng, rng.randint(3, 5), rng.randint(1, 3))
    else:
        f = rand_ratfun(field, rng, rng.randint(0, 3), rng.randint(0, 2))
        if field == QQ:
            scale = Poly1(field, [field.one / prime])
            f = normalize_ratfun1(f.num * scale + scale, f.den)
    then = f
    if rng.randrange(3) == 0:
        then = rand_ratfun(field, rng, rng.randint(-1, 3), rng.randint(0, 3))
    return SwitchingOracle(f, then, rng.randint(1, 12))


def gate_trials(monkeypatch, count, seed):
    """(field, cfg, oracle, seed) over the LIMIT_CASES fields and heights.
    Over Q two trials in three engage the image from the first point (its
    `IMAGE_BITS` patched to -1), half of those at the prime 101, where
    congruent abscissae and denominators divisible by the prime are
    common; a trial's patches hold until the next one's."""
    rng = random.Random(seed)
    for trial in range(count):
        field, height = LIMIT_CASES[trial % len(LIMIT_CASES)]
        prime = WORD_PRIME
        monkeypatch.undo()
        if field == QQ and trial % 3:
            monkeypatch.setattr(interp, "IMAGE_BITS", -1)
            if trial % 3 == 2:
                prime = 101
                monkeypatch.setattr(interp, "WORD_PRIME", prime)
        cfg = ReconConfig(max_degree=3 if trial % 4 == 3 else 6,
                          validation_extra=1 + 3 * (trial % 2),
                          height_bound=height)
        kind = trial // len(LIMIT_CASES) % 6
        yield field, cfg, gate_oracle(field, height, rng, kind, prime), rng.getrandbits(32)


def test_gate_matches_detection_with_the_gate_off(monkeypatch):
    # every pass that the gate settles would have found no row within its
    # bound: profile, fit, refusal and oracle queries are those of detection
    # with every pass walking its pool
    outcomes, added = set(), Counter()
    add = interp._GatedPool.add

    def counting_add(gate, a, v):
        image = add(gate, a, v)
        added[gate.p, image] += 1
        return image

    for field, cfg, oracle, seed in gate_trials(monkeypatch, 720, 2035):
        monkeypatch.setattr(interp._GatedPool, "add", counting_add)
        got = outcome(detect_profile_with_fit, oracle, field, cfg, random.Random(seed))
        queries, oracle.queries = oracle.queries, []
        monkeypatch.setattr(interp, "_settled", lambda gate, pool, lim: False)
        want = outcome(detect_profile_with_fit, oracle, field, cfg, random.Random(seed))
        assert got == want, (field, cfg, seed)
        assert queries == oracle.queries, (field, cfg, seed)
        outcomes.add((field, want if isinstance(want, str) else "fit"))
    # F_5 runs out of points before its budget
    for field, _ in LIMIT_CASES:
        refusal = "DomainTooSparse" if field == LIMIT_CASES[0][0] else "BudgetExhausted"
        assert (field, "fit") in outcomes and (field, refusal) in outcomes, field
    # over Q some points had no image, at either prime
    assert added[WORD_PRIME, False] and added[101, False] and added[101, True]


def test_settled_passes_have_no_row_within_their_bound(monkeypatch):
    # a settled pass is one whose pool, fed every point drawn so far, has
    # no row within the bound: `reconstruct_ints(..., limit) is None`;
    # over F_p the full walk of a pool the gate settles is normal
    tally = Counter()
    for field, cfg, oracle, seed in gate_trials(monkeypatch, 360, 2036):
        drawn = []
        draw_defined, settled = interp._draw_defined, interp._settled

        def recording_draw(*args):
            drawn.append(draw_defined(*args))
            return drawn[-1]

        def checked_settled(gate, pool, lim):
            verdict = settled(gate, pool, lim)
            exact = interp._NewtonPool(field)
            for a, v in drawn:
                exact.add(a, v)
            none = reconstruct_ints(exact.modulus, exact.u, exact.p, limit=lim) is None
            assert none or not verdict, (field, cfg, seed, len(drawn))
            if gate is pool:
                rows = list(eea_rows(pool.modulus, pool.u, pool.p))
                normal = [len(r) - 1 for r, _ in rows] == list(range(len(drawn) - 1, -2, -1))
                assert normal or gate.steps is None, (field, cfg, seed)
            tally[verdict, none] += 1
            return verdict

        monkeypatch.setattr(interp, "_draw_defined", recording_draw)
        monkeypatch.setattr(interp, "_settled", checked_settled)
        outcome(detect_profile_with_fit, oracle, field, cfg, random.Random(seed))
    # settled passes, passes with no row that the gate could not settle,
    # and passes that found a row
    assert tally[True, True] and tally[False, True] and tally[False, False]


def step_ints(x0, x1, alpha, beta, sigma, p):
    """sigma*x0 - (alpha + beta*x)*x1 mod p, stripped."""
    out = [0] * max(len(x0), len(x1) + 1)
    for i, c in enumerate(x0):
        out[i] += sigma * c
    for i, c in enumerate(x1):
        out[i] -= alpha * c
        out[i + 1] -= beta * c
    while out and not out[-1] % p:
        out.pop()
    return [c % p for c in out]


def test_gate_keeps_the_rows_of_the_walk():
    # the gate stays on at a point exactly when the walk of the enlarged
    # pool is normal, and its steps then rebuild every row of the walk up to
    # a nonzero scalar, over the points of LIMIT_CASES added one at a time;
    # over Q on their image mod WORD_PRIME
    rng = random.Random(2037)
    kept = Counter()
    for trial in range(600):
        field, height = LIMIT_CASES[trial % len(LIMIT_CASES)]
        p = WORD_PRIME if field == QQ else field.p
        gate = interp._GatedPool(field, p)
        for k, (a, v) in enumerate(limit_pool_points(field, height, rng,
                                                     trial // len(LIMIT_CASES) % 5), 1):
            was_on = gate.steps is not None
            assert gate.add(a, v)
            if not was_on:
                break
            rows = list(eea_rows(gate.modulus, gate.u, p))
            normal = [len(r) - 1 for r, _ in rows] == list(range(k - 1, -2, -1))
            assert normal == (gate.steps is not None), (trial, k)
            kept[field, normal] += 1
            if not normal:
                break
            built = [(gate.modulus, []), ([gate.kappa * c % p for c in gate.u], [gate.kappa])]
            for alpha, beta, sigma in gate.steps:
                # R_(i+1) = sigma_i*R_(i-1) - (alpha_i + beta_i*x)*R_i
                (r0, t0), (r1, t1) = built[-2:]
                built.append(tuple(step_ints(x0, x1, alpha, beta, sigma, p)
                                   for x0, x1 in ((r0, r1), (t0, t1))))
            assert len(built) - 1 == len(rows), (trial, k)
            for (r, t), (rr, tt) in zip(built[1:], rows):
                scale = tt[-1] * pow(t[-1], -1, p) % p
                assert [c * scale % p for c in r] == rr, (trial, k)
                assert [c * scale % p for c in t] == tt, (trial, k)
    for field, _ in LIMIT_CASES:
        assert kept[field, True] and kept[field, False], field


def test_gate_settles_most_dense_recon_passes(monkeypatch):
    # over the benchmark's recon_dense_fp shapes (slice degree 5..9 over
    # F_1000003), at least 60% of detection passes walk nothing
    bench = str(pathlib.Path(__file__).resolve().parents[1] / "bench")
    monkeypatch.syspath_prepend(bench)
    workloads = importlib.import_module("workloads")
    verdicts = []
    settled = interp._settled
    monkeypatch.setattr(interp, "_settled",
                        lambda *args: verdicts.append(settled(*args)) or verdicts[-1])
    for i in range(len(workloads.WORKLOADS["recon_dense_fp"].cycle)):
        inst = workloads.instance("recon_dense_fp", 1, i)
        inst.prepare()
        assert inst.check(inst.solve()), i
    assert sum(verdicts) >= 0.6 * len(verdicts)
