import random
from fractions import Fraction

import pytest

from ratrecon.errors import (
    BetaZero,
    BudgetExhausted,
    DegenerateInput,
    DomainTooSparse,
    NoFit,
    SizeMismatch,
)
from ratrecon.fields import QQ, PrimeField, derive_rng, random_element
from ratrecon.interp import (
    DegreeProfile,
    SampleSet1,
    alpha_beta,
    delta_det,
    delta_sign,
    detect_profile_with_fit,
    fit_ratfun,
    interp_point,
    interp_sign,
)
from ratrecon.matrix import det_exact, resultant, vandermonde_product
from ratrecon.poly import Poly1, gcd_poly1
from ratrecon.ratfun import normalize_ratfun1
from ratrecon.reconstruct import ReconConfig

from sign_calibration import calibrate_sign

FP = PrimeField(1000003)


def q(n, d=1):
    return Fraction(n, d)


def qpoly(*ints):
    return Poly1.from_ints(QQ, ints)


def rand_poly_deg(field, rng, deg):
    while True:
        p = Poly1(field, [random_element(field, rng, 9) for _ in range(deg + 1)])
        if not p.is_zero() and int(p.degree) == deg:
            return p


def rand_coprime_pair(field, rng, n, m):
    while True:
        p = rand_poly_deg(field, rng, n)
        qq_ = rand_poly_deg(field, rng, m)
        if int(gcd_poly1(p, qq_).degree) == 0:
            return p, qq_


def lagrange_eval(points, a):
    """Independent Lagrange interpolation oracle."""
    acc = None
    for i, (xi, yi) in enumerate(points):
        term = yi
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * (a - xj) / (xi - xj)
        acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# delta (resultant product identity)


def test_delta_worked_example():
    # P = 1, Q = x, a = 3, points (1, 2): |delta| = Q(3)*res*V = 3
    d = delta_det(qpoly(1), qpoly(0, 1), q(3), [q(1), q(2)])
    assert d == delta_sign(0, 1) * 3
    assert abs(d) == 3


def test_delta_constant_denominator_base_case():
    # m = 0: delta = Q(a_0)^(n+1) * Vandermonde
    rng = random.Random(31)
    for n in range(0, 4):
        p = rand_poly_deg(QQ, rng, n)
        c = random_element(QQ, rng, 9)
        while c == 0:
            c = random_element(QQ, rng, 9)
        pts = []
        while len(pts) < n + 1:
            v = random_element(QQ, rng, 20)
            if v not in pts:
                pts.append(v)
        d = delta_det(p, Poly1(QQ, [c]), random_element(QQ, rng, 9), pts)
        assert d == c ** (n + 1) * vandermonde_product(pts)


def test_abscissae_congruent_mod_p_are_duplicates():
    # 104 = 3 in F_101 although the two hash apart
    f = PrimeField(101)
    pts = [(f.from_int(3), f.from_int(1)), (104, f.from_int(2)),
           (f.from_int(5), f.from_int(7))]
    with pytest.raises(DegenerateInput):
        interp_point(SampleSet1(pts), DegreeProfile.from_de(1, 0), f.from_int(9))
    with pytest.raises(DegenerateInput):
        fit_ratfun(SampleSet1(pts + [(f.from_int(6), f.from_int(1))]), 1, 1)


def test_delta_duplicate_points():
    with pytest.raises(DegenerateInput):
        delta_det(qpoly(1), qpoly(0, 1), q(3), [q(1), q(1)])
    # the underlying bordered matrix itself has determinant 0 (equal rows)
    rows = [[q(1), q(3), q(0)], [q(1), q(1), q(1)], [q(1), q(1), q(1)]]
    assert det_exact(rows, QQ) == 0


def test_delta_duplicate_points_compare_as_residues():
    # 104 = 3 in F_101 although the two hash apart, as in SampleSet1
    f = PrimeField(101)
    p, qq_ = Poly1.from_ints(f, [1, 1]), Poly1.from_ints(f, [2, 0, 1])
    for pts in ([3, 3, 5, 9], [3, 104, 5, 9], [f.from_int(3), 104, 5, 9]):
        with pytest.raises(DegenerateInput):
            delta_det(p, qq_, f.from_int(7), pts)
    assert delta_det(p, qq_, f.from_int(7), [3, 4, 5, 9]) != f.zero


@pytest.mark.parametrize("field", [QQ, FP])
def test_delta_identity_random(field):
    rng = random.Random(32)
    for _ in range(60):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p, qq_ = rand_coprime_pair(field, rng, n, m)
        pts = []
        while len(pts) < n + m + 1:
            v = random_element(field, rng, 30)
            if v not in pts:
                pts.append(v)
        a = random_element(field, rng, 30)
        want = qq_.eval(a) * resultant(p, qq_) * vandermonde_product(pts)
        want = want * field.from_int(delta_sign(n, m))
        assert delta_det(p, qq_, a, pts) == want


# ---------------------------------------------------------------------------
# alpha/beta and the interpolation formula


def test_alpha_beta_worked_example():
    samples = SampleSet1([(q(1), q(1)), (q(2), q(1, 2))])
    prof = DegreeProfile.from_de(1, -1)
    assert (prof.n, prof.m, prof.l) == (0, 1, 1)
    alpha, beta = alpha_beta(samples, prof, q(3))
    assert alpha == q(1, 2)
    assert beta == q(-3, 2)


def test_alpha_beta_matches_explicit_matrices():
    # dual route: the shared-minor pass equals dets of the explicit matrices
    rng = random.Random(33)
    for _ in range(40):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        l = n + m
        pts, fvals = [], []
        while len(pts) < l + 1:
            v = random_element(QQ, rng, 30)
            if v not in pts:
                pts.append(v)
                fvals.append(random_element(QQ, rng, 9))
        a = random_element(QQ, rng, 9)
        alpha, beta = alpha_beta(SampleSet1(list(zip(pts, fvals))),
                                 DegreeProfile(max(n, m), n - m, n, m, l), a)
        arows = [[a ** j for j in range(n + 1)] + [QQ.zero] * (m + 1)]
        brows = [[a ** j for j in range(m + 1)] + [QQ.zero] * (n + 1)]
        for ai, fv in zip(pts, fvals):
            arows.append([ai ** j for j in range(n + 1)]
                         + [fv * ai ** j for j in range(m + 1)])
            brows.append([fv * ai ** j for j in range(m + 1)]
                         + [ai ** j for j in range(n + 1)])
        assert alpha == det_exact(arows, QQ)
        assert beta == det_exact(brows, QQ)


@pytest.mark.parametrize("field", [QQ, PrimeField(101), FP])
def test_integer_rows_match_field_element_matrices(field):
    # alpha_beta scales rows to integers (residues over F_p); both values
    # must equal the determinants of the bordered field-element matrices,
    # and interp_point their signed ratio, or BetaZero where beta vanishes
    rng = random.Random(f"integer-rows/{field.descriptor()}")
    for case in range(60):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        c = random_element(field, rng, 9)
        pts = []
        while len(pts) < n + m + 1:
            v = random_element(field, rng, 30)
            if v not in pts and v != c:
                pts.append(v)
        # every fourth case samples 1/(x - c) and targets its pole c
        pole = case % 4 == 0 and m >= 1
        fvals = [field.one / (x - c) if pole else random_element(field, rng, 9)
                 for x in pts]
        a = c if pole else random_element(field, rng, 9)
        samples = SampleSet1(list(zip(pts, fvals)))
        prof = DegreeProfile(max(n, m), n - m, n, m, n + m)
        arows = [[a ** j for j in range(n + 1)] + [field.zero] * (m + 1)]
        brows = [[a ** j for j in range(m + 1)] + [field.zero] * (n + 1)]
        for x, v in zip(pts, fvals):
            arows.append([x ** j for j in range(n + 1)] + [v * x ** j for j in range(m + 1)])
            brows.append([v * x ** j for j in range(m + 1)] + [x ** j for j in range(n + 1)])
        alpha, beta = alpha_beta(samples, prof, a)
        assert (alpha, beta) == (det_exact(arows, field), det_exact(brows, field))
        if beta == field.zero:
            with pytest.raises(BetaZero):
                interp_point(samples, prof, a)
        else:
            want = alpha / beta
            assert interp_point(samples, prof, a) == (want if interp_sign(n, m) > 0 else -want)


@pytest.mark.parametrize("field", [QQ, PrimeField(101), FP])
def test_interp_point_beta_zero_at_a_pole_of_the_samples(field):
    # f = 3/(2x - 1), sampled at 1 and 2 with profile (0, 1): beta vanishes
    # at the pole 1/2
    half = field.one / field.from_int(2)
    samples = SampleSet1([(field.from_int(k), field.from_int(3) / field.from_int(2 * k - 1))
                          for k in (1, 2)])
    prof = DegreeProfile.from_de(1, -1)
    _, beta = alpha_beta(samples, prof, half)
    assert beta == field.zero
    with pytest.raises(BetaZero):
        interp_point(samples, prof, half)
    assert interp_point(samples, prof, field.from_int(3)) == field.from_int(3) / field.from_int(5)


def test_alpha_zero_when_all_values_zero():
    samples = SampleSet1([(q(1), q(0)), (q(2), q(0))])
    alpha, _ = alpha_beta(samples, DegreeProfile.from_de(1, -1), q(3))
    assert alpha == 0


def test_interp_point_worked_example():
    samples = SampleSet1([(q(1), q(1)), (q(2), q(1, 2))])
    assert interp_point(samples, DegreeProfile.from_de(1, -1), q(3)) == q(1, 3)


def test_interp_point_at_node():
    samples = SampleSet1([(q(1), q(1)), (q(2), q(1, 2))])
    assert interp_point(samples, DegreeProfile.from_de(1, -1), q(1)) == q(1)


def test_interp_point_beta_zero_at_pole():
    samples = SampleSet1([(q(1), q(1)), (q(2), q(1, 2))])
    with pytest.raises(BetaZero):
        interp_point(samples, DegreeProfile.from_de(1, -1), q(0))


def test_interp_polynomial_case_matches_lagrange():
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(0, 4)
        p = rand_poly_deg(QQ, rng, n)
        pts = []
        while len(pts) < n + 1:
            v = random_element(QQ, rng, 30)
            if v not in pts:
                pts.append(v)
        samples = SampleSet1([(v, p.eval(v)) for v in pts])
        a = random_element(QQ, rng, 9)
        prof = DegreeProfile.from_de(n, n)
        got = interp_point(samples, prof, a)
        assert got == lagrange_eval(samples.points, a) == p.eval(a)


@pytest.mark.parametrize("field", [QQ, FP])
def test_interp_point_random_instances(field):
    rng = random.Random(35)
    done = 0
    while done < 100:
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p, qq_ = rand_coprime_pair(field, rng, n, m)
        f = normalize_ratfun1(p, qq_)
        prof = DegreeProfile.of(f)
        if (prof.n, prof.m) != (n, m):
            continue
        pts = []
        while len(pts) < prof.l + 1:
            v = random_element(field, rng, 50)
            if v not in pts and f.defined_at(v):
                pts.append(v)
        a = None
        while a is None:
            v = random_element(field, rng, 50)
            if f.defined_at(v):
                a = v
        samples = SampleSet1([(v, f.eval(v)) for v in pts])
        assert interp_point(samples, prof, a) == f.eval(a)
        done += 1


def test_calibrate_sign_worked_value_and_grid():
    cal = calibrate_sign()
    assert cal.grid[(0, 1)] == -1
    assert all(v in (1, -1) for v in cal.grid.values())
    for (n, m), v in cal.grid.items():
        assert v == interp_sign(n, m)


def test_interp_sign_lagrange_parity():
    # m = 0 reduces to Lagrange; the sign is +1 exactly when n is even
    # (direct hand computation: f = x on nodes 1, 2 gives alpha = -3, beta = 1)
    samples = SampleSet1([(q(1), q(1)), (q(2), q(2))])
    prof = DegreeProfile.from_de(1, 1)
    alpha, beta = alpha_beta(samples, prof, q(3))
    assert (alpha, beta) == (q(-3), q(1))
    assert interp_sign(1, 0) == -1
    assert interp_sign(2, 0) == 1
    assert interp_point(samples, prof, q(3)) == q(3)


# ---------------------------------------------------------------------------
# fitting and degree detection


def test_fit_examples():
    inv_x = normalize_ratfun1(qpoly(1), qpoly(0, 1))
    samples = SampleSet1([(q(1), q(1)), (q(2), q(1, 2)), (q(4), q(1, 4))])
    assert fit_ratfun(samples, 0, 1) == inv_x
    p = qpoly(1, 0, 1)
    s2 = SampleSet1([(q(v), p.eval(q(v))) for v in (0, 1, 2, 3)])
    assert fit_ratfun(s2, 2, 0) == normalize_ratfun1(p, qpoly(1))
    with pytest.raises(NoFit):
        fit_ratfun(samples, 1, 0)
    with pytest.raises(SizeMismatch):
        fit_ratfun(samples, 1, 1)


def test_fit_oversized_bounds_still_unique():
    # bounds strictly oversized on both sides: the fit is still the one
    # canonical function
    inv_x = normalize_ratfun1(qpoly(1), qpoly(0, 1))
    samples = SampleSet1([(q(v), Fraction(1, v)) for v in (1, 2, 4, 5, 8)])
    assert fit_ratfun(samples, 1, 2) == inv_x


def test_fit_roundtrip_random():
    rng = random.Random(36)
    done = 0
    while done < 300:
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p, qq_ = rand_coprime_pair(QQ, rng, n, m)
        f = normalize_ratfun1(p, qq_)
        prof = DegreeProfile.of(f)
        if (prof.n, prof.m) != (n, m):
            continue
        pts = []
        while len(pts) < n + m + 2:
            v = random_element(QQ, rng, 50)
            if v not in pts and f.defined_at(v):
                pts.append(v)
        got = fit_ratfun(SampleSet1([(v, f.eval(v)) for v in pts]), n, m)
        assert got == f
        done += 1


def test_detect_profile_examples():
    f = normalize_ratfun1(qpoly(1, 0, 1), qpoly(-1, 1))  # (x^2+1)/(x-1)
    rng = derive_rng(77, "detect")
    prof = detect_profile_with_fit(
        lambda a: f.eval(a) if f.defined_at(a) else None,
        QQ, ReconConfig(), rng)[0]
    assert (prof.d, prof.e, prof.n, prof.m, prof.l) == (2, 1, 2, 1, 3)

    rng = derive_rng(78, "detect")
    prof = detect_profile_with_fit(lambda a: q(5), QQ, ReconConfig(), rng)[0]
    assert (prof.d, prof.e, prof.n, prof.m, prof.l) == (0, 0, 0, 0, 0)


def test_detect_profile_with_fit_returns_function():
    f = normalize_ratfun1(qpoly(1), qpoly(0, 1))
    rng = derive_rng(79, "detect")
    prof, fit = detect_profile_with_fit(
        lambda a: f.eval(a) if f.defined_at(a) else None, QQ, ReconConfig(), rng)
    assert fit == f and (prof.d, prof.e) == (1, -1)


def test_detect_profile_budget_exhausted_on_factorial_table():
    # factorial lookup table over F_p: rational fits never survive validation
    p = 10007
    field = PrimeField(p)
    table = [1] * p
    for k in range(1, p):
        table[k] = table[k - 1] * k % p

    def oracle(a):
        return field.from_int(table[a.residue])

    rng = derive_rng(80, "detect")
    with pytest.raises(BudgetExhausted):
        detect_profile_with_fit(oracle, field, ReconConfig(max_degree=8), rng)


def test_detect_profile_domain_too_sparse():
    rng = derive_rng(82, "detect")
    with pytest.raises(DomainTooSparse):
        detect_profile_with_fit(lambda a: None, QQ, ReconConfig(), rng)
