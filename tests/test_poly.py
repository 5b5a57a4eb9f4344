import importlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp

from ratrecon.errors import (
    InexactDivision,
    NonSquareMatrix,
    UndefinedAt,
    ZeroDenominator,
    ZeroFunction,
    ZeroPolynomial,
)
from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.matrix import (
    det_exact,
    resultant,
    sylvester_and_resultant,
    vandermonde_product,
)
from ratrecon.poly import (
    NEG_INF,
    Poly1,
    PolyN,
    divmod_ints,
    gcd_poly1,
    gcd_polyn,
    poly1_from_ints,
    poly1_ints,
)
from ratrecon.ratfun import (
    RatFunN,
    degree_and_ord,
    format_poly1,
    format_ratfun1,
    format_ratfunn,
    normalize_ratfun1,
    normalize_ratfunn,
)

FP = PrimeField(101)


def q(n, d=1):
    return Fraction(n, d)


def qpoly(*ints):
    return Poly1.from_ints(QQ, ints)


def brute_det(rows):
    """Permutation-expansion determinant: the independent oracle."""
    n = len(rows)
    acc = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term if sign > 0 else -term
        acc = term if acc is None else acc + term
    return acc


def rand_poly(field, rng, deg, height=9):
    """Degree exactly deg; deg < 0 gives the zero polynomial."""
    if deg < 0:
        return Poly1.zero(field)
    while True:
        p = Poly1(field, [random_element(field, rng, height) for _ in range(deg + 1)])
        if not p.is_zero() and p.degree == deg:
            return p


def test_rand_poly_of_negative_degree_is_zero():
    assert rand_poly(QQ, random.Random(0), -1).is_zero()


# ---------------------------------------------------------------------------
# Poly1 basics


def test_eval_poly_examples():
    assert qpoly(-1, 0, 1).eval(q(2)) == 3           # x^2 - 1 at 2
    assert Poly1.zero(QQ).eval(q(5)) == 0
    assert qpoly(0, 8, 0, 1).eval(q(1)) == 9          # x^3 + 8x at 1


def test_poly1_strips_trailing_zeros():
    p = Poly1(QQ, [q(1), q(0), q(0)])
    assert p.coeffs == [q(1)]
    assert Poly1(QQ, []).degree == NEG_INF


def test_poly1_divmod_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        a = rand_poly(QQ, rng, rng.randint(0, 5))
        b = rand_poly(QQ, rng, rng.randint(0, 3))
        quot, rem = a.divmod(b)
        assert quot * b + rem == a
        assert rem.degree < b.degree


def test_gcd_poly1_matches_sympy():
    rng = random.Random(6)
    x = sp.Symbol("x")
    for _ in range(30):
        a = rand_poly(QQ, rng, rng.randint(1, 5))
        b = rand_poly(QQ, rng, rng.randint(1, 5))
        c = rand_poly(QQ, rng, rng.randint(0, 2))
        g = gcd_poly1(a * c, b * c)
        sa = sum(sp.Rational(v) * x ** i for i, v in enumerate((a * c).coeffs))
        sb = sum(sp.Rational(v) * x ** i for i, v in enumerate((b * c).coeffs))
        sg = sp.gcd(sa, sb, x)
        sg = sp.Poly(sg, x).monic()
        mine = sum(sp.Rational(v) * x ** i for i, v in enumerate(g.coeffs))
        assert sp.expand(mine - sg.as_expr()) == 0


def test_divmod_ints_identity():
    # s*a = q*b + r with deg r < deg b: s = 1 over F_p, lc(b)^(deg a - deg b + 1)
    # over Q, where the lists are integer numerators
    rng = random.Random(7)
    for field in (QQ, FP, PrimeField(1000003)):
        for _ in range(40):
            a = rand_poly(field, rng, rng.randint(0, 6), 10 ** 6)
            b = rand_poly(field, rng, rng.randint(0, 4), 10 ** 6)
            (ai, ad), (bi, bd) = poly1_ints(a), poly1_ints(b)
            s, quot, rem = divmod_ints(ai, bi, getattr(field, "p", None))
            assert len(rem) < len(bi)
            lhs = a.scale(field.from_int(s) * field.from_int(ad))
            rhs = (poly1_from_ints(field, quot) * b.scale(field.from_int(bd))
                   + poly1_from_ints(field, rem))
            assert lhs == rhs
            if field != QQ:
                assert s == 1


def test_gcd_poly1_over_fp_matches_euclid():
    rng = random.Random(8)
    for field in (FP, PrimeField(1000003)):
        for _ in range(40):
            c = rand_poly(field, rng, rng.randint(0, 3))
            a = rand_poly(field, rng, rng.randint(0, 4)) * c
            b = rand_poly(field, rng, rng.randint(0, 4)) * c
            if rng.random() < 0.1:
                b = Poly1.zero(field)
            x, y = a, b
            while not y.is_zero():
                x, y = y, x.divmod(y)[1]
            want = x.scale(field.inv(x.leading())) if not x.is_zero() else x
            assert gcd_poly1(a, b) == want


# ---------------------------------------------------------------------------
# determinants


def test_det_examples():
    f = QQ
    ident = [[f.one if i == j else f.zero for j in range(3)] for i in range(3)]
    assert det_exact(ident, f) == 1
    m = [[q(1), q(1)], [q(1), q(2)]]
    assert det_exact(m, f) == 1
    fib = [[q(1), q(1), q(2)], [q(1), q(2), q(3)], [q(2), q(3), q(5)]]
    assert det_exact(fib, f) == 0  # third row = sum of first two
    assert det_exact([], f) is f.one


def test_det_nonsquare():
    with pytest.raises(NonSquareMatrix):
        det_exact([[q(0)] * 3 for _ in range(2)], QQ)
    with pytest.raises(NonSquareMatrix):
        det_exact([[q(1), q(2)], [q(3)]], QQ)  # one short row


@pytest.mark.parametrize("field", [QQ, FP])
def test_det_bareiss_matches_brute_force(field):
    rng = random.Random(9)
    for _ in range(100):
        rows = [[random_element(field, rng, 9) for _ in range(4)] for _ in range(4)]
        assert det_exact(rows, field) == brute_det(rows)


# ---------------------------------------------------------------------------
# Sylvester / resultant / Vandermonde


def test_resultant_examples():
    assert resultant(qpoly(-3, 1), qpoly(1, 0, 1)) == 10     # res(x-3, x^2+1)
    assert resultant(qpoly(-1, 0, 1), qpoly(-2, 1)) == 3     # res(x^2-1, x-2)


def test_resultant_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        resultant(Poly1.zero(QQ), qpoly(1, 1))


def test_sylvester_layout_and_det_vs_sympy_matrix():
    # pin the convention: first deg Q rows carry P's coefficients
    p, quo = qpoly(-3, 1), qpoly(1, 0, 1)
    m, r = sylvester_and_resultant(p, quo)
    assert m == [
        [q(1), q(-3), q(0)],
        [q(0), q(1), q(-3)],
        [q(1), q(0), q(1)],
    ]
    assert r == sp.Matrix([[1, -3, 0], [0, 1, -3], [1, 0, 1]]).det() == 10


@pytest.mark.parametrize("field", [QQ, FP])
def test_resultant_antisymmetry(field):
    rng = random.Random(12)
    for _ in range(100):
        p = rand_poly(field, rng, rng.randint(1, 4))
        qq_ = rand_poly(field, rng, rng.randint(1, 4))
        n, m = int(p.degree), int(qq_.degree)
        lhs = resultant(p, qq_)
        rhs = resultant(qq_, p)
        assert lhs == rhs * field.from_int((-1) ** (n * m))


def test_resultant_multiplicative_linear_factor():
    # res(L_a * P, Q) = Q(a) * res(P, Q), anchoring the convention
    rng = random.Random(13)
    for _ in range(50):
        p = rand_poly(QQ, rng, rng.randint(1, 3))
        qq_ = rand_poly(QQ, rng, rng.randint(1, 3))
        a = random_element(QQ, rng, 9)
        la = Poly1(QQ, [-a, QQ.one])
        assert resultant(la * p, qq_) == qq_.eval(a) * resultant(p, qq_)
        assert resultant(la, qq_) == qq_.eval(a)


def test_vandermonde_product():
    assert vandermonde_product([q(1), q(2)]) == 1
    assert vandermonde_product([q(0), q(1), q(2)]) == 2
    assert vandermonde_product([q(1), q(2), q(1)]) == 0
    assert vandermonde_product([q(7)]) == 1


# ---------------------------------------------------------------------------
# rational functions


def test_eval_ratfun_examples():
    inv_x = normalize_ratfun1(qpoly(1), qpoly(0, 1))
    assert inv_x.eval(q(3)) == q(1, 3)
    with pytest.raises(UndefinedAt):
        inv_x.eval(q(0))
    f = normalize_ratfunn(
        PolyN(QQ, 2, {(1, 1): q(1), (0, 0): q(1)}),
        PolyN(QQ, 2, {(1, 0): q(1), (0, 1): q(-1)}))
    with pytest.raises(UndefinedAt):
        f.eval((q(2), q(2)))
    assert f.eval((q(2), q(1))) == q(3)


def test_normalize_examples():
    f = normalize_ratfun1(qpoly(2, 2), qpoly(2))
    assert f.num == qpoly(1, 1) and f.den == qpoly(1)
    g = normalize_ratfun1(qpoly(-1, 0, 1), qpoly(-1, 1))
    assert g.num == qpoly(1, 1) and g.den == qpoly(1)
    # verify the cancelled factor by division
    qt, rem = qpoly(-1, 0, 1).divmod(qpoly(-1, 1))
    assert rem.is_zero() and qt == qpoly(1, 1)
    z = normalize_ratfun1(Poly1.zero(QQ), qpoly(0, 1))
    assert z.num.is_zero() and z.den == qpoly(1)
    with pytest.raises(ZeroDenominator):
        normalize_ratfun1(qpoly(1), Poly1.zero(QQ))


def test_normalize_idempotent():
    rng = random.Random(14)
    for _ in range(100):
        f = normalize_ratfun1(rand_poly(QQ, rng, rng.randint(0, 4)),
                              rand_poly(QQ, rng, rng.randint(0, 4)))
        g = normalize_ratfun1(f.num, f.den)
        assert g.num == f.num and g.den == f.den


def test_degree_and_ord_examples():
    inv_x = normalize_ratfun1(qpoly(1), qpoly(0, 1))
    assert degree_and_ord(inv_x) == (1, -1)
    ident = normalize_ratfun1(qpoly(0, 1), qpoly(1))
    assert degree_and_ord(ident) == (1, 1)
    f = normalize_ratfun1(qpoly(1, 0, 1), qpoly(-1, 1))
    assert degree_and_ord(f) == (2, 1)
    with pytest.raises(ZeroFunction):
        degree_and_ord(normalize_ratfun1(Poly1.zero(QQ), qpoly(1)))


@pytest.mark.parametrize("field", [QQ, FP])
def test_degree_and_ord_of_random_coprime_pairs(field):
    rng = random.Random(15)
    trials = 0
    while trials < 200:
        p = rand_poly(field, rng, rng.randint(0, 4))
        qq_ = rand_poly(field, rng, rng.randint(0, 4))
        if p.is_zero() or int(gcd_poly1(p, qq_).degree) > 0:
            continue
        f = normalize_ratfun1(p, qq_)
        assert degree_and_ord(f) == (max(int(p.degree), int(qq_.degree)),
                                     int(p.degree) - int(qq_.degree))
        trials += 1


def test_polyn_arith_matches_sympy():
    rng = random.Random(16)
    xs = sp.symbols("x1 x2 x3")
    for _ in range(10):
        def rand_pn():
            terms = {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                     random_element(QQ, rng, 5) for _ in range(4)}
            return PolyN(QQ, 3, terms)

        def to_sp(p):
            return sum(sp.Rational(c) * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                       for e, c in p.terms.items())

        a, b = rand_pn(), rand_pn()
        assert sp.expand(to_sp(a * b) - to_sp(a) * to_sp(b)) == 0
        assert sp.expand(to_sp(a + b) - (to_sp(a) + to_sp(b))) == 0
        pt = tuple(random_element(QQ, rng, 5) for _ in range(3))
        expected = to_sp(a).subs(dict(zip(xs, map(sp.Rational, pt))))
        assert sp.Rational(RatFunN(a, PolyN.const(QQ, 3, 1)).eval(pt)) == expected


def divides(d, f):
    try:
        f / d
    except InexactDivision:
        return False
    return True


@pytest.mark.parametrize("field", [QQ, FP])
def test_gcd_polyn_recovers_common_factor(field):
    rng = random.Random(17)
    for _ in range(15):
        def rand_pn(deg):
            terms = {}
            for _ in range(3):
                e = (rng.randint(0, deg), rng.randint(0, deg))
                terms[e] = random_element(field, rng, 5)
            p = PolyN(field, 2, terms)
            return p if not p.is_zero() else PolyN.const(field, 2, field.one)

        a, b, h = rand_pn(2), rand_pn(2), rand_pn(1)
        g = gcd_polyn(a * h, b * h)
        # h divides the gcd; quotient of the products by g is exact
        assert divides(g, a * h)
        assert divides(g, b * h)
        gh = gcd_polyn(g, h)
        assert divides(gh, h) or gcd_polyn(a, b).is_constant() is False


def test_ratfunn_cross_multiplication_equality():
    one = PolyN.const(QQ, 2, QQ.one)
    x1 = PolyN.var(QQ, 2, 0)
    x2 = PolyN.var(QQ, 2, 1)
    f = normalize_ratfunn(x1 * x2 + one, x1 - x2)
    g = normalize_ratfunn((x1 * x2 + one) * x1, (x1 - x2) * x1)
    assert f.same_function(g)
    assert not f.same_function(normalize_ratfunn(x1 * x2, x1 - x2))


def test_canonical_text_format():
    one = PolyN.const(QQ, 2, QQ.one)
    x1 = PolyN.var(QQ, 2, 0)
    x2 = PolyN.var(QQ, 2, 1)
    f = normalize_ratfunn(x1 * x2 + one, x1 - x2)
    assert format_ratfunn(f) == "(x1*x2 + 1)/(x1 - x2)"
    g = normalize_ratfunn(x1 ** 3 + x1 * x2 ** 3, one)
    assert format_ratfunn(g) == "(x1^3 + x1*x2^3)/(1)"
    inv_x = normalize_ratfun1(qpoly(1), qpoly(0, 1))
    assert format_ratfun1(inv_x) == "(1)/(x1)"
    # integer display form over Q
    h = normalize_ratfun1(qpoly(2, 2), qpoly(3))
    assert format_ratfun1(h) == "(2*x1 + 2)/(3)"
    assert format_poly1(qpoly(-1, -1, 1), "t") == "-1 - t + t^2"


FBIG = PrimeField(1000003)


def _to_sympy(p: PolyN, xs):
    if p.field == QQ:
        terms = {e: sp.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sp.Poly.from_dict(terms or {(0,) * p.nvars: 0}, *xs, domain=sp.QQ)
    terms = {e: c.residue for e, c in p.terms.items()}
    return sp.Poly.from_dict(terms or {(0,) * p.nvars: 0}, *xs, modulus=p.field.p)


def _rand_sparse_polyn(field, rng, nvars, nterms, maxdeg):
    while True:
        terms = {tuple(rng.randint(0, maxdeg) for _ in range(nvars)):
                 random_element(field, rng, 6) for _ in range(nterms)}
        p = PolyN(field, nvars, terms)
        if not p.is_zero():
            return p


def _sympy_inputs(field, seed, count):
    # f = a*h, g = b*h with a random common factor h, in 2 or 3 variables
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.choice((2, 3))
        a, b = (_rand_sparse_polyn(field, rng, nvars, rng.randint(1, 3), 2)
                for _ in range(2))
        h = _rand_sparse_polyn(field, rng, nvars, rng.randint(1, 2), 1)
        yield nvars, a * h, b * h


@pytest.mark.parametrize("field", [QQ, FBIG], ids=["Q", "F1000003"])
def test_gcd_polyn_matches_sympy(field):
    for nvars, f, g in _sympy_inputs(field, 18, 50):
        xs = sp.symbols(f"x1:{nvars + 1}")
        mine = gcd_polyn(f, g)
        theirs = sp.gcd(_to_sympy(f, xs), _to_sympy(g, xs))
        # equal up to a constant; ratrecon's form has lex-leading coefficient 1
        assert _to_sympy(mine, xs).monic() == theirs.to_field().monic()
        assert mine.lex_leading()[1] == field.one


@pytest.mark.parametrize("field", [QQ, FBIG], ids=["Q", "F1000003"])
def test_normalize_ratfunn_matches_sympy_cancel(field):
    for nvars, f, g in _sympy_inputs(field, 19, 50):
        xs = sp.symbols(f"x1:{nvars + 1}")
        mine = normalize_ratfunn(f, g)
        # Poly.cancel: sympy.cancel of a tuple of GF(p) Polys missed a common
        # factor (x1 - 46 over F_101) on an input of this generator
        _, num, den = _to_sympy(f, xs).cancel(_to_sympy(g, xs))
        # both sides are coprime, so they agree up to one constant factor
        assert _to_sympy(mine.num, xs).monic() == num.to_field().monic()
        assert _to_sympy(mine.den, xs).monic() == den.to_field().monic()
        assert (_to_sympy(mine.num, xs) * _to_sympy(g, xs)
                == _to_sympy(mine.den, xs) * _to_sympy(f, xs))


# ---------------------------------------------------------------------------
# the packed gcd against sympy, over Q and two prime fields at arity 1-4

poly_mod = importlib.import_module("ratrecon.poly")
ratfun_mod = importlib.import_module("ratrecon.ratfun")
CROSS_FIELDS = (QQ, FP, FBIG)


def _pn(field, nvars, terms):
    return PolyN(field, nvars, {e: field.from_int(c) for e, c in terms.items()})


def _last_var_free(field, rng, nvars):
    """A nonconstant polynomial in x1..x(nvars-1) only."""
    while True:
        p = _rand_sparse_polyn(field, rng, nvars - 1, rng.randint(1, 3), 2)
        if not p.is_constant():
            return PolyN(field, nvars, {e + (0,): c for e, c in p.terms.items()})


def _cross_cases(field):
    """(f, g) pairs: forced common factors, content-only gcds shaped like
    `_combine`'s, zero and constant parts, a variable absent from one side
    and a negative lex-leading coefficient."""
    rng = random.Random(f"cross/{field.descriptor()}")
    for nvars in (1, 2, 3, 4):
        for _ in range(8):
            a, b = (_rand_sparse_polyn(field, rng, nvars, rng.randint(1, 3), 2)
                    for _ in range(2))
            h = _rand_sparse_polyn(field, rng, nvars, rng.randint(1, 3), 1)
            yield a * h, b * h
    for nvars in (2, 3, 4):
        for _ in range(4):
            # C(x') * P and C(x') * Q, P and Q in all the variables
            c = _last_var_free(field, rng, nvars)
            p, q = (_rand_sparse_polyn(field, rng, nvars, 3, 2)
                    + PolyN.var(field, nvars, nvars - 1) for _ in range(2))
            yield c * p, c * q
    zero = PolyN.zero(field, 3)
    f = _rand_sparse_polyn(field, rng, 3, 3, 2)
    yield zero, f
    yield f, PolyN.const(field, 3, field.from_int(7))
    yield PolyN.const(field, 3, field.from_int(-4)), PolyN.const(field, 3, field.from_int(6))
    x1, x2, x3 = (PolyN.var(field, 3, i) for i in range(3))
    one = PolyN.const(field, 3, field.one)
    yield (x1 + x2) * (x1 - one), (x1 + x2) * (x3 + one) * x3     # x3 absent from f
    yield (x2 * x2 - one), (x2 + one) * (x1 + x3)                  # x1, x3 absent from f
    # negative lex-leading coefficients on both sides
    yield (-(x1 * x3) + x2) * (one - x1), (x2 - x1 * x3) * (x2 + x3).scale(field.from_int(-3))


def _is_canonical(f):
    den_lead = f.den.terms[max(f.den.terms)]
    if f.field != QQ:
        return den_lead == f.field.one
    coeffs = list(f.num.terms.values()) + list(f.den.terms.values())
    return (all(c.denominator == 1 for c in coeffs) and den_lead > 0
            and math.gcd(*(c.numerator for c in coeffs)) == 1)


@pytest.mark.parametrize("field", CROSS_FIELDS, ids=["Q", "F101", "F1000003"])
def test_packed_gcd_and_normalize_match_sympy(field, monkeypatch):
    prs = []
    real_prs = poly_mod._prs
    monkeypatch.setattr(poly_mod, "_prs", lambda f, g: prs.append(1) or real_prs(f, g))
    for f, g in _cross_cases(field):
        xs = sp.symbols(f"x1:{f.nvars + 1}")
        mine = gcd_polyn(f, g)
        theirs = sp.gcd(_to_sympy(f, xs), _to_sympy(g, xs))
        if theirs.is_zero:
            assert mine.is_zero()
        else:
            assert _to_sympy(mine, xs).monic() == theirs.to_field().monic()
            assert mine.lex_leading()[1] == field.one
        if g.is_zero():
            continue
        got = normalize_ratfunn(f, g)
        _, num, den = _to_sympy(f, xs).cancel(_to_sympy(g, xs))
        assert _is_canonical(got)
        if f.is_zero():
            assert got.num.is_zero() and got.den == PolyN.const(field, f.nvars, field.one)
            continue
        assert _to_sympy(got.num, xs).monic() == num.to_field().monic()
        assert _to_sympy(got.den, xs).monic() == den.to_field().monic()
        assert (_to_sympy(got.num, xs) * _to_sympy(g, xs)
                == _to_sympy(got.den, xs) * _to_sympy(f, xs))
    assert prs, "no case reached the pseudo-remainder sequence"


@pytest.mark.parametrize("field", CROSS_FIELDS, ids=["Q", "F101", "F1000003"])
def test_packed_gcd_widens_when_the_prs_outgrows_the_inputs(field, monkeypatch):
    # the common factor x1*x2 + 1 leaves cofactors whose leading
    # coefficients in x2 involve x1: the pseudo-remainders' degrees in x1
    # pass the ring sized for the inputs, and the gcd is retaken wider
    h = _pn(field, 2, {(1, 1): 1, (0, 0): 1})
    a = _pn(field, 2, {(2, 2): 1, (0, 1): 2, (1, 0): 3})
    b = _pn(field, 2, {(1, 2): 5, (2, 1): 1, (0, 0): 1})
    widths = []
    real = poly_mod._packed_gcd

    def spy(f, g):
        widths.append(f.ring.w)
        return real(f, g)

    monkeypatch.setattr(poly_mod, "_packed_gcd", spy)
    monkeypatch.setattr(ratfun_mod, "_packed_gcd", spy)
    assert gcd_polyn(a * h, b * h) == h
    assert len(widths) == 2 and widths[1] > widths[0]
    del widths[:]
    got = normalize_ratfunn(a * h, b * h)
    assert len(widths) == 2 and widths[1] > widths[0]
    want = normalize_ratfunn(a, b)
    assert (got.num, got.den) == (want.num, want.den)


def _monomial(field, nvars, rng, deg):
    return _pn(field, nvars, {tuple(rng.randint(0, deg) for _ in range(nvars)): 1})


@pytest.mark.parametrize("field", CROSS_FIELDS, ids=["Q", "F101", "F1000003"])
def test_gcd_with_planted_monomial_factors_matches_sympy(field):
    # f = a*h*u and g = b*h*v: h shared, u and v monomials that share their
    # componentwise minimum; the gcd divides both monomial contents out first
    rng = random.Random(f"monomial/{field.descriptor()}")
    for _ in range(30):
        nvars = rng.choice((2, 3, 4))
        a, b = (_rand_sparse_polyn(field, rng, nvars, rng.randint(1, 3), 3)
                for _ in range(2))
        h = _rand_sparse_polyn(field, rng, nvars, rng.randint(1, 2), 2)
        f = a * h * _monomial(field, nvars, rng, 4)
        g = b * h * _monomial(field, nvars, rng, 4)
        xs = sp.symbols(f"x1:{nvars + 1}")
        mine = gcd_polyn(f, g)
        theirs = sp.gcd(_to_sympy(f, xs), _to_sympy(g, xs))
        assert _to_sympy(mine, xs).monic() == theirs.to_field().monic()
        assert mine.lex_leading()[1] == field.one
        got = normalize_ratfunn(f, g)
        assert _is_canonical(got)
        assert (_to_sympy(got.num, xs) * _to_sympy(g, xs)
                == _to_sympy(got.den, xs) * _to_sympy(f, xs))


# three terms a side over F_1000003 whose gcd is the monomial x1*x2*x3: the
# primitive PRS on them ran for about a minute before the monomial contents
# were divided out first
MONOMIAL_GCD_SCRIPT = """
from ratrecon.fields import PrimeField
from ratrecon.poly import PolyN, gcd_polyn
from ratrecon.ratfun import normalize_ratfunn
F = PrimeField(1000003)
def pn(terms):
    return PolyN(F, 3, {e: F.from_int(c) for e, c in terms.items()})
num = pn({(2, 8, 1): 734860, (8, 5, 3): 489882, (6, 7, 8): 644172})
den = pn({(8, 1, 4): 466175, (2, 6, 8): 389631, (1, 8, 3): 793369})
assert gcd_polyn(num, den) == pn({(1, 1, 1): 1})
f = normalize_ratfunn(num, den)
assert f.num * den == f.den * num
print("ok")
"""


def test_gcd_of_a_shared_monomial_finishes_quickly():
    proc = subprocess.run([sys.executable, "-c", MONOMIAL_GCD_SCRIPT],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# ---------------------------------------------------------------------------
# PolyN * and ** on the packed form, against the term-pair loop they replaced

def ref_mul(f, g):
    """PolyN.__mul__ before the packed form: one field product per pair of
    terms, accumulated in a dict of exponent tuples."""
    zero = f.field.zero
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, zero) + c1 * c2
    return PolyN(f.field, f.nvars, out)


def ref_pow(f, k):
    out = PolyN.const(f.field, f.nvars, f.field.one)
    for _ in range(k):
        out = ref_mul(out, f)
    return out


def _mul_operand(field, rng, nvars, maxdeg, maxterms):
    """A random operand: zero, a constant or a sparse polynomial; over Q its
    coefficients are integers or fractions over one of several lcms."""
    kind = rng.randrange(6)
    if field == QQ:
        dens = rng.choice([(1,), (2,), (3, 4), (5, 7, 35), (6, 10, 15)])

        def coeff():
            return Fraction(rng.randint(-40, 40), rng.choice(dens))
    else:
        def coeff():
            return field.from_int(rng.randrange(field.p))
    if kind == 0:
        return PolyN.zero(field, nvars)
    if kind == 1:
        return PolyN.const(field, nvars, coeff())
    return PolyN(field, nvars, {tuple(rng.randint(0, maxdeg) for _ in range(nvars)): coeff()
                                for _ in range(rng.randint(1, maxterms))})


def _same_polyn(got, want):
    assert got == want
    assert all(type(c) is type(want.field.one) for c in got.terms.values())


@pytest.mark.parametrize("nvars", range(6))
@pytest.mark.parametrize("field", CROSS_FIELDS, ids=["Q", "F101", "F1000003"])
def test_polyn_mul_and_pow_match_term_pair_loop(field, nvars):
    rng = random.Random(f"polyn-mul/{field.descriptor()}/{nvars}")
    for _ in range(40):
        f = _mul_operand(field, rng, nvars, 7, 6)
        g = _mul_operand(field, rng, nvars, 7, 6)
        _same_polyn(f * g, ref_mul(f, g))
        _same_polyn(g * f, ref_mul(f, g))
    for k in range(8):
        for _ in range(3):
            f = _mul_operand(field, rng, nvars, 2, 3)
            _same_polyn(f ** k, ref_pow(f, k))


def test_polyn_mul_rejects_mismatched_arity():
    x1 = PolyN.var(FP, 2, 0)
    x3 = PolyN.var(FP, 3, 2)
    with pytest.raises(ValueError):
        x1 * x3
    with pytest.raises(ValueError):
        x3 * x1


def test_polyn_mul_over_fp_builds_elements_only_for_its_result(monkeypatch):
    rng = random.Random("polyn-mul-spy")
    f = _mul_operand(FBIG, rng, 3, 4, 12) + PolyN.var(FBIG, 3, 0)
    g = _mul_operand(FBIG, rng, 3, 4, 12) + PolyN.var(FBIG, 3, 2)
    fp_cls = type(FBIG.one)
    counts = {"__init__": 0, "__mul__": 0}
    for name in counts:
        real = fp_cls.__dict__[name]

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fp_cls, name, counting)
    monkeypatch.setattr(fp_cls, "__rmul__", fp_cls.__mul__)
    h = f * g
    monkeypatch.undo()
    assert counts == {"__init__": len(h.terms), "__mul__": 0}
    assert h == ref_mul(f, g)
