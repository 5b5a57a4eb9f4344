"""Differential tests of candidate evaluation (`RatFunN.eval_or_none`, a
straight-line program of the `expr` compiler) against per-term field-element
evaluation, and its contract at every arity from 0 to 5."""

import random
from fractions import Fraction

import pytest

from ratrecon import ratfun
from ratrecon.errors import FieldMismatch, UndefinedAt
from ratrecon.fields import QQ, FpElement, PrimeField, random_element
from ratrecon.poly import PolyN
from ratrecon.ratfun import RatFunN, normalize_ratfunn

F101 = PrimeField(101)
FBIG = PrimeField(1000003)
FIELDS = [QQ, F101, FBIG]


def ref_polyn_eval(f: PolyN, point):
    # one field operation per factor
    if len(point) != f.nvars:
        raise ValueError("point arity mismatch")
    acc = f.field.zero
    for e, c in f.terms.items():
        t = c
        for v, k in zip(point, e):
            if k:
                t = t * v ** k
        acc = acc + t
    return acc


def ref_eval_or_none(g: RatFunN, point):
    d = ref_polyn_eval(g.den, point)
    if d == g.field.zero:
        return None
    return ref_polyn_eval(g.num, point) / d


def coeff(field, rng, integral=False):
    if field == QQ:
        return Fraction(rng.randint(-30, 30), 1 if integral else rng.randint(1, 12))
    return random_element(field, rng, 0)


def rand_polyn(field, rng, nvars, maxdeg=4, integral=False):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = coeff(field, rng, integral)
    return PolyN(field, nvars, terms)


def coordinate(field, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0 if rng.random() < 0.5 else field.zero
    if kind == 1:
        return rng.randint(-20, 20)       # plain ints embed in every field
    return random_element(field, rng, 7)


def same(a, b):
    return type(a) is type(b) and a == b


def polynomial(f: PolyN) -> RatFunN:
    """f/1, which evaluates a polynomial through the candidate's program"""
    return RatFunN(f, PolyN.const(f.field, f.nvars, f.field.one))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("nvars", [0, 1, 2, 3, 4, 5])
def test_polyn_eval_matches_per_term_loop(field, nvars):
    rng = random.Random(f"polyn/{field!r}/{nvars}")
    polys = [PolyN.zero(field, nvars),
             PolyN.const(field, nvars, field.one),
             PolyN.const(field, nvars, coeff(field, rng))]
    polys += [rand_polyn(field, rng, nvars) for _ in range(40)]
    for f in polys:
        for _ in range(5):
            pt = tuple(coordinate(field, rng) for _ in range(nvars))
            assert same(polynomial(f).eval(pt), ref_polyn_eval(f, pt)), (f, pt)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_ratfunn_eval_matches_per_term_loop(field, nvars):
    rng = random.Random(f"ratfunn/{field!r}/{nvars}")
    checked = poles = 0
    while checked < 300:
        # integer coefficients, as in the canonical form over Q, or fractions
        integral = checked % 2 == 0
        num = rand_polyn(field, rng, nvars, integral=integral)
        den = rand_polyn(field, rng, nvars, integral=integral)
        if den.is_zero():
            continue
        g = RatFunN(num, den)
        for _ in range(3):
            pt = tuple(coordinate(field, rng) for _ in range(nvars))
            want = ref_eval_or_none(g, pt)
            assert (g.eval_or_none(pt) is not None) == (want is not None)
            if want is None:
                poles += 1
                assert g.eval_or_none(pt) is None
                with pytest.raises(UndefinedAt):
                    g.eval(pt)
            else:
                assert same(g.eval_or_none(pt), want)
                assert same(g.eval(pt), want)
            checked += 1
    assert poles > 0


def test_canonical_forms_match_per_term_loop():
    rng = random.Random(11)
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for _ in range(10):
                num = rand_polyn(field, rng, nvars, maxdeg=2)
                den = rand_polyn(field, rng, nvars, maxdeg=2)
                if den.is_zero():
                    continue
                g = normalize_ratfunn(num, den)
                for _ in range(5):
                    pt = tuple(coordinate(field, rng) for _ in range(nvars))
                    want = ref_eval_or_none(g, pt)
                    got = g.eval_or_none(pt)
                    assert got is None if want is None else same(got, want)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_poles_on_a_hyperplane(field):
    # (x1*x3 + 2)/(x1 - x2) at points with x1 == x2: every one is a pole
    x1, x2, x3 = (PolyN.var(field, 3, i) for i in range(3))
    two = PolyN.const(field, 3, field.from_int(2))
    g = RatFunN(x1 * x3 + two, x1 - x2)
    rng = random.Random(7)
    for _ in range(30):
        a = random_element(field, rng, 9)
        pt = (a, a, coordinate(field, rng))
        assert ref_eval_or_none(g, pt) is None
        assert g.eval_or_none(pt) is None
        pt = (a, a + 1, pt[2])
        assert same(g.eval_or_none(pt), ref_eval_or_none(g, pt))


@pytest.mark.parametrize("field,foreign", [
    (QQ, F101.from_int(3)),
    (F101, Fraction(1, 2)),
    (F101, FBIG.from_int(3)),
    (FBIG, F101.from_int(3)),
])
def test_foreign_coordinate_is_field_mismatch(field, foreign):
    x1, x2 = PolyN.var(field, 2, 0), PolyN.var(field, 2, 1)
    f = x1 * x2 + PolyN.const(field, 2, field.one)
    g = RatFunN(f, x1 - x2)
    pt = (field.from_int(2), foreign)
    with pytest.raises(FieldMismatch):
        ref_polyn_eval(f, pt)
    for evaluate in (polynomial(f).eval, g.eval, g.eval_or_none):
        with pytest.raises(FieldMismatch):
            evaluate(pt)
    # the program converts every coordinate, used by a term or not
    with pytest.raises(FieldMismatch):
        polynomial(x1).eval(pt)


def test_point_arity_mismatch():
    f = PolyN.var(F101, 2, 0)
    with pytest.raises(ValueError):
        polynomial(f).eval_or_none((F101.one,))
    with pytest.raises(ValueError):
        polynomial(f).eval_or_none((1, 2, 3))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("nvars", [0, 1, 2, 3, 4, 5])
def test_candidate_contract(monkeypatch, field, nvars, request):
    # wrong lengths, foreign coordinates and poles, on one program per instance
    built = []
    compile_ = ratfun._compile
    monkeypatch.setattr(ratfun, "_compile",
                        lambda e, fld, width: built.append(width) or compile_(e, fld, width))
    rng = random.Random(request.node.name)
    foreign = F101.from_int(3) if field != F101 else FBIG.from_int(3)
    xs = [PolyN.var(field, nvars, i) for i in range(nvars)]
    one = PolyN.const(field, nvars, field.one)
    # a pole where x1 = x2 (x1 = 0 in one variable; everywhere in none)
    den = (xs[0] - xs[1] if nvars > 1 else xs[0]) if nvars else PolyN.zero(field, 0)
    num = rand_polyn(field, rng, nvars) + one
    g = RatFunN(num, den)
    for _ in range(20):
        pt = tuple(coordinate(field, rng) for _ in range(nvars))
        want = ref_eval_or_none(g, pt)
        assert g.eval_or_none(pt) is None if want is None else same(g.eval_or_none(pt), want)
        if nvars:
            with pytest.raises(ValueError):
                g.eval_or_none(pt[:-1])
        with pytest.raises(ValueError):
            g.eval_or_none(pt + (1,))
        for i in range(nvars):
            with pytest.raises(FieldMismatch):
                g.eval_or_none(pt[:i] + (foreign,) + pt[i + 1:])
    pole = (field.zero,) * nvars
    assert g.eval_or_none(pole) is None
    assert built == [nvars]


def test_result_types():
    assert type(polynomial(PolyN.zero(QQ, 2)).eval((1, 2))) is Fraction
    assert type(polynomial(PolyN.zero(F101, 2)).eval((1, 2))) is FpElement
    x = PolyN.var(QQ, 1, 0)
    assert polynomial(x).eval((Fraction(7, 3),)) == Fraction(7, 3)
    assert RatFunN(x, x * x + PolyN.const(QQ, 1, Fraction(1, 2))).eval(
        (Fraction(1, 3),)) == Fraction(1, 3) / (Fraction(1, 9) + Fraction(1, 2))
