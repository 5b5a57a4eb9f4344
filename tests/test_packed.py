"""Packed integer polynomials (`poly._Packed`), the arithmetic under
`PolyN` `*` and `/` and the cancellation of `normalize_ratfunn`, against
`PolyN`.
"""

import math
import random
from fractions import Fraction

import pytest

from ratrecon.errors import InexactDivision
from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.poly import PolyN, _PackedRing
from ratrecon.ratfun import RatFunN, normalize_ratfunn

F101 = PrimeField(101)
FP = PrimeField(1000003)
FIELDS = (QQ, F101, FP)


def pad(f, nvars):
    """f in nvars variables, the new trailing exponents 0."""
    zeros = (0,) * (nvars - f.nvars)
    return PolyN(f.field, nvars, {e + zeros: c for e, c in f.terms.items()})


def _coeff(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12)))
    return random_element(field, rng, 9)


def _poly(field, rng, nvars, terms, deg=2):
    return PolyN(field, nvars, {tuple(rng.randint(0, deg) for _ in range(nvars)):
                                _coeff(field, rng) for _ in range(terms)})


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101", "F1000003"])
def test_packed_arithmetic_matches_polyn(field):
    rng = random.Random(f"packed-ops/{field.descriptor()}")
    for _ in range(40):
        nvars = rng.randint(1, 4)
        ring = _PackedRing(field, nvars, 3 * nvars)
        f, g = (_poly(field, rng, nvars, rng.randint(1, 4)) for _ in range(2))
        k = math.lcm(f.int_form()[0], g.int_form()[0])
        pf = ring.pack(f, k // f.int_form()[0])
        pg = ring.pack(g, k // g.int_form()[0])
        assert ring.unpack(pf) == f.scale(field.from_int(k))
        assert ring.unpack(pf - pg) == (f - g).scale(field.from_int(k))
        assert ring.unpack(pf * pg) == (f * g).scale(field.from_int(k * k))
        assert ring.unpack(pf * 3) == f.scale(field.from_int(3 * k))
        if not pg.terms:
            continue
        assert ((pf * pg) / pg).terms == pf.terms


def test_packed_division_refuses_a_borrowing_exponent():
    # x0^2*x1 / x1^2 borrows in the bottom field (x1), whose top bit the
    # borrow sets, x1^2 / x0 in the top one (x0)
    for field in FIELDS:
        ring = _PackedRing(field, 2, 4)
        f = ring.pack(PolyN(field, 2, {(2, 1): field.one, (0, 0): field.one}))
        g = ring.pack(PolyN(field, 2, {(0, 2): field.one}))
        with pytest.raises(InexactDivision):
            f / g
        with pytest.raises(InexactDivision):
            g / ring.pack(PolyN(field, 2, {(1, 0): field.one}))


def test_packed_division_over_q_refuses_an_integer_remainder():
    # (3x + 3) / (2x + 2) is 3/2 over Q, not an element of Z[x]
    ring = _PackedRing(QQ, 1, 4)
    x1 = PolyN(QQ, 1, {(1,): Fraction(1), (0,): Fraction(1)})
    with pytest.raises(InexactDivision):
        ring.pack(x1, 3) / ring.pack(x1, 2)
    assert ring.unpack(ring.pack(x1, 6) / ring.pack(x1, 2)) == PolyN.const(QQ, 1, 3)


def _count_calls(monkeypatch, cls, name):
    fn = cls.__dict__[name]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101", "F1000003"])
def test_normalize_builds_polyn_only_for_its_result(field, monkeypatch):
    # a common factor in all three variables and a content in x1, x2:
    # the gcd, both divisions and the scaling run on the packed form
    rng = random.Random(f"normalize-guard/{field.descriptor()}")
    h = _poly(field, rng, 3, 3) + PolyN.var(field, 3, 2)
    c = _poly(field, rng, 2, 2) + PolyN.const(field, 2, field.one)
    c = pad(c, 3)
    num = c * h * (_poly(field, rng, 3, 3) + PolyN.const(field, 3, field.one))
    den = c * h * (_poly(field, rng, 3, 2) + PolyN.var(field, 3, 0))
    mul = _count_calls(monkeypatch, PolyN, "__mul__")
    init = _count_calls(monkeypatch, PolyN, "__init__")
    f = normalize_ratfunn(num, den)
    assert (len(mul), len(init)) == (0, 2)
    monkeypatch.undo()
    assert f.same_function(RatFunN(num, den))
    assert f.den.total_degree() < den.total_degree()
