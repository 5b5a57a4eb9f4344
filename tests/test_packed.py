"""The symbolic determinant of `_combine_by_dets`, the fallback of
`_combine`, on packed integer polynomials.

The reference is the generic kernel on `PolyN` entries: the combine as it
was, the paired determinants of the children's `PolyN` parts with field
anchor powers and a `PolyN` ladder of y powers.  Over F_p the packed path
must give the same polynomials; over Q its data rows carry positive
integer factors, so its results must agree after normalization.
"""

import importlib
import math
import random
from fractions import Fraction

import pytest

from ratrecon.errors import InexactDivision, ZeroDenominator
from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.interp import DegreeProfile, interp_sign, paired_determinants
from ratrecon.poly import PolyN, _PackedRing
from ratrecon.ratfun import RatFunN, normalize_ratfunn

engine = importlib.import_module("ratrecon.reconstruct")

F101 = PrimeField(101)
FP = PrimeField(1000003)
FIELDS = (QQ, F101, FP)


def pad(f, nvars):
    """f in nvars variables, the new trailing exponents 0."""
    zeros = (0,) * (nvars - f.nvars)
    return PolyN(f.field, nvars, {e + zeros: c for e, c in f.terms.items()})


def ref_combine_dets(parts, anchors, profile, field, nvars):
    """(phi, psi) of `_combine_by_dets` before normalization, on PolyN entries."""
    n, m = profile.n, profile.m
    top = max(n, m)
    dens = [pad(h.den, nvars) for h in parts]
    nums = [pad(h.num, nvars) for h in parts]
    y = PolyN.var(field, nvars, nvars - 1)
    powers = [PolyN.const(field, nvars, field.one)]
    while len(powers) <= top:
        powers.append(powers[-1] * y)
    apowers = [[b ** j for j in range(top + 1)] for b in anchors]
    phi, psi = paired_determinants(dens, nums, apowers, n, m, powers)
    if interp_sign(n, m) < 0:
        phi = -phi
    return phi, psi


def packed_combine_dets(parts, anchors, profile, field, nvars, monkeypatch):
    """(phi, psi) as `_combine_by_dets` hands them to normalization."""
    seen = []

    def capture(num, den):
        seen.append((num, den))
        return normalize_ratfunn(num, den)

    monkeypatch.setattr(engine, "normalize_ratfunn", capture)
    try:
        engine._combine_by_dets(parts, anchors, profile, field, nvars)
    except ZeroDenominator:
        pass
    monkeypatch.undo()
    return seen[0]


def _coeff(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12)))
    return random_element(field, rng, 9)


def _poly(field, rng, nvars, terms, deg=2):
    return PolyN(field, nvars, {tuple(rng.randint(0, deg) for _ in range(nvars)):
                                _coeff(field, rng) for _ in range(terms)})


def _child(field, rng, nvars, zero_num=False):
    deg = 2 if nvars < 3 else 1
    den = _poly(field, rng, nvars, rng.randint(1, 2), deg) + PolyN.const(field, nvars, field.one)
    if den.is_zero():
        den = PolyN.const(field, nvars, field.one)
    num = (PolyN.zero(field, nvars) if zero_num
           else _poly(field, rng, nvars, rng.randint(1, 2), deg))
    return RatFunN(num, den)


def _anchor(field, rng, big):
    if big and field == QQ:
        return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
    return random_element(field, rng, 50)


def _instance(field, rng, kind):
    """(parts, anchors, profile, nvars, both determinants must vanish)."""
    nvars = rng.randint(2, 5)
    d = rng.randint(1, 3 if nvars < 4 else 2)
    e = -d if kind == "prefix" else rng.randint(-d, d)
    # with e = -d, n = 0: a row with a zero numerator is [den, 0..0]
    profile = DegreeProfile.from_de(d, e)
    rows = profile.l + 1
    anchors = []
    while len(anchors) < rows:
        b = _anchor(field, rng, kind == "big")
        if b not in anchors:
            anchors.append(b)
    parts = [_child(field, rng, nvars - 1, kind == "zero" and rng.random() < 0.5)
             for _ in range(rows)]
    vanish = False
    if kind == "duplicate" and rows >= 2:
        i, j = rng.sample(range(rows), 2)
        anchors[j], parts[j] = anchors[i], parts[i]
        vanish = True
    elif kind == "prefix" and rows >= 2:
        for i in (0, 1):
            parts[i] = RatFunN(PolyN.zero(field, nvars - 1), parts[i].den)
        vanish = True
    return parts, anchors, profile, nvars, vanish


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101", "F1000003"])
@pytest.mark.parametrize("kind", ["generic", "duplicate", "zero", "prefix", "big"])
def test_packed_combine_matches_polyn_reference(field, kind, monkeypatch):
    rng = random.Random(f"packed/{field.descriptor()}/{kind}")
    for _ in range(6):
        parts, anchors, profile, nvars, vanish = _instance(field, rng, kind)
        args = (parts, anchors, profile, field, nvars)
        want = ref_combine_dets(*args)
        got = packed_combine_dets(*args, monkeypatch)
        if vanish:
            assert want[0].is_zero() and want[1].is_zero()
        if field != QQ:
            assert got == want
            continue
        assert got == tuple(f.scale(row_factors(parts, anchors, profile)) for f in want)
        if not want[1].is_zero():
            a, b = normalize_ratfunn(*got), normalize_ratfunn(*want)
            assert (a.num, a.den) == (b.num, b.den)


def row_factors(parts, anchors, profile):
    """Over Q, the product of the factors that make the data rows integral:
    per row, the lcm of its denominators times v^max(n, m) for anchor u/v."""
    top = max(profile.n, profile.m)
    return math.prod(math.lcm(h.den.int_form()[0], h.num.int_form()[0])
                     * b.denominator ** top for h, b in zip(parts, anchors))


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
        assert ring.unpack(-pf) == (-f).scale(field.from_int(k))
        assert ring.unpack(pf * pg) == (f * g).scale(field.from_int(k * k))
        assert ring.unpack(pf * 3) == f.scale(field.from_int(3 * k))
        if not pg.terms:
            continue
        assert (pf * pg) / pg == pf


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


@pytest.mark.parametrize("field", (QQ, FP), ids=["Q", "F1000003"])
def test_combine_builds_polyn_only_for_its_result(field, monkeypatch):
    rng = random.Random(f"packed-guard/{field.descriptor()}")
    profile = DegreeProfile.from_de(3, -1)
    parts = [normalize_ratfunn(_poly(field, rng, 2, 3),
                               _poly(field, rng, 2, 2) + PolyN.const(field, 2, field.one))
             for _ in range(profile.l + 1)]
    anchors = [field.from_int(k) for k in range(2, profile.l + 3)]
    mul = _count_calls(monkeypatch, PolyN, "__mul__")
    div = _count_calls(monkeypatch, PolyN, "__truediv__")
    init = _count_calls(monkeypatch, PolyN, "__init__")
    at_normalize = []

    def normalize(num, den):
        at_normalize.append((len(mul), len(div), len(init)))
        return normalize_ratfunn(num, den)

    monkeypatch.setattr(engine, "normalize_ratfunn", normalize)
    result = engine._combine(parts, anchors, profile, field, 3)
    assert at_normalize == [(0, 0, 2)]
    assert not result.is_zero()


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
