"""The boundary from integer forms to results.

`poly.over(field, den)` is the one map c -> c/den into a field, and
`ratfun.ratfunn_from_ints` the one canonical scaling of integer parts.
`normalize_ratfunn` ends in that scaling after its gcd, and
`RatFun1.to_ratfunn`, the engine's combine and its sparse solve end in it
without one: `reconstruct` at any arity, the text format of a univariate
function and each command of the CLI never reach the multivariate gcd.
"""

import importlib
import json
import random
from fractions import Fraction

import pytest

from ratrecon.cli import main
from ratrecon.expr import parse, to_ratfun
from ratrecon.fields import QQ, FpElement, PrimeField
from ratrecon.hankel import SeriesPrefix, certify_rationality
from ratrecon.poly import Poly1, PolyN, gcd_polyn, over
from ratrecon.ratfun import (
    format_ratfun1,
    normalize_ratfun1,
    normalize_ratfunn,
    ratfunn_from_ints,
)
from ratrecon.reconstruct import ReconConfig, SliceOracle, reconstruct

poly = importlib.import_module("ratrecon.poly")
ratfun = importlib.import_module("ratrecon.ratfun")

FIELDS = (PrimeField(5), PrimeField(101), PrimeField(1000003), QQ)
FIELD_IDS = ["fp5", "fp101", "fp1000003", "q"]
SOLVE_FIELDS = (PrimeField(101), PrimeField(1000003), QQ)
SOLVE_IDS = ["fp101", "fp1000003", "q"]


def _int_part(field, rng, nvars, height, terms):
    """A dict from exponent tuple to nonzero int, a residue over F_p."""
    out = {}
    for _ in range(terms):
        c = rng.randint(-height, height)
        if field != QQ:
            c %= field.p
        if c:
            out[tuple(rng.randint(0, 2) for _ in range(nvars))] = c
    return out


def _polyn(field, nvars, part):
    return PolyN(field, nvars, {e: field.from_int(c) for e, c in part.items()})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("height", (1, 10, 1000))
@pytest.mark.parametrize("nvars", (1, 2, 3, 4))
def test_scaling_matches_normalize_on_coprime_parts(field, height, nvars):
    rng = random.Random(f"scaling/{field.descriptor()}/{height}/{nvars}")
    done = 0
    while done < 8:
        num = _int_part(field, rng, nvars, height, rng.randint(0, 4))
        den = _int_part(field, rng, nvars, height, rng.randint(1, 4))
        if not den:
            continue
        if field == QQ:
            # a joint content and a sign to take out
            k = rng.choice((-6, -1, 2, 35))
            num = {e: c * k for e, c in num.items()}
            den = {e: c * k for e, c in den.items()}
        n, d = _polyn(field, nvars, num), _polyn(field, nvars, den)
        if not gcd_polyn(n, d).is_constant():
            continue
        got = ratfunn_from_ints(field, nvars, num, den)
        want = normalize_ratfunn(n, d)
        assert (got.num, got.den) == (want.num, want.den)
        done += 1


def test_scaling_over_q_signs_and_divides_by_the_joint_content():
    # the denominator's lex-leading coefficient is negative; content 6
    got = ratfunn_from_ints(QQ, 2, {(1, 0): 12, (0, 0): -6}, {(1, 1): -18, (0, 2): 30})
    assert got.num.terms == {(1, 0): Fraction(-2), (0, 0): Fraction(1)}
    assert got.den.terms == {(1, 1): Fraction(3), (0, 2): Fraction(-5)}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("nvars", (1, 2, 3, 4))
def test_scaling_of_a_zero_numerator(field, nvars):
    lead = -7 if field == QQ else 3
    got = ratfunn_from_ints(field, nvars, {}, {(0,) * nvars: lead})
    want = normalize_ratfunn(PolyN.zero(field, nvars),
                             PolyN.const(field, nvars, field.from_int(lead)))
    assert (got.num, got.den) == (want.num, want.den)
    assert got.num.is_zero() and got.den == PolyN.const(field, nvars, field.one)


def _poly1(field, rng, deg):
    return Poly1.from_ints(field, [rng.randint(-20, 20) if field == QQ else rng.randrange(field.p)
                                   for _ in range(deg + 1)])


def _ratfun1s(field, rng):
    """Canonical univariate functions: zero, constants, random ones."""
    one = Poly1(field, [field.one])
    out = [normalize_ratfun1(Poly1.zero(field), one),
           normalize_ratfun1(one, one),
           normalize_ratfun1(Poly1.from_ints(field, [3]), Poly1.from_ints(field, [4]))]
    while len(out) < 12:
        den = _poly1(field, rng, rng.randint(0, 4))
        if not den.is_zero():
            out.append(normalize_ratfun1(_poly1(field, rng, rng.randint(0, 4)), den))
    if field == QQ:
        out.append(normalize_ratfun1(Poly1(field, [Fraction(1, 3), Fraction(-2, 7)]),
                                     Poly1(field, [Fraction(5, 2), Fraction(0), Fraction(1, 9)])))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_to_ratfunn_matches_normalizing_the_lifted_parts(field):
    rng = random.Random(f"lift/{field.descriptor()}")
    for f in _ratfun1s(field, rng):
        for nvars in (1, 2, 3, 4):
            for var in range(nvars):
                got = f.to_ratfunn(nvars, var)
                want = normalize_ratfunn(f.num.to_polyn(nvars, var), f.den.to_polyn(nvars, var))
                assert (got.num, got.den) == (want.num, want.den), (f, nvars, var)
                assert got.nvars == nvars


@pytest.mark.parametrize("den", (1, 2, -3, 7, -1000003, 10 ** 20 + 1))
def test_over_is_c_over_den(den):
    cs = [0, 1, -1, 5, -12, 10 ** 30, 2 * 10 ** 6 + 7]
    make = over(QQ, den)
    assert [make(c) for c in cs] == [Fraction(c, den) for c in cs]
    assert all(type(make(c)) is Fraction for c in cs)
    for field in FIELDS[:3]:
        p = field.p
        if den % p == 0:
            continue
        make = over(field, den)
        got = [make(c) for c in cs]
        assert got == [FpElement(c * pow(den, -1, p), field) for c in cs]
        assert all(x.field is field and 0 <= x.residue < p for x in got)


def test_over_defaults_to_den_one():
    assert over(QQ)(-4) == Fraction(-4)
    f = PrimeField(101)
    assert over(f)(-4) == f.from_int(97)


class GcdSpy:
    """Counts calls of both bindings of the multivariate gcd."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for module in (poly, ratfun):
            monkeypatch.setattr(module, "_packed_gcd", self._wrap(module._packed_gcd))

    def _wrap(self, fn):
        def counting(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counting


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=SOLVE_IDS)
def test_no_gcd_from_an_arity_one_reconstruct(field, monkeypatch):
    f = to_ratfun(parse("(x1^3 - 2*x1 + 5)/(3*x1^2 + x1 - 7)", 1), field, 1)
    spy = GcdSpy(monkeypatch)
    report = reconstruct(SliceOracle(1, field, f.eval_or_none), ReconConfig(seed=4))
    assert report.result.same_function(f)
    assert spy.calls == 0


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=SOLVE_IDS)
def test_no_gcd_from_a_leaf(field, monkeypatch):
    # neither the leaves nor the siblings solved on a support call the gcd
    f = to_ratfun(parse("(x1*x3 - 2*x2^2 + 1)/(x1 + x2*x3 - 3)", 3), field, 3)
    leaves = []
    lift = ratfun.RatFun1.to_ratfunn

    def counting(self, *args):
        leaves.append(1)
        return lift(self, *args)

    monkeypatch.setattr(ratfun.RatFun1, "to_ratfunn", counting)
    spy = GcdSpy(monkeypatch)
    report = reconstruct(SliceOracle(3, field, f.eval_or_none), ReconConfig(seed=5))
    assert report.result.same_function(f)
    assert leaves and report.to_json()["nodes"]["sparse"]
    assert spy.calls == 0


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=SOLVE_IDS)
def test_no_gcd_from_the_univariate_text_format(field, monkeypatch, tmp_path, capsys):
    rng = random.Random(f"format/{field.descriptor()}")
    fs = _ratfun1s(field, rng)
    spy = GcdSpy(monkeypatch)
    texts = [format_ratfun1(f) for f in fs]
    samples = tmp_path / "s.csv"
    samples.write_text("0,1\n1,2\n2,5\n3,10\n")
    code = main(["interp", "--samples", str(samples), "--field", field.descriptor(),
                 "--n", "2", "--m", "0", "--fit"])
    assert code == 0 and '"(x1^2 + 1)/(1)"' in capsys.readouterr().out
    fib = [1, 1]
    while len(fib) < 21:
        fib.append(fib[-1] + fib[-2])
    cert = certify_rationality(SeriesPrefix(field, [field.from_int(c) for c in fib]), 5, 5)
    assert cert.to_json()["witness_den_at0is1"] == "1 - t - t^2"
    assert spy.calls == 0
    assert texts[:2] == ["(0)/(1)", "(1)/(1)"]


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=SOLVE_IDS)
def test_no_gcd_from_any_cli_command(field, monkeypatch, tmp_path, capsys):
    # one run of each command; the arity-3 reconstruct solves siblings on a
    # support, which 0.12.0 reduced with the gcd
    desc = field.descriptor()
    series, samples = tmp_path / "fib.json", tmp_path / "s.csv"
    series.write_text(json.dumps({"field": desc, "coeffs": [
        str(c) for c in (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)]}))
    samples.write_text("0,1\n1,2\n2,5\n3,10\n")
    spy = GcdSpy(monkeypatch)
    runs = [("hankel", "--series", str(series), "--lmax", "3", "--mmax", "3"),
            ("interp", "--samples", str(samples), "--field", desc, "--n", "2",
             "--m", "0", "--fit"),
            ("reconstruct", "--expr", "(x1*x3 - 2*x2^2 + 1)/(x1 + x2*x3 - 3)",
             "--arity", "3", "--field", desc, "--seed", "5"),
            ("counterexample", "--n", "3", "--dmax", "0", "--grid", "2")]
    outs = []
    for argv in runs:
        assert main(list(argv)) == 0, argv[0]
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[2])["report"]["nodes"]["sparse"] > 0
    assert spy.calls == 0
