"""The combine step: the scale system of `_combine` against a reference,
the paired determinants over K[x'] on `PolyN` entries, expanded by the
Laplace reference of `test_determinants`, normalized.

Each instance is a canonical P/Q in 2 to 4 variables, of degrees n and m in
the last one, and its canonical restrictions to l+1 anchor hyperplanes.
Where every restriction is coprime, the scale system must return the same
canonical P/Q as the reference, without a gcd or a normalization.  At an
anchor where P and Q share a factor it must return None, and the l+1
children without that anchor, one more drawn in its place, must combine
to P/Q.
"""

import importlib
import random
from fractions import Fraction

import pytest

from ratrecon.fields import QQ, PrimeField, random_element
from ratrecon.interp import DegreeProfile, interp_sign
from ratrecon.poly import PolyN, gcd_polyn
from ratrecon.ratfun import RatFunN, normalize_ratfunn
from test_determinants import ref_paired_determinants
from test_packed import pad

engine = importlib.import_module("ratrecon.reconstruct")
ratfun = importlib.import_module("ratrecon.ratfun")
poly = importlib.import_module("ratrecon.poly")

FIELDS = (QQ, PrimeField(101), PrimeField(1000003))
IDS = ["Q", "F101", "F1000003"]


def _coeff(field, rng):
    if field == QQ:
        return Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.choice((1, 2, 3, 7)))
    return field.from_int(rng.randint(1, field.p - 1))


def _in_xprime(field, rng, nvars, terms):
    """A nonzero polynomial in x1..x_{nvars-1}, as one in nvars variables."""
    return PolyN(field, nvars, {tuple(rng.randint(0, 2) for _ in range(nvars - 1)) + (0,):
                                _coeff(field, rng) for _ in range(terms)})


def _in_y(field, rng, nvars, deg):
    """sum_k A_k(x') y^k with A_deg nonzero."""
    y = PolyN.var(field, nvars, nvars - 1)
    f = PolyN.zero(field, nvars)
    for k in range(deg + 1):
        if k == deg or rng.random() < 0.7:
            f = f + _in_xprime(field, rng, nvars, rng.randint(1, 2)) * y ** k
    return f


def restrict(f, b):
    """f with its last variable set to b, in one variable fewer."""
    out = {}
    for e, c in f.terms.items():
        out[e[:-1]] = out.get(e[:-1], f.field.zero) + c * b ** e[-1]
    return PolyN(f.field, f.nvars - 1, out)


def ref_combine_dets(parts, anchors, profile, field, nvars):
    """The node's function from its children by the paired interpolation
    determinants over K[x'], on `PolyN` entries by the Laplace reference,
    normalized."""
    n, m = profile.n, profile.m
    top = max(n, m)
    dens = [pad(h.den, nvars) for h in parts]
    nums = [pad(h.num, nvars) for h in parts]
    y = PolyN.var(field, nvars, nvars - 1)
    powers = [PolyN.const(field, nvars, field.one)]
    while len(powers) <= top:
        powers.append(powers[-1] * y)
    phi, psi = ref_paired_determinants(dens, nums, anchors, n, m, powers)
    if interp_sign(n, m) < 0:
        phi = -phi
    return normalize_ratfunn(phi, psi)


def _anchors(field, rng, count):
    anchors = []
    while len(anchors) < count:
        b = (Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
             if field == QQ and rng.random() < 0.3 else random_element(field, rng, 50))
        if b not in anchors:
            anchors.append(b)
    return anchors


def instance(field, rng, nvars, shared_at_zero=False):
    """(truth, parts, anchors, profile)."""
    top = 3 if nvars == 2 else 2
    while True:
        if shared_at_zero:
            # P(x', 0) and Q(x', 0) share the factor x1
            x1, y = PolyN.var(field, nvars, 0), PolyN.var(field, nvars, nvars - 1)
            num = y * _in_y(field, rng, nvars, rng.randint(0, top - 1)) \
                + x1 * _in_xprime(field, rng, nvars, 2)
            den = y * _in_y(field, rng, nvars, rng.randint(0, top - 1)) \
                + x1 * _in_xprime(field, rng, nvars, 2)
        else:
            num = _in_y(field, rng, nvars, rng.randint(0, top))
            den = _in_y(field, rng, nvars, rng.randint(0, top))
        truth = normalize_ratfunn(num, den)
        n, m = (f.degree_in(nvars - 1) for f in (truth.num, truth.den))
        if truth.num.is_zero():
            continue
        profile = DegreeProfile.from_de(max(n, m), n - m)
        anchors = _anchors(field, rng, profile.l + 1)
        if shared_at_zero:
            anchors[rng.randrange(len(anchors))] = field.zero
        images = [(restrict(truth.num, b), restrict(truth.den, b)) for b in anchors]
        if any(q.is_zero() for _, q in images):
            continue
        # coprime at every anchor, or (shared_at_zero) not at anchor 0
        if all(gcd_polyn(p, q).is_constant() for p, q in images) == shared_at_zero:
            continue
        return truth, [normalize_ratfunn(p, q) for p, q in images], anchors, profile


class Spies:
    """Call counts of both bindings of the multivariate gcd and PolyN
    construction, while installed."""

    def __init__(self, monkeypatch):
        self.calls = {}
        for module in (ratfun, poly):
            self._spy(monkeypatch, module, "_packed_gcd", f"{module.__name__}._packed_gcd")
        init = PolyN.__init__
        self.calls["PolyN"] = 0

        def counting_init(*args, **kwargs):
            self.calls["PolyN"] += 1
            return init(*args, **kwargs)

        monkeypatch.setattr(PolyN, "__init__", counting_init)

    def _spy(self, monkeypatch, module, name, label):
        fn = getattr(module, name)
        self.calls[label] = 0

        def counting(*args, **kwargs):
            self.calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_scale_system_matches_determinant_path_on_coprime_images(field, nvars, monkeypatch):
    rng = random.Random(f"scale/{field.descriptor()}/{nvars}")
    for _ in range(5):
        truth, parts, anchors, profile = instance(field, rng, nvars)
        args = (parts, anchors, profile, field, nvars)
        want = ref_combine_dets(*args)
        spies = Spies(monkeypatch)
        got = engine._combine(*args)
        calls = spies.calls
        monkeypatch.undo()
        # no gcd; PolyNs only for the result
        assert calls == {"ratrecon.ratfun._packed_gcd": 0,
                         "ratrecon.poly._packed_gcd": 0, "PolyN": 2}
        assert (got.num, got.den) == (want.num, want.den)
        assert (got.num, got.den) == (truth.num, truth.den)


def extra_child(truth, anchors, field, rng):
    """One more anchor and the canonical restriction there, coprime."""
    while True:
        b = _anchors(field, rng, 1)[0]
        p, q = restrict(truth.num, b), restrict(truth.den, b)
        if b not in anchors and not q.is_zero() and gcd_polyn(p, q).is_constant():
            return b, normalize_ratfunn(p, q)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_anchor_zero_with_a_shared_factor_is_left_out(field, nvars):
    rng = random.Random(f"scale-zero/{field.descriptor()}/{nvars}")
    for _ in range(3):
        truth, parts, anchors, profile = instance(field, rng, nvars, True)
        args = (parts, anchors, profile, field, nvars)
        want = ref_combine_dets(*args)
        assert (want.num, want.den) == (truth.num, truth.den)
        assert engine._combine(*args) is None
        b, child = extra_child(truth, anchors, field, rng)
        k = anchors.index(field.zero)
        got = engine._combine(parts[:k] + parts[k + 1:] + [child],
                              anchors[:k] + anchors[k + 1:] + [b], profile, field, nvars)
        assert (got.num, got.den) == (truth.num, truth.den)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("l", (1, 2, 3))
def test_duplicate_anchors_do_not_combine(field, l):
    rng = random.Random(f"scale-dup/{field.descriptor()}/{l}")
    truth, parts, anchors, profile = instance(field, rng, 3)
    while profile.l != l:
        truth, parts, anchors, profile = instance(field, rng, 3)
    anchors[1], parts[1] = anchors[0], parts[0]
    assert engine._combine(parts, anchors, profile, field, 3) is None


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_all_zero_children(field):
    # with m >= 1 the kernel is (m+1)-dimensional and nothing combines;
    # with m = 0 the scale system returns 0
    zero = RatFunN(PolyN.zero(field, 2), PolyN.const(field, 2, field.one))
    profile = DegreeProfile.from_de(2, -1)
    anchors = [field.from_int(k) for k in range(2, profile.l + 3)]
    assert engine._combine([zero] * (profile.l + 1), anchors, profile, field, 3) is None
    profile = DegreeProfile.from_de(2, 2)
    got = engine._combine([zero] * (profile.l + 1), anchors[:profile.l + 1], profile,
                          field, 3)
    assert got.num.is_zero() and got.den == PolyN.const(field, 3, field.one)
