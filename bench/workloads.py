"""Seeded workloads for the ratrecon benchmark.

A workload is a fixed cycle of instance shapes.  Instance i has shape
i % len(cycle) and draws its coefficients from a stream seeded by
(workload, seed, i), so every run sees the same mix of input sizes and the
run-to-run spread comes from the machine and the drawn coefficients, not
from which sizes happened to be drawn.

Truths are built here, on the benchmark side.  The program receives only
what a user would hand it: expression text for `reconstruct --expr`, a
series prefix for `hankel`, samples and degrees for `interp`.  Every answer
is checked exactly against the truth; the checks compare by
cross-multiplication or by independent evaluation, not through the solver's
own code path.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import ratrecon
from ratrecon import (
    QQ,
    DegreeProfile,
    Poly1,
    PolyN,
    ReconConfig,
    SampleSet1,
    SeriesPrefix,
    SliceOracle,
    eval_expr,
    format_ratfun1,
    format_ratfunn,
    gcd_poly1,
    normalize_ratfunn,
    parse,
)
from ratrecon.fields import PrimeField

FP = PrimeField(1000003)


class CountingOracle:
    """The benchmark's oracle wrapper: every call into the truth is counted.

    For the reconstruct workloads the program calls it while solving.  For
    `series_interp_q` the benchmark calls it while generating the series
    coefficients and samples it hands over, so there it counts data values."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, point):
        self.calls += 1
        return self.fn(point)


def _elem(field, rng, height):
    """Uniform residue over F_p; over Q a fraction with |num|, den <= height."""
    if field == QQ:
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    return field.from_int(rng.randrange(field.p))


def _nonzero(field, rng, height):
    while True:
        c = _elem(field, rng, height)
        if c != field.zero:
            return c


def _horner(coeffs, a, zero):
    acc = zero
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


class Recon:
    """`ratrecon reconstruct --expr TRUTH`: the oracle is `eval_expr` on the
    parsed canonical text of the truth."""

    kind = "reconstruct"

    def __init__(self, field, truth, config: dict):
        self.field = field
        self.truth = truth
        self.text = format_ratfunn(truth)
        self.config = config
        self.oracle = CountingOracle(None)

    def prepare(self):
        """Program-side set-up, as the CLI does it: parse, SliceOracle."""
        ast = parse(self.text, self.truth.nvars)
        field = self.field
        self.oracle.fn = lambda pt: eval_expr(ast, pt, field)
        self.slice_oracle = SliceOracle(self.truth.nvars, field, self.oracle)
        self.recon_config = ReconConfig(**self.config)

    def solve(self):
        return ratrecon.reconstruct(self.slice_oracle, self.recon_config)

    def render(self, report) -> str:
        return format_ratfunn(report.result)

    def check(self, report) -> bool:
        return (self.render(report) == self.text
                and report.result.same_function(self.truth))


class Certify:
    """`ratrecon hankel`: certify a series prefix.  `truth` is (P, Q) for a
    rational series, or None where a refusal is expected."""

    kind = "certify"

    def __init__(self, field, coeff, n_terms, l_max, m_max, truth):
        self.field = field
        self.l_max, self.m_max = l_max, m_max
        self.truth = truth
        self.oracle = CountingOracle(coeff)
        self.coeffs = [self.oracle(k) for k in range(n_terms)]

    def prepare(self):
        self.prefix = SeriesPrefix(self.field, list(self.coeffs))

    def solve(self):
        return ratrecon.certify_rationality(self.prefix, self.l_max, self.m_max)

    def render(self, cert) -> str:
        return json.dumps(cert.to_json(), sort_keys=True)

    def check(self, cert) -> bool:
        if self.truth is None:
            return cert.verdict == "NoWitnessUpTo" and cert.witness is None
        p, q = self.truth
        w = cert.witness
        return (cert.verdict == "RationalWitness" and w is not None
                and w.num * q == w.den * p)


class Interp:
    """`ratrecon interp`: the value at a target from l+1 samples (`--at`)
    and the fitted function from l+3 samples (`--fit`), degrees given."""

    kind = "interp"

    def __init__(self, field, p, q, rng):
        zero = field.zero

        def value(a):
            den = _horner(q, a, zero)
            return None if den == zero else _horner(p, a, zero) / den

        self.field = field
        self.p, self.q = Poly1(field, p), Poly1(field, q)
        self.n, self.m = len(p) - 1, len(q) - 1
        self.oracle = CountingOracle(value)
        taken = set()
        points = []
        while len(points) < self.n + self.m + 4:
            a = _elem(field, rng, 50)
            if a in taken:
                continue
            taken.add(a)
            v = self.oracle(a)
            if v is not None:
                points.append((a, v))
        (self.target, self.expected), self.points = points[-1], points[:-1]

    def prepare(self):
        self.samples = SampleSet1(list(self.points))
        self.head = SampleSet1(self.points[:self.n + self.m + 1])
        self.profile = DegreeProfile.from_de(max(self.n, self.m), self.n - self.m)

    def solve(self):
        value = ratrecon.interp_point(self.head, self.profile, self.target)
        fit = ratrecon.fit_ratfun(self.samples, self.n, self.m)
        return value, fit

    def render(self, answer) -> str:
        value, fit = answer
        return f"{self.field.format(value)} {format_ratfun1(fit)}"

    def check(self, answer) -> bool:
        value, fit = answer
        return value == self.expected and fit.num * self.q == fit.den * self.p


# -- instance shapes ---------------------------------------------------------


def sparse_recon(field, num_degs, den_degs, rng):
    """A random sparse function like acceptance criterion 4, three terms per
    part, except that the numerator and denominator, in lowest terms, have
    the given degree in every variable.  The support and coefficients are
    random; fixing the degrees fixes the slice degree l = deg num + deg den
    along each variable, and with it the size of the recursion tree, so the
    cost of a shape varies little.  A draw whose parts share a factor has
    lower degrees and is drawn again."""
    nvars = len(num_degs)

    def poly(degs):
        exps = [[rng.randint(0, d) for d in degs] for _ in range(3)]
        for k, d in enumerate(degs):
            if all(e[k] != d for e in exps):
                exps[rng.randrange(3)][k] = d
        return PolyN(field, nvars, {tuple(e): _nonzero(field, rng, 9) for e in exps})

    def degrees(p):
        return tuple(p.degree_in(k) for k in range(nvars))

    while True:
        truth = normalize_ratfunn(poly(num_degs), poly(den_degs))
        if degrees(truth.num) == num_degs and degrees(truth.den) == den_degs:
            return Recon(field, truth, dict(seed=rng.getrandbits(32)))


def dense_recon(l, rng):
    """(x2^a + c0*x1*x2 + c1*x1)/(x2^b + x1*x2 + c2) over F_p with a + b = l:
    slice degree l along the peeled variable x2, linear in x1."""
    a = l // 2 + 1
    b = l - a
    x1, x2 = PolyN.var(FP, 2, 0), PolyN.var(FP, 2, 1)
    c = [_nonzero(FP, rng, 0) for _ in range(3)]
    num = x2 ** a + (x1 * x2).scale(c[0]) + x1.scale(c[1])
    den = x2 ** b + x1 * x2 + PolyN.const(FP, 2, c[2])
    return Recon(FP, normalize_ratfunn(num, den),
                 dict(max_degree=10, seed=rng.getrandbits(32)))


def rational_series(field, n0, m0, l_max, m_max, rng):
    """Prefix of P/Q with deg P = n0, deg Q = m0, Q(0) = 1.  The prefix is
    long enough (N >= l_max + 2*m_max + 1) that the only witness within the
    bounds is P/Q itself."""
    p = [_elem(field, rng, 9) for _ in range(n0)] + [_nonzero(field, rng, 9)]
    q = [field.one] + [_elem(field, rng, 9) for _ in range(m0 - 1)] \
        + [_nonzero(field, rng, 9)]
    out = []

    def coeff(k):
        while len(out) <= k:
            j = len(out)
            acc = p[j] if j < len(p) else field.zero
            for i in range(1, min(j, m0) + 1):
                acc = acc - q[i] * out[j - i]
            out.append(acc)
        return out[k]

    return Certify(field, coeff, l_max + 2 * m_max + 5, l_max, m_max,
                   (Poly1(field, p), Poly1(field, q)))


def factorial_series(field, n_terms, l_max, m_max, rng):
    """a_k = c * r^k * k!: its Hankel determinants never vanish (over F_p
    because every factor is below p), so the certificate must refuse."""
    c, r = rng.randint(1, 9), rng.randint(1, 5)
    return Certify(field, lambda k: field.from_int(c * r ** k * math.factorial(k)),
                   n_terms, l_max, m_max, None)


def interp_instance(field, l, rng):
    """Coprime P/Q with deg P + deg Q = l, both degrees at least 2."""
    n = rng.randint(2, l - 2)
    while True:
        p = [_elem(field, rng, 9) for _ in range(n)] + [_nonzero(field, rng, 9)]
        q = [_elem(field, rng, 9) for _ in range(l - n)] + [_nonzero(field, rng, 9)]
        if int(gcd_poly1(Poly1(field, p), Poly1(field, q)).degree) == 0:
            return Interp(field, p, q, rng)


@dataclass(frozen=True)
class Workload:
    cycle: tuple
    per_second: float   # instances per second at the seed commit, 2-core x86 VM


WORKLOADS = {
    "recon_sparse_fp": Workload((
        partial(sparse_recon, FP, (3, 2), (2, 3)),
        partial(sparse_recon, FP, (3, 3), (3, 3)),
        partial(sparse_recon, FP, (3, 1), (1, 3)),
        partial(sparse_recon, FP, (2, 1, 1), (1, 1, 2)),
        partial(sparse_recon, FP, (1, 2, 1), (1, 1, 1)),
        partial(sparse_recon, FP, (1, 1, 1, 1), (1, 1, 1, 1)),
        partial(sparse_recon, FP, (1, 1, 1, 1), (1, 0, 1, 1)),
    ), 2.3),
    "recon_dense_fp": Workload(tuple(partial(dense_recon, l) for l in range(5, 10)), 1.2),
    "recon_q": Workload((
        partial(sparse_recon, QQ, (2, 1), (1, 2)),
        partial(sparse_recon, QQ, (1, 2), (2, 2)),
        partial(sparse_recon, QQ, (2, 2), (2, 2)),
        partial(sparse_recon, QQ, (3, 1), (1, 3)),
        partial(sparse_recon, QQ, (1, 1, 1), (1, 1, 1)),
        partial(sparse_recon, QQ, (1, 1, 1), (1, 0, 1)),
        partial(sparse_recon, QQ, (2, 1, 1), (1, 1, 2)),
    ), 3.0),
    "series_interp_q": Workload((
        partial(rational_series, QQ, 2, 6, 6, 8),
        partial(rational_series, QQ, 3, 10, 8, 12),
        partial(factorial_series, QQ, 41, 10, 10),
        partial(rational_series, FP, 2, 12, 6, 13),
        partial(factorial_series, FP, 61, 14, 14),
        partial(interp_instance, QQ, 10),
        partial(interp_instance, QQ, 12),
        partial(interp_instance, FP, 9),
        partial(interp_instance, FP, 12),
    ), 2.6),
}

MIN_INSTANCES = 40   # p75 then has at least 10 samples beyond it


def instance_count(workload: str, seconds: float) -> int:
    """Whole cycles, enough to fill `seconds` at the seed commit's rate."""
    cycle = len(WORKLOADS[workload].cycle)
    want = max(MIN_INSTANCES, seconds * WORKLOADS[workload].per_second)
    return cycle * math.ceil(want / cycle)


def instance(workload: str, seed: int, i: int):
    cycle = WORKLOADS[workload].cycle
    rng = random.Random(f"{workload}/{seed}/{i}")
    return cycle[i % len(cycle)](rng)
