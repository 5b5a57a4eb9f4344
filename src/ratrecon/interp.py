"""Determinantal interpolation of univariate rational functions.

The two bordered (l+2)x(l+2) determinants share the (l+1)x(l+2) data
matrix whose row i is [den_i*b_i^0..den_i*b_i^n, num_i*b_i^0..num_i*b_i^m],
so one fraction-free elimination pass (`matrix.bordered_dets`) yields both,
each with its border row last:

    numerator-style   det = (-1)^(n+m+1) det[data; y^0..y^n, 0..0]
    denominator-style det = (-1)^(n*m)     det[data; 0..0, y^0..y^m]

With den_i = 1 and num_i = f(a_i) these are the pointwise interpolation
determinants.  `alpha_beta` builds the rows on integers through
`poly.int_pair` and `poly.int_powers`: residues over F_p, eliminated mod
p; over Q each row times the denominators of its point and value, the two
determinants then divided by the product of the scales (`poly.over`).

The sign relating their ratio to f(a) is fixed by the matrix layout:
    interp_sign(n, m) = -(-1)^((n+1)(m+1))
frozen after calibration against known functions (the test suite
re-derives it: tests/sign_calibration.py).

Coefficient fitting and black-box degree detection interpolate the samples
in Newton form and recover the fraction by `ratfun.reconstruct_ints`, the
integer kernel of `rational_reconstruct` (the extended Euclidean algorithm
modulo prod(x - a_i)).  The Newton pool stays on integers, residues over
F_p and integer numerators over one denominator over Q, and candidates are
checked by integer Horner; a `RatFun1` is built only for the fit returned.
Detection passes the bound on the candidate's total degree to the walk
(`ratfun.eea_rows`), which builds no row whose cofactor exceeds it.

Over Q, `fit_ratfun` and `interp_point` first solve the image of their
samples mod the word prime `poly.WORD_PRIME` with the same F_p code (a
residue Newton pool and its extended-Euclid rows), lift the row's
coefficients to Q by rational number reconstruction (Wang 1981) and check
the lift exactly on every sample by integer Horner (`_word_lift`).  A lift
that passes is the answer, the same as that of the exact path (the
arguments are in the two docstrings); on any failed step the exact path
runs: the Bareiss determinants of `alpha_beta`, or the Newton pool and
pseudo-remainder walk over Q.  That path is the only one over F_p, and
the only one that raises NoFit, or BetaZero for a kernel of dimension
above 1; the lift raises BetaZero only at a target where its denominator
vanishes.  The fitted functions have coefficients of a few
digits while the exact path's integers grow with the samples' heights, so
the image costs word-size arithmetic where the exact path costs
thousand-bit products.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    BetaZero,
    BudgetExhausted,
    DegenerateInput,
    DomainTooSparse,
    NoFit,
    SizeMismatch,
)
from .fields import QQ, Field, FpElement
from .matrix import bordered_dets, det_exact
from .poly import (
    WORD_PRIME,
    Poly1,
    _ratio,
    _residue,
    _strip,
    field_prime,
    int_pair,
    int_powers,
    over,
)
from .ratfun import (
    RatFun1,
    _coprime,
    degree_and_ord,
    eea_rows,
    ratfun1_from_row,
    reconstruct_ints,
)
from .records import Frozen, Record


class DegreeProfile(Frozen):
    """Degree data (d, e) of a univariate rational function along with the
    derived numerator/denominator degrees n, m and node count l = n + m."""
    __slots__ = ("d", "e", "n", "m", "l")

    def __init__(self, d: int, e: int, n: int, m: int, l: int):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "l", l)
        if n != d + min(0, e) or m != d - max(0, e):
            raise ValueError("inconsistent degree profile")
        if l != n + m or n < 0 or m < 0:
            raise ValueError("inconsistent degree profile")

    @classmethod
    def from_de(cls, d: int, e: int) -> "DegreeProfile":
        n = d + min(0, e)
        m = d - max(0, e)
        return cls(d, e, n, m, n + m)

    @classmethod
    def of(cls, f: RatFun1) -> "DegreeProfile":
        if f.is_zero():
            return cls.from_de(0, 0)
        d, e = degree_and_ord(f)
        return cls.from_de(d, e)


class SampleSet1(Record):
    """(a_i, f(a_i)) pairs with pairwise distinct abscissae."""
    __slots__ = ("points",)

    def __init__(self, points: list):
        self.points = points
        if len({a for a, _ in points}) != len(points):
            raise DegenerateInput("duplicate sample abscissae")

    def __len__(self):
        return len(self.points)


def interp_sign(n: int, m: int) -> int:
    """Frozen calibration constant relating the determinant ratio to f(a)."""
    return -1 if ((n + 1) * (m + 1)) % 2 == 0 else 1


def delta_sign(n: int, m: int) -> int:
    """Frozen sign in the determinant = Q(a) * res(P,Q) * Vandermonde identity
    (resultant in this library's Sylvester convention)."""
    l = n + m
    return -1 if ((m * (m - 1) + n * (n + 1) + l * (l + 1)) // 2) % 2 else 1


def delta_det(p: Poly1, q: Poly1, a, points):
    """The bordered (l+2)x(l+2) determinant with first row
    [1, a, ..., a^m, 0..0] and data rows [P(a_i)*a_i^0..a_i^m,
    Q(a_i)*a_i^0..a_i^n]; equals delta_sign(n,m)*Q(a)*res(P,Q)*Vandermonde."""
    field = p.field
    n, m = int(p.degree), int(q.degree)
    if len(points) != n + m + 1:
        raise SizeMismatch(f"need {n + m + 1} points, got {len(points)}")
    if len(set(points)) != len(points):
        raise DegenerateInput("duplicate interpolation points")
    first = [a ** j for j in range(m + 1)] + [field.zero] * (n + 1)
    rows = [first]
    for ai in points:
        pv, qv = p.eval(ai), q.eval(ai)
        rows.append([pv * ai ** j for j in range(m + 1)]
                    + [qv * ai ** j for j in range(n + 1)])
    return det_exact(rows, field)


def alpha_beta(samples: SampleSet1, profile: DegreeProfile, a):
    """The two bordered interpolation determinants, in one elimination pass
    on integer rows (residues over F_p, eliminated mod p).  With x = xn/xd,
    v = vn/vd and a = an/ad, each data row is scaled by xd^top*vd and both
    borders by ad^top (top = max(n, m)), and the determinants are divided
    by the product of the scales."""
    if len(samples) != profile.l + 1:
        raise SizeMismatch(f"need {profile.l + 1} samples, got {len(samples)}")
    n, m = profile.n, profile.m
    top = max(n, m)
    field = _field_of(samples)
    p = field_prime(field)
    rows, scale = [], 1
    for x, v in samples.points:
        vn, vd = int_pair(v, p)
        xs = int_powers(x, top, p)      # xs[0] = xd^top
        rows.append([vd * w for w in xs[:n + 1]] + [vn * w for w in xs[:m + 1]])
        scale *= xs[0] * vd
    ys = int_powers(a, top, p)
    scale *= ys[0]
    num_border = ys[:n + 1] + [0] * (m + 1)
    den_border = [0] * (n + 1) + ys[:m + 1]
    alpha, beta = bordered_dets(rows, [num_border, den_border], p)
    back = over(field, scale)
    return (back(-alpha if (n + m + 1) % 2 else alpha),
            back(-beta if (n * m) % 2 else beta))


def interp_point(samples: SampleSet1, profile: DegreeProfile, a):
    """Exact value of the underlying function at a, via the sign-calibrated
    determinant ratio.

    Over Q the value is first read off the lift of `_word_lift`: P(a)/Q(a)
    for its row (P, Q).  With l + 1 samples, the solutions mod p of type
    (n, m) are c*(r_j, t_j) with deg c <= min(n - deg r_j, m - deg t_j)
    (von zur Gathen & Gerhard, Modern Computer Algebra, Thm 5.16), so the
    kernel of the data matrix mod p is one-dimensional exactly when
    deg r_j = n or deg t_j = m; the lift is taken only then.  That matrix
    is the image of the one over Q, whose rank l + 1 mod p then forces
    rank l + 1 over Q, so a nonzero (P, Q) that satisfies the
    equations P(a_i) = v_i*Q(a_i) exactly is a multiple of the Cramer
    vector, whose entries give the two determinants: alpha/beta is
    P(a)/Q(a) under the calibrated sign, and beta = 0 exactly when
    Q(a) = 0, which raises the same BetaZero."""
    if len(samples) != profile.l + 1:
        raise SizeMismatch(f"need {profile.l + 1} samples, got {len(samples)}")
    n, m = profile.n, profile.m
    row = None if _field_of(samples) is not QQ else _word_lift(
        samples, n, m, lambda r, t: len(r) == n + 1 or len(t) == m + 1)
    if row is None:
        alpha, beta = alpha_beta(samples, profile, a)
        if beta == alpha - alpha:
            raise BetaZero(_BETA_ZERO)
        v = alpha / beta
        return -v if interp_sign(n, m) < 0 else v
    an, ad = _ratio(a)
    (rn, rs), (tn, ts) = _horner_q(row[0], an, ad), _horner_q(row[1], an, ad)
    if not tn:
        raise BetaZero(_BETA_ZERO)
    return Fraction(rn * ts, tn * rs)


_BETA_ZERO = ("denominator determinant vanished (wrong profile or target "
              "off the function's domain); resample")


def _field_of(samples: SampleSet1) -> Field:
    x0 = samples.points[0][0]
    return x0.field if isinstance(x0, FpElement) else QQ


class _NewtonPool:
    """The Newton interpolant of the samples so far, on integers: the
    modulus prod(x - a_i) and the interpolant u with u(a_i) = v_i.

    Over F_p both are residue lists.  Over Q, with a_i = n_i/d_i, the
    modulus is prod(d_i*x - n_i) (a scalar multiple, which leaves the
    Newton step c*M unchanged) and u is an integer list over the common
    denominator `den`.  A prime `p` given with Q makes the pool that of
    the samples' image mod p: it is fed residues and holds residue lists."""

    def __init__(self, field: Field, p=None):
        self.field = field
        self.p = field_prime(field) if p is None else p
        self.modulus, self.u, self.den = [1], [], 1

    def add(self, a, v):
        """Extend the interpolant by the fresh point (a, v)."""
        p, mod, u = self.p, self.modulus, self.u
        if p is not None:
            a, v = _residue(a, p), _residue(v, p)
            c = (v - _horner(u, a, p)) * pow(_horner(mod, a, p), -1, p) % p
            u = u + [0] * (len(mod) - len(u))
            self.u = _strip([(x + c * y) % p for x, y in zip(u, mod)])
            self.modulus = [(x - a * y) % p for x, y in zip([0] + mod, mod + [0])]
            return
        (an, ad), (vn, vd), den = _ratio(a), _ratio(v), self.den
        un, us = _horner_q(u, an, ad)       # u(a) = un/us
        mn, ms = _horner_q(mod, an, ad)     # M(a) = mn/ms
        # v - u(a)/den = w/(vd*us*den), so the step is
        # u/den + (v - u(a)/den) * M/M(a) = (u*cd + w*ms*M) / (den*cd)
        w = vn * den * us - un * vd
        cd = vd * us * mn
        u = u + [0] * (len(mod) - len(u))
        new = [x * cd + w * ms * y for x, y in zip(u, mod)]
        den *= cd
        g = math.gcd(den, *new)
        if den < 0:
            g = -g
        self.u, self.den = _strip([x // g for x in new]), den // g
        self.modulus = [x * ad - an * y for x, y in zip([0] + mod, mod + [0])]

    def reconstruct(self, n=None, m=None, limit=math.inf):
        """`reconstruct_ints` on the pool."""
        return reconstruct_ints(self.modulus, self.u, self.p, n, m, limit)

    def agrees(self, row, a, v) -> bool:
        """Whether the function of the coprime `row` is defined at a with
        value v: r(a) = v*den*t(a), as r and t have no common root."""
        r, t = row
        p = self.p
        if p is not None:
            a = _residue(a, p)
            return (_horner(r, a, p) - _residue(v, p) * _horner(t, a, p)) % p == 0
        (an, ad), (vn, vd) = _ratio(a), _ratio(v)
        rn, rs = _horner_q(r, an, ad)       # r(a) = rn/rs
        tn, ts = _horner_q(t, an, ad)
        return rn * ts * vd == vn * self.den * tn * rs

    def ratfun(self, row) -> RatFun1:
        return ratfun1_from_row(self.field, *row, self.den)


def _horner(cs: list, a: int, p: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * a + c) % p
    return acc


def _horner_q(cs: list, n: int, d: int):
    """(N, S) with cs(n/d) = N/S, on integers."""
    acc, scale = 0, 1
    for c in reversed(cs):
        acc = acc * n + c * scale
        scale *= d
    return acc * d, scale


def _row_profile(row) -> DegreeProfile:
    """DegreeProfile.of the function of an EEA row."""
    r, t = row
    if not r:
        return DegreeProfile.from_de(0, 0)
    dn, dd = len(r) - 1, len(t) - 1
    return DegreeProfile.from_de(max(dn, dd), dn - dd)


def _rat_lift(c: int, p: int, bound: int):
    """(u, w), coprime, with u = c*w mod p, |u| <= bound and 0 < w <= bound,
    or None: rational number reconstruction (Wang 1981), the extended
    Euclid on (p, c) stopped at the first remainder within the bound.  With
    2*bound^2 < p there is at most one such fraction."""
    r0, r1, t0, t1 = p, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if t1 <= bound and math.gcd(r1, t1) == 1 else None


def _word_lift(samples: SampleSet1, n: int, m: int, accept):
    """Over Q, the (n, m) row of the samples solved mod `WORD_PRIME` and
    lifted to Q, as integer lists (r, t) over the common denominator lc(t):
    the first extended-Euclid row of the image pool with deg r <= n, among
    those with deg t <= m, on which `accept(r, t)` holds, made monic and its
    coefficients lifted by `_rat_lift`.  The lift is returned only if
    r(a_i) = v_i*t(a_i) at every sample, checked exactly.
    None, for the exact path to answer, when a sample's denominator is 0 mod
    p, two abscissae are congruent, no row or `accept` fails, a coefficient
    has no lift within sqrt(p/2), or the check fails."""
    p = WORD_PRIME
    pool, seen, pairs = _NewtonPool(QQ, p), set(), []
    for a, v in samples.points:
        (an, ad), (vn, vd) = _ratio(a), _ratio(v)
        if not (ad % p and vd % p):
            return None
        x = an * pow(ad, -1, p) % p
        if x in seen:
            return None
        seen.add(x)
        pool.add(x, vn * pow(vd, -1, p) % p)
        pairs.append((an, ad, vn, vd))
    for r, t in eea_rows(pool.modulus, pool.u, p, m):
        if len(r) <= n + 1:
            break
    else:
        return None
    if not accept(r, t):
        return None
    inv, bound = pow(t[-1], -1, p), math.isqrt(p // 2)
    lifted = [_rat_lift(c * inv % p, p, bound) for c in r + t]
    if None in lifted:
        return None
    den = math.lcm(*(w for _, w in lifted))
    ints = [u * (den // w) for u, w in lifted]
    r, t = ints[:len(r)], ints[len(r):]
    for an, ad, vn, vd in pairs:
        rn, rs = _horner_q(r, an, ad)
        tn, ts = _horner_q(t, an, ad)
        if rn * ts * vd != vn * tn * rs:
            return None
    return r, t


def fit_ratfun(samples: SampleSet1, n_deg: int, m_deg: int) -> RatFun1:
    """The canonical function with numerator degree <= n_deg and denominator
    degree <= m_deg through all samples, its denominator nonvanishing at
    every sample.  Requires at least one sample beyond n_deg + m_deg + 1,
    which makes the fit unique.

    Over Q the answer is first sought as the lift (P, Q) of `_word_lift`,
    from an image row that is coprime mod p.  Q is monic, deg P <= n_deg,
    deg Q <= m_deg and P(a_i) = v_i*Q(a_i) at every sample; Q(a_i) != 0,
    as a Euclid row has gcd(r, t) = gcd(t, modulus), so the image of Q has
    no root among the abscissae mod p.  Then the exact path fits too, and
    P/Q is its fit as a function: for any
    fit P'/Q', P*Q' - P'*Q has degree <= n_deg + m_deg and at least
    n_deg + m_deg + 2 roots.  P/Q is in lowest terms: a monic common factor
    over Q would have p-integral coefficients, as Q has, and would survive
    mod p as a factor of the coprime image row.  So it is the same
    canonical RatFun1."""
    if len(samples) < n_deg + m_deg + 2:
        raise SizeMismatch(
            f"need >= {n_deg + m_deg + 2} samples for degrees ({n_deg}, {m_deg})")
    field = _field_of(samples)
    if field is QQ:
        row = _word_lift(samples, n_deg, m_deg,
                         lambda r, t: _coprime(r, t, WORD_PRIME))
        if row is not None:
            return ratfun1_from_row(QQ, *row)
    return _fit_exact(samples, n_deg, m_deg, field)


def _fit_exact(samples: SampleSet1, n_deg: int, m_deg: int, field: Field) -> RatFun1:
    """`fit_ratfun` on the Newton pool of `field` and its extended-Euclid
    rows: the path over F_p, and over Q wherever `_word_lift` fails."""
    pool = _NewtonPool(field)
    for a, v in samples.points:
        pool.add(a, v)
    row = pool.reconstruct(n_deg, m_deg)
    if row is None:
        raise NoFit("no rational function with these degree bounds fits the samples")
    return pool.ratfun(row)


# Detection refuses a slice (DomainTooSparse) after this many draws in a
# row that were taken already or undefined.
MAX_CONSECUTIVE_UNDEFINED = 100


def _draw_defined(oracle: "Callable[[object], object | None]", draw,
                  taken: set):
    """One (a, f(a)) pair with a fresh abscissa; resamples on Undefined.
    `draw` is the run's sampler (`Field._sampler`), and `taken` holds the
    ids of the abscissae returned so far."""
    misses = 0
    while True:
        key, a = draw()
        if key in taken:
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
        taken.add(key)
        return a, v


def detect_profile_with_fit(oracle: "Callable[[object], object | None]",
                            field: Field, cfg: "ReconConfig", rng):
    """Grow a sample pool one point at a time, drawn from the height box of
    `cfg`, the run's `reconstruct.ReconConfig`.  At pool size k the candidate
    is the fit of minimal total degree through the pool; it is tried once
    that degree is at most min(k - 2, max_degree), and accepted if it agrees
    with `validation_extra` fresh points.  After a rejection the enlarged
    pool is tried again before the next draw.  Candidates thus come in the
    order (total degree, numerator degree) of a walk over all degree pairs,
    each fitted with at least one sample to spare; returns (profile, fit).
    A pass walks the extended-Euclid rows once, up to cofactor degree
    min(k - 2, max_degree), so a pass below two points divides nothing."""
    cap = cfg.max_degree
    draw = field._sampler(rng, cfg.height_bound)
    taken: set = set()
    pool = _NewtonPool(field)
    # a pass either draws one point, which happens only while the pool is
    # below cap + 2, or rejects a candidate at a strictly later degree pair
    for _ in range((cap + 2) * (cap + 3)):
        k = len(pool.modulus) - 1
        lim = min(k - 2, cap)
        row = pool.reconstruct(limit=lim)
        if row is not None:
            fresh = [_draw_defined(oracle, draw, taken)
                     for _ in range(cfg.validation_extra)]
            if all(pool.agrees(row, a, v) for a, v in fresh):
                return _row_profile(row), pool.ratfun(row)
        elif max(k - 1, 0) > cap:
            break
        else:
            fresh = [_draw_defined(oracle, draw, taken)]
        for a, v in fresh:
            pool.add(a, v)
    raise BudgetExhausted(f"no rational profile up to total degree {cap}")

