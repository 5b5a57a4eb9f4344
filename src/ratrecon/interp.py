"""Interpolation of univariate rational functions from samples.

Every answer is read off the rows of one extended-Euclid walk
(`ratfun.eea_rows`) on (prod(x - a_i), u), u the Newton interpolant of
the samples, kept on residues mod a prime (`_NewtonPool`).  Every path
hands its selection of rows to `ratfun.lift_rows`: over F_p at the
field's prime; over Q at the word primes of `ratfun.moduli`, whose rows
are joined by CRT, lifted to Q by rational number reconstruction (Wang
1981) and checked exactly on every sample by integer Horner (`_agrees`),
a checked lift being the row over Q.  The fitted functions have
coefficients of a few digits, which one prime lifts, and larger ones
take a few more word primes, where a walk over Q would cost products of
thousands of bits.  A `RatFun1` is built only for the fit returned.

`fit_ratfun` and `interp_point` share one path (`_solve`): the
`ratfun.first_row` of type (n, m), under the caller's test on the exact
row: coprime for a fit (else NoFit) or a one-dimensional kernel for a
point (else BetaZero), whose value is r(a)/t(a).  Degree detection
bounds the walk by the candidate's total degree, and walks only when a
candidate can exist: a test in O(k) per drawn point that the Euclid
remainder sequence of the pool at the first prime is normal
(`_GatedPool`) settles the other passes (`detect_profile_with_fit` has
the proofs).

The pointwise formula, the ratio of the two bordered determinants of
`alpha_beta` under the frozen sign `interp_sign`, gives the same value or
refusal as `interp_point` (its docstring says why); the two stay public
as the reference of the tests and the acceptance suite.
"""

from __future__ import annotations

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
from .poly import Poly1, _strip, field_prime, int_pair, int_powers, over
from .ratfun import (
    RatFun1,
    degree_and_ord,
    first_row,
    lift_rows,
    moduli,
    ratfun1_from_row,
    rows_by_degree,
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
    """(a_i, f(a_i)) pairs with pairwise distinct abscissae, compared as
    elements of the first one's field (by residue over F_p)."""
    __slots__ = ("points",)

    def __init__(self, points: list):
        self.points = points
        p = field_prime(_field_of(self)) if points else None
        if len({int_pair(a, p) for a, _ in points}) != len(points):
            raise DegenerateInput("duplicate sample abscissae")

    def __len__(self):
        return len(self.points)


def interp_sign(n: int, m: int) -> int:
    """The sign relating the ratio of `alpha_beta` to f(a), fixed by the
    matrix layout: -(-1)^((n+1)(m+1)), frozen after calibration against
    known functions (tests/sign_calibration.py re-derives it)."""
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
    pf = field_prime(field)
    if len({int_pair(x, pf) for x in points}) != len(points):
        raise DegenerateInput("duplicate interpolation points")
    first = [a ** j for j in range(m + 1)] + [field.zero] * (n + 1)
    rows = [first]
    for ai in points:
        pv, qv = p.eval(ai), q.eval(ai)
        rows.append([pv * ai ** j for j in range(m + 1)]
                    + [qv * ai ** j for j in range(n + 1)])
    return det_exact(rows, field)


def alpha_beta(samples: SampleSet1, profile: DegreeProfile, a):
    """The two bordered (l+2)x(l+2) interpolation determinants.  They share
    the (l+1)x(l+2) data matrix whose row i is
    [a_i^0..a_i^n, v_i*a_i^0..v_i*a_i^m], so one fraction-free elimination
    pass (`matrix.bordered_dets`) yields both, each with its border row last:

        numerator-style   det = (-1)^(n+m+1) det[data; a^0..a^n, 0..0]
        denominator-style det = (-1)^(n*m)     det[data; 0..0, a^0..a^m]

    The pass runs on integer rows (residues over F_p, eliminated mod p).
    With x = xn/xd, v = vn/vd and a = an/ad, each data row is scaled by
    xd^top*vd and both borders by ad^top (top = max(n, m)), and the
    determinants are divided by the product of the scales."""
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
    """Exact value at a of the function of type (n, m) through the l + 1
    samples: r(a)/t(a) for the row of `_solve`, taken when the kernel
    of the data matrix of `alpha_beta` is one-dimensional, and equal to the
    sign-calibrated ratio of its two determinants.

    With n + m = l, every solution (P, Q) of P(a_i) = v_i*Q(a_i) of type
    (n, m) is c*(r, t) with deg c <= min(n - deg r, m - deg t) (von zur
    Gathen & Gerhard, Modern Computer Algebra, Thm 5.16), so the kernel is
    one-dimensional exactly when deg r = n or deg t = m.  Then the Cramer
    vector, whose entries give the two determinants, is a nonzero multiple
    of (r, t): alpha/beta is r(a)/t(a) under the calibrated sign, and
    beta = 0 exactly when t(a) = 0, which raises BetaZero.  Otherwise the
    rank is at most l, both determinants vanish, and BetaZero is raised as
    well.  Over Q the row of `_solve` is the row over Q (`ratfun.lift_rows`),
    so the test reads its exact degrees."""
    if len(samples) != profile.l + 1:
        raise SizeMismatch(f"need {profile.l + 1} samples, got {len(samples)}")
    n, m = profile.n, profile.m
    field = _field_of(samples)
    p = field_prime(field)
    an, ad = int_pair(a, p)
    solved = _solve(samples, n, m,
                    lambda r, t, *_: len(r) == n + 1 or len(t) == m + 1)
    if solved is None:
        raise BetaZero(_BETA_ZERO)
    r, t = solved
    (rn, rs), (tn, ts) = _horner_q(r, an, ad), _horner_q(t, an, ad)
    d = tn * rs
    if (d if p is None else d % p) == 0:
        raise BetaZero(_BETA_ZERO)
    return over(field, d)(rn * ts)


_BETA_ZERO = ("denominator determinant vanished (wrong profile or target "
              "off the function's domain); resample")


def _field_of(samples: SampleSet1) -> Field:
    x0 = samples.points[0][0]
    return x0.field if isinstance(x0, FpElement) else QQ


class _NewtonPool:
    """The Newton interpolant mod the prime `p` of the points so far, on
    residues: the modulus prod(x - a_i) and the interpolant u with
    u(a_i) = v_i.  Points come as the integer pairs of `poly.int_pair`,
    a = (an, ad) and v = (vn, vd), and the pool is that of their image
    mod p (over F_p the points themselves)."""

    steps = None        # a `_GatedPool`'s certificate; a plain pool keeps none

    def __init__(self, p: int):
        self.p, self.modulus, self.u = p, [1], []

    def add(self, a, v) -> bool:
        """Extend the interpolant by the fresh point (a, v); False, adding
        nothing, when it has no image mod p: a denominator 0 mod p, or an
        abscissa congruent to an earlier one.  A `_GatedPool` updates its
        certificate first, from M(a) and u(a)."""
        p, mod, u = self.p, self.modulus, self.u
        (an, ad), (vn, vd) = a, v
        d = ad * vd % p
        if not d:
            return False
        inv = pow(d, -1, p)
        a, v = an * vd * inv % p, vn * ad * inv % p
        ma = _horner(mod, a, p)
        if not ma:
            return False
        ua = _horner(u, a, p)
        if self.steps is not None:
            self.steps = self._next_steps(a, v, ma, ua)
        c = (v - ua) * pow(ma, -1, p) % p
        u = u + [0] * (len(mod) - len(u))
        self.u = _strip([(x + c * y) % p for x, y in zip(u, mod)])
        self.modulus = [(x - a * y) % p for x, y in zip([0] + mod, mod + [0])]
        return True


class _GatedPool(_NewtonPool):
    """A residue pool mod p that also certifies in O(k) per point that the
    Euclid remainder sequence of its (M, u) is normal: every quotient has
    degree 1 (see `detect_profile_with_fit`).  While it is, `steps` holds
    the triples (alpha_i, beta_i, sigma_i) of the rows R_(i+1) =
    sigma_i*R_(i-1) - (alpha_i + beta_i*x)*R_i, from R_(-1) = (M, 0) and
    R_0 = kappa*(u, 1) to the terminal row (0, t); once it is not, `steps`
    is None for good."""

    def __init__(self, p: int):
        super().__init__(p)
        self.kappa, self.steps = 1, []

    def _next_steps(self, a: int, v: int, ma: int, ua: int):
        """The steps of the pool with (a, v), or None when a residual
        e_j = r_j(a) - v*t_j(a), j = 0..k, vanishes (e_(-1) = M(a) != 0).
        One loop computes e_(j+1) and the new step j (the formulas are in
        `detect_profile_with_fit`)."""
        p = self.p
        e0 = self.kappa * (ua - v) % p
        if not e0:
            return None
        self.kappa = -self.kappa * ma % p
        steps = self.steps
        if not steps:
            return [(-a % p, 1, e0)]
        alpha, beta, s0 = steps[0]
        g = e0 * beta % p
        h = (s0 * ma - a * g) % p
        e1 = (h - alpha * e0) % p
        d1 = e0 * g % p
        new = [(h, g, d1)]
        # g0 = g_(j-1), d0 = d_(j-2), d1 = d_(j-1) and s0 = sigma_(j-1)
        g0, d0 = g, ma
        for alpha, beta, sigma in steps[1:]:
            if not e1:
                return None
            g = e1 * beta % p
            h = (sigma * e0 - a * g) % p
            d = e1 * g % p
            new.append(((g0 * h - d) % p, g0 * g % p, d0 * d * s0 % p))
            e0, e1 = e1, (h - alpha * e1) % p
            g0, d0, d1, s0 = g, d1, d, sigma
        if not e1:
            return None
        # the terminal step, to (x - a)*(0, t): g_k = 1, d_k = e_k, sigma_k = 0
        new.append(((-g0 * a - e1) % p, g0, d0 * e1 * s0 % p))
        return new


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


def _pool(pairs: list, q: int):
    """The `_NewtonPool` of the points `pairs` mod q, or None when a point
    has no image mod q."""
    pool = _NewtonPool(q)
    return pool if all(pool.add(a, v) for a, v in pairs) else None


def _agrees(r: list, t: list, pairs: list, p) -> bool:
    """Whether r(a) = v*t(a), mod p over F_p, at every point of the integer
    pairs `pairs`: for a coprime row, whether its function r/t is defined
    at each a with value v, as r and t have no common root."""
    for (an, ad), (vn, vd) in pairs:
        rn, rs = _horner_q(r, an, ad)       # r(a) = rn/rs
        tn, ts = _horner_q(t, an, ad)
        d = rn * ts * vd - vn * tn * rs
        if d if p is None else d % p:
            return False
    return True


def _coprime_row(r: list, t: list, pairs: list, p) -> bool:
    """Whether the walk row (r, t) is coprime: its t vanishes at no
    abscissa of `pairs`, as gcd(r, t) = gcd(t, prod(x - a_i))."""
    return all(_horner(t, an, p) if p else _horner_q(t, an, ad)[0]
               for (an, ad), _ in pairs)


def _lift(image, pairs: list, p):
    """`ratfun.lift_rows` of the selection `image` from the walks on the k
    points `pairs`, over Q checked exactly on every point, with the prime
    count of `fit_ratfun` from the points' bit lengths."""
    def bits():
        k = len(pairs)
        ea, ev = (max((abs(c) for pair in pairs for c in pair[i]), default=1).bit_length()
                  for i in (0, 1))
        return (k + 2) ** 2 * (k + 1) * (k * ea + ev + (k + 1).bit_length())
    return lift_rows(image, lambda r, t: _agrees(r, t, pairs, None), p, bits)


def _solve(samples: SampleSet1, n: int, m: int, accept):
    """The row (r, t) of the samples' walk selected by `ratfun.first_row`,
    whose function is r/t, exact over Q (`ratfun.lift_rows`), or None when
    there is none or `accept(r, t, pairs, p)` fails on it, `pairs` the
    samples' integer pairs."""
    p = field_prime(_field_of(samples))
    pairs = [(int_pair(a, p), int_pair(v, p)) for a, v in samples.points]

    def image(q):
        pool = _pool(pairs, q)
        row = pool and first_row(pool.modulus, pool.u, q, n, m)
        return None if pool is None else [row] if row else []

    rows = _lift(image, pairs, p)
    return rows[0] if rows and accept(*rows[0], pairs, p) else None


def fit_ratfun(samples: SampleSet1, n_deg: int, m_deg: int) -> RatFun1:
    """The canonical function with numerator degree <= n_deg and denominator
    degree <= m_deg through all samples, its denominator nonvanishing at
    every sample: the row of `_solve`, if coprime, else NoFit.  Requires at
    least one sample beyond n_deg + m_deg + 1, which makes the fit unique.

    The row is read off the exact rows of `ratfun.lift_rows`: over Q
    the lift checked on every sample is the row over Q, so the
    predicate is read off it, not off an image.  A walk row has
    gcd(r, t) = gcd(t, prod(x - a_i)), so it is coprime exactly when t
    vanishes at no sample (`_coprime_row`); then r/t is defined at every
    sample with its value, and it is the fit: for any fit P'/Q',
    r*Q' - P'*t has degree <= n_deg + m_deg and at least n_deg + m_deg + 2
    roots.

    The prime count (`_lift`).  For k points with numerators and
    denominators of at most e_a bits (abscissae) and e_v bits (values),
    the rows of degrees (A, B) solve the system r(a_i) = v_i*t(a_i),
    whose row i, scaled to integers, has entries below 2^(k*e_a + e_v),
    in at most k + 1 columns; so every minor is below 2^beta,
    beta = (k + 1)*(k*e_a + e_v + bitlen(k + 1)) (Hadamard), and so is H.
    The bad reductions divide prod(ad_i*vd_i) and the differences of the
    abscissae, below 2^(k*(e_a + e_v) + k^2*(e_a + 1)); with one minor for
    each of the (k + 1)(k + 2)/2 degree pairs, (k + 2)^2*beta bounds
    log2(D*2H^2).
    """
    if len(samples) < n_deg + m_deg + 2:
        raise SizeMismatch(
            f"need >= {n_deg + m_deg + 2} samples for degrees ({n_deg}, {m_deg})")
    solved = _solve(samples, n_deg, m_deg, _coprime_row)
    if solved is None:
        raise NoFit("no rational function with these degree bounds fits the samples")
    return ratfun1_from_row(_field_of(samples), *solved)


# Detection refuses a slice (DomainTooSparse) after this many draws in a
# row that were taken already or undefined.
MAX_CONSECUTIVE_UNDEFINED = 100


def _draw_defined(oracle: "Callable[[object], object | None]", draw,
                  taken: set, p):
    """One point (a, f(a)) with a fresh abscissa, as the integer pairs of
    `poly.int_pair` at p; resamples on Undefined.  `draw` is the run's
    sampler (`Field._sampler`), and `taken` holds the ids of the abscissae
    returned so far."""
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
        return int_pair(a, p), int_pair(v, p)


def _candidate(gate, pairs: list, lim: int, p):
    """The candidate (r, t) of a detection pass at bound `lim` on the
    points `pairs`, whose function is r/t, or None when the pass has none:
    the first coprime row (`_coprime_row`) of `ratfun.rows_by_degree`
    within `lim`, exact over Q (`ratfun.lift_rows`).  `gate` is the
    points' `_GatedPool` at the first prime of `ratfun.moduli`, None after
    a bad reduction; a normal one settles the pass, and the others walk
    it at that prime."""
    if gate is not None and gate.steps is not None:
        return None

    def image(q):
        pool = gate if gate is not None and gate.p == q else _pool(pairs, q)
        return None if pool is None else rows_by_degree(pool.modulus, pool.u, q, lim)

    rows = _lift(image, pairs, p)
    return next((row for row in rows or () if _coprime_row(*row, pairs, p)), None)


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
    A pass is settled with no walk (the gate below), or walks the
    extended-Euclid rows of one pool once, up to cofactor degree
    lim = min(k - 2, max_degree), so a pass below two points divides
    nothing; over Q a pass walks the image mod each prime it needs.

    The gate.  A slice of total degree l has no candidate before k = l + 2,
    and such passes need no walk when the Euclid remainder sequence of
    (M, u) is normal, every quotient of degree 1: its rows then have the
    degrees (k - 1 - j, j), j = 0..k - 1, all of total k - 1 > lim.
    `_GatedPool` keeps that sequence as R_(j+1) = sigma_j*R_(j-1) -
    q_j*R_j, q_j = alpha_j + beta_j*x, from R_(-1) = (M, 0) and
    R_0 = kappa*(u, 1) to the terminal row (0, t_k).  At a fresh point
    (a, v) the residuals e_j = r_j(a) - v*t_j(a) follow the same recurrence
    from e_(-1) = M(a) and e_0 = kappa*(u(a) - v).  If e_(-1)..e_k are all
    nonzero, W_j = e_j*R_(j-1) - e_(j-1)*R_j, j = 0..k, vanish at a, so
    they solve r = t*u' mod (x - a)*M, with the exact degrees (k - j, j).
    By von zur Gathen & Gerhard (Modern Computer Algebra, Thm 5.16) each
    W_j is c*R for the first row R of the new sequence with deg r <= k - j.
    deg c = 0: for j = 0, t has degree 0; for j > 0, deg c > 0 would make
    the remainder degrees skip k - j + 1, so W_(j-1) = c'*R with deg c' =
    deg c + 1 by r and deg c - 1 by t.  So the new sequence is normal with
    rows W_j, and with c_0 = 1, c_1 = e_(-1), c_(j+1) = c_j*d_(j-1), where
    d_(-1) = M(a), d_j = e_j*g_j and g_j = e_j*beta_j, the rows
    c_j*W_j give, with no inverse,

        q'_0 = g_0*(x - a) + e_(-1)*sigma_0,          sigma'_0 = d_0,
        q'_j = g_(j-1)*(sigma_j*e_(j-1) + g_j*(x - a)) - d_j,
                                       sigma'_j = d_(j-2)*d_j*sigma_(j-1),

    for 0 < j <= k, the terminal step j = k (to (x - a)*(0, t_k)) taking
    g_k = 1, d_k = e_k and sigma_k = 0; and kappa' = -kappa*M(a).  If
    e_j = 0 for some j < k, R_j is a row of total k - 1 at k + 1 points; if
    e_k = -v*t_k(a) = 0, then v = 0 and (0, M) is a row of total k: the
    new sequence is not normal either way, and the gate stays off for the
    slice (a candidate may now exist), so every later pass walks.

    The gate runs on the pool at the first prime of `ratfun.moduli`,
    from the first point: over F_p the pool itself, over Q the points'
    image mod `poly.WORD_PRIME`.  The image is good when p divides no
    denominator of an a_i or v_i and the a_i stay distinct mod p, else it
    is dropped (`_NewtonPool.add`) and every later pass walks.  Then a
    row (r, t) over Q of total degree <= lim, scaled to coprime integers,
    reduces to a solution of the image problem of at most its degrees,
    with t nonzero (r would have k roots), so by Thm 5.16 the image has a
    row within lim: a normal image sequence, or an image walk with no row
    within lim, settles the pass as the rows over Q would.

    A pass with rows takes them all from `ratfun.lift_rows`: the rows
    within lim, exact over Q, the lift of the images' rows checked on the
    stored points (`lift_rows` has the proof that a checked lift is the
    list over Q).  The candidate is the first coprime one, which the
    exact rows decide (`_coprime_row`): a walk row has gcd(r, t) =
    gcd(t, M), so it is coprime exactly when t vanishes at no stored
    abscissa.  The prime count is that of `fit_ratfun`, on the stored
    points (`_lift`)."""
    cap = cfg.max_degree
    draw = field._sampler(rng, cfg.height_bound)
    taken: set = set()
    p = field_prime(field)
    gate = _GatedPool(next(moduli(p)))
    pairs = []
    # a pass either draws one point, which happens only while the pool is
    # below cap + 2, or rejects a candidate at a strictly later degree pair
    for _ in range((cap + 2) * (cap + 3)):
        k = len(pairs)
        row = _candidate(gate, pairs, min(k - 2, cap), p)
        if row is not None:
            fresh = [_draw_defined(oracle, draw, taken, p)
                     for _ in range(cfg.validation_extra)]
            if _agrees(*row, fresh, p):
                fit = ratfun1_from_row(field, *row)
                return DegreeProfile.of(fit), fit
        elif max(k - 1, 0) > cap:
            break
        else:
            fresh = [_draw_defined(oracle, draw, taken, p)]
        pairs += fresh
        if gate is not None and not all(gate.add(a, v) for a, v in fresh):
            gate = None
    raise BudgetExhausted(f"no rational profile up to total degree {cap}")
