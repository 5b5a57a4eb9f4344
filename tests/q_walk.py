"""The walk over Q: the tests' reference for every univariate reconstruction.

The library reads every univariate row over Q off residue walks mod word
primes, lifted and checked exactly (`ratfun.lift_rows`).  The walk it
replaced is kept here, for the differential tests only: the extended
Euclid on integer lists by pseudo-remainders (`eea_rows` with p None; the
residue branch is kept too, so one walk serves both fields), the Newton
pool over Q on integer pairs (`NewtonPool` with p None), and the
selections of degree detection, fits and Hankel certificates on them.
"""

import math

from ratrecon.errors import NoFit, SizeMismatch
from ratrecon.hankel import RationalityCertificate, _kronecker_l
from ratrecon.interp import _field_of, _horner, _horner_q
from ratrecon.poly import (
    Poly1,
    _strip,
    divmod_ints,
    field_prime,
    gcd_ints,
    int_pair,
    mul_ints,
    poly1_from_ints,
    poly1_ints,
)
from ratrecon.ratfun import RatFun1


def eea_rows(modulus: list, u: list, p, top=math.inf):
    """The rows (r, t) of the extended Euclidean algorithm on (modulus, u),
    u stripped and deg u < deg modulus, from (u, 1) down to the last row
    with deg t <= top (the row whose r is the zero list [] at the latest;
    none when top < 0).  Each has t nonzero and r = t*u mod modulus, deg r
    falling and deg t rising from row to row: the row after (r1, t1), with
    r0 the remainder before r1, has deg t = deg t1 + deg r0 - deg r1, so
    the walk stops before it divides for a row past `top`.

    Over F_p the rows are residue lists.  Over Q they come from the
    pseudo-remainder sequence, s*r0 = q*r1 + r2 and t2 = s*t0 - q*t1, with
    the joint integer content of (r2, t2) divided out; each row is then a
    nonzero scalar multiple of the row over Q, so the degrees, the order by
    (total degree, deg r), the bounds and the coprimality test all agree."""
    r0, r1, t0, t1 = modulus, u, [], [1]
    if top < 0:
        return
    while True:
        yield r1, t1
        if not r1 or len(t1) + len(r0) - len(r1) - 1 > top:
            return
        s, q, r2 = divmod_ints(r0, r1, p)
        t2 = [-c for c in mul_ints(q, t1, p)]   # deg q*t1 > deg t0
        for i, c in enumerate(t0):
            t2[i] += s * c
        if p is None:
            g = math.gcd(*r2, *t2)
            if g > 1:
                r2, t2 = [c // g for c in r2], [c // g for c in t2]
        else:
            t2 = [c % p for c in t2]
        r0, r1, t0, t1 = r1, r2, t1, t2


def rows_by_degree(modulus: list, u: list, p, limit=math.inf) -> list:
    """The rows of `eea_rows` of total degree within `limit`, in the order
    (total degree, deg r)."""
    rows = sorted([((max(len(r) - 1, 0) + len(t) - 1, len(r)), r, t)
                   for r, t in eea_rows(modulus, u, p, limit)])
    return [(r, t) for (total, _), r, t in rows if total <= limit]


def coprime(r: list, t: list, p) -> bool:
    """gcd(r, t) = 1; t is nonzero."""
    if not r:
        return len(t) == 1
    return len(gcd_ints(r, t, p)) == 1


def reconstruct_ints(modulus: list, u: list, p, limit=math.inf):
    """The coprime row of minimal total degree, ties going to the smaller
    deg r, if within `limit`, else None."""
    for row in rows_by_degree(modulus, u, p, limit):
        if coprime(*row, p):
            return row
    return None


def first_row(modulus: list, u: list, p, n: int, m: int):
    """The first row with deg r <= n among those with deg t <= m, or None."""
    return next((row for row in eea_rows(modulus, u, p, m) if len(row[0]) <= n + 1),
                None)


class NewtonPool:
    """The Newton interpolant of the points so far, on integers: over F_p
    (a prime `p`) residue lists; over Q (p None) the modulus
    prod(d_i*x - n_i) for a_i = n_i/d_i and u an integer list over the
    common denominator `den`.  Points come as the integer pairs of
    `poly.int_pair`."""

    def __init__(self, p):
        self.p = p
        self.modulus, self.u, self.den = [1], [], 1

    def add(self, a, v) -> bool:
        p, mod, u = self.p, self.modulus, self.u
        (an, ad), (vn, vd) = a, v
        if p is not None:
            d = ad * vd % p
            if not d:
                return False
            inv = pow(d, -1, p)
            a, v = an * vd * inv % p, vn * ad * inv % p
            ma = _horner(mod, a, p)
            if not ma:
                return False
            ua = _horner(u, a, p)
            c = (v - ua) * pow(ma, -1, p) % p
            u = u + [0] * (len(mod) - len(u))
            self.u = _strip([(x + c * y) % p for x, y in zip(u, mod)])
            self.modulus = [(x - a * y) % p for x, y in zip([0] + mod, mod + [0])]
            return True
        den = self.den
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
        return True


def pool(pairs: list, p):
    """The `NewtonPool` over the field of p of the integer pairs `pairs`."""
    out = NewtonPool(p)
    for a, v in pairs:
        out.add(a, v)
    return out


def candidate(gate, pairs: list, lim: int, p):
    """Detection's candidate on the walk over the field, with no gate and no
    image, in the library's form (r, t) with function r/t: a drop-in for
    `interp._candidate`."""
    walked = pool(pairs, p)
    row = reconstruct_ints(walked.modulus, walked.u, p, limit=lim)
    return None if row is None else (row[0], [c * walked.den for c in row[1]])


def fit(samples, n_deg: int, m_deg: int) -> RatFun1:
    """`interp.fit_ratfun` on the walk over the field."""
    if len(samples) < n_deg + m_deg + 2:
        raise SizeMismatch(
            f"need >= {n_deg + m_deg + 2} samples for degrees ({n_deg}, {m_deg})")
    field = _field_of(samples)
    p = field_prime(field)
    walked = pool([(int_pair(a, p), int_pair(v, p)) for a, v in samples.points], p)
    row = first_row(walked.modulus, walked.u, p, n_deg, m_deg)
    if row is None or not coprime(*row, p):
        raise NoFit("no rational function with these degree bounds fits the samples")
    r, t = row
    return RatFun1(poly1_from_ints(field, r, walked.den * t[-1]),
                   poly1_from_ints(field, t, t[-1]))


def certify(s, l_max: int, m_max: int):
    """`hankel.certify_rationality` on the walk over the field: one forward
    pass over the rows finds each m's candidate row."""
    p = field_prime(s.field)
    ints, den = poly1_ints(Poly1(s.field, s.coeffs))
    rows = iter(eea_rows([0] * (s.n_max + 1) + [1], ints, p, m_max))
    row = next(rows, None)
    for m in range(m_max + 1):
        top = min(l_max + m_max, s.n_max - m - 1)
        while row is not None and len(row[0]) > top + 1:
            row = next(rows, None)
        if row is None or len(row[1]) > m + 1:
            continue
        r, t = row
        if not t[0]:
            continue
        l = _kronecker_l(r, m)
        if l <= l_max and max(l + m - 1, 0) <= top:
            witness = RatFun1(poly1_from_ints(s.field, r, den * t[-1]),
                              poly1_from_ints(s.field, t, t[-1]))
            return RationalityCertificate("RationalWitness", l, m, witness, len(s.coeffs))
    return RationalityCertificate("NoWitnessUpTo", l_max, m_max, None, len(s.coeffs))

