"""Hankel matrices and rationality certificates for truncated power series.

A series prefix a_0..a_N is declared rational only with a checkable witness:
a rational function whose exact re-expansion reproduces the whole prefix.
The converse direction never claims irrationality, only the absence of a
witness within the scanned (l, m) bounds.

Witnesses and Kronecker's zero determinants are both read off one walk:
the rows (r, t) of the extended Euclidean algorithm on (t^(N+1), s)
(`ratfun.eea_rows`) up to deg t <= m_max, each with t*s = r mod t^(N+1).
A witness P/Q with deg P <= n, deg Q <= m and n + m < N + 1 is unique,
and (P, Q) is a polynomial multiple of the one row with deg t <= m and
deg r <= n (von zur Gathen & Gerhard, Modern Computer Algebra, Thm 5.16);
since gcd(r, t) = gcd(t, t^(N+1)), that row is coprime exactly when
t(0) != 0.  So each m has at most one candidate, and no Pade approximant
is computed for it.  Kronecker's l_min(m), the smallest l from which
every det H(n, m), l <= n <= N - 2m, vanishes, is then read off the
candidate's degrees, max(deg r - m + 1, 0), with no determinant
(`certify_rationality` has the argument).  The search stops at the first
witness.  As m grows the bound on deg r falls, so the candidates are
found in one forward pass over the rows.

The rows are those of `ratfun.lift_rows`, one residue path for both
fields: over F_p the walk mod the field's prime; over Q the walks of the
integer prefix mod the word primes of `ratfun.moduli`, each walked once
and read for every m.  An m with no image row within its degrees at a
good prime (one that divides no denominator of the prefix) has no
candidate over Q, so a refusal is settled on the first image.  An image
row within them is scaled to a monic t, r divided by the prefix's
denominator, joined by CRT with the rows of the same degrees at the
other primes, lifted to Q by rational number reconstruction (Wang 1981)
and checked exactly: t*s = r mod t^(N+1), coefficient by coefficient on
the integer prefix (`_solves`).  A checked lift is the row over Q, so
t(0) != 0 is read off it.  The witnesses have coefficients of a few
digits, which one word prime lifts; larger ones take a few more primes,
where the walk over Q would cost big-integer products.
"""

from __future__ import annotations

from functools import cache
from operator import mul

from .errors import NoSolution, PoleAtOrigin, PrefixTooShort
from .fields import Field
from .poly import Poly1, _strip, field_prime, poly1_ints
from .ratfun import (
    RatFun1,
    eea_rows,
    format_poly1,
    format_ratfun1,
    lift_rows,
    moduli,
    ratfun1_from_row,
    rational_reconstruct,
)
from .records import Record


class SeriesPrefix(Record):
    """Coefficients a_0..a_N of a formal power series."""
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: list):
        self.field = field
        self.coeffs = coeffs
        if not coeffs:
            raise ValueError("need at least a_0")

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> dict:
        return {"field": self.field.descriptor(),
                "coeffs": [self.field.format(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "SeriesPrefix":
        from .fields import field_from_string
        f = field or field_from_string(obj["field"])
        return cls(f, [f.parse(s) for s in obj["coeffs"]])


class RationalityCertificate(Record):
    __slots__ = ("verdict", "l", "m", "witness", "checked_prefix_length")

    def __init__(self, verdict: str, l: int, m: int, witness: RatFun1 | None,
                 checked_prefix_length: int):
        self.verdict = verdict        # "RationalWitness" | "NoWitnessUpTo"
        self.l = l
        self.m = m
        self.witness = witness
        self.checked_prefix_length = checked_prefix_length

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "l": self.l,
            "m": self.m,
            "checked_prefix_length": self.checked_prefix_length,
        }
        if self.witness is not None:
            out["witness"] = format_ratfun1(self.witness, "t")
            field = self.witness.field
            scale = field.inv(self.witness.den.eval(field.zero))
            out["witness_den_at0is1"] = format_poly1(
                self.witness.den.scale(scale), "t")
            out["witness_num_at0is1_den"] = format_poly1(
                self.witness.num.scale(scale), "t")
        return out


def hankel_matrix(s: SeriesPrefix, n: int, m: int) -> list:
    """The (m+1)x(m+1) rows with entry (i, j) = a_{n+i+j}."""
    if n < 0 or m < 0:
        raise ValueError(f"Hankel bounds must be >= 0, got n={n}, m={m}")
    if n + 2 * m > s.n_max:
        raise PrefixTooShort(f"need a_0..a_{n + 2 * m}, have a_0..a_{s.n_max}")
    return [[s.coeffs[n + i + j] for j in range(m + 1)] for i in range(m + 1)]


def _check_bounds(s: SeriesPrefix, l_max: int, m_max: int) -> None:
    if l_max < 0 or m_max < 0:
        raise ValueError(
            f"scan bounds must be >= 0, got l_max={l_max}, m_max={m_max}")
    if s.n_max < l_max + 2 * m_max:
        raise PrefixTooShort(
            f"need prefix length >= {l_max + 2 * m_max + 1}, have {s.n_max + 1}")


def _walk(ints: list, m_max: int, tops: list, q: int) -> list:
    """For each m <= m_max, [the candidate row] of the walk mod q, or []:
    the first row (r, t) of the extended Euclidean algorithm on
    (t^(N+1), ints mod q) with deg r <= tops[m], if it has deg t <= m.  One
    forward pass over the rows, which stop at deg t <= m_max: as m grows,
    tops[m] falls."""
    rows = eea_rows([0] * len(ints) + [1], _strip([c % q for c in ints]), q, m_max)
    row, out = next(rows, None), []
    for m, top in enumerate(tops):
        while row is not None and len(row[0]) > top + 1:
            row = next(rows, None)
        out.append([] if row is None or len(row[1]) > m + 1 else [row])
    return out


def pade_reconstruct(s: SeriesPrefix, n_deg: int, m_deg: int) -> RatFun1:
    """The canonical P/Q with deg P <= n_deg, deg Q <= m_deg and Q(0) != 0
    such that Q * s = P mod t^(n_deg+m_deg+1)."""
    if s.n_max < n_deg + m_deg + 1:
        raise PrefixTooShort(
            f"need prefix length >= {n_deg + m_deg + 2}, have {s.n_max + 1}")
    field = s.field
    window = n_deg + m_deg + 1
    modulus = Poly1(field, [field.zero] * window + [field.one])
    f = rational_reconstruct(modulus, Poly1(field, s.coeffs[:window]), n_deg, m_deg)
    if f is None:
        raise NoSolution("no denominator with Q(0) != 0 fits the prefix window")
    return f


def series_of_ratfun(f: RatFun1, n_terms: int) -> SeriesPrefix:
    """First n_terms+1 Taylor coefficients at 0 by exact series division."""
    field = f.field
    q0 = f.den.eval(field.zero)
    if q0 == field.zero:
        raise PoleAtOrigin("denominator vanishes at 0")
    inv_q0 = field.inv(q0)
    out = []
    for k in range(n_terms + 1):
        acc = f.num[k]
        for j in range(1, min(k, int(f.den.degree)) + 1):
            acc = acc - f.den[j] * out[k - j]
        out.append(acc * inv_q0)
    return SeriesPrefix(field, out)


def _solves(r: list, t: list, ints: list, den: int) -> bool:
    """Whether the integer row (r, t) solves t*s = r mod t^(N+1), s the
    prefix ints/den over Q (`certify_rationality`): (t*ints)_k = den*r_k
    for k <= N, compared exactly.  With t(0) != 0 that holds exactly when
    the re-expansion of r/t is the whole prefix."""
    n_max = len(ints) - 1
    rev = ints[::-1]                    # rev[N - k + j] = ints[k - j]
    for k in range(n_max + 1):
        lhs = sum(map(mul, t, rev[n_max - k:n_max - k + len(t)]))
        rhs = den * r[k] if k < len(r) else 0
        if lhs != rhs:
            return False
    return True


def _kronecker_l(r: list, m: int) -> int:
    """l_min(m) = max(deg r - m + 1, 0), read off m's candidate row (r, t);
    `certify_rationality` has the argument."""
    return max(len(r) - m, 0)


def certify_rationality(s: SeriesPrefix, l_max: int, m_max: int) -> RationalityCertificate:
    """The first witness by ascending m whose exact re-expansion matches the
    entire prefix, with l = l_min(m), or the refusal.

    For each m the one candidate is the row of the walk on (t^(N+1), s)
    with deg t <= m, deg r <= top = min(l_max + m_max, N - m - 1) and t(0) != 0,
    the only Pade approximant of degrees at most (top, m) that can match.
    Its l_min(m) is max(deg r - m + 1, 0) (`_kronecker_l`), and the m is
    skipped when l_min(m) > l_max or l_min(m) + m - 1 > top.  A row of the
    walk solves t*s = r mod t^(N+1), so with t(0) != 0 its r/t
    re-expands to the prefix and needs no check.

    Kronecker's l_min(m) needs no determinant, on any field:

    - Zeros.  The coefficients of t*s from deg r + 1 to N vanish, so for
      every n >= deg r - m + 1 the coefficients of t, weighted into the
      columns m - k of H(n, m), sum to zero: det H(n, m) = 0.  That is
      the block structure of the Pade table (Gragg, SIAM Review 1972).
    - The first nonzero.  Let n = deg r - m >= 0, and suppose Q != 0 with
      deg Q <= m is in the kernel of H(n, m).  Then Q*s = R mod t^M, with
      M = deg r + m + 1 <= N and deg R < deg r.  From t*s = r it follows
      that Q*r = R*t mod t^M.  Both sides have degree below M, so
      Q*r = R*t.  gcd(r, t) = 1 because t(0) != 0, so Q = c*t and
      R = c*r.  That forces deg R >= deg r, a contradiction: so
      det H(n, m) != 0.
    - Which rows it covers.  The argument holds for the rows of the walk
      over any field, so for the exact rows of `ratfun.lift_rows`.

    Each m's row comes from `ratfun.lift_rows` on the walks `_walk`, one
    per prime, walked once up to deg t <= m_max and read for every m.
    Over Q, at p = `poly.WORD_PRIME` first:

    - No image row has deg t <= m and deg r <= top, at a prime that
      divides no denominator of the prefix: then no row over Q has
      either, so the m has no candidate, and a prefix with no candidate
      at any m is refused on the first image.
    - An image row within them: the rows of the primes with the same
      degrees are joined by CRT, and the lift (P, Q) is checked exactly,
      Q*s = P mod t^(N+1) (`_solves`).  A checked lift is the row over
      Q of the m (the proof is in `lift_rows`), so it is the candidate
      when Q(0) != 0 and proves that the m has none when Q(0) = 0.

    The prime count.  With N + 1 prefix integers of at most e bits over a
    denominator of e_d bits, a row of degrees (A, B) has a t in the
    kernel of the Toeplitz rows A + 1..N in B + 1 <= m_max + 1 unknowns,
    and r = t*s mod t^(A+1); the minors and the monic row's numerators and
    denominators are below 2^beta, beta = (m_max + 2)*(e + e_d +
    bitlen(m_max + 1)) (Cramer and Hadamard).  With the denominator as the
    one bad reduction and one minor for each of the (N + 1)(m_max + 1)
    degree pairs, bits = (N + 2)*(m_max + 2)*beta bounds log2(D*2H^2);
    over F_p the walk mod p is the only one."""
    _check_bounds(s, l_max, m_max)
    p = field_prime(s.field)
    ints, den = poly1_ints(Poly1(s.field, s.coeffs))
    ints += [0] * (s.n_max + 1 - len(ints))
    tops = [min(l_max + m_max, s.n_max - m - 1) for m in range(m_max + 1)]
    bits = (s.n_max + 2) * (m_max + 2) ** 2 * (
        max(map(abs, ints)).bit_length() + den.bit_length() + (m_max + 1).bit_length())
    walk = cache(lambda q: _walk(ints, m_max, tops, q) if den % q else None)
    first = walk(next(moduli(p)))   # where it is good, an m without a row is settled
    for m, top in enumerate(tops):
        rows = (first is None or first[m]) and lift_rows(
            lambda q: walk(q) and walk(q)[m], lambda r, t: _solves(r, t, ints, den),
            p, lambda: bits, den)
        if not rows or not rows[0][1][0]:
            continue
        l = _kronecker_l(rows[0][0], m)
        if l <= l_max and max(l + m - 1, 0) <= top:
            return RationalityCertificate("RationalWitness", l, m,
                                          ratfun1_from_row(s.field, *rows[0]),
                                          len(s.coeffs))
    return RationalityCertificate("NoWitnessUpTo", l_max, m_max, None, len(s.coeffs))
