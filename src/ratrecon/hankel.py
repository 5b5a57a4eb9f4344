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

The rows are walked modulo each modulus of `ratfun.moduli` in turn
(`_certify`) until one answers: over F_p the field's prime; over Q first
the integer prefix mod `poly.WORD_PRIME`, last the walk over Q.  An m with no
image row within its degrees has no candidate over Q, so a refusal is
settled on the image alone.  An image row within them is scaled to
t(0) = 1 (to a monic t where t(0) = 0 mod p), r divided by the prefix's
denominator, its coefficients lifted to Q by rational number
reconstruction (`ratfun.lift_row`, Wang 1981), and the lift checked
exactly: t*s = r mod t^(N+1), coefficient by coefficient on the integer
prefix, which with t(0) != 0 holds exactly when the re-expansion of r/t
reproduces a_0..a_N.  By a degree sandwich a lift that passes is the
row over Q up to a constant (`certify_rationality` has the argument), so
it is the candidate, or with t(0) = 0 proves that the m has none.  The
walk over Q answers when p divides the denominator, a coefficient has no
lift or a check fails.  The integers of the walk over Q grow with the
prefix's heights while the witnesses have coefficients of a few digits,
so the image costs word-size arithmetic where the walk over Q costs
big-integer products.
"""

from __future__ import annotations

from operator import mul

from .errors import NoSolution, PoleAtOrigin, PrefixTooShort
from .fields import Field
from .poly import Poly1, _strip, field_prime, poly1_ints
from .ratfun import (
    RatFun1,
    eea_rows,
    format_poly1,
    format_ratfun1,
    lift_row,
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


def _walk(s: SeriesPrefix, m_max: int, q=None):
    """(ints, den, p, rows): the prefix as integers over `den` (residues
    and 1 over F_p, p None over Q), and the rows (r, t) of the extended
    Euclidean algorithm on (t^(N+1), ints) with deg t <= m_max; over Q
    with a prime `q`, the residue rows of ints mod that prime."""
    p = field_prime(s.field)
    ints, den = poly1_ints(Poly1(s.field, s.coeffs))
    q = q or p
    u = ints if q == p else _strip([c % q for c in ints])
    rows = list(eea_rows([0] * (s.n_max + 1) + [1], u, q, m_max))
    return ints + [0] * (s.n_max + 1 - len(ints)), den, p, rows


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
    prefix ints/den over Q (`_walk`): (t*ints)_k = den*r_k for k <= N,
    compared exactly.  With t(0) != 0 that holds exactly when the
    re-expansion of r/t is the whole prefix."""
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


def _certify(s: SeriesPrefix, l_max: int, m_max: int, q):
    """The certificate of `certify_rationality` read off the walk mod q, a
    modulus of `ratfun.moduli`, or None for the next modulus to answer.
    One forward pass over the rows finds each m's candidate row; over Q
    with a prime q that row is lifted to Q and checked exactly, and None
    is returned when it has no lift or fails the check."""
    ints, den, p, rows = _walk(s, m_max, q)
    rows = iter(rows)
    row = next(rows, None)
    for m in range(m_max + 1):
        top = min(l_max + m_max, s.n_max - m - 1)
        while row is not None and len(row[0]) > top + 1:
            row = next(rows, None)
        if row is None or len(row[1]) > m + 1:
            continue
        (r, t), d = row, den
        if q != p:
            lifted = lift_row(r, t, q, 0 if t[0] else -1, den)
            if lifted is None or not _solves(*lifted, ints, den):
                return None
            (r, t), d = lifted, 1
        if not t[0]:
            continue
        l = _kronecker_l(r, m)
        if l <= l_max and max(l + m - 1, 0) <= top:
            return RationalityCertificate("RationalWitness", l, m,
                                          ratfun1_from_row(s.field, r, t, d),
                                          len(s.coeffs))
    return RationalityCertificate("NoWitnessUpTo", l_max, m_max, None, len(s.coeffs))


def certify_rationality(s: SeriesPrefix, l_max: int, m_max: int) -> RationalityCertificate:
    """The first witness by ascending m whose exact re-expansion matches the
    entire prefix, with l = l_min(m), or the refusal.

    For each m the one candidate is the row of `_walk(s, m_max)` with
    deg t <= m, deg r <= top = min(l_max + m_max, N - m - 1) and t(0) != 0,
    the only Pade approximant of degrees at most (top, m) that can match.
    Its l_min(m) is max(deg r - m + 1, 0) (`_kronecker_l`), and the m is
    skipped when l_min(m) > l_max or l_min(m) + m - 1 > top.  A row of the
    walk solves t*s = r mod t^(N+1), so with t(0) != 0 its r/(den*t)
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
    - Which rows it covers.  The argument holds for the walk's rows over
      F_p, for the rows of the walk over Q (scalar multiples of the row
      over Q), and for a lifted row: the degree sandwich below makes a
      lifted row coprime and of the row over Q's degrees.

    The rows are those of the moduli of `ratfun.moduli`, tried in turn by
    `_certify`.  Over Q the first are those of the integer prefix mod
    p = `poly.WORD_PRIME`, walked once up to deg t <= m_max.  Each m is settled
    from them:

    - No image row has deg t <= m and deg r <= top: then no row over Q
      has either, so the m has no candidate.  A row over Q, scaled to
      jointly primitive integers, solves t*ints = r mod t^(N+1) on
      integers, so its image is a nonzero solution mod p of degrees at
      most (top, m), and a multiple of an image row of degrees at most
      those (Thm 5.16).  The modulus is monic and the prefix integral, so
      no reduction is bad here; a prefix with no candidate at any m is
      refused with no walk over Q.
    - The first such image row (r, t): scaled to t(0) = 1, or to a monic
      t where t(0) = 0, the coefficients of r/den and t are lifted by
      rational number reconstruction to P and Q, of the same degrees as
      r and t, and Q*s = P mod t^(N+1) is checked exactly (`_solves`).
      Then P/Q is the row over Q up to a constant, by a degree sandwich.
      The row (R, T) over Q of degrees at most (top, m) exists, as
      (den*P, Q) solves t*ints = r and so is a multiple c*(R, T); the
      image of the primitive (R, T) is a multiple of (r, t).  So
      deg T >= deg t = deg Q = deg c + deg T: c is a constant and
      T(0) = Q(0)/c.  Where t(0) = 0 mod p, Q(0) = 0, so T(0) = 0 and the
      m has no candidate over Q either; else T(0) != 0 and P/Q is the
      canonical R/(den*T), and l_min(m) is read off its degrees.

    The walk over Q, the last modulus, answers the whole call instead when
    p divides `den`, a coefficient has no lift within sqrt(p/2) or an
    exact check fails; over F_p the walk mod p is the only one."""
    _check_bounds(s, l_max, m_max)
    for q in moduli(field_prime(s.field)):
        cert = _certify(s, l_max, m_max, q)
        if cert is not None:
            return cert
