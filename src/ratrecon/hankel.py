"""Hankel matrices and rationality certificates for truncated power series.

A series prefix a_0..a_N is declared rational only with a checkable witness:
a rational function whose exact re-expansion reproduces the whole prefix.
The converse direction never claims irrationality, only the absence of a
witness within the scanned (l, m) bounds.  Witnesses are Pade approximants,
computed by `ratfun.rational_reconstruct` modulo t^(n+m+1).

Kronecker's criterion: for each m, l_min(m) is the smallest l from which
every det H(n, m), l <= n <= N - 2m, vanishes.  Most of those zeros need no
determinant.  Each row (r, t) of the extended Euclidean algorithm on
(t^(N+1), s) (`ratfun.eea_rows`) has t*s = r mod t^(N+1), so for
m >= deg t and n + m > deg r the columns m - k of H(n, m), weighted by t_k,
sum to zero: det H(n, m) = 0.  That is the block structure of the Pade table
(Gragg, SIAM Review 1972).  One pass over the rows with deg t <= m_max (the
walk's own bound, so no row past it is built) gives, for each m, the least
n from which every determinant is proven zero; the scan runs n downward
from just below it and stops at the first nonzero determinant.  Those
determinants are taken on integer rows: over F_p on the residues, mod p;
over Q on the prefix scaled by the lcm of its denominators, first modulo
the word prime `WORD_PRIME`.  A nonzero
residue proves the determinant nonzero; a zero residue is settled by the
exact determinant, so a zero is only ever proven exactly.  A
factorial-type refusal still costs one determinant per m, now a modular
one; the zeros above a rational series' witness cost none.  The witness
search interleaves with the scan: m ascends, l_min(m) is computed only
when the search reaches m, and the search stops at the first witness.

A witness P/Q is checked on the same integer prefix: Q(0) != 0 and
Q*s = P mod t^(N+1), coefficient by coefficient, which holds exactly when
the re-expansion of P/Q reproduces a_0..a_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import NoSolution, PoleAtOrigin, PrefixTooShort
from .fields import Field
from .matrix import bordered_dets
from .poly import Poly1, field_prime, poly1_ints
from .ratfun import (
    RatFun1,
    eea_rows,
    format_poly1,
    format_ratfun1,
    rational_reconstruct,
)


@dataclass
class SeriesPrefix:
    """Coefficients a_0..a_N of a formal power series."""
    field: Field
    coeffs: list

    def __post_init__(self):
        if not self.coeffs:
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


@dataclass
class RationalityCertificate:
    verdict: str                      # "RationalWitness" | "NoWitnessUpTo"
    l: int
    m: int
    witness: RatFun1 | None
    checked_prefix_length: int

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


# Over Q a Hankel determinant is first taken modulo this prime: a nonzero
# residue proves it nonzero, and only a zero residue costs the exact one.
# Below 2^30 each residue is one digit of a CPython int, which keeps the
# elimination's products small.
WORD_PRIME = 2 ** 30 - 35


def _zero_tails(s: SeriesPrefix, m_max: int):
    """(ints, den, p, tails): the prefix as integers over `den` (residues
    and 1 over F_p, p None over Q), and for m = 0..m_max the least n from
    which every det H(n, m) is proven zero by an extended-Euclid row with
    deg t <= m (N - 2m + 1 when none is)."""
    n_max = s.n_max
    p = field_prime(s.field)
    ints, den = poly1_ints(Poly1(s.field, s.coeffs))
    tails = [n_max - 2 * m + 1 for m in range(m_max + 1)]
    for r, t in eea_rows([0] * (n_max + 1) + [1], ints, p, m_max):
        for m in range(len(t) - 1, m_max + 1):
            tails[m] = min(tails[m], max(len(r) - m, 0))
    return ints + [0] * (n_max + 1 - len(ints)), den, p, tails


def _l_min(s: SeriesPrefix, m: int, zero_tails=None) -> int:
    """Smallest l with det H(n, m) = 0 for every n with l <= n <= N - 2m:
    scans n downward from below the proven zeros (`_zero_tails(s, m_max)`
    for some m_max >= m) and stops at the first nonzero determinant.  Over
    F_p the determinants are taken mod p; over Q first mod `WORD_PRIME`,
    and exactly only when that residue is zero."""
    ints, _, p, tails = zero_tails or _zero_tails(s, m)
    for n in range(tails[m] - 1, -1, -1):
        rows = [ints[n + i:n + i + m + 1] for i in range(m + 1)]
        if (bordered_dets(rows[:m], rows[m:], p or WORD_PRIME)[0]
                or p is None and bordered_dets(rows[:m], rows[m:])[0]):
            return n + 1
    return 0


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


def _matches_prefix(f: RatFun1, s: SeriesPrefix, zero_tails=None) -> bool:
    """Whether the re-expansion of f = P/Q is the whole prefix: Q(0) != 0
    and Q*s = P mod t^(N+1), checked coefficient by coefficient on the
    integer prefix of `_zero_tails`.  With s = ints/den, P = pn/pd and
    Q = qn/qd that is pd * (qn*ints)_k = den * qd * pn_k for k <= N, mod p
    over F_p."""
    ints, den, p, _ = zero_tails or _zero_tails(s, 0)
    pn, pd = poly1_ints(f.num)
    qn, qd = poly1_ints(f.den)
    if not qn[0]:
        return False
    scale = den * qd
    rev = ints[::-1]                    # rev[N - k + j] = ints[k - j]
    for k in range(s.n_max + 1):
        lhs = pd * sum(map(mul, qn, rev[s.n_max - k:s.n_max - k + len(qn)]))
        rhs = scale * pn[k] if k < len(pn) else 0
        if (lhs - rhs) % p if p else lhs != rhs:
            return False
    return True


def certify_rationality(s: SeriesPrefix, l_max: int, m_max: int) -> RationalityCertificate:
    """Scan Hankel candidates, attempt a witness per candidate, and accept the
    first whose exact re-expansion matches the entire prefix.

    For each m only l = l_min(m) is attempted: a larger l tries a subset of
    the same Pade windows, and an m is scanned only when the search reaches
    it, so no determinant past the witness is computed."""
    _check_bounds(s, l_max, m_max)
    zero_tails = _zero_tails(s, m_max)
    for m in range(m_max + 1):
        l = _l_min(s, m, zero_tails)
        if l > l_max:
            continue
        for n_deg in range(max(l + m - 1, 0), l_max + m_max + 1):
            if s.n_max < n_deg + m + 1:
                break
            try:
                f = pade_reconstruct(s, n_deg, m)
            except NoSolution:
                continue
            if _matches_prefix(f, s, zero_tails):
                return RationalityCertificate(
                    "RationalWitness", l, m, f, len(s.coeffs))
    return RationalityCertificate("NoWitnessUpTo", l_max, m_max, None, len(s.coeffs))
