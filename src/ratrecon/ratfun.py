"""Canonical rational functions, univariate and multivariate.

RatFun1 keeps num/den coprime with a monic denominator.  A RatFunN from
`normalize_ratfunn` is coprime and content-normalized: over Q both parts
are integer with joint content 1 and the denominator's lex-leading
coefficient positive; over F_p that leading coefficient is 1.  That is
the scaling of `ratfunn_from_ints`, which cancels nothing: `normalize_ratfunn`
ends in it after cancelling the gcd on packed integer polynomials
(`poly._Packed`), `RatFun1.to_ratfunn` and the engine's combine without one.

Every univariate reconstruction reads rows of one extended-Euclid walk,
`eea_rows`, on integer lists: residue rows over F_p, pseudo-remainder
rows over Q.  `first_row` selects the row of an (n, m) fit, for
`interp.fit_ratfun`, `interp.interp_point` and `rational_reconstruct` on
bounds; `reconstruct_ints` selects the minimal row of degree detection;
`rational_reconstruct` runs either on `Poly1` arguments for
`hankel.pade_reconstruct` and the tests; the Hankel certificate walks
the rows itself.  The walk alone stops the Euclid, at a bound on the cofactor
degree that each caller derives from its own: m for an (n, m) fit, the
total-degree `limit` of degree detection, m_max for the Hankel
certificate.

`interp` and `hankel` answer from one loop over the moduli of `moduli`:
the field's prime over F_p; over Q first `poly.WORD_PRIME`, whose rows
`lift_row` lifts to Q by rational number reconstruction (`rat_lift`) for
the caller's exact check, and last None, the walk over Q, which answers
whatever the image left open.
"""

from __future__ import annotations

import math

from .errors import UndefinedAt, ZeroDenominator, ZeroFunction
from .expr import Add, Div, IntLit, Mul, Pow, Var, _compile
from .fields import Field
from .poly import (  # gcd_polyn: bench/selftest.py looks it up here
    WORD_PRIME,
    Poly1,
    PolyN,
    _packed_gcd,
    _ring_for,
    _same_field,
    divmod_ints,
    field_prime,
    gcd_ints,
    gcd_poly1,
    gcd_polyn,
    mul_ints,
    over,
    poly1_from_ints,
    poly1_ints,
)


class RatFun1:
    """Univariate rational function in lowest terms, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly1, den: Poly1):
        # trusted constructor; use normalize_ratfun1 for raw pairs
        self.num = num
        self.den = den

    def __reduce__(self):
        return type(self), (self.num, self.den)

    @property
    def field(self) -> Field:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def eval(self, a):
        d = self.den.eval(a)
        if d == self.field.zero:
            raise UndefinedAt(a)
        return self.num.eval(a) / d

    def defined_at(self, a) -> bool:
        return self.den.eval(a) != self.field.zero

    def __eq__(self, other):
        if not isinstance(other, RatFun1):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFun1({format_ratfun1(self)})"

    def to_ratfunn(self, nvars: int = 1, var: int = 0) -> "RatFunN":
        """The function as one of variable `var` in `nvars`: a RatFun1 is in
        lowest terms, so it is only scaled, with no gcd."""
        (num, lnum), (den, lden) = poly1_ints(self.num), poly1_ints(self.den)

        def part(cs, k):
            return {(0,) * var + (i,) + (0,) * (nvars - 1 - var): c * k
                    for i, c in enumerate(cs) if c}
        return ratfunn_from_ints(self.field, nvars, part(num, lden), part(den, lnum))


def normalize_ratfun1(num: Poly1, den: Poly1) -> RatFun1:
    """Cancel the gcd and scale the denominator monic."""
    if den.is_zero():
        raise ZeroDenominator("denominator is the zero polynomial")
    field = num.field
    if num.is_zero():
        return RatFun1(Poly1.zero(field), Poly1(field, [field.one]))
    g = gcd_poly1(num, den)
    if int(g.degree) > 0:
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
    inv = field.inv(den.leading())
    return RatFun1(num.scale(inv), den.scale(inv))


def degree_and_ord(f: RatFun1):
    """(mapping degree, order at infinity) of a nonzero canonical function.

    ord_inf is deg num - deg den, the convention under which
    n = deg f + min(0, ord) = deg num and m = deg f - max(0, ord) = deg den.
    """
    if f.is_zero():
        raise ZeroFunction("degree data of the zero function")
    dn, dd = int(f.num.degree), int(f.den.degree)
    return max(dn, dd), dn - dd


class RatFunN:
    """Multivariate rational function num/den.  `normalize_ratfunn` returns
    it in the canonical form of the module docstring; the constructor
    takes the parts as they are."""

    __slots__ = ("num", "den", "_program")

    def __init__(self, num: PolyN, den: PolyN):
        self.num = num
        self.den = den
        self._program = None

    def __reduce__(self):
        # the cached program is a function built by exec: rebuilt on use
        return type(self), (self.num, self.den)

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def eval(self, point):
        v = self.eval_or_none(point)
        if v is None:
            raise UndefinedAt(tuple(point))
        return v

    def eval_or_none(self, point):
        """The value at `point`, an element of the field, or None at a pole.
        The point must have `nvars` coordinates, each an int or an element
        of the field (else ValueError or FieldMismatch)."""
        pair = self.eval_pairs((point,))[0]
        if pair is None:
            return None
        n, d = pair
        return over(self.field, d)(n)

    def eval_pairs(self, points) -> list:
        """For each point of `points`, as in `eval_or_none`, the integers
        (n, d) whose quotient is its value, d nonzero (mod p over F_p), or
        None at a pole; no field element is built.  Runs the straight-line
        program of `expr._compile`, built at the first call and kept."""
        if self._program is None:
            lnum, lden = self.num.int_form()[0], self.den.int_form()[0]
            tree = Div(_int_tree(self.num, lden), _int_tree(self.den, lnum))
            self._program = _compile(tree, self.field, self.nvars)
        return self._program(points)

    def same_function(self, other: "RatFunN") -> bool:
        """Equal parts, or else cross-multiplication equality: sound for
        any pair, canonical or not."""
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    def __eq__(self, other):
        if not isinstance(other, RatFunN):
            return NotImplemented
        return self.same_function(other)

    def __hash__(self):
        return hash((self.field, self.nvars))

    def __repr__(self):
        return f"RatFunN({format_ratfunn(self)})"

    def __add__(self, other):
        return normalize_ratfunn(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    def __sub__(self, other):
        return normalize_ratfunn(self.num * other.den - other.num * self.den,
                                 self.den * other.den)

    def __mul__(self, other):
        return normalize_ratfunn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero function")
        return normalize_ratfunn(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return RatFunN(-self.num, self.den)


def _int_tree(f: PolyN, scale: int):
    """The expression sum(c * scale * x^e) over the integer form of `f`,
    which is L*f over Q and f over F_p."""
    total = None
    for c, e in f.int_form()[1]:
        term = None if c * scale == 1 else IntLit(c * scale)
        for i, k in enumerate(e):
            if k:
                x = Var(i) if k == 1 else Pow(Var(i), k)
                term = x if term is None else Mul(term, x)
        term = term or IntLit(1)
        total = term if total is None else Add(total, term)
    return total or IntLit(0)


def normalize_ratfunn(num: PolyN, den: PolyN) -> RatFunN:
    """Cancel the gcd and scale to the canonical content form.  Both parts
    are packed once, over Q scaled by the lcm of their denominators, and
    the work runs on integers; a PolyN is built only for the two results."""
    _same_field(num, den)
    if den.is_zero():
        raise ZeroDenominator("denominator is the zero polynomial")
    field = num.field
    if num.is_zero():
        return RatFunN(PolyN.zero(field, num.nvars),
                       PolyN.const(field, num.nvars, field.one))
    ring = _ring_for(num, den)
    lnum, lden = num.int_form()[0], den.int_form()[0]
    lcm = math.lcm(lnum, lden)
    n, d = ring.pack(num, lcm // lnum), ring.pack(den, lcm // lden)
    g = _packed_gcd(n, d)
    if g.terms != {0: 1}:
        n, d = n / g, d / g
    return ratfunn_from_ints(field, num.nvars, ring.ints(n), ring.ints(d))


def ratfunn_from_ints(field: Field, nvars: int, num: dict, den: dict) -> RatFunN:
    """num/den in canonical scale, nothing cancelled.  The parts map exponent
    tuples to nonzero ints (residues over F_p), den nonzero; den's lex-leading
    coefficient is made 1 over F_p, positive with joint content 1 over Q."""
    lead = den[max(den)]
    if field_prime(field) is None:
        k = math.gcd(*num.values(), *den.values())
        lead = k if lead > 0 else -k
    make = over(field, lead)
    return RatFunN(PolyN(field, nvars, {e: make(c) for e, c in num.items()}),
                   PolyN(field, nvars, {e: make(c) for e, c in den.items()}))


def rational_reconstruct(modulus: Poly1, u: Poly1, n: int | None = None,
                         m: int | None = None) -> RatFun1 | None:
    """Canonical P/Q with P = Q*u mod `modulus` and Q coprime to the modulus,
    by the extended Euclidean algorithm on (modulus, u mod modulus).

    Every EEA row (r, t) has r = t*u mod modulus, and every solution with
    deg P <= n, deg Q <= deg modulus - n - 1 is a polynomial multiple of the
    first row with deg r <= n (von zur Gathen & Gerhard, Modern Computer
    Algebra, Thm 5.16).  A row is itself a solution exactly when
    gcd(r, t) = 1, which holds exactly when t is coprime to the modulus.

    With bounds n and m (n + m < deg modulus) the answer is the unique
    solution with deg P <= n and deg Q <= m, or None when there is none.
    Without bounds it is the solution of minimal total degree
    deg P + deg Q, ties going to the smaller deg P; that row follows the
    quotient of largest degree (Monagan, "Maximal quotient rational
    reconstruction", ISSAC 2004).  There always is one: the first row,
    (u mod modulus)/1, qualifies.

    With modulus prod(x - a_i) and u the interpolant of values v_i this is
    rational interpolation through the points (a_i, v_i); with modulus t^N
    and u a truncated series it is Pade approximation.  The work is done by
    `reconstruct_ints` on the integer coefficient lists.
    """
    _same_field(modulus, u)
    field = modulus.field
    if modulus.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p = field_prime(field)
    mod = poly1_ints(modulus)[0]
    ints, den = poly1_ints(u)
    if len(ints) >= len(mod):
        s, _, ints = divmod_ints(ints, mod, p)
        den *= s
    if n is None:
        row = reconstruct_ints(mod, ints, p)
    else:
        row = first_row(mod, ints, p, n, m)
        row = row if row is not None and _coprime(*row, p) else None
    return None if row is None else ratfun1_from_row(field, *row, den)


def reconstruct_ints(modulus: list, u: list, p, limit=math.inf):
    """The unbounded selection of `rational_reconstruct` on integer
    coefficient lists (see poly.py), deg u < deg modulus: the coprime row
    (r, t) of `eea_rows` of minimal total degree, ties going to the smaller
    deg r, if that degree is within `limit`, else None.  The function the
    row stands for is r/(den*t), where u/den is the interpolant (see
    ratfun1_from_row).  The walk stops at the cofactor degree `limit`."""
    rows = []
    for r, t in eea_rows(modulus, u, p, limit):
        dr = len(r) - 1
        rows.append((max(dr, 0) + len(t) - 1, dr, r, t))
    for total, _, r, t in sorted(rows, key=lambda row: row[:2]):
        if total > limit:
            return None
        if _coprime(r, t, p):
            return r, t


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


def first_row(modulus: list, u: list, p, n: int, m: int):
    """The first row (r, t) of `eea_rows` with deg r <= n among those with
    deg t <= m, or None.  With n + m < deg modulus every solution of
    P = Q*u mod `modulus` with deg P <= n and deg Q <= m is a polynomial
    multiple of it (see `rational_reconstruct`)."""
    return next((row for row in eea_rows(modulus, u, p, m) if len(row[0]) <= n + 1),
                None)


def rat_lift(residues: list, p: int):
    """Integers over one common denominator whose quotients u/w are the
    residues lifted to Q, u = c*w mod p, or None: rational number
    reconstruction (Wang 1981), the extended Euclid on (p, c) stopped at
    the first remainder within bound = sqrt(p/2), the lift taken when
    0 < w <= bound and gcd(u, w) = 1.  As 2*bound^2 < p there is at most
    one such fraction per residue, and a residue lifts to 0 only if it is
    0.  The callers of `lift_row` check the lifts exactly."""
    bound, lifted = math.isqrt(p // 2), []
    for c in residues:
        r0, r1, t0, t1 = p, c, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if t1 > bound or math.gcd(r1, t1) != 1:
            return None
        lifted.append((r1, t1))
    den = math.lcm(*(w for _, w in lifted))
    return [u * (den // w) for u, w in lifted]


def moduli(p) -> tuple:
    """The moduli of the univariate image path, in the order tried: over
    F_p the field's prime p; over Q (p None) `WORD_PRIME`, then None, the
    walk over Q, which always answers."""
    return (p,) if p is not None else (WORD_PRIME, None)


def lift_row(r: list, t: list, q: int, k: int = -1, den: int = 1):
    """The row (r, t) of a walk mod q, scaled to t[k] = 1 with r divided by
    den, lifted to Q by `rat_lift`: integer lists (r, t) over one common
    denominator, of the row's degrees, or None when den is 0 mod q or a
    coefficient has no lift."""
    if den % q == 0:
        return None
    inv = pow(t[k], -1, q)
    r_inv = inv * pow(den, -1, q) % q
    ints = rat_lift([c * r_inv % q for c in r] + [c * inv % q for c in t], q)
    return None if ints is None else (ints[:len(r)], ints[len(r):])


def _coprime(r: list, t: list, p) -> bool:
    """gcd(r, t) = 1; t is nonzero."""
    if not r:
        return len(t) == 1
    return len(gcd_ints(r, t, p)) == 1


def ratfun1_from_row(field: Field, r: list, t: list, den=1) -> RatFun1:
    """The canonical r/(den*t) of a coprime row (r, t): both parts divided by
    den*lc(t) and lc(t) respectively."""
    lead = t[-1]
    return RatFun1(poly1_from_ints(field, r, den * lead),
                   poly1_from_ints(field, t, lead))


# ---------------------------------------------------------------------------
# canonical text format


def default_var_names(nvars: int):
    return [f"x{i + 1}" for i in range(nvars)]


def format_polyn(p: PolyN, var_names=None) -> str:
    """Expanded form, terms in descending lex order: "x1*x2 + 1"."""
    if p.is_zero():
        return "0"
    names = var_names or default_var_names(p.nvars)
    parts = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        mono = "*".join(
            f"{names[i]}^{k}" if k > 1 else names[i]
            for i, k in enumerate(e) if k)
        cs = _coeff_str(p.field, c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        body = mono if (cs == "1" and mono) else (f"{cs}*{mono}" if mono else cs)
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def _coeff_str(field, c) -> str:
    # prime field residues print as symmetric representatives so the text
    # form reads "x1 - x2" rather than "x1 + (p-1)*x2"
    if hasattr(c, "residue"):
        r = c.residue
        p = c.field.p
        return str(r - p) if r > p // 2 else str(r)
    return field.format(c)


def format_poly1(p: Poly1, var_name: str = "x1") -> str:
    """Ascending-order text, as in "-1 - t + t^2"."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == p.field.zero:
            continue
        cs = _coeff_str(p.field, c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        mono = f"{var_name}^{k}" if k > 1 else (var_name if k == 1 else "")
        body = mono if (cs == "1" and mono) else (f"{cs}*{mono}" if mono else cs)
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def format_ratfunn(f: RatFunN, var_names=None) -> str:
    return f"({format_polyn(f.num, var_names)})/({format_polyn(f.den, var_names)})"


def format_ratfun1(f: RatFun1, var_name: str = "x1") -> str:
    return format_ratfunn(f.to_ratfunn(), [var_name])
