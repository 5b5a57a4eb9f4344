"""Dense univariate and sparse multivariate polynomials over an exact field.

Poly1 stores coefficients by ascending power with trailing zeros stripped;
the zero polynomial has an empty list and degree NEG_INF.  PolyN maps
exponent vectors to nonzero coefficients.  Both are immutable in practice:
no operation mutates its arguments.

The integer forms beside them carry the arithmetic: univariate coefficient
lists (the reconstruction and gcd kernels), and `_Packed`, a multivariate
polynomial on packed exponents and int coefficients, the one multivariate
arithmetic that multiplies, divides and cancels: `PolyN` `*` and `/` and
the cancellation of `ratfun.normalize_ratfunn` run on it.  A PolyN is evaluated only as
part of a `ratfun.RatFunN`, whose program `expr._compile` builds from
`PolyN.int_form`.  Field elements become integers in one place,
`int_pair(x, p)` (a residue over F_p, a numerator and denominator over Q)
and its list forms `ints_over` and `int_powers`; every integer form comes
back to field elements through one map, `over(field, den)`: c -> c/den.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import FieldMismatch, InexactDivision
from .fields import Field, FpElement, PrimeField, derive_rng

NEG_INF = float("-inf")


def _same_field(a: "Poly1 | PolyN", b: "Poly1 | PolyN"):
    if a.field != b.field:
        raise FieldMismatch("polynomials over different fields")


class Poly1:
    """Dense univariate polynomial."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        zero = field.zero
        cs = list(coeffs)
        while cs and cs[-1] == zero:
            cs.pop()
        self.field = field
        self.coeffs = cs

    def __reduce__(self):
        return type(self), (self.field, self.coeffs)

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly1":
        return cls(field, [field.from_int(k) for k in ints])

    @classmethod
    def zero(cls, field: Field) -> "Poly1":
        return cls(field, [])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        if not isinstance(other, Poly1):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def __add__(self, other):
        _same_field(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1(self.field, [self[i] + other[i] for i in range(n)])

    def __mul__(self, other):
        if not isinstance(other, Poly1):
            return self.scale(other)
        _same_field(self, other)
        if self.is_zero() or other.is_zero():
            return Poly1.zero(self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly1(self.field, out)

    def scale(self, c) -> "Poly1":
        return Poly1(self.field, [a * c for a in self.coeffs])

    def divmod(self, other: "Poly1"):
        _same_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = self.field.inv(other.leading())
        q = [self.field.zero] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == self.field.zero:
                continue
            f = c * lead_inv
            q[i - d] = f
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = rem[i - d + j] - f * b
        return Poly1(self.field, q), Poly1(self.field, rem)

    def eval(self, a):
        """Horner evaluation."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def to_polyn(self, nvars: int, var: int = 0) -> "PolyN":
        terms = {}
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
                e = [0] * nvars
                e[var] = i
                terms[tuple(e)] = c
        return PolyN(self.field, nvars, terms)

    def __repr__(self):
        return f"Poly1({self.coeffs!r})"


def gcd_poly1(a: Poly1, b: Poly1) -> Poly1:
    """Monic gcd, computed by `gcd_ints` on the coefficient lists."""
    _same_field(a, b)
    p = field_prime(a.field)
    g = gcd_ints(poly1_ints(a)[0], poly1_ints(b)[0], p)
    return poly1_from_ints(a.field, g, g[-1] if g else 1)


# ---------------------------------------------------------------------------
# univariate polynomials as integer coefficient lists
#
# Ascending powers, trailing zeros stripped, [] for zero.  `p` is the prime
# of F_p, whose lists hold residues in [0, p), or None for Q, whose lists
# stand for a rational polynomial up to a nonzero scalar (see poly1_ints).
# Over Q only `gcd_poly1` and the exact checks of `ratfun` divide: every
# Euclid walk of a univariate reconstruction runs mod a prime.


def field_prime(field: Field):
    """p for F_p, None for Q: the `p` argument of the integer routines."""
    return field.p if isinstance(field, PrimeField) else None


# The first of the word primes of `ratfun.moduli`, the images of every
# univariate reconstruction over Q: `interp` and `hankel` walk their Euclid
# rows mod it, then mod the primes below it where it cannot answer, and
# lift the rows joined by CRT.  Below 2^30 each residue is one digit of a
# CPython int, which keeps the products of a Euclid step small.
WORD_PRIME = 2 ** 30 - 35


def int_pair(x, p):
    """(u, v) with x = u/v: (residue, 1) over F_p, (numerator, denominator)
    over Q (p None); anything else is FieldMismatch."""
    return (_residue(x, p), 1) if p is not None else _ratio(x)


def ints_over(xs, p):
    """(ints, den) with each x = int/den: over F_p the residues and 1, over
    Q the numerators over the lcm of the denominators."""
    pairs = [int_pair(x, p) for x in xs]
    den = math.lcm(*(v for _, v in pairs))
    return [u * (den // v) for u, v in pairs], den


def int_powers(x, top: int, p) -> list:
    """[u^k * v^(top-k) for k = 0..top] with x = u/v: the powers of x times
    v^top, residues over F_p (where v = 1)."""
    u, v = int_pair(x, p)
    if p is not None:
        return [pow(u, k, p) for k in range(top + 1)]
    return [u ** k * v ** (top - k) for k in range(top + 1)]


def poly1_ints(f: Poly1):
    """(coefficients, den) with f = coefficients / den (see `ints_over`)."""
    return ints_over(f.coeffs, field_prime(f.field))


def over(field: Field, den: int = 1):
    """The map c -> c/den from ints into `field`, the one place an integer
    form becomes field elements; den is nonzero (mod p over F_p)."""
    if isinstance(field, PrimeField):
        inv = pow(den, -1, field.p)
        return lambda c: FpElement(c * inv, field)
    return lambda c: Fraction(c, den)


def poly1_from_ints(field: Field, coeffs, den=1) -> Poly1:
    """The Poly1 coefficients / den; den is nonzero (mod p over F_p)."""
    return Poly1(field, list(map(over(field, den), coeffs)))


def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def mul_ints(a: list, b: list, p) -> list:
    """The product a*b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out if p is None else [c % p for c in out]


def divmod_ints(a: list, b: list, p):
    """(s, q, r) with s*a = q*b + r and deg r < deg b, for b nonzero.  Over
    F_p this is division with s = 1; over Q it is pseudo-division, with
    s = lc(b)^(deg a - deg b + 1) and integer q and r."""
    db = len(b) - 1
    delta = len(a) - 1 - db
    if delta < 0:
        return 1, [], list(a)
    lead = b[-1]
    if p is None:
        s = lead ** (delta + 1)
        rem = [c * s for c in a]
    else:
        s = 1
        inv = pow(lead, -1, p)
        rem = list(a)
    q = [0] * (delta + 1)
    for k in range(delta, -1, -1):
        c = rem[k + db]
        if p is None:
            f = c // lead   # exact: c is a multiple of lead^(k + 1)
        else:
            f = c * inv % p
        if f:
            q[k] = f
            for j in range(db):
                rem[k + j] -= f * b[j]
    del rem[db:]
    return s, q, _strip(rem if p is None else [c % p for c in rem])


def gcd_ints(a: list, b: list, p) -> list:
    """A gcd of a and b, a nonzero scalar multiple of the monic one ([] when
    both are zero): the last nonzero remainder of Euclid by `divmod_ints`,
    over Q each remainder divided by its integer content."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = divmod_ints(a, b, p)[2]
        if r and p is None:
            g = math.gcd(*r)
            r = [c // g for c in r]
        a, b = b, r
    return a


class PolyN:
    """Sparse multivariate polynomial: exponent vector -> nonzero coefficient."""

    __slots__ = ("field", "nvars", "terms", "_ints")

    def __init__(self, field: Field, nvars: int, terms):
        zero = field.zero
        self.field = field
        self.nvars = nvars
        self.terms = {tuple(e): c for e, c in dict(terms).items() if c != zero}
        self._ints = None
        for e in self.terms:
            if len(e) != nvars:
                raise ValueError("exponent vector length != nvars")

    def __reduce__(self):
        # the cached integer form is rebuilt on use
        return type(self), (self.field, self.nvars, self.terms)

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "PolyN":
        return cls(field, nvars, {})

    @classmethod
    def const(cls, field: Field, nvars: int, c) -> "PolyN":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, field: Field, nvars: int, i: int) -> "PolyN":
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(v == 0 for v in e) for e in self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=NEG_INF)

    def degree_in(self, var: int):
        return max((e[var] for e in self.terms), default=NEG_INF)

    def __eq__(self, other):
        if not isinstance(other, PolyN):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        _same_field(self, other)
        zero = self.field.zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, zero) + c
        return PolyN(self.field, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyN(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        """The product on the packed form; a non-PolyN `other` is a scalar."""
        if not isinstance(other, PolyN):
            return self.scale(other)
        _same_field(self, other)
        if other.nvars != self.nvars:
            raise ValueError("polynomials of different arity")
        ring = _ring_for(self, other)
        return ring.unpack(ring.pack(self) * ring.pack(other),
                           self.int_form()[0] * other.int_form()[0])

    def scale(self, c) -> "PolyN":
        return PolyN(self.field, self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, e: int):
        out = PolyN.const(self.field, self.nvars, self.field.one)
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    def int_form(self):
        """(L, [(integer coefficient, exponents)], degree in each variable),
        computed once.  Over Q the coefficients are scaled by L, the lcm of
        their denominators; over F_p they are residues and L is 1."""
        if self._ints is None:
            cs, lcm = ints_over(self.terms.values(), field_prime(self.field))
            degs = [max(k) for k in zip(*self.terms)] if self.terms else [0] * self.nvars
            self._ints = (lcm, list(zip(cs, self.terms)), degs)
        return self._ints

    def lex_leading(self):
        """(exponent, coefficient) of the lex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial")
        e = max(self.terms)
        return e, self.terms[e]

    def __truediv__(self, other):
        """Exact quotient; raises InexactDivision when other does not divide.
        Runs as `_Packed` division, over Q by the divisor made primitive,
        which then divides in Z[x] too (Gauss's lemma)."""
        if not isinstance(other, PolyN):
            return NotImplemented
        _same_field(self, other)
        ring = _ring_for(self, other)
        a, b = ring.pack(self), ring.pack(other)
        if ring.p is not None:
            return ring.unpack(a / b)
        k = math.gcd(*b.terms.values()) or 1
        q = a / _Packed(ring, {e: c // k for e, c in b.terms.items()})
        # self = a / L_self and other = k*b' / L_other
        return ring.unpack(q * other.int_form()[0], self.int_form()[0] * k)

    def __repr__(self):
        return f"PolyN(nvars={self.nvars}, {self.terms!r})"


def _residue(x, p: int) -> int:
    if isinstance(x, FpElement):
        if x.field.p == p:
            return x.residue
    elif isinstance(x, int):
        return x % p
    raise FieldMismatch(f"{x!r} is not an element of F_{p}")


def _ratio(x):
    if isinstance(x, (Fraction, int)):
        return x.numerator, x.denominator
    raise FieldMismatch(f"{x!r} is not a rational number")


# ---------------------------------------------------------------------------
# multivariate polynomials with packed exponents
#
# An exponent vector e is packed into the one integer sum(e_i << w*(n-1-i)),
# x1 in the most significant field, so a monomial product is an integer add
# and the integer order of packed exponents is PolyN's lex order (Monagan &
# Pearce, CASC 2007).  A ring keeps every exponent below 2^k in a field of
# w = k + 2 bits: the sum of two exponents fits in k + 1 bits, and a
# quotient exponent that borrows sets the top bit of its field.  A product
# with an exponent of 2^k or more outgrows the ring and raises
# OverflowError; such a quotient exponent cannot divide a polynomial of the
# ring and raises InexactDivision.


class _PackedRing:
    """The layout of packed polynomials in `nvars` variables over `field`,
    wide enough for entries of degree <= `bound` in each variable and the
    product of any two of them."""

    __slots__ = ("field", "p", "nvars", "w", "shifts", "over")

    def __init__(self, field: Field, nvars: int, bound: int):
        self.field = field
        self.p = field_prime(field)
        self.nvars = nvars
        k = (2 * bound).bit_length()
        self.w = w = k + 2
        self.shifts = [w * (nvars - 1 - i) for i in range(nvars)]
        self.over = sum(((1 << w) - (1 << k)) << s for s in self.shifts)

    def pack(self, f: PolyN, k: int = 1) -> "_Packed":
        """The integer form of f (see `PolyN.int_form`) times k."""
        shifts = self.shifts
        return _Packed(self, {sum(map(int.__lshift__, e, shifts)): c * k
                              for c, e in f.int_form()[1]})

    def repack(self, f: "_Packed") -> "_Packed":
        """f, a polynomial of another ring in the same variables, in this one."""
        mask = (1 << f.ring.w) - 1
        pairs = list(zip(f.ring.shifts, self.shifts))
        return _Packed(self, {sum((e >> s & mask) << t for s, t in pairs): c
                              for e, c in f.terms.items()})

    def ints(self, f: "_Packed") -> dict:
        """f as a dict from exponent tuple to int coefficient."""
        shifts, mask = self.shifts, (1 << self.w) - 1
        return {tuple([e >> s & mask for s in shifts]): c for e, c in f.terms.items()}

    def unpack(self, f: "_Packed", den: int = 1) -> PolyN:
        """The PolyN f / den; den is nonzero (mod p over F_p)."""
        make = over(self.field, den)
        return PolyN(self.field, self.nvars, {e: make(c) for e, c in self.ints(f).items()})


def _ring_for(*polys: PolyN) -> _PackedRing:
    """The ring of PolyNs of one field and arity, sized by their degrees."""
    f = polys[0]
    return _PackedRing(f.field, f.nvars,
                       max((d for g in polys for d in g.int_form()[2]), default=0))


class _Packed:
    """A polynomial as a dict from packed exponent to nonzero int
    coefficient: residues mod p over F_p, integers over Q (an element of
    Z[x]).  It has what `PolyN` arithmetic and the gcd use: `*` (also by an
    int), `-` and exact `/`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: _PackedRing, terms: dict):
        self.ring = ring
        p = ring.p
        if p is None:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {e: r for e, c in terms.items() if (r := c % p)}

    def __sub__(self, other):
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) - c
        return _Packed(self.ring, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return _Packed(self.ring, {e: c * other for e, c in self.terms.items()})
        out = {}
        get = out.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        if reduce(or_, out, 0) & self.ring.over:
            raise OverflowError("a product exponent outgrows the packed ring")
        return _Packed(self.ring, out)

    def __truediv__(self, other):
        """Exact quotient, by the largest remaining term first; raises
        InexactDivision when other does not divide self (in Z[x] over Q)."""
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        ring = self.ring
        p, over = ring.p, ring.over
        lead = max(other.terms)
        lc = other.terms[lead]
        inv = None if p is None else pow(lc, -1, p)
        rest = [(e, c) for e, c in other.terms.items() if e != lead]
        rem = dict(self.terms)
        get = rem.get
        out = {}
        while rem:
            e = max(rem)
            c = rem.pop(e)
            if p is None:
                f, r = divmod(c, lc)
                if r:
                    raise InexactDivision("polynomial division is not exact")
            else:
                f = c * inv % p
            if not f:
                continue
            q = e - lead
            if q & over:
                raise InexactDivision("polynomial division is not exact")
            out[q] = f
            for e2, c2 in rest:
                t = q + e2      # below e: popped keys never come back
                rem[t] = get(t, 0) - f * c2
        return _Packed(ring, out)


# ---------------------------------------------------------------------------
# the multivariate gcd, on packed polynomials
#
# Recursive content and the primitive pseudo-remainder sequence in the last
# variable present (Brown, "On Euclid's algorithm and the computation of
# polynomial greatest common divisors", JACM 1971), with a coprime
# certificate from univariate images.  In that variable a polynomial is the
# list of its coefficients (`_coeffs`), constant term first.  Each level
# first divides both inputs by their monomial contents and multiplies the
# gcd by the smaller of the two: a shared monomial makes every univariate
# image non-coprime, and the sequence swells on it.  Every gcd
# comes in `_normal` form; over Q that form is primitive, so by Gauss's
# lemma each division by it is exact in Z[x].

_ONE = {0: 1}


def gcd_polyn(f: PolyN, g: PolyN) -> PolyN:
    """The gcd with lex-leading coefficient 1 (zero when f and g are),
    computed by `_packed_gcd` on their packed integer forms."""
    _same_field(f, g)
    ring = _ring_for(f, g)
    h = _packed_gcd(ring.pack(f), ring.pack(g))
    return ring.unpack(h, h.terms[max(h.terms)] if h.terms else 1)


def _packed_gcd(f: _Packed, g: _Packed) -> _Packed:
    """The gcd of f and g in `_normal` form, zero when both are zero.  The
    degrees of a pseudo-remainder sequence can outgrow the ring of f and g;
    the gcd is then taken in wider rings until it fits, and it comes back
    in the ring of f and g, which holds it because it divides both."""
    try:
        return _gcd(f, g)
    except OverflowError:
        ring = f.ring
        wide = _PackedRing(ring.field, ring.nvars, 1 << 2 * ring.w)
        return ring.repack(_packed_gcd(wide.repack(f), wide.repack(g)))


def _normal(f: _Packed) -> _Packed:
    """f scaled to lex-leading coefficient 1 over F_p; over Q divided by its
    integer content, with a positive lex-leading coefficient."""
    lc = f.terms[max(f.terms)]
    p = f.ring.p
    if p is not None:
        return f if lc == 1 else f * pow(lc, -1, p)
    k = math.gcd(*f.terms.values())
    if lc < 0:
        k = -k
    return f if k == 1 else _Packed(f.ring, {e: c // k for e, c in f.terms.items()})


def _gcd(f: _Packed, g: _Packed) -> _Packed:
    """`_packed_gcd` within the ring of f and g."""
    if not f.terms or not g.terms:
        h = f if f.terms else g
        return _normal(h) if h.terms else h
    ring = f.ring
    bits_f, bits_g = reduce(or_, f.terms), reduce(or_, g.terms)
    if not bits_f or not bits_g:
        return _Packed(ring, _ONE)
    mask = (1 << ring.w) - 1
    # the monomial contents, componentwise minimum exponents
    low_f, low_g = (sum(min(e >> s & mask for e in x.terms) << s for s in ring.shifts)
                    for x in (f, g))
    if low_f or low_g:
        low = sum(min(low_f >> s & mask, low_g >> s & mask) << s for s in ring.shifts)
        h = _gcd(_Packed(ring, {e - low_f: c for e, c in f.terms.items()}),
                 _Packed(ring, {e - low_g: c for e, c in g.terms.items()}))
        return _Packed(ring, {e + low: c for e, c in h.terms.items()})
    active = [s for s in ring.shifts if (bits_f | bits_g) >> s & mask]
    s = active[-1]
    fs, gs = _coeffs(f, s), _coeffs(g, s)
    if len(fs) == 1 or len(gs) == 1:
        # absent from one side, the variable divides out of the gcd
        return _gcd(_content(fs), _content(gs))
    if len(active) == 1:
        h = gcd_ints([c.terms.get(0, 0) for c in fs], [c.terms.get(0, 0) for c in gs],
                     ring.p)
        return _normal(_Packed(ring, {k << s: c for k, c in enumerate(h)}))
    cf, fs = _primitive(fs)
    cg, gs = _primitive(gs)
    cont = _gcd(cf, cg)
    if _coprime_by_image(fs, gs, active[:-1]):
        return cont
    h = _prs(fs, gs)
    return _normal(_Packed(ring, {e + (k << s): c for k, x in enumerate(h)
                                  for e, c in x.terms.items()}) * cont)


def _coeffs(f: _Packed, s: int) -> list:
    """The coefficients of the nonzero f in the variable at bit offset s."""
    ring = f.ring
    mask = (1 << ring.w) - 1
    parts = {}
    for e, c in f.terms.items():
        k = e >> s & mask
        parts.setdefault(k, {})[e - (k << s)] = c
    return [_Packed(ring, parts.get(k, {})) for k in range(max(parts) + 1)]


def _content(cs: list) -> _Packed:
    """The gcd of the polynomials cs, not all zero, in `_normal` form."""
    h = None
    for c in sorted((c for c in cs if c.terms), key=lambda c: len(c.terms)):
        h = _normal(c) if h is None else _gcd(h, c)
        if h.terms == _ONE:
            break
    return h


def _primitive(cs: list):
    """(content, cs divided by it); over Q the quotients are also divided
    by their joint integer content."""
    h = _content(cs)
    if h.terms != _ONE:
        cs = [c / h for c in cs]
    if h.ring.p is None:
        k = math.gcd(*(v for c in cs for v in c.terms.values()))
        if k > 1:
            cs = [_Packed(h.ring, {e: v // k for e, v in c.terms.items()}) for c in cs]
    return h, cs


def _coprime_by_image(fs: list, gs: list, others: list) -> bool:
    """Whether the primitive fs and gs are certified coprime: at a point for
    the variables at the bit offsets `others` where both leading
    coefficients survive, their univariate images have gcd 1.  A common
    factor of positive degree would divide both images."""
    ring = fs[0].ring
    p, mask = ring.p, (1 << ring.w) - 1

    def image(cs, point):
        out = []
        for f in cs:
            acc = 0
            for e, c in f.terms.items():
                for s, a in point:
                    if k := e >> s & mask:
                        c *= pow(a, k, p)
                acc += c
            out.append(acc if p is None else acc % p)
        return out

    for attempt in range(8):
        rng = derive_rng(0xC09, attempt, len(fs), len(gs))
        point = [(s, rng.randrange(p) if p else rng.randint(-1000, 1000)) for s in others]
        fi, gi = image(fs, point), image(gs, point)
        if fi[-1] and gi[-1]:
            return len(gcd_ints(fi, gi, p)) == 1
    return False


def _prs(f: list, g: list) -> list:
    """The gcd of the primitive f and g of positive degree, up to a scalar,
    by the primitive pseudo-remainder sequence."""
    if len(f) < len(g):
        f, g = g, f
    while True:
        r = _prem(f, g)
        if not r:
            return g
        if len(r) == 1:
            return [_Packed(g[0].ring, _ONE)]
        f, g = g, _primitive(r)[1]


def _prem(f: list, g: list) -> list:
    """lc(g)^j * f mod g for some j >= 0, with len(f) >= len(g) >= 2."""
    r = list(f)
    dg, lg, tail = len(g) - 1, g[-1], g[:-1]
    while len(r) > dg:
        c = r.pop()
        r = [x * lg for x in r]
        for j, y in enumerate(tail, len(r) - dg):
            r[j] = r[j] - c * y
        while r and not r[-1].terms:
            r.pop()
    return r
