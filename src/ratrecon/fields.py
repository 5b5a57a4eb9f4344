"""Exact field arithmetic over Q and prime fields F_p.

Rationals are plain ``fractions.Fraction`` values (always stored reduced,
denominator positive, so exact equality is structural).  Prime field elements
are immutable residue wrappers.  Elements of different fields never coerce
into each other; mixing raises FieldMismatch.  Plain ``int`` operands embed
through the canonical ring map and are always accepted.

All randomness flows through explicitly seeded ``random.Random`` streams;
``derive_rng`` builds independent child streams from (seed, path) so parallel
tasks stay reproducible.

Each field draws its sample points with one sampler (`Field._sampler`),
made for one run from its stream and height bound.  A draw reads the stream
through ``getrandbits`` by the rejection rule of ``random.Random.randrange``,
so it takes the same bits and gives the same value as ``randint`` and
``randrange`` would: over Q a numerator ``randint(-h, h)`` then a
denominator ``randint(1, h)``, over F_p one ``randrange(p)``.  It returns
the value's integer id (equal ids iff equal values, within one sampler)
with the element, so callers key sets and memos by the ids and never hash
an element.  Over Q each element is built once per distinct value: at a
height h whose box has at most `SHARED_BOX` values (s_h <= SHARED_BOX, so
h <= 28) once per field object and height, in one table that the field
keeps and every sampler of that height shares; otherwise once per run, in
the sampler's own cache.  Over F_p, where values rarely repeat, each draw
builds its element and nothing is kept.  `draw(k)` makes k
draws in one call, the list of what k calls of `draw()` would return.
`random_element` is one draw of a fresh sampler.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

from .errors import FieldMismatch

# hashlib loads OpenSSL; the builtin module gives the same digests for a
# fraction of the start-up time and memory (as CPython's random.py does
# for sha512): _sha256 up to 3.11, _sha2 from 3.12.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Over Q, a height whose box has at most this many values has one
# (id, element) table per field, shared by all its samplers.
SHARED_BOX = 1024

# The two forms of an element of Q, [+-]digits and [+-]digits/digits; a
# decimal or exponent literal such as 1e99999999 is no element.
_Q_ELEMENT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers any sane modulus)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """Residue in [0, p) of a fixed prime field."""

    __slots__ = ("residue", "field")

    def __init__(self, residue: int, field: "PrimeField"):
        self.residue = residue % field.p
        self.field = field

    def __reduce__(self):
        return type(self), (self.residue, self.field)

    def _other(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise FieldMismatch(
                    f"mixed prime fields F_{self.field.p} and F_{other.field.p}")
            return other.residue
        if isinstance(other, int):
            return other % self.field.p
        if isinstance(other, Fraction):
            raise FieldMismatch("cannot mix rational and prime field elements")
        return None

    def __add__(self, other):
        r = self._other(other)
        if r is None:
            return NotImplemented
        return FpElement(self.residue + r, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._other(other)
        if r is None:
            return NotImplemented
        return FpElement(self.residue - r, self.field)

    def __rsub__(self, other):
        r = self._other(other)
        if r is None:
            return NotImplemented
        return FpElement(r - self.residue, self.field)

    def __mul__(self, other):
        r = self._other(other)
        if r is None:
            return NotImplemented
        return FpElement(self.residue * r, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._other(other)
        if r is None:
            return NotImplemented
        if r == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return FpElement(self.residue * pow(r, -1, self.field.p), self.field)

    def __rtruediv__(self, other):
        r = self._other(other)
        if r is None:
            return NotImplemented
        if self.residue == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return FpElement(r * pow(self.residue, -1, self.field.p), self.field)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and self.residue == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return FpElement(pow(self.residue, e, self.field.p), self.field)

    def __neg__(self):
        return FpElement(-self.residue, self.field)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.field.p == other.field.p and self.residue == other.residue
        if isinstance(other, int):
            return self.residue == other % self.field.p
        return NotImplemented

    def __hash__(self):
        # as the int in [0, p) it compares equal to; elements of different
        # fields may collide, which costs a lookup, not a wrong answer
        return hash(self.residue)

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"FpElement({self.residue}, p={self.field.p})"

    def __str__(self):
        return str(self.residue)


class Field:
    """Common surface of the two supported coefficient fields.  Each field
    has its `zero` and `one`, built once."""

    def from_int(self, k: int):
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def _sampler(self, rng: random.Random, height_bound: int):
        """The draw function of one run on `rng` (see the module docstring):
        `draw()` returns (id, element), and `draw(k)` the list of k of them,
        drawn in one loop."""
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return self.one / x


class RationalField(Field):
    """The rational numbers; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self):
        # height -> the table its samplers share, or None where s_h > SHARED_BOX
        self._tables = {}

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, s: str) -> Fraction:
        s = s.strip()
        match = _Q_ELEMENT.fullmatch(s)
        if match is None:
            raise ValueError(f"invalid element of Q: {s!r}")
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except ZeroDivisionError:
            raise ZeroDivisionError(f"zero denominator in {s!r}") from None

    def format(self, x: Fraction) -> str:
        return str(x)

    def _sampler(self, rng: random.Random, height_bound: int):
        """Uniform numerator in [-h, h] and denominator in [1, h], then
        reduced; the id of num/den in lowest terms is num * (h + 1) + den.
        The cache maps each id to (id, Fraction): the field's table for h
        when the box has at most SHARED_BOX values (h <= 28), else one for
        this run."""
        h = height_bound
        if h < 1:
            raise ValueError("height_bound must be >= 1")
        bits, gcd = rng.getrandbits, math.gcd
        nums, dens = 2 * h + 1, h
        nk, dk = nums.bit_length(), dens.bit_length()
        if h not in self._tables and 4 * h - 1 <= SHARED_BOX:   # s_h >= 4h - 1
            small = height_box_sizes(h)[-1] <= SHARED_BOX
            self._tables[h] = {} if small else None
        cache = self._tables.get(h)
        if cache is None:
            cache = {}

        def draw(count=None):
            out = []
            for _ in range(1 if count is None else count):
                n = bits(nk)
                while n >= nums:
                    n = bits(nk)
                d = bits(dk)
                while d >= dens:
                    d = bits(dk)
                n -= h
                d += 1
                g = gcd(n, d)
                key = n // g * (h + 1) + d // g
                hit = cache.get(key)
                if hit is None:
                    hit = cache[key] = (key, Fraction(n, d))
                out.append(hit)
            return out[0] if count is None else out

        return draw

    def descriptor(self) -> str:
        return "q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """F_p for prime p >= 5: tiny fields have too few points for degree
    detection to mean anything."""

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        if p < 5:
            raise ValueError(f"p = {p} has too few points: p must be a prime >= 5")
        self.p = p
        self.zero = FpElement(0, self)
        self.one = FpElement(1, self)

    def __reduce__(self):
        return type(self), (self.p,)

    def from_int(self, k: int) -> FpElement:
        return FpElement(k, self)

    def parse(self, s: str) -> FpElement:
        s = s.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            den = self.from_int(int(b))
            if not den.residue:
                raise ZeroDivisionError(f"zero denominator mod {self.p} in {s!r}")
            return self.from_int(int(a)) / den
        return self.from_int(int(s))

    def format(self, x: FpElement) -> str:
        return str(x.residue)

    def _sampler(self, rng: random.Random, height_bound: int):
        """A uniform residue, which is its own id; the height is unused.
        Each draw builds its (id, FpElement) afresh."""
        p, bits = self.p, rng.getrandbits
        k = p.bit_length()

        def draw(count=None):
            out = []
            for _ in range(1 if count is None else count):
                r = bits(k)
                while r >= p:
                    r = bits(k)
                out.append((r, FpElement(r, self)))
            return out[0] if count is None else out

        return draw

    def descriptor(self) -> str:
        return f"fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


def field_from_string(desc: str) -> Field:
    """Parse a field descriptor: "q" or "fp:<p>"."""
    desc = desc.strip().lower()
    if desc == "q":
        return QQ
    if desc.startswith("fp:"):
        return PrimeField(int(desc[3:]))
    raise ValueError(f"bad field descriptor {desc!r} (want 'q' or 'fp:<p>')")


def random_element(field: Field, rng: random.Random, height_bound: int):
    """Draw one element; over Q uniform numerator/denominator in the height
    box (then reduced), over F_p a uniform residue.  It takes the same bits
    of `rng` as one draw of `field`'s sampler."""
    return field._sampler(rng, height_bound)()[1]


def height_box_sizes(max_height: int) -> list:
    """[s_1, ..., s_max_height] of `iter_height_box_sizes`."""
    return list(itertools.islice(iter_height_box_sizes(), max_height))


def iter_height_box_sizes():
    """s_1, s_2, ...: s_h is how many distinct values the Q sampler draws at
    height bound h, 0 and +-n/d in lowest terms with 1 <= n, d <= h, which
    is 4 * (phi(1) + ... + phi(h)) - 1 with Euler's phi.  As phi >= 1,
    s_h >= 4h - 1.  Each size is counted from the one before, so taking the
    first k costs no memory that grows with k."""
    total = 0
    for k in itertools.count(1):
        total += sum(math.gcd(j, k) == 1 for j in range(1, k + 1))
        yield 4 * total - 1


def _draw_point(draw, n: int):
    """(ids, point): n coordinates, in order, from the sampler `draw`."""
    if not n:
        return (), ()
    ids, point = zip(*draw(n))
    return ids, point


def derive_rng(seed: int, *path) -> random.Random:
    """Independent child stream determined by (seed, path).  Streams derived
    with distinct paths are uncorrelated and platform-stable."""
    h = sha256(repr((int(seed),) + tuple(path)).encode()).digest()
    return random.Random(int.from_bytes(h[:16], "big"))


def _calkin_wilf(k: int) -> Fraction:
    # k-th node (1-based, BFS order) of the Calkin-Wilf tree
    num, den = 1, 1
    for bit in bin(k)[3:]:
        if bit == "0":
            den += num
        else:
            num += den
    return Fraction(num, den)


def enumerate_countable(i: int) -> Fraction:
    """A fixed bijection N -> Q: 0 first, then for each Calkin-Wilf index the
    positive value followed by its negation."""
    if i < 0:
        raise ValueError("index must be >= 0")
    if i == 0:
        return Fraction(0)
    v = _calkin_wilf((i + 1) // 2)
    return v if i % 2 == 1 else -v
