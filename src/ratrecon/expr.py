"""Arithmetic expression language for defining oracles.

Grammar (see docs/grammar.ebnf): precedence ^ > unary minus > * / > + -,
with * / + - left-associative and ^ right-associative over literal
nonnegative integer exponents.  An exponent chain such as 2^3^2 is folded
at parse time; every literal and folded value is capped at MAX_EXPONENT, and
so is the product of the exponents along every chain of nested powers, as in
(x1^4*x2)^8.
Variables are x1..x<arity>.  Whitespace is insignificant.  Parse errors
carry the byte offset and the expectation set.

Division by zero during evaluation is a domain hole, not an error:
eval_expr returns None so the reconstruction pipeline can resample past
poles.  Otherwise it returns an element of the given field, whatever the
coordinates' types; it walks the tree on plain integers (residues over F_p,
reduced numerator/denominator pairs over Q) and builds one field element
per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    ExponentTooLarge,
    ExprSyntaxError,
    NegativeExponent,
    UnknownVariable,
)
from .fields import Field, FpElement, PrimeField
from .poly import PolyN, _ratio, _residue
from .ratfun import RatFunN, normalize_ratfunn


MAX_EXPONENT = 1024


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Div:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = IntLit | Var | Add | Sub | Mul | Div | Neg | Pow


_PUNCT = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(src: str):
    out = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            out.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            out.append(("int", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(i, {"digit", "variable", "operator", "parenthesis"})
    out.append(("eof", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str, arity: int):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.arity = arity

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t[0] != kind:
            raise ExprSyntaxError(t[2], {kind})
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t[0] != "eof":
            raise ExprSyntaxError(t[2], {"operator", "end of input"})
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            offset = self.peek()[2]
            return _pow(base, self.exponent(), offset)
        return base

    def exponent(self) -> int:
        t = self.peek()
        if t[0] == "-":
            raise NegativeExponent(t[2])
        if t[0] != "int":
            raise ExprSyntaxError(t[2], {"nonnegative integer literal"})
        self.take()
        e = int(t[1])
        if e <= MAX_EXPONENT and self.peek()[0] == "^":
            self.take()
            e = e ** self.exponent()   # both sides <= MAX_EXPONENT here
        if e > MAX_EXPONENT:
            raise ExponentTooLarge(t[2], MAX_EXPONENT)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t[0] == "int":
            self.take()
            return IntLit(int(t[1]))
        if t[0] == "name":
            self.take()
            name = t[1]
            if name.startswith("x") and name[1:].isdigit():
                k = int(name[1:])
                if 1 <= k <= self.arity:
                    return Var(k - 1)
            raise UnknownVariable(t[2], name)
        if t[0] == "(":
            self.take()
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(t[2], {"integer", "variable", "("})


def _power_depth(e: Expr) -> int:
    """Largest product of the exponents along a chain of nested powers in
    `e`: the factor by which they raise a degree or the size of a value."""
    if isinstance(e, Pow):
        return e.exponent * _power_depth(e.base)
    if isinstance(e, Neg):
        return _power_depth(e.arg)
    if isinstance(e, (IntLit, Var)):
        return 1
    return max(_power_depth(e.lhs), _power_depth(e.rhs))


def _pow(base: Expr, exponent: int, offset: int) -> Pow:
    """Pow(base, exponent); ExponentTooLarge (at `offset`) if a chain of
    nested powers through it exceeds MAX_EXPONENT."""
    if exponent * _power_depth(base) > MAX_EXPONENT:
        raise ExponentTooLarge(offset, MAX_EXPONENT)
    return Pow(base, exponent)


def parse(src: str, arity: int) -> Expr:
    if arity < 1:
        raise ValueError("arity must be >= 1")
    return _Parser(src, arity).parse()


def eval_expr(e: Expr, point: tuple, field: Field):
    """Exact value of `e` at `point` as an element of `field`, or None when
    the point is outside the expression's domain: some divisor in the tree
    evaluates to zero there, even where the expanded function is defined
    (x1/x1 and 0*(1/x1) at x1 = 0).

    The tree is walked on plain integers, and one field element is built
    per defined point.  Each coordinate must be an int or an element of
    `field`, whether or not `e` uses it; anything else is FieldMismatch."""
    if isinstance(field, PrimeField):
        p = field.p
        v = _eval_fp(e, [(_residue(x, p), 1) for x in point], p)
        if v is None:
            return None
        n, d = v
        return FpElement(n if d == 1 else n * pow(d, -1, p), field)
    v = _eval_q(e, [_ratio(x) for x in point])
    return None if v is None else Fraction(*v)


def _eval_fp(e: Expr, xs: list, p: int):
    """(num, den) residues mod p of `e` at residue pairs `xs`, with den a
    product of nonzero residues; None if a divisor is zero."""
    t = type(e)
    if t is Var:
        return xs[e.index]
    if t is IntLit:
        return e.value % p, 1
    if t is Neg:
        v = _eval_fp(e.arg, xs, p)
        return None if v is None else (-v[0] % p, v[1])
    if t is Pow:
        v = _eval_fp(e.base, xs, p)
        if v is None:
            return None
        n, d = v
        k = e.exponent
        return pow(n, k, p), (1 if d == 1 else pow(d, k, p))
    a = _eval_fp(e.lhs, xs, p)
    if a is None:
        return None
    b = _eval_fp(e.rhs, xs, p)
    if b is None:
        return None
    an, ad = a
    bn, bd = b
    if t is Mul:
        return an * bn % p, ad * bd % p
    if t is Add:
        return (an * bd + bn * ad) % p, ad * bd % p
    if t is Sub:
        return (an * bd - bn * ad) % p, ad * bd % p
    if bn == 0:
        return None
    return an * bd % p, ad * bn % p


def _eval_q(e: Expr, xs: list):
    """Reduced (num, den > 0) pair of `e` at the coordinate pairs `xs`;
    None if a divisor is zero.  The gcd steps are those of Fraction's own
    arithmetic, so every intermediate has the size it has as a Fraction."""
    t = type(e)
    if t is Var:
        return xs[e.index]
    if t is IntLit:
        return e.value, 1
    if t is Neg:
        v = _eval_q(e.arg, xs)
        return None if v is None else (-v[0], v[1])
    if t is Pow:
        v = _eval_q(e.base, xs)
        if v is None:
            return None
        k = e.exponent
        return v[0] ** k, v[1] ** k
    a = _eval_q(e.lhs, xs)
    if a is None:
        return None
    b = _eval_q(e.rhs, xs)
    if b is None:
        return None
    na, da = a
    nb, db = b
    if t is Mul:
        g = gcd(na, db)
        if g > 1:
            na //= g
            db //= g
        g = gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
        return na * nb, da * db
    if t is Div:
        if nb == 0:
            return None
        g = gcd(na, nb)
        if g > 1:
            na //= g
            nb //= g
        g = gcd(da, db)
        if g > 1:
            da //= g
            db //= g
        n, d = na * db, da * nb
        return (-n, -d) if d < 0 else (n, d)
    if t is Sub:
        nb = -nb
    # Knuth, TAOCP 4.5.1: cancel by g = gcd(da, db), then by gcd(sum, g)
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    n = na * (db // g) + nb * s
    g2 = gcd(n, g)
    if g2 == 1:
        return n, s * db
    return n // g2, s * (db // g2)


def pretty(e: Expr) -> str:
    """Minimal-parenthesis form that reparses to the identical tree."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Neg):
        inner = pretty(e.arg)
        if isinstance(e.arg, (IntLit, Var, Pow)):
            return f"-{inner}"
        return f"-({inner})"
    if isinstance(e, Pow):
        base = pretty(e.base)
        if not isinstance(e.base, (IntLit, Var)):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        lhs = pretty(e.lhs)
        rhs = pretty(e.rhs)
        if isinstance(e.rhs, (Add, Sub)):
            rhs = f"({rhs})"
        return f"{lhs}{op}{rhs}"
    op = "*" if isinstance(e, Mul) else "/"
    lhs = pretty(e.lhs)
    if isinstance(e.lhs, (Add, Sub)):
        lhs = f"({lhs})"
    rhs = pretty(e.rhs)
    if isinstance(e.rhs, (Add, Sub, Mul, Div)):
        rhs = f"({rhs})"
    return f"{lhs}{op}{rhs}"


def to_ratfun(e: Expr, field: Field, arity: int) -> RatFunN:
    """Symbolic expansion into a canonical rational function.  Raises
    ZeroDenominator if some subexpression divides by the zero function."""
    one = PolyN.const(field, arity, field.one)
    if isinstance(e, IntLit):
        return normalize_ratfunn(PolyN.const(field, arity, field.from_int(e.value)), one)
    if isinstance(e, Var):
        return normalize_ratfunn(PolyN.var(field, arity, e.index), one)
    if isinstance(e, Neg):
        return -to_ratfun(e.arg, field, arity)
    if isinstance(e, Pow):
        b = to_ratfun(e.base, field, arity)
        return normalize_ratfunn(b.num ** e.exponent, b.den ** e.exponent)
    a = to_ratfun(e.lhs, field, arity)
    b = to_ratfun(e.rhs, field, arity)
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    return a / b
