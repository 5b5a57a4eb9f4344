"""Arithmetic expression language for defining oracles.

Grammar (see docs/grammar.ebnf): precedence ^ > unary minus > * / > + -,
with * / + - left-associative and ^ right-associative over literal
nonnegative integer exponents.  An exponent chain such as 2^3^2 is folded
at parse time; every literal and folded value is capped at MAX_EXPONENT, and
so is the product of the exponents along every chain of nested powers, as in
(x1^4*x2)^8.  Parentheses, unary minuses and exponent chain links nest at
most MAX_NESTING deep; a flat chain of terms may be of any length.
Variables are x1..x<arity>.  Whitespace is insignificant.  Parse errors
carry the byte offset and the expectation set.

Division by zero during evaluation is a domain hole, not an error:
eval_expr returns None so the reconstruction pipeline can resample past
poles.  Otherwise it returns an element of the given field, whatever the
coordinates' types, and builds one field element per point.

An expression is a straight-line program (Kaltofen, JACM 1988).  eval_expr
compiles each (tree, field) once, with an explicit stack, into Python
source of one or two integer statements per node, and keeps the last
program: a query then costs its arithmetic and no tree walk.  A candidate
`ratfun.RatFunN` runs on the same compiler, with a program of its own that
loops over a list of points and gives each one's value as an integer pair
(num, den), building no field element.  Over
F_p the program works on residues, with a (num, den) pair only above a Div.
Over Q a division-free subtree is an integer over a power product of the
coordinates' denominators fixed by its degrees; above a Div it is a
reduced (num, den) pair.  The source names every integer it uses; no input
text goes into it.  So programs of one shape, such as the candidates of one
support, share their source, and its compiled code is cached by the text.

Trees compare and hash by structure, over the same explicit-stack walk, so
a tree of any depth or length can be compared.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    ExponentTooLarge,
    ExprSyntaxError,
    NegativeExponent,
    NestingTooDeep,
    UnknownVariable,
)
from .fields import Field, FpElement, PrimeField
from .poly import PolyN, _ratio, _residue
from .records import Frozen


MAX_EXPONENT = 1024
# Parenthesised groups, unary minuses and exponent chain links open inside
# one another at most this deep.  The parser recurses through each (five
# frames per parenthesis), so this keeps it well inside Python's default
# recursion limit of 1000.
MAX_NESTING = 100
# Compiled programs kept, by source text.
PROGRAM_CACHE_SIZE = 256


class _Node(Frozen):
    """Immutable, with structural == and hash by the flat form of
    `_signature`; the repr, the refusal to assign and pickling are
    `records.Frozen`'s."""
    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or _signature(self) == _signature(other)

    def __hash__(self):
        return hash(_signature(self))


class IntLit(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class Var(_Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Add(_Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "Expr", rhs: "Expr"):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Sub(_Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "Expr", rhs: "Expr"):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Mul(_Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "Expr", rhs: "Expr"):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Div(_Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "Expr", rhs: "Expr"):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg: "Expr"):
        object.__setattr__(self, "arg", arg)


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: "Expr", exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


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
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def nest(self, offset: int):
        """Enter one more level of nesting, opened at `offset`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise NestingTooDeep(offset, MAX_NESTING)

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
            self.nest(self.take()[2])
            e = Neg(self.factor())
            self.depth -= 1
            return e
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
            self.nest(self.take()[2])
            e = e ** self.exponent()   # both sides <= MAX_EXPONENT here
            self.depth -= 1
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
            self.nest(self.take()[2])
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        raise ExprSyntaxError(t[2], {"integer", "variable", "("})


def _power_depth(e: Expr) -> int:
    """Largest product of the exponents along a chain of nested powers in
    `e`: the factor by which they raise a degree or the size of a value.
    The walk keeps its own stack, so a long chain of sums cannot overflow
    Python's."""
    depth = 0
    stack = [(e, 1)]
    while stack:
        node, k = stack.pop()
        t = type(node)
        if t is Pow:
            stack.append((node.base, k * node.exponent))
        elif t is Neg:
            stack.append((node.arg, k))
        elif t is IntLit or t is Var:
            depth = max(depth, k)
        else:
            stack += ((node.lhs, k), (node.rhs, k))
    return depth


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

    Runs the straight-line program of (e, field), compiled on first use and
    kept while the same tree and field (by identity) come back; one field
    element is built per defined point.  Each coordinate must be an int or
    an element of `field`, whether or not `e` uses it; anything else is
    FieldMismatch."""
    global _LAST
    last = _LAST
    if last[0] is not e or last[1] is not field:
        last = _LAST = (e, field, _compile(e, field))
    return last[2](point)


# (tree, field, program) of the last eval_expr call, replaced as one tuple
_LAST = (None, None, None)


def _postorder(e: Expr) -> list:
    """The nodes of `e`, each after its operands (lhs before rhs), found
    with an explicit stack: a tree may be far deeper than Python's
    recursion limit."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        t = type(node)
        if t is Neg:
            stack.append(node.arg)
        elif t is Pow:
            stack.append(node.base)
        elif t is not IntLit and t is not Var:
            stack += (node.lhs, node.rhs)
    out.reverse()
    return out


def _signature(e: Expr) -> tuple:
    """`e` as one flat tuple: each node's type, and its value, index or
    exponent, in postorder.  Every type takes a fixed number of operands,
    so equal tuples mean structurally equal trees."""
    out = []
    for node in _postorder(e):
        t = type(node)
        out.append(t)
        if t is IntLit:
            out.append(node.value)
        elif t is Var:
            out.append(node.index)
        elif t is Pow:
            out.append(node.exponent)
    return tuple(out)


class _Program:
    """Source text and namespace of one straight-line program.  The source
    holds only generated names and operators: every integer, literal or
    exponent, is bound by name in the namespace.

    A program runs on one point and returns its value, or, when `batch`,
    runs on a list of points and returns the list of their (num, den)
    pairs (see `_compile`)."""

    def __init__(self, names: dict, batch: bool):
        self.names = names
        self.batch = batch
        self.lines = []
        self.consts = {}
        self.values = {}        # right-hand side -> the name it is bound to

    def const(self, value: int) -> str:
        name = self.consts.get(value)
        if name is None:
            name = self.consts[value] = f"k{len(self.consts)}"
            self.names[name] = value
        return name

    def let(self, expr: str) -> str:
        """A name bound to `expr`.  Every name is bound once, so an
        expression met again reuses the name it was first bound to."""
        name = self.values.get(expr)
        if name is None:
            name = self.values[expr] = f"t{len(self.values)}"
            self.lines.append(f"{name} = {expr}")
        return name

    def pole(self, test: str):
        """A line that ends the point's evaluation at a pole when `test`
        holds."""
        self.lines.append(f"if {test}: put(None); continue" if self.batch
                          else f"if {test}: return None")

    def finish(self, num: str, den, value: str):
        """The last line: the point's pair (num, den), a missing den being 1,
        or else its value, the expression `value`."""
        self.lines.append(f"put(({num}, {den or 1}))" if self.batch else f"return {value}")

    def build(self, prelude: list):
        if self.batch:
            body = "\n        ".join(prelude + self.lines)
            source = ("def run(pts):\n    out = []\n    put = out.append\n"
                      f"    for pt in pts:\n        {body}\n    return out\n")
        else:
            body = "\n    ".join(prelude + self.lines)
            source = f"def run(pt):\n    {body}\n"
        exec(_code(source), self.names)
        return self.names["run"]


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _code(source: str):
    """The compiled code of a program's source.  Running it binds `run` in
    the namespace it is given, so each program keeps its own constants."""
    return compile(source, "<program>", "exec")


def _compile(e: Expr, field: Field, width: int | None = None):
    """The straight-line program of `e` over `field`.  Each coordinate is
    converted once, then every node of the tree is one or two lines of
    integer arithmetic.

    Without `width` the program has eval_expr's contract: a function of one
    point, which may be longer than the largest variable of `e`, giving its
    value or None.  With it the program is a candidate `RatFunN`'s in
    `width` variables: a function of a list of points, each of exactly
    `width` coordinates (else ValueError), giving for each one the integers
    (num, den) whose quotient is its value, den nonzero (mod p over F_p),
    or None at a pole; the loop over the points is part of the program."""
    order = _postorder(e)
    batch, fit = True, _refuse
    if width is None:
        batch, fit = False, _fit
        width = 1 + max((n.index for n in order if type(n) is Var), default=-1)
    if isinstance(field, PrimeField):
        return _compile_fp(order, width, fit, field, batch)
    return _compile_q(order, width, fit, batch)


def _fit(pt: tuple, width: int, convert) -> tuple:
    """The first `width` coordinates of a point of another length, after
    `convert` has checked every one of them."""
    for x in pt:
        convert(x)
    if len(pt) < width:
        raise ValueError(f"point has {len(pt)} coordinates; the expression uses x{width}")
    return pt[:width]


def _refuse(pt: tuple, width: int, convert):
    """A point of another length than the exact `width`."""
    raise ValueError(f"point has {len(pt)} coordinates; expected {width}")


def _unpack(prog: _Program, width: int, fit) -> list:
    """Prelude lines that bind x0.. to the coordinates, after passing a
    point that is not `width` long to `fit`."""
    prog.names["FIT"] = fit
    w = prog.const(width)
    lines = [f"if len(pt) != {w}: pt = FIT(pt, {w}, R)"]
    return lines + ["".join(f"x{i}, " for i in range(width)) + "= pt"] if width else lines


def _compile_fp(order: list, width: int, fit, field: PrimeField, batch: bool):
    """F_p: a value is a residue, or a (num, den) pair of them below a Div.
    Products are reduced mod p at once; sums and negations are reduced by
    the next product, so they grow only by the size of the tree."""
    p = field.p
    prog = _Program({"E": FpElement, "F": field, "P": p, "R": lambda x: _residue(x, p)},
                    batch)
    prelude = _unpack(prog, width, fit) + [
        f"x{i} = x{i}.residue if type(x{i}) is E and x{i}.field is F else R(x{i})"
        for i in range(width)]
    stack = []                  # (num, den or None) per pending operand
    for node in order:
        t = type(node)
        if t is Var:
            stack.append((f"x{node.index}", None))
        elif t is IntLit:
            stack.append((prog.const(node.value % p), None))
        elif t is Neg:
            n, d = stack.pop()
            stack.append((prog.let(f"-{n}"), d))
        elif t is Pow:
            n, d = stack.pop()
            k = prog.const(node.exponent)
            stack.append((prog.let(f"pow({n}, {k}, P)"),
                          d and prog.let(f"pow({d}, {k}, P)")))
        else:
            bn, bd = stack.pop()
            an, ad = stack.pop()
            if t is Div:
                prog.pole(f"not {bn} % P")
                stack.append((_times(prog, an, bd), _times(prog, ad, bn)))
            elif t is Mul:
                stack.append((prog.let(f"{an} * {bn} % P"), _times(prog, ad, bd)))
            else:
                op = " + " if t is Add else " - "
                if ad is None and bd is None:
                    stack.append((prog.let(f"{an}{op}{bn}"), None))
                    continue
                lhs = f"{an} * {bd}" if bd else an
                rhs = f"{bn} * {ad}" if ad else bn
                stack.append((prog.let(f"({lhs}{op}{rhs}) % P"), _times(prog, ad, bd)))
    n, d = stack.pop()
    prog.finish(n, d, f"E({n} * pow({d}, -1, P), F)" if d else f"E({n}, F)")
    return prog.build(prelude)


def _times(prog: _Program, a, b):
    """The name of a*b mod p, where a missing factor (None) is 1."""
    if a is None or b is None:
        return a or b
    return prog.let(f"{a} * {b} % P")


def _compile_q(order: list, width: int, fit, batch: bool):
    """Q, with coordinates a_i/b_i.  A division-free subtree is an integer
    N over the static power product B^D = prod b_i^D_i, D the subtree's
    degree in each variable, so it costs no gcd.  A subtree with a Div is a
    reduced pair (num, den > 0), kept reduced by the gcd steps of
    Fraction's own arithmetic, so every intermediate has the size it has as
    a Fraction; only the root's pair is left to the one Fraction built."""
    prog = _Program({"Fr": Fraction, "R": _ratio, "gcd": gcd}, batch)
    prelude = _unpack(prog, width, fit)
    for i in range(width):
        prelude += [f"if type(x{i}) is Fr: a{i} = x{i}.numerator; b{i} = x{i}.denominator",
                    f"else: a{i}, b{i} = R(x{i})"]
    powers = {}

    def bpow(degs) -> list:
        """Factors of B^degs, each power named once."""
        out = []
        for i, k in enumerate(degs):
            if k == 1:
                out.append(f"b{i}")
            elif k:
                name = powers.get((i, k))
                if name is None:
                    name = powers[(i, k)] = prog.let(f"b{i} ** {prog.const(k)}")
                out.append(name)
        return out

    def scaled(n: str, degs) -> str:
        """The name of n * B^degs."""
        factors = bpow(degs)
        return prog.let(" * ".join([n] + factors)) if factors else n

    def pair(v) -> tuple:
        """A value as a reduced pair."""
        if v[0] == "p":
            return v[1], v[2]
        n, degs = v[1], v[2]
        den = bpow(degs)
        if not den:
            return n, "1"
        d = prog.let(" * ".join(den))
        g = prog.let(f"gcd({n}, {d})")
        return prog.let(f"{n} // {g}"), prog.let(f"{d} // {g}")

    zero = (0,) * width
    stack = []      # ("h", N, D) or ("p", num, den) per pending operand
    root = order[-1]
    for node in order:
        t = type(node)
        if t is Var:
            degs = list(zero)
            degs[node.index] = 1
            stack.append(("h", f"a{node.index}", tuple(degs)))
        elif t is IntLit:
            stack.append(("h", prog.const(node.value), zero))
        elif t is Neg:
            kind, n, d = stack.pop()
            stack.append((kind, prog.let(f"-{n}"), d))
        elif t is Pow:
            kind, n, d = stack.pop()
            k = prog.const(node.exponent)
            if kind == "h":
                stack.append(("h", prog.let(f"{n} ** {k}"),
                              tuple(node.exponent * x for x in d)))
            else:
                stack.append(("p", prog.let(f"{n} ** {k}"), prog.let(f"{d} ** {k}")))
        else:
            b = stack.pop()
            a = stack.pop()
            if a[0] == b[0] == "h" and t is not Div:
                _, an, ad = a
                _, bn, bd = b
                if t is Mul:
                    stack.append(("h", prog.let(f"{an} * {bn}"),
                                  tuple(x + y for x, y in zip(ad, bd))))
                    continue
                degs = tuple(map(max, ad, bd))
                lhs = " * ".join([an] + bpow([x - y for x, y in zip(degs, ad)]))
                rhs = " * ".join([bn] + bpow([x - y for x, y in zip(degs, bd)]))
                op = " + " if t is Add else " - "
                stack.append(("h", prog.let(f"{lhs}{op}{rhs}"), degs))
            elif a[0] == b[0] == "h":
                # (Na / B^Da) / (Nb / B^Db): cancel B^min(Da, Db) statically
                _, an, ad = a
                _, bn, bd = b
                prog.pole(f"not {bn}")
                n = scaled(an, [max(0, y - x) for x, y in zip(ad, bd)])
                d = scaled(bn, [max(0, x - y) for x, y in zip(ad, bd)])
                if node is root:
                    stack.append(("p", n, d))
                    continue
                g = prog.let(f"gcd({n}, {d}) if {d} > 0 else -gcd({n}, {d})")
                stack.append(("p", prog.let(f"{n} // {g}"), prog.let(f"{d} // {g}")))
            else:
                stack.append(("p",) + _pair_op(prog, t, pair(a), pair(b)))
    kind, n, d = stack.pop()
    if kind == "h":
        d = " * ".join(bpow(d)) or None
    prog.finish(n, d, f"Fr({n}, {d})" if d else f"Fr({n})")
    return prog.build(prelude)


def _pair_op(prog: _Program, t, a: tuple, b: tuple) -> tuple:
    """Lines for the reduced pair a (op) b, op one of Add, Sub, Mul, Div."""
    (na, da), (nb, db) = a, b
    let = prog.let
    if t is Mul:
        g = let(f"gcd({na}, {db})")
        h = let(f"gcd({nb}, {da})")
        return (let(f"({na} // {g}) * ({nb} // {h})"),
                let(f"({da} // {h}) * ({db} // {g})"))
    if t is Div:
        # g takes the sign of nb, so the denominator comes out positive
        prog.pole(f"not {nb}")
        g = let(f"gcd({na}, {nb}) if {nb} > 0 else -gcd({na}, {nb})")
        h = let(f"gcd({da}, {db})")
        return (let(f"({na} // {g}) * ({db} // {h})"),
                let(f"({da} // {h}) * ({nb} // {g})"))
    # Knuth, TAOCP 4.5.1: cancel by g = gcd(da, db), then by gcd(sum, g)
    op = " + " if t is Add else " - "
    g = let(f"gcd({da}, {db})")
    s = let(f"{da} // {g}")
    n = let(f"{na} * ({db} // {g}){op}{nb} * {s}")
    h = let(f"gcd({n}, {g})")
    return let(f"{n} // {h}"), let(f"{s} * ({db} // {h})")


def pretty(e: Expr) -> str:
    """Minimal-parenthesis form that reparses to the identical tree."""
    done = []
    for node in _postorder(e):
        t = type(node)
        if t is IntLit:
            done.append(str(node.value))
        elif t is Var:
            done.append(f"x{node.index + 1}")
        elif t is Neg:
            inner = done.pop()
            bare = isinstance(node.arg, (IntLit, Var, Pow))
            done.append(f"-{inner}" if bare else f"-({inner})")
        elif t is Pow:
            base = done.pop()
            if not isinstance(node.base, (IntLit, Var)):
                base = f"({base})"
            done.append(f"{base}^{node.exponent}")
        else:
            rhs, lhs = done.pop(), done.pop()
            if t is Add or t is Sub:
                op = " + " if t is Add else " - "
                wrap_lhs, wrap_rhs = (), (Add, Sub)
            else:
                op = "*" if t is Mul else "/"
                wrap_lhs, wrap_rhs = (Add, Sub), (Add, Sub, Mul, Div)
            if isinstance(node.lhs, wrap_lhs):
                lhs = f"({lhs})"
            if isinstance(node.rhs, wrap_rhs):
                rhs = f"({rhs})"
            done.append(f"{lhs}{op}{rhs}")
    return done[0]


def to_ratfun(e: Expr, field: Field, arity: int) -> "RatFunN":
    """Symbolic expansion into a canonical rational function.  Raises
    ZeroDenominator if some subexpression divides by the zero function."""
    from .ratfun import normalize_ratfunn   # ratfun imports this module

    one = PolyN.const(field, arity, field.one)
    done = []
    for node in _postorder(e):
        t = type(node)
        if t is IntLit:
            done.append(normalize_ratfunn(
                PolyN.const(field, arity, field.from_int(node.value)), one))
        elif t is Var:
            done.append(normalize_ratfunn(PolyN.var(field, arity, node.index), one))
        elif t is Neg:
            done.append(-done.pop())
        elif t is Pow:
            b = done.pop()
            done.append(normalize_ratfunn(b.num ** node.exponent, b.den ** node.exponent))
        else:
            b, a = done.pop(), done.pop()
            done.append(a + b if t is Add else a - b if t is Sub
                        else a * b if t is Mul else a / b)
    return done[0]
