import copy
import io
import math
import pickle
import random
import re
import tokenize
from fractions import Fraction
from math import gcd

import pytest

from ratrecon.errors import (
    ExponentTooLarge,
    ExprSyntaxError,
    FieldMismatch,
    NegativeExponent,
    NestingTooDeep,
    UnknownVariable,
    ZeroDenominator,
)
from ratrecon import expr
from ratrecon.expr import (
    MAX_EXPONENT,
    MAX_NESTING,
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    eval_expr,
    parse,
    pretty,
    to_ratfun,
)
from ratrecon.fields import QQ, FpElement, PrimeField, random_element
from ratrecon.ratfun import format_ratfunn


def q(n, d=1):
    return Fraction(n, d)


def test_nodes_are_immutable_and_print_their_fields():
    e = parse("(x1*x2 + 1)/(x1 - x2)^2 + -3", 2)
    assert repr(e) == (
        "Add(lhs=Div(lhs=Add(lhs=Mul(lhs=Var(index=0), rhs=Var(index=1)), "
        "rhs=IntLit(value=1)), rhs=Pow(base=Sub(lhs=Var(index=0), rhs=Var(index=1)), "
        "exponent=2)), rhs=Neg(arg=IntLit(value=3)))")
    for node, name in ((e, "lhs"), (e.rhs, "arg"), (e.lhs.rhs, "exponent"), (e, "other")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, IntLit(0))
    with pytest.raises(AttributeError, match="cannot delete field 'rhs'"):
        del e.rhs
    assert pickle.loads(pickle.dumps(e)) == e and copy.deepcopy(e) == e


def test_parse_basic_example():
    e = parse("(x1*x2 + 1)/(x1 - x2)", 2)
    assert e == Div(Add(Mul(Var(0), Var(1)), IntLit(1)), Sub(Var(0), Var(1)))


def test_parse_cube_example():
    e = parse("x1^3 + x1*x2^3", 2)
    assert e == Add(Pow(Var(0), 3), Mul(Var(0), Pow(Var(1), 3)))


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as exc:
        parse("x3", 2)
    assert exc.value.offset == 0
    with pytest.raises(UnknownVariable):
        parse("x1 + y", 2)


def test_precedence():
    assert parse("x1+x2*x1", 2) == Add(Var(0), Mul(Var(1), Var(0)))
    assert parse("-x1^2", 1) == Neg(Pow(Var(0), 2))
    assert parse("2*-x1", 1) == Mul(IntLit(2), Neg(Var(0)))
    assert parse("x1/x2/x1", 2) == Div(Div(Var(0), Var(1)), Var(0))
    assert parse("x1-x2-x1", 2) == Sub(Sub(Var(0), Var(1)), Var(0))


def test_power_right_associative_literal_folding():
    assert parse("2^3^2", 1) == Pow(IntLit(2), 9)
    assert parse("x1^2^3", 1) == Pow(Var(0), 8)
    assert parse("(x1+1)^2", 1) == Pow(Add(Var(0), IntLit(1)), 2)


def test_exponent_cap_at_parse_time():
    # the chain is folded from the right; the first literal or folded value
    # over the cap raises at its own offset, before any larger power is built
    assert parse(f"x1^{MAX_EXPONENT}", 1) == Pow(Var(0), MAX_EXPONENT)
    assert parse("x1^2^10", 1) == Pow(Var(0), 1024)
    for text, offset in (("x1^3^3^3^3", 5), ("x1^1025", 3), ("x1^2^2^2^2^2", 5),
                         ("x1^2^11", 3), ("x1^1^99999", 5)):
        with pytest.raises(ExponentTooLarge) as exc:
            parse(text, 1)
        assert isinstance(exc.value, ExprSyntaxError)
        assert exc.value.offset == offset


def test_nested_power_cap():
    # the product of the exponents along each chain of nested powers is
    # capped, whatever lies between them; these trees are only parsed
    assert parse("(x1^2)^3", 1) == Pow(Pow(Var(0), 2), 3)
    assert parse("x1^1000*x2^1000", 2) == Mul(Pow(Var(0), 1000), Pow(Var(1), 1000))
    assert parse("((x1^32)^32)^1", 1) == Pow(Pow(Pow(Var(0), 32), 32), 1)
    assert parse("(x1^1024)^0", 1) == Pow(Pow(Var(0), 1024), 0)
    for text, offset in (("((x1^1024)^1024)^1024", 11), ("(x1^1024*x1)^1024", 13),
                         ("(9^1024)^1024", 9), ("(-(x1^2)+x2)^513", 13),
                         ("((x1^32)^32)^2", 13)):
        with pytest.raises(ExponentTooLarge) as exc:
            parse(text, 2)
        assert exc.value.offset == offset, text


def test_negative_exponent():
    with pytest.raises(NegativeExponent) as exc:
        parse("x1^-2", 1)
    assert exc.value.offset == 3


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 + + x2", 2)
    assert exc.value.offset == 5
    with pytest.raises(ExprSyntaxError) as exc2:
        parse("(x1", 1)
    assert exc2.value.offset == 3
    assert ")" in exc2.value.expected
    with pytest.raises(ExprSyntaxError) as exc3:
        parse("x1 $ 2", 1)
    assert exc3.value.offset == 3


def test_whitespace_insensitive():
    assert parse("x1 * x2", 2) == parse("x1*x2", 2)
    assert parse(" ( x1 + 1 ) ", 1) == parse("(x1+1)", 1)


def test_eval_examples():
    e = parse("(x1*x2+1)/(x1-x2)", 2)
    assert eval_expr(e, (q(2), q(2)), QQ) is None
    assert eval_expr(e, (q(2), q(1)), QQ) == q(3)
    cube = parse("x1^3 + x1*x2^3", 2)
    assert eval_expr(cube, (q(1), q(2)), QQ) == q(9)
    nested = parse("1/(1/(x1))", 1)
    assert eval_expr(nested, (q(0),), QQ) is None


def test_eval_pow_zero():
    assert eval_expr(parse("x1^0", 1), (q(0),), QQ) == q(1)
    assert eval_expr(parse("0^0", 1), (q(5),), QQ) == q(1)


def rand_ast(rng, arity, depth):
    if depth == 0:
        return rng.choice([IntLit(rng.randint(0, 9)),
                           Var(rng.randrange(arity))])
    kind = rng.randrange(7)
    if kind == 0:
        return IntLit(rng.randint(0, 30))
    if kind == 1:
        return Var(rng.randrange(arity))
    if kind == 2:
        return Neg(rand_ast(rng, arity, depth - 1))
    if kind == 3:
        return Pow(rand_ast(rng, arity, depth - 1), rng.randint(0, 3))
    a, b = rand_ast(rng, arity, depth - 1), rand_ast(rng, arity, depth - 1)
    return rng.choice([Add, Sub, Mul, Div])(a, b)


F101 = PrimeField(101)
FBIG = PrimeField(1000003)


def ref_eval_expr(e, point, field):
    # eval_expr before the integer kernel: one field element per tree node
    if isinstance(e, IntLit):
        return field.from_int(e.value)
    if isinstance(e, Var):
        return point[e.index]
    if isinstance(e, Neg):
        v = ref_eval_expr(e.arg, point, field)
        return None if v is None else -v
    if isinstance(e, Pow):
        v = ref_eval_expr(e.base, point, field)
        return None if v is None else v ** e.exponent
    a = ref_eval_expr(e.lhs, point, field)
    if a is None:
        return None
    b = ref_eval_expr(e.rhs, point, field)
    if b is None:
        return None
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    if b == field.zero:
        return None
    return a / b


def ref_eval_q(e, xs: list):
    # the Q tree walk before the compiled program: the reduced (num, den > 0)
    # pair of `e` at the coordinate pairs `xs`, None if a divisor is zero.
    # The gcd steps are those of Fraction's own arithmetic, so every
    # intermediate has the size it has as a Fraction.
    t = type(e)
    if t is Var:
        return xs[e.index]
    if t is IntLit:
        return e.value, 1
    if t is Neg:
        v = ref_eval_q(e.arg, xs)
        return None if v is None else (-v[0], v[1])
    if t is Pow:
        v = ref_eval_q(e.base, xs)
        if v is None:
            return None
        k = e.exponent
        return v[0] ** k, v[1] ** k
    a = ref_eval_q(e.lhs, xs)
    if a is None:
        return None
    b = ref_eval_q(e.rhs, xs)
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


def assert_same(e, point, field):
    got, want = eval_expr(e, point, field), ref_eval_expr(e, point, field)
    assert type(got) is type(want) and got == want, (pretty(e), point, got, want)
    return got


@pytest.mark.parametrize("field", [QQ, F101, FBIG], ids=["Q", "F101", "F1000003"])
def test_eval_matches_per_node_reference(field):
    # low-height points make divisors vanish often, so the None cases are
    # exercised along with the values
    rng = random.Random(56)
    undefined = 0
    for _ in range(3000):
        t = rand_ast(rng, 3, rng.randint(0, 5))
        pt = tuple(field.from_int(rng.randint(-3, 3)) if field != QQ
                   else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(3))
        got = assert_same(t, pt, field)
        undefined += got is None
        if field == QQ and got is not None:
            # the Q walk keeps its pairs reduced, so no intermediate outgrows
            # the Fraction it stands for
            n, d = ref_eval_q(t, [(x.numerator, x.denominator) for x in pt])
            assert d > 0 and math.gcd(n, d) == 1
    assert undefined > 60


@pytest.mark.parametrize("field", [QQ, F101, FBIG], ids=["Q", "F101", "F1000003"])
def test_eval_fixed_cases(field):
    zero, two = field.zero, field.from_int(2)
    # a zero divisor anywhere makes the whole expression undefined, even
    # where the expanded function is defined
    for text in ("x1/x1", "0*(1/x1)", "(1/x1)^0", "x2 + (x1 - x1)/x1"):
        assert assert_same(parse(text, 2), (zero, two), field) is None
    assert assert_same(parse("(x1/x1)*x2", 2), (two, two), field) == two
    assert assert_same(parse("0^0", 1), (zero,), field) == field.one
    assert assert_same(parse("(0*x1)^0", 1), (two,), field) == field.one
    assert assert_same(parse("x1^0", 1), (zero,), field) == field.one
    big = 10 ** 30 + 7                  # an integer literal above p
    assert assert_same(IntLit(big), (zero,), field) == field.from_int(big)
    assert assert_same(parse(f"{big}*x1 - x1/{big}", 1), (two,), field) is not None
    if field == QQ:
        pt = (q(-3, 4), q(-5, 2))
        assert assert_same(parse("x1*x2 - x1/x2 + (-x2)^3", 2), pt, field) \
            == q(-3, 4) * q(-5, 2) - q(-3, 4) / q(-5, 2) + q(5, 2) ** 3
        assert assert_same(parse("x1/x2", 2), (q(3), q(-6)), field) == q(-1, 2)
        assert assert_same(parse("x1 - x1", 1), (q(-7, 3),), field) == q(0)


def test_eval_long_cancelling_chains():
    # long products and sums that cancel, one of them raised to the cap
    prod = "*".join(["(x1/x1)"] * 300)
    chain = " + ".join(f"x1/x2 - {k}*x2/x1" for k in range(1, 41))
    for field in (QQ, F101, FBIG):
        pt = (field.from_int(3), field.from_int(-5)) if field != QQ else (q(3, 7), q(-5, 2))
        assert assert_same(parse(prod, 1), pt[:1], field) == field.one
        assert assert_same(parse(f"({chain})^1024", 2), pt, field) is not None
        assert assert_same(parse(f"({chain})/({chain})", 2), pt, field) == field.one


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_eval_returns_field_elements_only(field):
    # plain int coordinates embed in every field; the result is always an
    # element of `field`, even for a bare variable
    got = eval_expr(parse("x1", 1), (3,), field)
    assert type(got) is type(field.one) and got == field.from_int(3)
    got = eval_expr(parse("x1*x2 - 1", 2), (-2, field.from_int(5)), field)
    assert type(got) is type(field.one) and got == field.from_int(-11)


def test_eval_foreign_coordinate_is_field_mismatch():
    # every coordinate is checked, whether or not the expression uses it
    for e in (parse("x1", 2), parse("x2 + 1", 2), parse("x1*x2", 2)):
        with pytest.raises(FieldMismatch):
            eval_expr(e, (F101.one, FBIG.one), F101)
        with pytest.raises(FieldMismatch):
            eval_expr(e, (q(1, 2), q(3)), F101)
        with pytest.raises(FieldMismatch):
            eval_expr(e, (q(1, 2), F101.one), QQ)
    with pytest.raises(FieldMismatch):
        eval_expr(parse("1", 1), (FBIG.one,), QQ)


def _count_calls(monkeypatch, cls, name):
    orig = cls.__dict__[name]
    fn = orig.__func__ if isinstance(orig, staticmethod) else orig
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    wrapped = staticmethod(counting) if isinstance(orig, staticmethod) else counting
    monkeypatch.setattr(cls, name, wrapped)
    return calls


def test_one_field_element_per_query(monkeypatch):
    e = parse("(3*x1^2*x2 - 5*x2 + 7)/(x1*x2^2 + 2*x1 - 11)", 2)
    fp_pt = (FBIG.from_int(123), FBIG.from_int(45678))
    q_pt = (q(-7, 3), q(5, 11))
    want_fp, want_q = ref_eval_expr(e, fp_pt, FBIG), ref_eval_expr(e, q_pt, QQ)
    fp_calls = _count_calls(monkeypatch, FpElement, "__init__")
    q_calls = _count_calls(monkeypatch, Fraction, "__new__")
    assert eval_expr(e, fp_pt, FBIG) == want_fp
    assert (len(fp_calls), len(q_calls)) == (1, 0)
    assert eval_expr(e, q_pt, QQ) == want_q
    assert (len(fp_calls), len(q_calls)) == (1, 1)
    # the reference builds one per node, which the counters do see
    ref_eval_expr(e, fp_pt, FBIG)
    assert len(fp_calls) > 10


@pytest.mark.parametrize("field", [QQ, F101, FBIG], ids=["Q", "F101", "F1000003"])
def test_eval_division_inside_other_nodes(field):
    # a Div under Pow, Neg and Sub, zero divisors in branches that do not
    # change the value, and literals above p, at points with zero and
    # equal coordinates
    big = 10 ** 30 + 7
    texts = ["(x1/x2)^3", "-(x1/x2)", "--(x2/x1)^2", "x1 - x2/x1",
             "(x2 - 1/x1)^2 - -(3/x2)", "x1/x2 - x2/x1 - (x1 - x2)/(x1 + x2)",
             "((x1 - x2)/(x1 + 2))^0 - x2", "0*(1/x1)", "(1/x1)^0",
             "x2 + 0*(1/(x1 - x2))", "(x2/x1)^0*x2 - x1/x2/x1",
             f"{big}*x1 + {FBIG.p}*x2 - 101", f"(x1 - {big})/({big}*x2 + 1)",
             f"x1/{FBIG.p} + x2/101"]
    coords = [field.from_int(k) for k in (0, 1, -2, 3)]
    if field == QQ:
        coords += [q(-3, 4), q(5, 2)]
    for text in texts:
        e = parse(text, 2)
        for a in coords:
            for b in coords:
                assert_same(e, (a, b), field)


def test_program_compiled_once_per_tree_and_field(monkeypatch):
    compiled = []
    compile_ = expr._compile

    def counting(e, field):
        compiled.append((e, field))
        return compile_(e, field)

    monkeypatch.setattr(expr, "_compile", counting)
    e = parse("(x1*x2 + 3)/(x1 - x2)", 2)
    pts = [(FBIG.from_int(a), FBIG.from_int(b)) for a, b in ((2, 5), (7, 1), (3, 3))]
    for pt in pts * 2:
        assert_same(e, pt, FBIG)
    assert compiled == [(e, FBIG)]
    # the memo holds one entry: alternating trees, or one tree under two
    # fields, recompile at each switch and still give the right values
    f = parse("x1^2 - 1/x2", 2)
    for pt in pts:
        assert_same(e, pt, FBIG)
        assert_same(f, pt, FBIG)
    assert len(compiled) == 2 * len(pts)       # e was still the memo's entry
    for a, b in ((2, 5), (7, 1), (4, 0)):
        assert_same(f, (F101.from_int(a), F101.from_int(b)), F101)
        assert_same(f, (q(a), q(b)), QQ)
        assert_same(f, (FBIG.from_int(a), FBIG.from_int(b)), FBIG)


def test_generated_source_holds_no_input_text(monkeypatch):
    sources = []
    build = expr._Program.build

    def capture(prog, prelude):
        sources.append("\n".join(prelude + prog.lines))
        return build(prog, prelude)

    monkeypatch.setattr(expr._Program, "build", capture)
    text = "(987654321*x1^7 - x2/x1)^3 + 555/(x2 - 4444)"
    for field in (QQ, F101, FBIG):
        eval_expr(parse(text, 2), (2, 3), field)
    assert len(sources) == 3
    fixed = {"if", "else", "return", "not", "is", "and", "None", "type", "len", "pow", "gcd",
             "pt", "E", "F", "P", "R", "FIT", "Fr", "residue", "field", "numerator",
             "denominator"}
    for src in sources:
        for tok in tokenize.generate_tokens(io.StringIO(src + "\n").readline):
            if tok.type == tokenize.NAME:
                assert tok.string in fixed or re.fullmatch(r"[tkxab]\d+", tok.string), tok
            elif tok.type == tokenize.NUMBER:
                # pow(d, -1, P), a unit denominator, a sign test
                assert tok.string in ("0", "1"), tok


def test_compiled_programs_hold_no_input_integers():
    # a candidate's coefficients and exponents, like an expression's literals,
    # are bound in the namespace, never constants of the compiled code
    big, k = 10 ** 59 + 7, 1000
    tree = parse(f"({big}*x1^{k} + x2)/(x2 - {big})", 2)
    for field in (QQ, F101, FBIG):
        cand = to_ratfun(tree, field, 2)
        cand.eval_or_none((2, 3))
        programs = [cand._program, expr._compile(tree, field)]
        if field == QQ:
            assert big in cand.num.terms.values()
        for run in programs:
            consts = run.__code__.co_consts
            for n in (big, k, big % FBIG.p, big % F101.p):
                assert n in (0, 1) or n not in consts, (field, n)


def test_programs_of_one_shape_compile_once():
    # candidates of one support emit one source: its code is compiled once,
    # and each program still evaluates with its own coefficients.  (Equal
    # integers share a name, so the coefficients here differ from each
    # other and from the point's width 2.)
    shapes = ((3, 5, 7), (13, 9, 4), (11, 6, 8))
    for field in (QQ, F101, FBIG):
        expr._code.cache_clear()
        cands = [to_ratfun(parse(f"({a}*x1*x2 + {b})/(x1 - {c})", 2), field, 2)
                 for a, b, c in shapes]
        values = [cand.eval_or_none((q(2), q(3)) if field == QQ else
                                    (field.from_int(2), field.from_int(3)))
                  for cand in cands]
        info = expr._code.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert values == [field.from_int(a * 6 + b) / field.from_int(2 - c)
                          for a, b, c in shapes]
    assert expr._code.cache_info().maxsize == expr.PROGRAM_CACHE_SIZE


def test_eval_point_length():
    # coordinates past the ones the tree uses are checked, then ignored
    assert eval_expr(parse("x1", 3), (2, 5, 7), F101) == F101.from_int(2)
    assert eval_expr(parse("7", 2), (q(1, 2), 3), QQ) == q(7)
    with pytest.raises(FieldMismatch):
        eval_expr(parse("x1", 3), (2, 5, q(1, 2)), F101)
    with pytest.raises(ValueError):
        eval_expr(parse("x1 + x3", 3), (2, 5), F101)


def test_eval_deep_flat_chains():
    # chains far longer than Python's recursion limit compile and evaluate
    n = 1500
    pt = {QQ: (q(-3, 7), q(5, 2)), F101: (F101.from_int(3), F101.from_int(5)),
          FBIG: (FBIG.from_int(3), FBIG.from_int(5))}
    for field, (a, b) in pt.items():
        assert eval_expr(parse("+".join(["x1"] * n), 1), (a,), field) == a * n
        assert eval_expr(parse("-".join(["x1"] * n), 1), (a,), field) == a * (2 - n)
        assert eval_expr(parse("*".join(["x1"] * n), 1), (a,), field) == a ** n
        assert eval_expr(parse(" + ".join(["x1/x2"] * n), 2), (a, b), field) == a / b * n
        assert eval_expr(parse("/".join(["x1"] * n), 1), (a,), field) == a ** (2 - n)
        assert eval_expr(parse(f"({'+'.join(['x1'] * n)})^2", 1), (a,), field) == (a * n) ** 2


def test_nesting_cap():
    # parentheses, unary minuses and exponent chain links share one depth
    # count; the first level past the cap is an error at its own offset
    cap = MAX_NESTING
    assert parse("(" * cap + "x1" + ")" * cap, 1) == Var(0)
    assert parse("-" * cap + "x1", 1) == Neg(parse("-" * (cap - 1) + "x1", 1))
    assert parse("x1" + "^1" * (cap + 1), 1) == Pow(Var(0), 1)
    assert parse("-(" * (cap // 2) + "x1" + ")" * (cap // 2), 1) is not None
    for text, offset in (("(" * (cap + 1) + "x1" + ")" * (cap + 1), cap),
                         ("-" * (cap + 1) + "x1", cap),
                         ("x1" + "^1" * (cap + 2), 2 * cap + 4),
                         ("-(" * (cap // 2) + "-x1" + ")" * (cap // 2), cap),
                         ("(" * 600 + "x1" + ")" * 600, cap)):
        with pytest.raises(NestingTooDeep) as exc:
            parse(text, 1)
        assert isinstance(exc.value, ExprSyntaxError)
        assert exc.value.offset == offset


def test_power_cap_on_long_chains():
    # the nested-power product is taken without recursing along the chain
    chain = "+".join(["x1"] * 1500)
    assert parse(f"({chain})^1024", 1).exponent == 1024
    with pytest.raises(ExponentTooLarge):
        parse(f"(({chain})^2)^513", 1)


def test_trees_compare_and_hash_without_recursion():
    # a chain far longer than Python's recursion limit, and the deepest
    # nest the parser admits
    chain = "+".join(["x1"] * 1500)
    nest = "(" * MAX_NESTING + "x1 + 2" + ")" * MAX_NESTING
    for text in (chain, nest):
        a, b = parse(text, 1), parse(text, 1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
    assert parse(chain, 1) != parse(chain[:-2] + "2", 1)
    assert parse(chain, 1) != parse(chain.replace("+", "-", 1), 1)
    assert parse("x1^2", 1) != parse("x1^3", 1) and parse("x1", 2) != parse("x2", 2)
    assert parse("x1 + 2", 1) != parse("x1 + 2", 1).lhs and Var(0) != IntLit(0)
    assert Var(0) != 0 and Var(0) == Var(0)


def test_pretty_reparse_fixed_point():
    rng = random.Random(51)
    for _ in range(200):
        t = rand_ast(rng, 3, rng.randint(1, 4))
        s = pretty(t)
        assert parse(s, 3) == t
        assert pretty(parse(s, 3)) == s


def test_pretty_and_to_ratfun_walk_a_long_chain_without_recursion():
    # a left-nested chain of 1500 additions, deeper than the recursion
    # limit; strings are compared because the trees' own == recurses
    text = " + ".join(["x1"] * 1500)
    tree = parse(text, 1)
    assert pretty(tree) == text
    assert format_ratfunn(to_ratfun(tree, QQ, 1)) == "(1500*x1)/(1)"
    assert pretty(parse("-(x1 - x2)*(x1/x2)^3 - (1 + x2)", 2)) == \
        "-(x1 - x2)*(x1/x2)^3 - (1 + x2)"


def test_eval_matches_symbolic_expansion():
    rng = random.Random(52)
    field = PrimeField(1000003)
    done = 0
    while done < 100:
        t = rand_ast(rng, 2, rng.randint(1, 3))
        try:
            f = to_ratfun(t, field, 2)
        except ZeroDenominator:
            continue
        pt = (random_element(field, rng, 10), random_element(field, rng, 10))
        ev = eval_expr(t, pt, field)
        sym = f.eval_or_none(pt)
        # dom(expression) is a subset of dom(expanded function): agreement is
        # required wherever the expression itself evaluates
        if ev is not None:
            assert sym == ev
        done += 1


def test_to_ratfun_zero_denominator():
    with pytest.raises(ZeroDenominator):
        to_ratfun(parse("1/(x1-x1)", 1), QQ, 1)


def test_canonical_text_parses_back():
    from ratrecon.poly import PolyN
    from ratrecon.ratfun import normalize_ratfunn

    rng = random.Random(55)
    for field in (QQ, PrimeField(1000003)):
        for _ in range(20):
            terms = {(rng.randint(0, 3), rng.randint(0, 3)):
                     random_element(field, rng, 9) for _ in range(4)}
            den_terms = {(rng.randint(0, 2), rng.randint(0, 2)):
                         random_element(field, rng, 9) for _ in range(3)}
            den = PolyN(field, 2, den_terms)
            if den.is_zero():
                continue
            f = normalize_ratfunn(PolyN(field, 2, terms), den)
            text = format_ratfunn(f)
            back = to_ratfun(parse(text, 2), field, 2)
            assert back.same_function(f)
