import random
from fractions import Fraction

import pytest

from ratrecon.errors import (
    ExponentTooLarge,
    ExprSyntaxError,
    NegativeExponent,
    UnknownVariable,
    ZeroDenominator,
)
from ratrecon.expr import (
    MAX_EXPONENT,
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    eval_expr,
    from_json_ast,
    parse,
    pretty,
    to_json_ast,
    to_ratfun,
)
from ratrecon.fields import QQ, PrimeField, random_element


def q(n, d=1):
    return Fraction(n, d)


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


def test_exponent_cap_in_json_ast():
    base = {"node": "var", "index": 0}
    assert from_json_ast({"node": "pow", "base": base, "exponent": MAX_EXPONENT}) \
        == Pow(Var(0), MAX_EXPONENT)
    with pytest.raises(ExponentTooLarge):
        from_json_ast({"node": "pow", "base": base, "exponent": MAX_EXPONENT + 1})
    with pytest.raises(ExponentTooLarge):
        from_json_ast({"node": "pow", "base": base, "exponent": str(3 ** 3 ** 3)})


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


def test_nested_power_cap_in_json_ast():
    inner = {"node": "pow", "base": {"node": "var", "index": 0}, "exponent": 1024}
    mul = {"node": "mul", "lhs": inner, "rhs": {"node": "int", "value": "9"}}
    assert from_json_ast({"node": "pow", "base": mul, "exponent": 1}) \
        == Pow(Mul(Pow(Var(0), 1024), IntLit(9)), 1)
    for base in (inner, mul):
        with pytest.raises(ExponentTooLarge):
            from_json_ast({"node": "pow", "base": base, "exponent": 2})


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


def test_pretty_reparse_fixed_point():
    rng = random.Random(51)
    for _ in range(200):
        t = rand_ast(rng, 3, rng.randint(1, 4))
        s = pretty(t)
        assert parse(s, 3) == t
        assert pretty(parse(s, 3)) == s


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


def test_json_ast_roundtrip():
    rng = random.Random(53)
    for _ in range(100):
        t = rand_ast(rng, 2, rng.randint(1, 4))
        assert from_json_ast(to_json_ast(t)) == t


def test_ratfun_json_ast_roundtrip():
    from ratrecon.expr import ratfun_from_json_ast, ratfun_to_json_ast
    from ratrecon.poly import PolyN
    from ratrecon.ratfun import normalize_ratfunn

    rng = random.Random(54)
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
            back = ratfun_from_json_ast(ratfun_to_json_ast(f), field, 2)
            assert back.same_function(f)


def test_canonical_text_parses_back():
    from ratrecon.ratfun import format_ratfunn
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
