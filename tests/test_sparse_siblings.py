"""Later siblings solved on the first sibling's support, against the full
recursion.

The full recursion is the engine with every sparse solve made to fall back,
the tree in which every node recurses.  The chain must give its result,
verification, classification fields and root anchors; each node that
recursed in the chain must have the anchors of the full tree's node at its
path; and on a faithful oracle every node that returns, recursed or
solved, holds a result that would pass its own check, though only the
root's is checked.  A wrong solve shows at the root: its combine fails or
its check does, and the unlucky-anchor retry leaves the sibling out.

A solved sibling is scaled, not reduced: its result is the function that
`normalize_ratfunn` makes of it, with the same parts wherever that gcd is
1.  At an anchor where the truth's numerator and denominator share a
factor, the full tree's reduced child does not combine, and the chain's
unreduced one may: the chain then draws fewer anchors
(`test_solve_keeps_the_factor_of_an_unlucky_anchor`)."""

import importlib
import random
from fractions import Fraction

import pytest

from ratrecon.expr import parse, to_ratfun
from ratrecon.fields import QQ, PrimeField, _draw_point, derive_rng
from ratrecon.poly import PolyN, gcd_polyn
from ratrecon.ratfun import format_ratfunn, normalize_ratfunn
from ratrecon.reconstruct import (
    SPARSE_DRAWS_PER_ROW,
    ReconConfig,
    SliceOracle,
    reconstruct,
)
from test_level_classes import (
    expr_oracle,
    final_tree,
    rand_sparse,
    recursed,  # noqa: F401  (fixture)
    root_anchors,
)

engine = importlib.import_module("ratrecon.reconstruct")

FP101 = PrimeField(101)
FP = PrimeField(1000003)


@pytest.fixture(autouse=True)
def solves_are_scaled_not_reduced(monkeypatch):
    """Checks every sparse solve's result against `normalize_ratfunn`."""
    solve = engine._solve_on_support

    def checked(oracle, template, cfg, path):
        result = solve(oracle, template, cfg, path)
        if result is not None:
            reduced = normalize_ratfunn(result.num, result.den)
            assert result.same_function(reduced)
            if gcd_polyn(result.num, result.den).is_constant():
                assert (result.num, result.den) == (reduced.num, reduced.den)
        return result

    monkeypatch.setattr(engine, "_solve_on_support", checked)


def full_recursion(oracle, cfg, monkeypatch):
    """The report and the recursed nodes of the full tree.  Run it after
    taking the chain's `final_tree`: its calls pass through the spies."""
    with monkeypatch.context() as m:
        found = {}
        level = engine._reconstruct_level

        def spy(oracle, cfg, path, leaves):
            for q in [q for q in found if q[:len(path)] == path]:
                del found[q]
            node = level(oracle, cfg, path, leaves)
            found[path] = node.anchors[0] if node.anchors else []
            return node

        m.setattr(engine, "_solve_on_support", lambda *args: None)
        m.setattr(engine, "_reconstruct_level", spy)
        report = reconstruct(oracle, cfg)
    return report, final_tree(found)


def assert_chain_matches_full(report, tree, oracle, cfg, monkeypatch):
    """`report` and `tree`, the chain's recursed nodes, against the full
    recursion; the node counts sum to the nodes of the tree."""
    arity = oracle.arity
    full, full_nodes = full_recursion(oracle, cfg, monkeypatch)
    chain, whole = report.to_json(), full.to_json()
    for key in ("result", "verification", "class_histogram", "classify_failures"):
        assert chain[key] == whole[key], key
    assert chain["anchors"][0] == whole["anchors"][0]
    assert tree == {path: full_nodes[path] for path in tree}
    inner = {path: anchors for path, anchors in tree.items() if anchors}
    assert report.anchors == [sum((a for path, a in inner.items() if len(path) == k), [])
                              for k in range(arity - 1)]
    nodes = 1 + sum(len(anchors) for anchors in tree.values())
    assert chain["nodes"]["recursed"] + chain["nodes"]["sparse"] == nodes
    assert chain["nodes"]["recursed"] == len(tree)
    assert whole["nodes"]["recursed"] == len(full_nodes)
    assert whole["nodes"]["sparse"] == 0


@pytest.mark.parametrize("field", [QQ, FP101, FP], ids=["q", "fp101", "fp1000003"])
@pytest.mark.parametrize("arity", [3, 4, 5])
def test_chain_matches_full_recursion(field, arity, recursed, monkeypatch):
    rng = random.Random(f"chain/{field.descriptor()}/{arity}")
    for _ in range(3 if arity < 5 else 1):
        f = rand_sparse(field, rng, arity)
        oracle = SliceOracle(arity, field, f.eval_or_none)
        cfg = ReconConfig(seed=rng.getrandbits(32))
        recursed.clear()
        report = reconstruct(oracle, cfg)
        assert report.result.same_function(f), format_ratfunn(f)
        assert_chain_matches_full(report, final_tree(recursed), oracle, cfg, monkeypatch)


@pytest.fixture
def outcomes(monkeypatch):
    """(path, what) per sibling: "solved" or "none" from the sparse solve."""
    log = []
    solve = engine._solve_on_support

    def solve_spy(oracle, template, cfg, path):
        result = solve(oracle, template, cfg, path)
        log.append((path, "none" if result is None else "solved"))
        return result

    monkeypatch.setattr(engine, "_solve_on_support", solve_spy)
    return log


def test_sibling_on_vanishing_hyperplane_is_singular(outcomes, recursed, monkeypatch):
    # On the root's second anchor x3 = 0 the numerator vanishes: the zero
    # function fits the first sibling's support with every denominator on
    # it, so the system is singular and the sibling recurses.  The zero
    # child does not combine, so the root draws a fifth anchor, whose child
    # (4,) is solved on the support.
    text = "(4*x1^2*x3 - 4*x1*x2*x3 + x1*x3)/(x1*x2 + 36*x2*x3^2 - 12)"
    oracle = expr_oracle(text, 3, QQ)
    cfg = ReconConfig(seed=2004327310)
    report = reconstruct(oracle, cfg)
    assert format_ratfunn(report.result) == text
    assert outcomes == [((1,), "none"), ((2,), "solved"), ((3,), "solved"),
                        ((4,), "solved")]
    assert len(report.anchors[0]) == 5
    assert_chain_matches_full(report, final_tree(recursed), oracle, cfg, monkeypatch)


@pytest.mark.parametrize("field", [FP101, FP], ids=["fp101", "fp1000003"])
def test_degenerate_first_child_fails_the_check(field, outcomes, recursed, monkeypatch):
    # The first root anchor b0 is where the x2-degree drops: the first
    # child is x1 + b0^2, whose support misses x1*x2, so no sibling fits
    # it, a check row fails, and every sibling recurses.
    cfg = ReconConfig(seed=7)
    b0 = root_anchors("x3*x1*x2 + x3^2 + x1", 3, field, cfg)[0]
    text = f"(x3 - {b0})*x1*x2 + x3^2 + x1"
    oracle = expr_oracle(text, 3, field)
    outcomes.clear()
    recursed.clear()
    report = reconstruct(oracle, cfg)
    assert report.anchors[0][0] == b0
    truth = to_ratfun(parse(text, 3), field, 3)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    assert outcomes == [((1,), "none"), ((2,), "none")]
    assert report.to_json()["nodes"]["fallbacks"] == 2
    assert_chain_matches_full(report, final_tree(recursed), oracle, cfg, monkeypatch)


def test_wrong_solve_is_caught_by_verification(outcomes, recursed):
    # On the second root anchor x3 = b1 the oracle answers the truth's
    # restriction to x3 = b1 + 1 at the points of that sibling's sparse
    # stream, and the truth everywhere else.  The solve finds that function
    # on the first sibling's support and its check rows, drawn from the
    # same stream, agree.  It has the root's class in x3, so the root
    # combines it, and the root's check rejects the result.  The
    # unlucky-anchor retry draws a fourth anchor, solves its sibling and
    # combines it with the others but the wrong one: the truth, which
    # passes.
    text = "(x1*x2 + x3)/(x1 + x2 + x3 + 1)"
    truth = to_ratfun(parse(text, 3), FP, 3)
    cfg = ReconConfig(seed=3)
    b1 = root_anchors(text, 3, FP, cfg)[1]
    draw = FP._sampler(derive_rng(cfg.seed, "sparse", 1), cfg.height_bound)
    lied = {_draw_point(draw, 2)[1] for _ in range(100)}

    def fn(pt):
        if pt[2] == b1 and pt[:2] in lied:
            return truth.eval_or_none(pt[:2] + (b1 + FP.one,))
        return truth.eval_or_none(pt)

    outcomes.clear()
    recursed.clear()
    report = reconstruct(SliceOracle(3, FP, fn), cfg)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    assert outcomes == [((1,), "solved"), ((2,), "solved"), ((3,), "solved")]
    assert len(report.anchors[0]) == 4 and report.anchors[0][1] == b1
    # only the first child recursed
    leaves = {(0, i): [] for i in range(len(report.anchors[1]))}
    assert final_tree(recursed) == {(): report.anchors[0], (0,): report.anchors[1],
                                    **leaves}
    assert report.to_json()["nodes"] == {"recursed": 2 + len(leaves), "sparse": 3,
                                         "fallbacks": 0}


def test_sibling_falls_back_when_the_check_rows_run_out(outcomes):
    # On the second root anchor x3 = b1 the oracle is defined at the first
    # four points of the sibling's sparse stream, the kernel rows of the
    # first sibling's five-term support, and undefined at the rest of that
    # stream: the check rows run out, the solve gives up, and the sibling
    # recurses to the truth.
    text = "(x1*x2 + x3)/(x1 + x2 + x3 + 1)"
    truth = to_ratfun(parse(text, 3), FP, 3)
    cfg = ReconConfig(seed=3)
    b1 = root_anchors(text, 3, FP, cfg)[1]
    draw = FP._sampler(derive_rng(cfg.seed, "sparse", 1), cfg.height_bound)
    stream = [_draw_point(draw, 2)[1] for _ in range(
        SPARSE_DRAWS_PER_ROW * (4 + cfg.validation_extra))]
    holes, asked = set(stream[4:]), set()

    def fn(pt):
        if pt[2] == b1 and pt[:2] in holes:
            asked.add(pt[:2])
            return None
        return truth.eval_or_none(pt)

    outcomes.clear()
    report = reconstruct(SliceOracle(3, FP, fn), cfg)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    assert outcomes[0] == ((1,), "none")
    assert asked == holes
    assert report.to_json()["nodes"]["fallbacks"] == 1


def polyn(field, nvars, terms):
    return PolyN(field, nvars, {e: field.from_int(c) for e, c in terms.items()})


def test_solve_falls_back_when_the_draws_run_out():
    # an oracle undefined everywhere: every draw is spent, none gives a row
    calls = []
    oracle = SliceOracle(2, FP, lambda pt: calls.append(pt))
    template = normalize_ratfunn(polyn(FP, 2, {(1, 1): 1, (0, 0): 3}),
                                 polyn(FP, 2, {(1, 0): 1, (0, 0): 1}))
    cfg = ReconConfig(seed=1)
    assert engine._solve_on_support(oracle, template, cfg, (1,)) is None
    assert len(calls) == SPARSE_DRAWS_PER_ROW * (4 - 1 + cfg.validation_extra)


def test_solve_falls_back_on_a_zero_denominator(monkeypatch):
    # Every point drawn lies on the line x1 = 5, where the template's
    # numerator x1 - 5 vanishes: the kernel is (x1 - 5, 0), a zero
    # denominator.
    rng = random.Random(0)
    five = FP.from_int(5)
    line = iter([((), (five, FP.from_int(rng.randrange(FP.p)))) for _ in range(50)])
    monkeypatch.setattr(engine, "_draw_point", lambda draw, n: next(line))
    oracle = SliceOracle(2, FP, lambda pt: pt[1] * pt[1])
    template = normalize_ratfunn(polyn(FP, 2, {(1, 0): 1, (0, 0): 2}),
                                 polyn(FP, 2, {(0, 0): 1}))
    assert engine._solve_on_support(oracle, template, ReconConfig(), (1,)) is None


def test_solve_keeps_the_factor_of_an_unlucky_anchor():
    # seed 5002 #62 of the `recon_q` benchmark workload, whose run at this
    # seed takes the root anchors 1/2, 3/5, 0, 1/4.  On x3 = 0 the
    # restriction is (252*x1*x2)/(3360*x1*x2 - 315*x2), whose parts share
    # x2; the solve on the support of the restriction to x3 = 1/2 keeps it.
    text = ("(-420*x1^2*x3 - 60*x1*x2*x3 + 252*x1*x2)"
            "/(700*x1*x2*x3^2 + 3360*x1*x2 - 315*x2)")
    f = to_ratfun(parse(text, 3), QQ, 3)
    oracle = SliceOracle(3, QQ, f.eval_or_none)._restrict(Fraction(0))
    template = to_ratfun(parse("(-210*x1^2 + 222*x1*x2)/(3535*x1*x2 - 315*x2)", 2),
                         QQ, 2)
    half = Fraction(1, 2)
    assert all(template.eval_or_none(pt) == f.eval_or_none(pt + (half,))
               for pt in ((Fraction(2), Fraction(3)), (Fraction(-1, 3), Fraction(5))))
    solved = engine._solve_on_support(oracle, template, ReconConfig(seed=1521320594),
                                      (2,))
    # 0.12.0 reduced it to (12*x1)/(160*x1 - 15)
    assert (solved.num, solved.den) == (polyn(QQ, 2, {(1, 1): 12}),
                                        polyn(QQ, 2, {(1, 1): 160, (0, 1): -15}))


@pytest.mark.parametrize("field", [QQ, FP101, FP], ids=["q", "fp101", "fp1000003"])
def test_solve_finds_a_sibling_on_the_support(field):
    # (x1*x2 + 3)/(x1 - 2) as the template, (4*x1*x2 - 1)/(x1 + 5) as the
    # sibling: same supports, other coefficients, one of them negative
    template = normalize_ratfunn(polyn(field, 2, {(1, 1): 1, (0, 0): 3}),
                                 polyn(field, 2, {(1, 0): 1, (0, 0): -2}))
    sibling = normalize_ratfunn(polyn(field, 2, {(1, 1): 4, (0, 0): -1}),
                                polyn(field, 2, {(1, 0): 1, (0, 0): 5}))
    oracle = SliceOracle(2, field, sibling.eval_or_none)
    solved = engine._solve_on_support(oracle, template, ReconConfig(seed=2), (3,))
    assert format_ratfunn(solved) == format_ratfunn(sibling)


@pytest.mark.parametrize("field", [QQ, FP101, FP], ids=["q", "fp101", "fp1000003"])
def test_solve_drops_the_terms_a_sibling_lacks(field):
    # x1/(x1 + x2 + 1) as the template, x1/(x2 + 1) as the sibling: the
    # kernel's coefficient of the denominator's lex-leading monomial x1 is
    # zero, and the result is scaled by the term that remains
    template = normalize_ratfunn(polyn(field, 2, {(1, 0): 1}),
                                 polyn(field, 2, {(1, 0): 1, (0, 1): 1, (0, 0): 1}))
    sibling = normalize_ratfunn(polyn(field, 2, {(1, 0): 1}),
                                polyn(field, 2, {(0, 1): 1, (0, 0): 1}))
    oracle = SliceOracle(2, field, sibling.eval_or_none)
    solved = engine._solve_on_support(oracle, template, ReconConfig(seed=2), (3,))
    assert (solved.num, solved.den) == (sibling.num, sibling.den)
    assert format_ratfunn(solved) == "(x1)/(x2 + 1)"


def test_every_returned_node_passed_its_own_verification(monkeypatch):
    # On a faithful oracle every record that `_reconstruct_level` or
    # `_sibling` returns holds a result that passes a check at the
    # record's path, with `verify_trials` trials on the stream
    # derive_rng(seed, "verify", *path), though the engine checks only the
    # root's: every other record's tally is (0, 0, 0), and the engine runs
    # `verify_agreement` once, on the root's stream.
    field = FP
    rng = random.Random("spy")
    f = rand_sparse(field, rng, 4)
    cfg = ReconConfig(seed=rng.getrandbits(32))
    returned, streams = [], []
    agreement = engine.verify_agreement
    level, sibling = engine._reconstruct_level, engine._sibling

    def agreement_spy(oracle, g, trials, rng_, height_bound, values):
        streams.append(rng_.getstate())
        return agreement(oracle, g, trials, rng_, height_bound, values)

    def level_spy(oracle, cfg_, path, leaves):
        node = level(oracle, cfg_, path, leaves)
        returned.append((path, oracle, node))
        return node

    def sibling_spy(oracle, template, cfg_, path, leaves):
        node = sibling(oracle, template, cfg_, path, leaves)
        returned.append((path, oracle, node))
        return node

    monkeypatch.setattr(engine, "verify_agreement", agreement_spy)
    monkeypatch.setattr(engine, "_reconstruct_level", level_spy)
    monkeypatch.setattr(engine, "_sibling", sibling_spy)
    report = reconstruct(SliceOracle(4, field, f.eval_or_none), cfg)
    assert report.result.same_function(f)
    assert report.to_json()["nodes"]["sparse"] > 0
    assert streams == [derive_rng(cfg.seed, "verify").getstate()]
    assert returned[-1][0] == ()
    for path, oracle, node in returned:
        tally = agreement(oracle, node.result, cfg.verify_trials,
                          derive_rng(cfg.seed, "verify", *path), cfg.height_bound)
        assert tally.mismatch is None and tally[1] > 0, path
        assert node.verification == (tally if not path else (0, 0, 0)), path


def sparse_truth(field, nvars, d, rng):
    """Three terms a part, degree exactly d in every variable of each part,
    random support and coefficients; slice degree 2d along each variable."""
    def part():
        exps = [[rng.randint(0, d) for _ in range(nvars)] for _ in range(3)]
        for k in range(nvars):
            if all(e[k] != d for e in exps):
                exps[rng.randrange(3)][k] = d
        return PolyN(field, nvars, {tuple(e): field.from_int(rng.randrange(1, field.p))
                                    for e in exps})

    while True:
        f = normalize_ratfunn(part(), part())
        if all(p.degree_in(k) == d for p in (f.num, f.den) for k in range(nvars)):
            return f


def test_node_cliff_arity_5_slice_degree_4():
    # 0.5.0 built the tree of 781 nodes for this function and asked 179669
    # queries; the chain of 21 nodes asks 4878, so 20000 leaves a margin
    # and still fails any return to the full tree
    rng = random.Random(0)
    f = sparse_truth(FP, 5, 2, rng)
    calls = []
    oracle = SliceOracle(5, FP, lambda pt: calls.append(1) or f.eval_or_none(pt))
    report = reconstruct(oracle, ReconConfig(seed=rng.getrandbits(32)))
    assert report.result.same_function(f)
    assert len(calls) <= 20000
    assert report.to_json()["nodes"]["sparse"] > 0
