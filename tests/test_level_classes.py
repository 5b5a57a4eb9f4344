"""The maximal class: every node that recurses classifies its own slices
until their componentwise maximum stops growing.

`reference_reconstruct` is a test-only copy of the engine as it was before
the maximal class and the chain: every inner node detects all
`samples_per_class` slices and takes the most frequent class
(`vote_classify`, `dominant_class`), and every node recurses; it combines
with the engine's `_combine` and its unlucky-anchor retry.  With every
sparse sibling solve made to fall back (`full_tree`) the engine builds that
tree and must give the same result, anchors and verification, and its root
histogram must be that of the reference's first `total` slices.  With the
solves (the chain) it must give the same result, verification and root
anchors, and each node that recursed must have the anchors of the
reference's node at its path."""

import importlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice

import pytest

from ratrecon.errors import (
    AnchorSearchFailed,
    BudgetExhausted,
    DomainTooSparse,
    EmptyHistogram,
    RatreconError,
    TooManyFailures,
    VerificationFailed,
    ZeroDenominator,
)
from ratrecon.expr import eval_expr, parse, to_ratfun
from ratrecon.fields import QQ, PrimeField, _draw_point, derive_rng, random_element
from ratrecon.interp import DegreeProfile, detect_profile_with_fit
from ratrecon.poly import PolyN
from ratrecon.ratfun import format_ratfunn, normalize_ratfunn
from ratrecon.reconstruct import (
    MAX_CLASSIFY_FAILURE_RATE,
    MAX_HOLE_ANCHORS,
    MAX_UNLUCKY_ANCHORS,
    STABLE_SLICES,
    ReconConfig,
    ReconReport,
    SliceOracle,
    choose_anchors,
    classify_slices,
    reconstruct,
    slice_oracle,
    verify_agreement,
)

engine = importlib.import_module("ratrecon.reconstruct")

FP101 = PrimeField(101)
FP = PrimeField(1000003)
CLASSIFICATION = ("class_histogram", "classify_failures")


def dominant_class(hist) -> tuple:
    """Most frequent (d, e); ties break to smaller d, then smaller |e|,
    then e >= 0 first."""
    if not hist:
        raise EmptyHistogram("no classified slices")
    return min(hist, key=lambda de: (-hist[de], de[0], abs(de[1]), de[1] < 0))


def test_dominant_class_examples():
    assert dominant_class({(1, 0): 18, (0, 0): 2}) == (1, 0)
    assert dominant_class({(2, 1): 10, (1, 0): 10}) == (1, 0)
    assert dominant_class({(1, 1): 5, (1, -1): 5}) == (1, 1)
    with pytest.raises(EmptyHistogram):
        dominant_class({})


def vote_classify(oracle: SliceOracle, axis: int, cfg: ReconConfig, rng) -> list:
    """All `samples_per_class` slices of the stream, in order: each slice's
    (d, e), or None for a failed one; dead slices are redrawn as the engine
    redraws them."""
    slices = []
    dead: set = set()
    redraws = cfg.samples_per_class
    draw = oracle.field._sampler(rng, cfg.height_bound)
    for i in range(cfg.samples_per_class):
        while True:
            ids, fixed = _draw_point(draw, oracle.arity - 1)
            sub_rng = derive_rng(rng.getrandbits(63), "classify-slice", axis, i)
            if ids not in dead:
                try:
                    prof, _ = detect_profile_with_fit(
                        slice_oracle(oracle, axis, fixed), oracle.field,
                        cfg, sub_rng)
                except BudgetExhausted:
                    slices.append(None)
                    break
                except DomainTooSparse:
                    dead.add(ids)
                else:
                    slices.append((prof.d, prof.e))
                    break
            if not redraws:
                slices.append(None)
                break
            redraws -= 1
    if slices.count(None) > MAX_CLASSIFY_FAILURE_RATE * cfg.samples_per_class:
        raise TooManyFailures("too many failed slices")
    return slices


class ReferenceReport(ReconReport):
    """A ReconReport with room for the reference's own attributes."""


def reference_reconstruct(oracle: SliceOracle, cfg: ReconConfig) -> ReferenceReport:
    """The engine as it was before the maximal class: every inner node
    votes over all the slices of its own stream.  The report's
    `root_slices` lists the root's slices in order, and its
    `anchors_by_path` maps each inner node's path to its anchors.  Its node
    counts are the engine's when every sparse solve falls back: every node
    recursed, and so did every later child of arity 2 or more.  A child
    that refuses for lack of defined points is replaced as in the engine,
    and its subtree forgotten."""
    tree: dict = {}             # each node's path: its anchors, [] at a leaf
    root_slices = []

    def verify(node, result, path):
        tally = verify_agreement(node, result, cfg.verify_trials,
                                 derive_rng(cfg.seed, "verify", *path),
                                 cfg.height_bound)
        trials, agreements, skips = tally
        if agreements != trials - skips:
            raise VerificationFailed(*tally.mismatch, path=path)
        return tally

    def level(node, path):
        field = node.field
        if node.arity == 1:
            prof, fit = detect_profile_with_fit(
                lambda a: node.eval((a,)), field, cfg,
                derive_rng(cfg.seed, "fit", *path))
            if not path:
                root_slices.append((prof.d, prof.e))
            result = fit.to_ratfunn(1)
            tree[path] = []
            return result, verify(node, result, path)
        axis = node.arity - 1
        slices = vote_classify(node, axis, cfg, derive_rng(cfg.seed, "classify", *path))
        if not path:
            root_slices.extend(slices)
        hist = Counter(de for de in slices if de is not None)
        profile = DegreeProfile.from_de(*dominant_class(hist))
        # the engine's pole filter, on the slices its classification draws
        dens = classify_slices(node, axis, cfg, derive_rng(cfg.seed, "classify", *path)).dens
        stream = choose_anchors(node, cfg, derive_rng(cfg.seed, "anchors", *path), dens)
        anchors = list(islice(stream, profile.l + 1))
        holes = MAX_HOLE_ANCHORS

        def child(i):
            nonlocal holes
            while True:
                sub = SliceOracle(node.arity - 1, field,
                                  lambda pt, _b=anchors[i]: node.eval(tuple(pt) + (_b,)))
                try:
                    return level(sub, path + (i,))[0]
                except (DomainTooSparse, TooManyFailures, AnchorSearchFailed):
                    if not holes:
                        raise
                    holes -= 1
                    anchors[i] = next(stream)
                    for q in [q for q in tree if q[:len(path) + 1] == path + (i,)]:
                        del tree[q]

        parts = [child(i) for i in range(len(anchors))]
        result = engine._combine(parts, anchors, profile, field, node.arity)
        # the unlucky-anchor retry: one more anchor at a time, then every
        # l+1 of the children
        while result is None:
            if len(anchors) > profile.l + MAX_UNLUCKY_ANCHORS:
                raise ZeroDenominator(f"nothing combines at {path}")
            anchors.append(next(stream))
            parts.append(child(len(anchors) - 1))
            for keep in combinations(range(len(anchors)), profile.l + 1):
                result = engine._combine([parts[j] for j in keep],
                                         [anchors[j] for j in keep],
                                         profile, field, node.arity)
                if result is not None:
                    break
        tree[path] = anchors
        return result, verify(node, result, path)

    result, verification = level(oracle, ())
    inner = {path: anchors for path, anchors in sorted(tree.items()) if anchors}
    levels = [sum((a for path, a in inner.items() if len(path) == k), [])
              for k in range(oracle.arity - 1)]
    nodes = Counter(recursed=len(tree), fallbacks=sum(
        1 for path in inner if path and path[-1]))
    hist = Counter(de for de in root_slices if de is not None)
    report = ReferenceReport(result, oracle.arity, oracle.field, dict(hist),
                             root_slices.count(None), levels, verification, cfg, nodes)
    report.root_slices = root_slices
    report.anchors_by_path = inner
    return report


def answer(report: ReconReport) -> str:
    """The report JSON without the classification fields."""
    return json.dumps({k: v for k, v in report.to_json().items()
                       if k not in CLASSIFICATION}, sort_keys=True)


def outcome(run, oracle, cfg) -> str:
    try:
        return answer(run(oracle, cfg))
    except RatreconError as e:
        return f"{type(e).__name__}: {e}"


def assert_matches_reference(report: ReconReport, oracle, cfg):
    """The same answer as the reference, and the root's histogram and
    failures are those of the reference's first `total` root slices."""
    ref = reference_reconstruct(oracle, cfg)
    assert answer(report) == answer(ref)
    total = sum(report.class_histogram.values()) + report.failures
    prefix = ref.root_slices[:total]
    assert report.class_histogram == Counter(de for de in prefix if de is not None)
    assert report.failures == prefix.count(None)


def expr_oracle(text, arity, field):
    ast = parse(text, arity)
    return SliceOracle(arity, field, lambda pt: eval_expr(ast, pt, field))


@pytest.fixture
def classify_log(monkeypatch):
    """(arity, full, class, total) of every classify_slices call made by
    the engine that returns."""
    log = []

    def spy(oracle, axis, cfg, rng, full=False):
        cls = classify_slices(oracle, axis, cfg, rng, full)
        log.append((oracle.arity, full, cls.de, cls.total))
        return cls

    monkeypatch.setattr(engine, "classify_slices", spy)
    return log


@pytest.fixture
def full_tree(monkeypatch):
    """Every sparse sibling solve falls back, so every node recurses: the
    tree of the engine before the chain."""
    monkeypatch.setattr(engine, "_solve_on_support", lambda *args: None)


@pytest.fixture
def recursed(monkeypatch):
    """Filled while the engine runs: the path of each node that ran
    `_reconstruct_level` in the final tree, mapped to its anchors (a leaf's
    are []).  A node that runs again, in its parent's repeat, first drops
    what its earlier run left at and below its path; `final_tree` then keeps
    the paths that the final anchors reach from the root."""
    found = {}
    reconstruct_level, solve = engine._reconstruct_level, engine._solve_on_support

    def drop(path):
        for q in [q for q in found if q[:len(path)] == path]:
            del found[q]

    def level_spy(oracle, cfg, path, leaves):
        drop(path)
        node = reconstruct_level(oracle, cfg, path, leaves)
        found[path] = node.anchors[0] if node.anchors else []
        return node

    def solve_spy(oracle, template, cfg, path):
        drop(path)
        return solve(oracle, template, cfg, path)

    monkeypatch.setattr(engine, "_reconstruct_level", level_spy)
    monkeypatch.setattr(engine, "_solve_on_support", solve_spy)
    return found


def final_tree(found) -> dict:
    """The recursed nodes of the final tree, from the `recursed` fixture."""
    tree, todo = {}, [()]
    while todo:
        path = todo.pop()
        if path in found:
            tree[path] = found[path]
            todo.extend(path + (i,) for i in range(len(found[path])))
    return dict(sorted(tree.items()))


def assert_chain_matches_reference(report: ReconReport, oracle, cfg, found):
    """The chain gives the reference's result, verification and root
    anchors, and the root's histogram and failures are those of the
    reference's first `total` root slices; every node that recursed has the
    anchors of the reference's node at its path, and the report's deeper
    levels list them in child order.  The node counts sum to the nodes of
    the tree."""
    ref = reference_reconstruct(oracle, cfg)
    chain, full = report.to_json(), ref.to_json()
    for key in ("result", "verification"):
        assert chain[key] == full[key], key
    assert chain["anchors"][0] == full["anchors"][0]
    total = sum(report.class_histogram.values()) + report.failures
    prefix = ref.root_slices[:total]
    assert report.class_histogram == Counter(de for de in prefix if de is not None)
    assert report.failures == prefix.count(None)
    tree = final_tree(found)
    inner = {path: anchors for path, anchors in tree.items() if anchors}
    assert inner == {path: ref.anchors_by_path[path] for path in inner}
    levels = [sum((a for path, a in inner.items() if len(path) == k), [])
              for k in range(oracle.arity - 1)]
    assert report.anchors == levels
    nodes = 1 + sum(len(anchors) for anchors in tree.values())
    fallbacks = sum(1 for path in tree if path and path[-1] and len(path) < oracle.arity - 1)
    assert chain["nodes"] == {"recursed": len(tree), "sparse": nodes - len(tree),
                              "fallbacks": fallbacks}


def rand_sparse(field, rng, nvars):
    """A sparse function, 1-3 terms per part, degree <= 2 per variable;
    terms often share a variable, so some anchor hyperplanes degenerate."""
    def part():
        terms = {tuple(rng.randint(0, 2 if k == nvars - 1 else 1)
                       for k in range(nvars)): random_element(field, rng, 9)
                 for _ in range(rng.randint(1, 3))}
        return PolyN(field, nvars, terms)

    while True:
        num, den = part(), part()
        if not den.is_zero():
            return normalize_ratfunn(num, den)


@pytest.mark.parametrize("field", [QQ, FP101, FP])
def test_level_class_matches_per_node_classification(field, full_tree):
    rng = random.Random(f"level-class/{field.descriptor()}")
    for k, nvars in enumerate((3, 3, 4)):
        f = rand_sparse(field, rng, nvars)
        oracle = SliceOracle(nvars, field, f.eval_or_none)
        cfg = ReconConfig(seed=rng.getrandbits(32))
        assert outcome(reconstruct, oracle, cfg) == \
            outcome(reference_reconstruct, oracle, cfg), format_ratfunn(f)


@pytest.mark.parametrize("field", [QQ, FP101, FP])
def test_level_class_matches_per_node_classification_chain(field, recursed):
    rng = random.Random(f"level-class/{field.descriptor()}")
    for k, nvars in enumerate((3, 3, 4)):
        f = rand_sparse(field, rng, nvars)
        oracle = SliceOracle(nvars, field, f.eval_or_none)
        cfg = ReconConfig(seed=rng.getrandbits(32))
        recursed.clear()
        report = reconstruct(oracle, cfg)
        assert report.result.same_function(f), format_ratfunn(f)
        assert_chain_matches_reference(report, oracle, cfg, recursed)


def rand_multilinear(field, rng, nvars):
    """A polynomial of degree <= 1 per variable, 1-4 terms.  Over Q at
    height 2, seven values, nothing of higher slice degree can be detected,
    and a denominator would put poles inside the box."""
    terms = {tuple(rng.randint(0, 1) for _ in range(nvars)): random_element(field, rng, 9)
             for _ in range(rng.randint(1, 4))}
    one = PolyN(field, nvars, {(0,) * nvars: field.one})
    return normalize_ratfunn(PolyN(field, nvars, terms), one)


@pytest.mark.parametrize("arity", [2, 3, 4])
@pytest.mark.parametrize("field,height", [(QQ, 2), (QQ, 10), (QQ, 1000), (FP101, 10),
                                          (FP, 10)],
                         ids=["q-h2", "q-h10", "q-h1000", "fp101", "fp1000003"])
def test_maximal_class_matches_the_vote(field, height, arity, full_tree):
    rng = random.Random(f"vote/{field.descriptor()}/{height}/{arity}")
    for _ in range(3):
        f = (rand_multilinear if height == 2 else rand_sparse)(field, rng, arity)
        oracle = SliceOracle(arity, field, f.eval_or_none)
        cfg = ReconConfig(seed=rng.getrandbits(32), height_bound=height)
        report = reconstruct(oracle, cfg)
        assert report.result.same_function(f), format_ratfunn(f)
        assert_matches_reference(report, oracle, cfg)


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("field,height", [(QQ, 2), (QQ, 10), (QQ, 1000), (FP101, 10),
                                          (FP, 10)],
                         ids=["q-h2", "q-h10", "q-h1000", "fp101", "fp1000003"])
def test_maximal_class_matches_the_vote_chain(field, height, arity, recursed):
    rng = random.Random(f"vote/{field.descriptor()}/{height}/{arity}")
    for _ in range(3):
        f = (rand_multilinear if height == 2 else rand_sparse)(field, rng, arity)
        oracle = SliceOracle(arity, field, f.eval_or_none)
        cfg = ReconConfig(seed=rng.getrandbits(32), height_bound=height)
        recursed.clear()
        report = reconstruct(oracle, cfg)
        assert report.result.same_function(f), format_ratfunn(f)
        assert_chain_matches_reference(report, oracle, cfg, recursed)


def test_sibling_on_zero_hyperplane_classifies_in_full(classify_log, full_tree):
    # The root's second anchor is x3 = 0, where the function vanishes: every
    # slice of that sibling is the zero class, and it classifies along its
    # stream until the class stops growing, three slices, as siblings 2 and
    # 3 do at their own class.  Taking the first node's class there would
    # make the combine divide by the zero determinant.  The zero child does
    # not combine with the others, so the root draws a fifth anchor, whose
    # child 4 classifies like siblings 2 and 3, and combines without x3 = 0.
    text = "(4*x1^2*x3 - 4*x1*x2*x3 + x1*x3)/(x1*x2 + 36*x2*x3^2 - 12)"
    oracle = expr_oracle(text, 3, QQ)
    cfg = ReconConfig(seed=2004327310)
    report = reconstruct(oracle, cfg)
    assert report.to_json()["anchors"][0][:2] == ["1", "0"]
    assert len(report.anchors[0]) == 5
    assert format_ratfunn(report.result) == text
    # the root, node (0,), then siblings 1 (x3 = 0), 2, 3 and 4, in that order
    assert classify_log == [(3, False, (2, -1), 4), (2, False, (1, 0), 4),
                            (2, False, (0, 0), 3), (2, False, (1, 0), 3),
                            (2, False, (1, 0), 3), (2, False, (1, 0), 3)]
    assert_matches_reference(report, oracle, cfg)


def test_sibling_on_zero_hyperplane_classifies_in_full_chain(classify_log, recursed):
    # The same run with sparse siblings.  On x3 = 0 the function is zero,
    # so every denominator on the first sibling's support solves the
    # system: it is singular, and that sibling recurses and classifies as
    # above.  Siblings 2 and 3, and the fifth anchor's child 4, are solved
    # on the support and classify nothing.
    text = "(4*x1^2*x3 - 4*x1*x2*x3 + x1*x3)/(x1*x2 + 36*x2*x3^2 - 12)"
    oracle = expr_oracle(text, 3, QQ)
    cfg = ReconConfig(seed=2004327310)
    report = reconstruct(oracle, cfg)
    assert report.to_json()["anchors"][0][:2] == ["1", "0"]
    assert len(report.anchors[0]) == 5
    assert format_ratfunn(report.result) == text
    assert classify_log == [(3, False, (2, -1), 4), (2, False, (1, 0), 4),
                            (2, False, (0, 0), 3)]
    assert report.to_json()["nodes"]["fallbacks"] == 1
    assert (1,) in final_tree(recursed)
    assert_chain_matches_reference(report, oracle, cfg, recursed)


def test_fallback_sibling_alone_is_the_node_it_was_in_the_run(monkeypatch):
    # Nodes share no state: the fallback sibling on x3 = 0 of the run
    # above, built alone from the oracle restricted to x3 = 0 at the same
    # path, gives the same result, anchors, classes and verification
    # (unchecked below the root) as inside the run.
    text = "(4*x1^2*x3 - 4*x1*x2*x3 + x1*x3)/(x1*x2 + 36*x2*x3^2 - 12)"
    oracle = expr_oracle(text, 3, QQ)
    cfg = ReconConfig(seed=2004327310)
    nodes = {}
    level = engine._reconstruct_level

    def spy(oracle_, cfg_, path, leaves):
        node = level(oracle_, cfg_, path, leaves)
        nodes[path] = (leaves, node)
        return node

    monkeypatch.setattr(engine, "_reconstruct_level", spy)
    report = reconstruct(oracle, cfg)
    assert report.anchors[0][1] == 0
    assert report.to_json()["nodes"]["fallbacks"] == 1
    leaves, inside = nodes[(1,)]
    anchors = list(islice(choose_anchors(oracle, cfg, derive_rng(cfg.seed, "anchors")), 2))
    assert anchors[1] == 0
    alone = level(oracle._restrict(Fraction(0)), cfg, (1,), leaves)
    assert format_ratfunn(alone.result) == format_ratfunn(inside.result)
    assert alone.anchors == inside.anchors
    assert alone.histogram == inside.histogram
    assert alone.verification == inside.verification


@pytest.mark.parametrize("samples", [2, 20])
@pytest.mark.parametrize("field", [QQ, FP101, FP])
def test_every_node_classifies_by_the_stop_rule(field, samples, classify_log,
                                                full_tree):
    # With every sibling recursing, each inner node classifies its own
    # slices, and none stops before the stop rule can: every classification
    # that returns drew at least STABLE_SLICES + 1 slices, or all of them.
    rng = random.Random(f"stop-rule/{field.descriptor()}/{samples}")
    for nvars in (3, 3, 4):
        f = rand_sparse(field, rng, nvars)
        oracle = SliceOracle(nvars, field, f.eval_or_none)
        cfg = ReconConfig(seed=rng.getrandbits(32), samples_per_class=samples)
        classify_log.clear()
        report = reconstruct(oracle, cfg)
        assert report.result.same_function(f), format_ratfunn(f)
        # one classification per inner node, two for a node that repeats
        assert len(classify_log) >= 1 + sum(len(level) for level in report.anchors[:-1])
        assert all(total >= min(STABLE_SLICES + 1, samples)
                   for *_, total in classify_log)


def counted_oracle(text, arity, field):
    """The expression's oracle and the list of points it is asked."""
    ast = parse(text, arity)
    calls = []
    return SliceOracle(arity, field, lambda pt: calls.append(pt) or
                       eval_expr(ast, pt, field)), calls


@pytest.fixture
def root_checks(monkeypatch):
    """(the state of its rng on entry, tally, the points asked) of each run
    of `verify_agreement`."""
    log = []

    def spy(oracle, g, trials, rng, height_bound, values):
        fn, asked = oracle.fn, []
        node = SliceOracle(oracle.arity, oracle.field,
                           lambda pt: asked.append(pt) or fn(pt), oracle._suffix)
        state = rng.getstate()
        tally = verify_agreement(node, g, trials, rng, height_bound, values)
        log.append((state, tally, asked))
        return tally

    monkeypatch.setattr(engine, "verify_agreement", spy)
    return log


def test_class_settled_too_low_repeats_in_full(monkeypatch, root_checks):
    # Over F_7 the slices of x1*x2 + 1 along x2 have class (1, 1), except on
    # x1 = 0, where the slice is the constant 1.  At seed 728 the root's
    # first three slices all lie on x1 = 0, so the stop rule settles on
    # (0, 0).  The root's one-anchor result fails its check, and so do the
    # results at the two anchors that the unlucky-anchor retry draws; the
    # root then classifies all 20 slices of its stream, finds (1, 1) and
    # repeats once.  Its check asks each of its points once over the four
    # candidates: the run asks 233 queries, where 0.11.0's two passes
    # asked 360.
    F7 = PrimeField(7)
    text = "x1*x2 + 1"
    oracle, calls = counted_oracle(text, 2, F7)
    cfg = ReconConfig(seed=728)
    log = []

    def classify(oracle, axis, cfg, rng, full=False):
        cls = classify_slices(oracle, axis, cfg, rng, full)
        log.append((full, cls.de, cls.total, dict(cls.histogram)))
        return cls

    monkeypatch.setattr(engine, "classify_slices", classify)
    report = reconstruct(oracle, cfg)
    assert log[0] == (False, (0, 0), 3, {(0, 0): 3})
    assert log[1][:3] == (True, (1, 1), cfg.samples_per_class)
    assert len(log) == 2
    assert [tally.mismatch is None for _, tally, _ in root_checks] == \
        [False] * (1 + MAX_UNLUCKY_ANCHORS) + [True]
    asked = [pt for *_, points in root_checks for pt in points]
    assert len(asked) == len(set(asked))
    assert report.class_histogram == log[1][3]
    assert report.result.same_function(to_ratfun(parse(text, 2), F7, 2))
    assert len(calls) == 233
    monkeypatch.setattr(engine, "classify_slices", classify_slices)
    assert_matches_reference(report, oracle, cfg)


def test_first_node_that_repeats_sets_the_level_class_again(classify_log, full_tree,
                                                            root_checks):
    # x1*x2 + x3 + 1 over F_7: on the root's first anchor hyperplane the
    # slices along x2 have class (1, 1), except on x1 = 0.  At seed 394
    # that node's first three slices lie on x1 = 0, so it settles on
    # (0, 0) and returns a result without x2, unchecked.  Its sibling
    # classifies its own slices, three, all (1, 1).  The root combines the
    # two, and its check fails; the unlucky-anchor retry draws a third
    # anchor, whose node also takes (1, 1), and the root combines it with
    # the sibling: the truth, which passes.  The first node's wrong class
    # is left out, not repeated.  The run asks 271 queries, where 0.11.0,
    # whose strict pass repeated the first node's class, asked 802.
    F7 = PrimeField(7)
    text = "x1*x2 + x3 + 1"
    oracle, calls = counted_oracle(text, 3, F7)
    cfg = ReconConfig(seed=394)
    report = reconstruct(oracle, cfg)
    assert report.result.same_function(to_ratfun(parse(text, 3), F7, 3))
    assert classify_log == [(3, False, (1, 1), 3), (2, False, (0, 0), 3),
                            (2, False, (1, 1), 3), (2, False, (1, 1), 3)]
    assert [tally.mismatch is None for _, tally, _ in root_checks] == [False, True]
    assert len(report.anchors[0]) == 3
    assert len(calls) == 271
    ref = reference_reconstruct(oracle, cfg)
    assert format_ratfunn(report.result) == format_ratfunn(ref.result)
    assert report.verification == ref.verification


def test_first_node_that_repeats_sets_the_level_class_again_chain(classify_log,
                                                                  recursed):
    # The same run with sparse siblings: no sibling fits the first node's
    # result, which has no x2, so both recurse as above, and the root's
    # retry leaves the first node out.  The run asks 277 queries, where
    # 0.11.0 asked 764.
    F7 = PrimeField(7)
    text = "x1*x2 + x3 + 1"
    oracle, calls = counted_oracle(text, 3, F7)
    cfg = ReconConfig(seed=394)
    report = reconstruct(oracle, cfg)
    assert report.result.same_function(to_ratfun(parse(text, 3), F7, 3))
    assert [total for *_, total in classify_log] == [3, 3, 3, 3]
    assert report.to_json()["nodes"] == {"recursed": 9, "sparse": 0, "fallbacks": 2}
    assert final_tree(recursed) == {(): report.anchors[0], (0,): report.anchors[1][:1],
                                    (0, 0): [], (1,): report.anchors[1][1:3],
                                    (1, 0): [], (1, 1): [], (2,): report.anchors[1][3:],
                                    (2, 0): [], (2, 1): []}
    assert len(calls) == 277


def test_failure_the_full_class_confirms_is_raised_at_once(monkeypatch, root_checks):
    # Corrupt the last fresh point of a clean run, which only the root's
    # check asks for.  The root's early class (1, 0) fails there, and so
    # does each candidate of the unlucky-anchor retry; all 20 slices give
    # (1, 0) too, so the root raises its first failure without a second
    # attempt.  Its check asks each of its points once over all the
    # candidates.
    text = "(x1*x2 + 1)/(x1 - x2)"
    truth = to_ratfun(parse(text, 2), FP, 2)
    queried = []
    cfg = ReconConfig(seed=12)
    reconstruct(SliceOracle(2, FP, lambda pt: queried.append(pt) or
                            truth.eval_or_none(pt)), cfg)
    bad = [pt for pt in dict.fromkeys(queried) if truth.eval_or_none(pt) is not None][-1]
    classes = []

    def classify(oracle, axis, cfg_, rng, full=False):
        cls = classify_slices(oracle, axis, cfg_, rng, full)
        classes.append((full, cls.de))
        return cls

    monkeypatch.setattr(engine, "classify_slices", classify)
    oracle = SliceOracle(2, FP, lambda pt: truth.eval(pt) + 1 if pt == bad
                         else truth.eval_or_none(pt))
    root_checks.clear()
    with pytest.raises(VerificationFailed) as info:
        reconstruct(oracle, cfg)
    assert (info.value.path, info.value.point) == ((), bad)
    assert classes == [(False, (1, 0)), (True, (1, 0))]
    assert len(root_checks) > 1
    assert all(tally.mismatch[0] == bad for _, tally, _ in root_checks)
    asked = [pt for *_, points in root_checks for pt in points]
    assert len(asked) == len(set(asked)) and bad in asked


def root_anchors(text, arity, field, cfg):
    return reconstruct(expr_oracle(text, arity, field), cfg).anchors[0]


def test_first_node_on_degenerate_hyperplane(classify_log):
    # Shift the function so that the first root anchor b0 is where its
    # x2-degree drops: the first node's class is then (0, 0), its result
    # has no x2, every sibling's solve on that support fails, and each
    # sibling classifies along its stream until the class stops growing,
    # three slices.  The root's anchors do not depend on the shift, since
    # the oracle is defined everywhere.
    cfg = ReconConfig(seed=7)
    b0 = root_anchors("x3*x1*x2 + x3^2 + x1", 3, FP, cfg)[0]
    text = f"(x3 - {b0})*x1*x2 + x3^2 + x1"
    oracle = expr_oracle(text, 3, FP)
    classify_log.clear()
    report = reconstruct(oracle, cfg)
    assert report.anchors[0][0] == b0
    truth = to_ratfun(parse(text, 3), FP, 3)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    assert classify_log == [(3, False, (2, 2), 3), (2, False, (0, 0), 3),
                            (2, False, (1, 1), 3), (2, False, (1, 1), 3)]
    assert report.to_json()["nodes"]["fallbacks"] == 2
    assert len(report.anchors[1]) == 1 + 2 + 2
    assert_matches_reference(report, oracle, cfg)


def first_slice_value(cfg, field, path):
    """x1 of the first classification slice at the arity-2 node `path`."""
    return random_element(field, derive_rng(cfg.seed, "classify", *path),
                          cfg.height_bound)


def test_sibling_whose_first_slice_is_low_verifies_at_once(root_checks, classify_log):
    # First node degenerate as above, and sibling 1's first slice, at
    # x1 = c, drops to the same class (0, 0).  The sibling's solve on the
    # first node's support fails, and it classifies its own slices: the
    # next three give (1, 1), which it takes at once, so the root's result
    # passes its check on the first attempt.
    cfg = ReconConfig(seed=11)
    c = first_slice_value(cfg, FP, (1,))
    b0 = root_anchors(f"1 + x3*(x1 - {c})*x2", 3, FP, cfg)[0]
    text = f"1 + (x3 - {b0})*(x1 - {c})*x2"
    oracle = expr_oracle(text, 3, FP)
    root_checks.clear()
    classify_log.clear()
    report = reconstruct(oracle, cfg)
    assert report.anchors[0][0] == b0
    assert len(root_checks) == 1 and root_checks[0][1].mismatch is None
    # the root, node (0,), node (1,)
    assert classify_log == [(3, False, (1, 1), 3), (2, False, (0, 0), 3),
                            (2, False, (1, 1), 4)]
    truth = to_ratfun(parse(text, 3), FP, 3)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    assert_matches_reference(report, oracle, cfg)


def test_sibling_whose_first_slice_is_low_combines_at_once(monkeypatch, classify_log):
    # f = ((x3 - b0)(x2 - a0)(x2 - a1) + x3 - b1)/(x1 + x2) is (b0 - b1)/(x1 + x2)
    # on the first root anchor x3 = b0, so the first node's class is
    # (1, -1), and s = (b1 - b0)(x2 - a0)(x2 - a1)/(x1 + x2), of class
    # (2, 1), on the second, x3 = b1.  There the oracle answers 1/(x2 + c)
    # on the line x1 = c, where sibling 1's first slice lies.  That slice
    # has the first node's class; a node that took it would pick a0 and
    # a1 as anchors, where s vanishes, and its combine would fail.  The
    # sibling classifies its own slices instead: the next three give
    # (2, 1), which it takes at once.  Its first two anchors are a0 and a1
    # again, where its children are zero and do not combine: it draws two
    # more anchors and combines the four children that are not zero.
    cfg = ReconConfig(seed=5)
    c = first_slice_value(cfg, FP, (1,))
    b0, b1 = root_anchors("x1 + x2 + x3", 3, FP, cfg)
    a0, a1 = islice(choose_anchors(SliceOracle(2, FP, lambda pt: FP.one), cfg,
                                   derive_rng(cfg.seed, "anchors", 1)), 2)
    text = f"((x3 - {b0})*(x2 - {a0})*(x2 - {a1}) + x3 - {b1})/(x1 + x2)"
    truth = to_ratfun(parse(text, 3), FP, 3)

    def fn(pt):
        x1, x2, x3 = pt
        if x1 == c and x3 == b1:
            return None if x2 + c == FP.zero else FP.one / (x2 + c)
        return truth.eval_or_none(pt)

    oracle = SliceOracle(3, FP, fn)
    failed = []

    def spy(*args):
        result = combine(*args)
        if result is None:
            failed.append((args[2].l, len(args[1])))
        return result

    combine = engine._combine
    monkeypatch.setattr(engine, "_combine", spy)
    classify_log.clear()
    report = reconstruct(oracle, cfg)
    assert report.anchors[0] == [b0, b1]
    # node (1,): its four children, then each three of the first four with
    # the fifth
    assert failed == [(3, 4)] * 5
    # the root, node (0,), node (1,)
    assert classify_log == [(3, False, (1, 1), 3), (2, False, (1, -1), 3),
                            (2, False, (2, 1), 4)]
    # node (0,) has two anchors, node (1,) six
    assert len(report.anchors[1]) == 8 and report.anchors[1][2:4] == [a0, a1]
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    monkeypatch.setattr(engine, "_combine", combine)
    assert_matches_reference(report, oracle, cfg)


def test_slice_above_the_generic_class_is_refused(monkeypatch, classify_log):
    # (x3 - b1)/(x1 + x2) vanishes on the second root anchor x3 = b1, but
    # the oracle answers 1/(x2 + c) on the line x1 = c there, where sibling
    # 1's first slice lies: a slice above the node's generic class (0, 0)
    # that no rational function has.  The node's next two slices are the
    # zero class, so it settles on the maximal class (1, -1) after three
    # slices, and its two children do not combine.  Nor do any two of the
    # four with two more anchors, so the node raises ZeroDenominator.  All
    # its 20 slices give the maximal class (1, -1) too, so the node raises
    # that error after the one full classification.  (The 20-slice vote
    # found the zero class and returned 0.)
    cfg = ReconConfig(seed=5)
    c = first_slice_value(cfg, FP, (1,))
    b1 = root_anchors("x3/(x1 + x2)", 3, FP, cfg)[1]
    truth = to_ratfun(parse(f"(x3 - {b1})/(x1 + x2)", 3), FP, 3)

    def fn(pt):
        x1, x2, x3 = pt
        if x1 == c and x3 == b1:
            return None if x2 + c == FP.zero else FP.one / (x2 + c)
        return truth.eval_or_none(pt)

    failed = []

    def spy(*args):
        result = combine(*args)
        if result is None:
            failed.append((args[2].l, len(args[1])))
        return result

    combine = engine._combine
    monkeypatch.setattr(engine, "_combine", spy)
    classify_log.clear()
    with pytest.raises(ZeroDenominator) as info:
        reconstruct(SliceOracle(3, FP, fn), cfg)
    # node (1,): its two children, then the third anchor's child with each
    # of them, then the fourth's with each of the three
    assert failed == [(1, 2)] * 6
    # root, node (0,), node (1,), its full repeat
    assert classify_log == [(3, False, (1, 1), 3), (2, False, (1, -1), 3),
                            (2, False, (1, -1), 3), (2, True, (1, -1), 20)]
    assert info.value.args[0].startswith("no 2 of the 4 children at recursion path (1,)")
