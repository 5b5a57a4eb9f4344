"""The per-level slice class: only the first node of a recursion level
classifies in full, a later node checks one slice against the level's class.

`reference_reconstruct` is a test-only copy of the engine that classifies in
full at every node; the engine must produce the same report JSON."""

import importlib
import json
import random
from collections import Counter

import pytest

from ratrecon.errors import RatreconError, VerificationFailed, ZeroDenominator
from ratrecon.expr import eval_expr, parse, to_ratfun
from ratrecon.fields import QQ, PrimeField, derive_rng, random_element
from ratrecon.interp import DegreeProfile, detect_profile_with_fit
from ratrecon.poly import PolyN
from ratrecon.ratfun import format_ratfunn, normalize_ratfunn
from ratrecon.reconstruct import (
    ReconConfig,
    ReconReport,
    SliceOracle,
    choose_anchors,
    classify_slices,
    dominant_class,
    reconstruct,
    verify_agreement,
)

engine = importlib.import_module("ratrecon.reconstruct")

FP101 = PrimeField(101)
FP = PrimeField(1000003)


def reference_reconstruct(oracle: SliceOracle, cfg: ReconConfig) -> ReconReport:
    """The engine as it was before the per-level class: every inner node
    runs the full `classify_slices` on its own stream."""
    anchors_by_level: dict = {}
    hist: Counter = Counter()
    failures = []

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
                lambda a: node.eval((a,)), field, cfg.budget(),
                derive_rng(cfg.seed, "fit", *path))
            if not path:
                hist[(prof.d, prof.e)] += 1
            result = fit.to_ratfunn(1)
            return result, verify(node, result, path)
        axis = node.arity - 1
        cls = classify_slices(node, axis, cfg,
                              derive_rng(cfg.seed, "classify", *path))
        if not path:
            hist.update(cls.histogram)
            failures.append(cls.failures)
        profile = DegreeProfile.from_de(*dominant_class(cls.histogram))
        anchors = choose_anchors(node, axis, profile, cfg,
                                 derive_rng(cfg.seed, "anchors", *path))
        anchors_by_level.setdefault(len(path), []).extend(anchors)
        parts = []
        for i, b in enumerate(anchors):
            sub = SliceOracle(node.arity - 1, field,
                              lambda pt, _b=b: node.eval(tuple(pt) + (_b,)))
            parts.append(level(sub, path + (i,))[0])
        result = engine._combine(parts, anchors, profile, field, node.arity)
        return result, verify(node, result, path)

    result, verification = level(oracle, ())
    levels = [anchors_by_level[k] for k in sorted(anchors_by_level)]
    return ReconReport(result, oracle.arity, oracle.field, dict(hist),
                       sum(failures), levels, verification, cfg)


def outcome(run, oracle, cfg) -> str:
    try:
        return json.dumps(run(oracle, cfg).to_json(), sort_keys=True)
    except RatreconError as e:
        return f"{type(e).__name__}: {e}"


def expr_oracle(text, arity, field):
    ast = parse(text, arity)
    return SliceOracle(arity, field, lambda pt: eval_expr(ast, pt, field))


@pytest.fixture
def classify_log(monkeypatch):
    """(expect, total) of every classify_slices call made by the engine."""
    log = []

    def spy(oracle, axis, cfg, rng, expect=None):
        cls = classify_slices(oracle, axis, cfg, rng, expect)
        log.append((expect, cls.total))
        return cls

    monkeypatch.setattr(engine, "classify_slices", spy)
    return log


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
def test_level_class_matches_per_node_classification(field):
    rng = random.Random(f"level-class/{field.descriptor()}")
    for k, nvars in enumerate((3, 3, 4)):
        f = rand_sparse(field, rng, nvars)
        oracle = SliceOracle(nvars, field, f.eval_or_none)
        cfg = ReconConfig(seed=rng.getrandbits(32))
        assert outcome(reconstruct, oracle, cfg) == \
            outcome(reference_reconstruct, oracle, cfg), format_ratfunn(f)


def test_sibling_on_zero_hyperplane_classifies_in_full(classify_log):
    # The root's second anchor is x3 = 0, where the function vanishes: that
    # sibling's first slice is the zero class, not the level's (2, -1), so
    # it classifies in full.  Taking the level's class there makes the
    # combine divide by the zero determinant.
    text = "(4*x1^2*x3 - 4*x1*x2*x3 + x1*x3)/(x1*x2 + 36*x2*x3^2 - 12)"
    oracle = expr_oracle(text, 3, QQ)
    cfg = ReconConfig(seed=2542212399)
    report = reconstruct(oracle, cfg)
    assert report.to_json()["anchors"][0][:2] == ["1", "0"]
    assert format_ratfunn(report.result) == text
    # siblings 1 (x3 = 0) and 2, 3 of the first level, in that order
    checks = [(expect, total) for expect, total in classify_log if expect]
    assert len({expect for expect, _ in checks}) == 1
    assert [total for _, total in checks] == [cfg.samples_per_class, 1, 1]
    assert json.dumps(report.to_json(), sort_keys=True) == \
        outcome(reference_reconstruct, oracle, cfg)


def root_anchors(text, arity, field, cfg):
    return reconstruct(expr_oracle(text, arity, field), cfg).anchors[0]


def test_first_node_on_degenerate_hyperplane(classify_log):
    # Shift the function so that the first root anchor b0 is where its
    # x2-degree drops: the level's class is then (0, 0), every sibling's
    # check fails, and each sibling classifies in full.  The root's anchors
    # do not depend on the shift, since the oracle is defined everywhere.
    cfg = ReconConfig(seed=7)
    b0 = root_anchors("x3*x1*x2 + x3^2 + x1", 3, FP, cfg)[0]
    text = f"(x3 - {b0})*x1*x2 + x3^2 + x1"
    oracle = expr_oracle(text, 3, FP)
    classify_log.clear()
    report = reconstruct(oracle, cfg)
    assert report.anchors[0][0] == b0
    truth = to_ratfun(parse(text, 3), FP, 3)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    assert [(e, t) for e, t in classify_log if e] == \
        [((0, 0), cfg.samples_per_class)] * 2
    assert len(report.anchors[1]) == 1 + 2 + 2
    assert json.dumps(report.to_json(), sort_keys=True) == \
        outcome(reference_reconstruct, oracle, cfg)


def first_slice_value(cfg, field, path):
    """x1 of the first classification slice at the arity-2 node `path`."""
    return random_element(field, derive_rng(cfg.seed, "classify", *path),
                          cfg.height_bound)


def test_reused_class_that_fails_verification_is_redone(monkeypatch):
    # First node degenerate as above, and sibling 1's first slice, at
    # x1 = c, drops to the same class (0, 0): the check passes, the node
    # under-fits and fails its own verification, then repeats itself with a
    # full classification and succeeds.
    cfg = ReconConfig(seed=11)
    c = first_slice_value(cfg, FP, (1,))
    b0 = root_anchors(f"1 + x3*(x1 - {c})*x2", 3, FP, cfg)[0]
    text = f"1 + (x3 - {b0})*(x1 - {c})*x2"
    oracle = expr_oracle(text, 3, FP)
    log = []

    def spy(node, result, cfg_, path):
        try:
            tally = verify_node(node, result, cfg_, path)
        except VerificationFailed:
            log.append((path, "failed"))
            raise
        log.append((path, "ok"))
        return tally

    verify_node = engine._verify_node
    monkeypatch.setattr(engine, "_verify_node", spy)
    report = reconstruct(oracle, cfg)
    assert report.anchors[0][0] == b0
    assert ((1,), "failed") in log and ((1,), "ok") in log
    truth = to_ratfun(parse(text, 3), FP, 3)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    monkeypatch.setattr(engine, "_verify_node", verify_node)
    assert json.dumps(report.to_json(), sort_keys=True) == \
        outcome(reference_reconstruct, oracle, cfg)


def test_reused_class_that_fails_to_combine_is_redone(monkeypatch):
    # (x3 - b1)/(x1 + x2) vanishes on the second root anchor x3 = b1, but
    # the oracle answers 1/(x2 + c) on the line x1 = c there, which is
    # where sibling 1's first slice lies.  That slice has the level's class
    # (1, -1), so the node takes it; its anchor parts are all zero, and the
    # combine raises ZeroDenominator.  The node then classifies in full,
    # finds the zero class and returns 0, as the per-node engine does.
    cfg = ReconConfig(seed=5)
    c = first_slice_value(cfg, FP, (1,))
    b1 = root_anchors("x3/(x1 + x2)", 3, FP, cfg)[1]
    truth = to_ratfun(parse(f"(x3 - {b1})/(x1 + x2)", 3), FP, 3)

    def fn(pt):
        x1, x2, x3 = pt
        if x1 == c and x3 == b1:
            return None if x2 + c == FP.zero else FP.one / (x2 + c)
        return truth.eval_or_none(pt)

    oracle = SliceOracle(3, FP, fn)
    raised = []

    def spy(*args):
        try:
            return combine(*args)
        except ZeroDenominator:
            raised.append(args[2].l)
            raise

    combine = engine._combine
    monkeypatch.setattr(engine, "_combine", spy)
    report = reconstruct(oracle, cfg)
    assert report.anchors[0][1] == b1
    assert raised == [1]
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    monkeypatch.setattr(engine, "_combine", combine)
    assert json.dumps(report.to_json(), sort_keys=True) == \
        outcome(reference_reconstruct, oracle, cfg)
