"""Anchors without probes.  `choose_anchors` asks the oracle nothing: it
takes each fresh distinct draw of its stream, and skips a draw only where
every fitted denominator of the node's classified slices vanishes, a pole
of the node.  A child that refuses for lack of defined points lies on a
hole of the black box; its anchor is replaced by the next draw of the
same stream, at most `MAX_HOLE_ANCHORS` times per node.  Every other
refusal below the root propagates as it is."""

import importlib
from itertools import islice

import pytest

from ratrecon.errors import (
    AnchorSearchFailed,
    DomainTooSparse,
    RatreconError,
    TooManyFailures,
    VerificationFailed,
    ZeroDenominator,
)
from ratrecon.expr import parse, to_ratfun
from ratrecon.fields import QQ, PrimeField, derive_rng
from ratrecon.reconstruct import (
    MAX_HOLE_ANCHORS,
    ReconConfig,
    SliceOracle,
    choose_anchors,
    reconstruct,
)

engine = importlib.import_module("ratrecon.reconstruct")

FP = PrimeField(1000003)


def draws(field, cfg, count=8):
    """The first `count` distinct draws of the root's `anchors` stream."""
    stream = choose_anchors(SliceOracle(1, field, None), cfg,
                            derive_rng(cfg.seed, "anchors"))
    return list(islice(stream, count))


@pytest.fixture
def refusals(monkeypatch):
    """(path, error class name) of every node that refused, in order."""
    log = []
    level = engine._reconstruct_level

    def spy(oracle, cfg, path, leaves):
        try:
            return level(oracle, cfg, path, leaves)
        except RatreconError as e:
            log.append((path, type(e).__name__))
            raise

    monkeypatch.setattr(engine, "_reconstruct_level", spy)
    return log


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp1000003"])
def test_choose_anchors_asks_no_query(field, monkeypatch):
    # Every step of every anchor stream of a run, in both passes' nodes,
    # happens with no oracle call.
    truth = to_ratfun(parse("(x1*x2*x3 + 2)/(x1 + x2^2 - x3)", 3), field, 3)
    steps, calls = [], []
    choose = engine.choose_anchors

    def spy(*args):
        stream = choose(*args)
        while True:
            steps.append(len(calls))
            b = next(stream)
            steps.append(len(calls))
            yield b

    def fn(pt):
        calls.append(pt)
        return truth.eval_or_none(pt)

    monkeypatch.setattr(engine, "choose_anchors", spy)
    report = reconstruct(SliceOracle(3, field, fn), ReconConfig(seed=1))
    assert report.result.same_function(truth)
    assert len(steps) >= 10 and calls
    assert steps[::2] == steps[1::2]


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp1000003"])
def test_a_pole_at_the_first_draw_is_never_an_anchor(field):
    # (x3 - b0) divides the denominator, b0 the first draw of the root's
    # stream: every slice's fitted denominator vanishes there, so the root
    # takes the draws after it.
    cfg = ReconConfig(seed=4)
    first = draws(field, cfg)
    b0 = field.format(first[0])
    truth = to_ratfun(parse(f"(x1 + x2 + x3)/((x3 - ({b0}))*(x1*x2 + 1))", 3), field, 3)
    report = reconstruct(SliceOracle(3, field, truth.eval_or_none), cfg)
    assert report.result.same_function(truth)
    anchors = report.anchors[0]
    assert first[0] not in anchors
    assert anchors == first[1:len(anchors) + 1]


@pytest.mark.parametrize("hole", [0, 1], ids=["first-child", "sibling"])
def test_a_child_on_a_hole_gets_the_next_draw(hole, refusals):
    # The black box is undefined on x3 = b, the root's anchor at `hole`,
    # where the truth is not.  That child refuses and the next draw of the
    # stream, the fourth, takes its place; the run answers the truth.
    cfg = ReconConfig(seed=4)
    truth = to_ratfun(parse("(x1*x2 + x3)/(x1 + x2 + x3 + 1)", 3), FP, 3)
    first = draws(FP, cfg)
    b = first[hole]

    def fn(pt):
        return None if pt[2] == b else truth.eval_or_none(pt)

    report = reconstruct(SliceOracle(3, FP, fn), cfg)
    assert report.result.same_function(truth)
    want = first[:3]
    want[hole] = first[3]
    assert report.anchors[0] == want
    assert refusals == [((hole,), "TooManyFailures")]


@pytest.mark.parametrize("error,retried", [
    (DomainTooSparse("no defined point"), True),
    (TooManyFailures("slices failed"), True),
    (AnchorSearchFailed("no usable anchor"), True),
    (VerificationFailed((1, 2), 3, 4, path=(0,)), False),
    (ZeroDenominator("nothing combines"), False),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else "")
def test_only_a_domain_refusal_below_the_root_is_retried(error, retried, monkeypatch):
    # The first child raises `error` on its first run.  A domain refusal
    # gets the next anchor, and the run answers the truth; any other error
    # propagates at once as the run's error, and no node runs again.
    truth = to_ratfun(parse("(x1 + 2*x2)/(x1*x2 + 3)", 2), FP, 2)
    cfg = ReconConfig(seed=4)
    paths = []
    level = engine._reconstruct_level

    def spy(oracle, cfg_, path, leaves):
        paths.append(path)
        if paths.count((0,)) == 1 and path == (0,):
            raise error
        return level(oracle, cfg_, path, leaves)

    monkeypatch.setattr(engine, "_reconstruct_level", spy)
    oracle = SliceOracle(2, FP, truth.eval_or_none)
    if retried:
        report = reconstruct(oracle, cfg)
        assert report.result.same_function(truth)
        first = draws(FP, cfg)
        assert report.anchors[0] == [first[3]] + first[1:3]
        assert paths == [(), (0,), (0,), (1,), (2,)]
    else:
        with pytest.raises(type(error)) as raised:
            reconstruct(oracle, cfg)
        assert raised.value is error
        assert paths == [(), (0,)]


def test_every_anchor_on_a_hole_refuses_after_the_cap(refusals):
    # The black box is undefined on x2 = b for every draw b of the root's
    # stream.  The first child, a leaf, finds no defined point and refuses;
    # its anchor is replaced twice, and the third refusal is the run's.
    # The root's classification asks 24 points, and each leaf 101 on its
    # hole.
    truth = to_ratfun(parse("(x1 + 2*x2)/(x1*x2 + 3)", 2), FP, 2)
    cfg = ReconConfig(seed=4)
    holes = set(draws(FP, cfg, 12))
    calls = []

    def fn(pt):
        calls.append(pt)
        return None if pt[1] in holes else truth.eval_or_none(pt)

    with pytest.raises(DomainTooSparse, match="101 consecutive undefined"):
        reconstruct(SliceOracle(2, FP, fn), cfg)
    assert refusals == [((0,), "DomainTooSparse")] * (MAX_HOLE_ANCHORS + 1) + \
        [((), "DomainTooSparse")]
    assert len(calls) == 24 + 101 * (MAX_HOLE_ANCHORS + 1)
    assert all(pt[1] in holes for pt in calls[24:])
