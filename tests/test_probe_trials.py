"""In the strict pass, in which every node checks its result, a child's
first verification trials are the answers of the probe that accepted its
anchor (`choose_anchors`), and only the rest are drawn from its `verify`
stream.  These tests check each verification run of that pass against
references copied from 0.8.0, in which every run drew all its points and
asked the oracle at each of them."""

import importlib
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import pytest

from ratrecon.expr import eval_expr, parse, to_ratfun
from ratrecon.fields import QQ, FpElement, PrimeField, derive_rng
from ratrecon.poly import field_prime
from ratrecon.reconstruct import (
    ANCHOR_MIN_DEFINED,
    ANCHOR_PROBE_BATCH,
    MAX_ANCHOR_ATTEMPTS,
    Agreement,
    ReconConfig,
    SliceOracle,
    choose_anchors,
    verify_agreement,
)

from test_level_classes import strict_reconstruct

engine = importlib.import_module("ratrecon.reconstruct")

FP101 = PrimeField(101)
FP = PrimeField(1000003)

# (expression of x1, x2, x3, field, seed)
CASES = {
    # the root's first anchor is unlucky: one more is drawn, and the
    # children at the others fall back from their sparse solve
    "fp101-unlucky": ("(x1 + 40*x3)/(x1 + x3^2)", FP101, 9),
    "fp101-sparse": ("(x1*x2*x3 + 2)/(x1 + x2^2 - x3)", FP101, 9),
    "fp-large": ("(x1*x2*x3 + x2^2)/(x1 + x3^2 - 7)", FP, 6),
    "q": ("(x1^2 - x2*x3/2)/(x3 + 2*x1 + 1)", QQ, 4),
}


def reference_anchors(oracle, axis, cfg, rng):
    """`choose_anchors` of 0.8.0, which asked the oracle at every probe
    draw; yields each anchor with the (id, coordinate) draws of its probe's
    fixed tuples, in draw order."""
    taken = set()
    min_defined = ANCHOR_MIN_DEFINED * ANCHOR_PROBE_BATCH
    draw = oracle.field._sampler(rng, cfg.height_bound)
    while True:
        for _ in range(MAX_ANCHOR_ATTEMPTS):
            key, b = draw()
            if key in taken:
                continue
            defined, hits = 0, []
            for _ in range(ANCHOR_PROBE_BATCH):
                batch = draw(oracle.arity - 1)
                fixed = tuple(c for _, c in batch)
                if oracle.eval(fixed[:axis] + (b,) + fixed[axis:]) is not None:
                    defined += 1
                hits += batch
            if defined >= min_defined:
                taken.add(key)
                yield b, hits
                break
        else:
            raise AssertionError("no usable anchor")


def parent_verify_agreement(oracle, g, trials, hits):
    # verify_agreement of 0.8.0 on the (id, coordinate) draws `hits` in
    # place of its own: every point of the run asked fresh
    field, arity = oracle.field, oracle.arity
    if not hits:
        return Agreement(trials, 0, 0)
    ids, coords = zip(*hits)
    keys = list(zip(*[iter(ids)] * arity))
    counts = Counter(keys)
    points = dict(zip(keys, zip(*[iter(coords)] * arity)))
    wants = [oracle.eval(point) for point in points.values()]
    pairs = g.eval_pairs(points.values())
    p = field_prime(field)
    agreements = skips = 0
    mismatch = None
    for k, point, want, pair in zip(counts.values(), points.values(), wants, pairs):
        if want is None or pair is None:
            skips += k
            continue
        n, d = pair
        t = type(want)
        if t is int:
            agree = n == want * d if p is None else (n - want * d) % p == 0
        elif p is None and t is Fraction:
            agree = n * want.denominator == want.numerator * d
        elif t is FpElement and want.field is field:
            agree = (n - want.residue * d) % p == 0
        else:
            agree = want == g.eval_or_none(point)
        if agree:
            agreements += k
        elif mismatch is None:
            mismatch = (point, want, g.eval_or_none(point))
    return Agreement(trials, agreements, skips, mismatch)


@dataclass
class Run:
    """One verification run of the engine."""
    path: tuple
    oracle: SliceOracle
    candidate: object
    trials: int
    stream: random.Random       # its rng as the run received it
    height_bound: int
    calls: list                 # the user-function points it asked
    tally: Agreement


def traced_reconstruct(case, monkeypatch, **config):
    """Reconstruct CASES[case] in the strict pass, recording every
    verification run; returns (the user's function unspied, the config, the
    runs)."""
    text, field, seed = CASES[case]
    ast = parse(text, 3)

    def plain(pt):
        return eval_expr(ast, pt, field)

    active, paths, runs = [], [], []

    def fn(pt):
        if active:
            active[-1].append(pt)
        return plain(pt)

    verify_node, verify = engine._verify_node, engine.verify_agreement

    def node_spy(oracle, result, cfg_, path):
        paths.append(path)
        try:
            return verify_node(oracle, result, cfg_, path)
        finally:
            paths.pop()

    def spy(oracle, g, trials, rng, height_bound):
        stream = random.Random()
        stream.setstate(rng.getstate())
        active.append([])
        try:
            tally = verify(oracle, g, trials, rng, height_bound)
        finally:
            calls = active.pop()
        runs.append(Run(paths[-1], oracle, g, trials, stream, height_bound, calls, tally))
        return tally

    monkeypatch.setattr(engine, "_verify_node", node_spy)
    monkeypatch.setattr(engine, "verify_agreement", spy)
    cfg = ReconConfig(seed=seed, **config)
    report = strict_reconstruct(SliceOracle(3, field, fn), cfg)
    assert report.result.same_function(to_ratfun(ast, field, 3))
    return plain, cfg, runs


def probe_hits(plain, cfg, run):
    """The draws of the probe that accepted the anchor of `run`'s node, by
    the reference anchor search of its parent."""
    node = run.oracle
    parent = SliceOracle(node.arity + 1, node.field, plain, node._suffix[1:])
    stream = reference_anchors(parent, parent.arity - 1, cfg,
                               derive_rng(cfg.seed, "anchors", *run.path[:-1]))
    b, hits = next(islice(stream, run.path[-1], None))
    assert b == node._suffix[0]
    return hits


def reference_hits(plain, cfg, run):
    """The (id, coordinate) draws of `run`'s trials as 0.8.0 would have
    asked them: its probe's first min(20, trials) fixed tuples, then the
    first points of its verify stream."""
    arity = run.oracle.arity
    probe = probe_hits(plain, cfg, run)[:arity * run.trials] if run.path else []
    stream = random.Random()
    stream.setstate(run.stream.getstate())
    rest = run.trials - len(probe) // arity
    return probe + run.oracle.field._sampler(stream, run.height_bound)(arity * rest)


def full_point(run, ids_and_coords):
    return tuple(c for _, c in ids_and_coords) + run.oracle._suffix


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_tally_is_the_parent_one_on_the_same_points(case, monkeypatch):
    plain, cfg, runs = traced_reconstruct(case, monkeypatch)
    assert sum(bool(run.path) for run in runs) >= 3
    for run in runs:
        node = run.oracle
        fresh = SliceOracle(node.arity, node.field, plain, node._suffix)
        hits = reference_hits(plain, cfg, run)
        assert len(hits) == node.arity * cfg.verify_trials
        want = parent_verify_agreement(fresh, run.candidate, run.trials, hits)
        assert run.tally == want and run.tally.mismatch is want.mismatch is None, run.path


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_child_asks_a_probe_point_again(case, monkeypatch):
    # a child asks exactly the distinct points of its drawn trials that its
    # probe did not ask, in the order drawn
    plain, cfg, runs = traced_reconstruct(case, monkeypatch)
    for run in runs:
        if not run.path:
            continue
        arity = run.oracle.arity
        hits = probe_hits(plain, cfg, run)
        probed = {full_point(run, hits[i:i + arity]) for i in range(0, len(hits), arity)}
        assert not probed & set(run.calls), run.path
        drawn = reference_hits(plain, cfg, run)[arity * ANCHOR_PROBE_BATCH:]
        assert run.calls == list(dict.fromkeys(
            pt for i in range(0, len(drawn), arity)
            if (pt := full_point(run, drawn[i:i + arity])) not in probed)), run.path


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_root_asks_the_parent_points(case, monkeypatch):
    plain, cfg, runs = traced_reconstruct(case, monkeypatch)
    root, = [run for run in runs if not run.path]
    stream = derive_rng(cfg.seed, "verify")
    hits = root.oracle.field._sampler(stream, cfg.height_bound)(3 * cfg.verify_trials)
    assert root.calls == list(dict.fromkeys(
        full_point(root, hits[i:i + 3]) for i in range(0, len(hits), 3)))


class NoDraws:
    def getrandbits(self, k):
        raise AssertionError("a verification drew a point")


def test_five_trials_take_the_first_five_probe_answers():
    text, field, seed = CASES["fp101-sparse"]
    ast = parse(text, 3)
    calls = []
    oracle = SliceOracle(3, field, lambda pt: calls.append(pt) or eval_expr(ast, pt, field))
    cfg = ReconConfig(seed=seed, verify_trials=5)
    probes = []
    b = next(choose_anchors(oracle, 2, cfg, derive_rng(seed, "anchors"), probes))
    child = oracle._restrict(b, probes[0])
    candidate = to_ratfun(parse(text.replace("x3", field.format(b)), 2), field, 2)
    calls.clear()
    tally = verify_agreement(child, candidate, 5, NoDraws(), cfg.height_bound)
    assert calls == []
    hits = [hit for ids, fixed, _ in probes[0][:5] for hit in zip(ids, fixed)]
    fresh = SliceOracle(2, field, lambda pt: eval_expr(ast, pt, field), (b,))
    assert tally == parent_verify_agreement(fresh, candidate, 5, hits)
    assert tally[0] == 5 and tally[1] + tally[2] == 5


@pytest.mark.parametrize("case", sorted(CASES))
def test_five_trials_draw_nothing_below_the_root(case, monkeypatch):
    _, _, runs = traced_reconstruct(case, monkeypatch, verify_trials=5)
    assert all(run.tally[0] == 5 for run in runs)
    assert all(run.calls == [] for run in runs if run.path)
