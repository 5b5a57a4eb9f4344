"""The anchor search asks the user's function nothing, so the root's
verification trials have no probe answers to take: its check draws all its
points from the root's `verify` stream.  These tests check that run
against references copied from 0.8.0, in which every run drew all its
points and asked the oracle at each of them; no node below the root
checks its result, so no child asks a verification point at all."""

import importlib
from collections import Counter
from fractions import Fraction

import pytest

from ratrecon.fields import FpElement
from ratrecon.poly import field_prime
from ratrecon.reconstruct import Agreement, SliceOracle
from test_two_passes import CASES, asked, stream_hits, traced_reconstruct

engine = importlib.import_module("ratrecon.reconstruct")


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


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_tally_is_the_parent_one_on_the_same_points(case, monkeypatch):
    # the root asks exactly the distinct points of its stream's draws, in
    # the order drawn, and tallies them as 0.8.0 did
    plain, cfg, runs = traced_reconstruct(case, monkeypatch)
    run, = runs
    node = run.oracle
    fresh = SliceOracle(node.arity, node.field, plain, node._suffix)
    hits = stream_hits(cfg, run)
    assert len(hits) == node.arity * cfg.verify_trials
    assert run.calls == asked(run, hits)
    want = parent_verify_agreement(fresh, run.candidate, run.trials, hits)
    assert run.tally == want and run.tally.mismatch is want.mismatch is None


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_child_asks_a_probe_point_again(case, monkeypatch):
    # choosing the anchors asks the user's function at no point, so there
    # is no probe point for a child to ask again, and no child checks its
    # result; the root asks every point of its check once, the distinct
    # points of its draws in the order drawn
    probed, searches = [], []
    choose = engine.choose_anchors

    def spy(oracle, cfg_, rng, dens=()):
        searches.append(oracle._suffix)
        fn = oracle.fn
        seen = SliceOracle(oracle.arity, oracle.field,
                           lambda pt: probed.append(pt) or fn(pt),
                           oracle._suffix)
        return choose(seen, cfg_, rng, dens)

    monkeypatch.setattr(engine, "choose_anchors", spy)
    _, cfg, runs = traced_reconstruct(case, monkeypatch)
    assert len(searches) >= 2 and probed == []
    root, = runs
    assert len(set(root.calls)) == len(root.calls)
    assert root.calls == asked(root, stream_hits(cfg, root))
