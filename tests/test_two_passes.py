"""`reconstruct` runs one pass where 0.11.0 ran two, a fast pass checked
only at the root and a strict pass that rebuilt the tree with every node
checked; the file keeps its name, and its tests check what took the two
passes' place.

Only the root checks its result: on the benchmark's recon shapes the engine
runs `verify_agreement` once per run, on the root's `verify` stream, and
answers the truth.  A refusal raised before any check runs once.  A wrong
sparse solve shows at the root, where its combine fails or the root's check
does, and the unlucky-anchor retry leaves it out; the root's check asks
each of its points at most once over all its candidates.

The root draws all its trials from its `verify` stream and asks the oracle
at each distinct point drawn, as 0.8.0 did; tests/test_probe_trials.py
checks its tally against 0.8.0's, on the runs that `traced_reconstruct`
records."""

import importlib
import pathlib
from dataclasses import dataclass

import pytest

from faults import KINDS, counterexample_oracle
from ratrecon.errors import TooManyFailures, VerificationFailed
from ratrecon.expr import eval_expr, parse, to_ratfun
from ratrecon.fields import QQ, PrimeField, _draw_point, derive_rng
from ratrecon.reconstruct import Agreement, ReconConfig, SliceOracle, reconstruct
from test_level_classes import root_anchors
from test_level_classes import root_checks as checks  # noqa: F401  (fixture)

engine = importlib.import_module("ratrecon.reconstruct")

FP101 = PrimeField(101)
FP = PrimeField(1000003)


def counted(fn):
    """`fn` and the list it appends each point it is asked to."""
    calls = []
    return (lambda pt: calls.append(pt) or fn(pt)), calls


@pytest.fixture
def workloads(monkeypatch):
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    return importlib.import_module("workloads")


@pytest.fixture
def roots(monkeypatch):
    """One entry per run of the root node."""
    runs = []
    level = engine._reconstruct_level

    def spy(oracle, cfg, path, leaves):
        if not path:
            runs.append(path)
        return level(oracle, cfg, path, leaves)

    monkeypatch.setattr(engine, "_reconstruct_level", spy)
    return runs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["recon_sparse_fp", "recon_dense_fp", "recon_q"])
def test_only_the_root_checks_once_per_run(workloads, roots, checks, name, seed):
    for i in range(len(workloads.WORKLOADS[name].cycle)):
        inst = workloads.instance(name, seed, i)
        inst.prepare()
        roots.clear()
        checks.clear()
        report = reconstruct(inst.slice_oracle, inst.recon_config)
        assert inst.check(report), (name, i)
        assert roots == [()], (name, i)
        root = derive_rng(inst.recon_config.seed, "verify").getstate()
        assert [state for state, *_ in checks] == [root], (name, i)
        assert report.verification == checks[0][1], (name, i)


POWER = parse("(x1 + x2 + 1)^1024", 2)


@pytest.mark.parametrize("fn,field", [
    (lambda pt: eval_expr(POWER, pt, FP), FP),
    (counterexample_oracle, QQ),        # the paper's function
], ids=["power", "counterexample"])
def test_refusal_before_any_skipped_check_runs_once(roots, checks, fn, field):
    # every slice of the root fails its detection, before any node below
    # the root has run: the root runs once and checks nothing
    with pytest.raises(TooManyFailures):
        reconstruct(SliceOracle(2, field, fn), ReconConfig(seed=1))
    assert roots == [()] and checks == []


def lie_on_sparse_stream(text, lie, cfg):
    """The oracle of `text` over F_1000003 at arity 3, that answers `lie`
    at the points of the second root anchor's sparse stream, on that
    anchor's hyperplane; `lie` takes the truth and the point (x1, x2)."""
    truth = to_ratfun(parse(text, 3), FP, 3)
    b1 = root_anchors(text, 3, FP, cfg)[1]
    draw = FP._sampler(derive_rng(cfg.seed, "sparse", 1), cfg.height_bound)
    lied = {_draw_point(draw, 2)[1] for _ in range(100)}

    def fn(pt):
        if pt[2] == b1 and pt[:2] in lied:
            return lie(truth, b1, pt[:2])
        return truth.eval_or_none(pt)

    return truth, fn


def test_wrong_sparse_solve_fails_the_root_and_the_strict_pass_answers(roots, checks):
    # On the second root anchor x3 = b1 the oracle answers the truth's
    # restriction to x3 = b1 + 1 at the points of that sibling's sparse
    # stream, and the truth everywhere else.  The solve finds that function
    # and its check rows agree.  No node below the root checks the sibling,
    # and the root combines it: a function of the same class in x3 that
    # is the lie on x3 = b1, which the root's check rejects at path ().
    # The unlucky-anchor retry, where 0.11.0 ran its strict pass, draws a
    # fourth anchor and combines its sibling with each two of the others:
    # with the wrong one the check fails again, on the points it has asked
    # already, and without it the truth passes.  The run asks 296 queries,
    # each once, where 0.11.0's two passes asked 2624.
    cfg = ReconConfig(seed=3)
    truth, fn = lie_on_sparse_stream(
        "(x1*x2 + x3)/(x1 + x2 + x3 + 1)",
        lambda truth, b1, x: truth.eval_or_none(x + (b1 + FP.one,)), cfg)
    fn, calls = counted(fn)
    roots.clear()
    checks.clear()
    report = reconstruct(SliceOracle(3, FP, fn), cfg)
    assert roots == [()]
    assert [tally.mismatch is None for _, tally, _ in checks] == [False, False, True]
    assert checks[1][2] == checks[2][2] == []
    assert report.result.same_function(truth)
    assert report.verification == checks[2][1]
    assert len(report.anchors[0]) == 4
    assert report.to_json()["nodes"] == {"recursed": 5, "sparse": 3, "fallbacks": 0}
    assert len(calls) == len(set(calls)) == 296


def test_a_wrong_sibling_the_retry_leaves_out_is_not_rerun(roots, checks):
    # A lie of another class on the same sibling's sparse stream: the
    # function (x1*x2 + 2*b1)/(x1 + x2 + b1 + 1), which no function of the
    # root's class combines with the first child.  The root takes it
    # unchecked, the combine fails, and the unlucky-anchor retry draws one
    # more anchor and combines without it: the truth, which passes the
    # root's check at its first run, and no node runs again.
    cfg = ReconConfig(seed=3)

    def lie(truth, b1, x):
        g = to_ratfun(parse(f"(x1*x2 + {2 * b1.residue})/(x1 + x2 + {b1.residue} + 1)",
                            2), FP, 2)
        return g.eval_or_none(x)

    truth, fn = lie_on_sparse_stream("(x1*x2 + x3)/(x1 + x2 + x3 + 1)", lie, cfg)
    roots.clear()
    checks.clear()
    report = reconstruct(SliceOracle(3, FP, fn), cfg)
    assert roots == [()] and len(checks) == 1
    assert report.result.same_function(truth)
    assert len(report.anchors[0]) == 4
    assert report.to_json()["nodes"] == {"recursed": 5, "sparse": 3, "fallbacks": 0}


def test_the_root_asks_each_check_point_once_across_candidates(checks):
    # A box that is wrong at a hundredth of all points, over Q: the root's
    # result fails its check, and so does each of the nine candidates of
    # the unlucky-anchor retry, on the same points.  Only the first check
    # asks the oracle; the run refuses with the first check's mismatch.
    truth = to_ratfun(parse("(x1*x2*x3 + 2)/(x1 + x2^2 - x3)", 3), QQ, 3)
    with pytest.raises(VerificationFailed) as info:
        reconstruct(SliceOracle(3, QQ, KINDS["pointwise"](truth)), ReconConfig(seed=1))
    assert len(checks) == 10
    first = checks[0][1].mismatch
    assert (info.value.path, info.value.point) == ((), first[0])
    assert all(tally.mismatch is not None for _, tally, _ in checks)
    asked = [pt for *_, points in checks for pt in points]
    assert asked == checks[0][2] and len(asked) == len(set(asked))


# (expression of x1, x2, x3, field, seed)
CASES = {
    # the root's first anchor is unlucky: one more is drawn, and the
    # children at the others fall back from their sparse solve
    "fp101-unlucky": ("(x1 + 40*x3)/(x1 + x3^2)", FP101, 9),
    "fp101-sparse": ("(x1*x2*x3 + 2)/(x1 + x2^2 - x3)", FP101, 9),
    "fp-large": ("(x1*x2*x3 + x2^2)/(x1 + x3^2 - 7)", FP, 6),
    "q": ("(x1^2 - x2*x3/2)/(x3 + 2*x1 + 1)", QQ, 4),
}


@dataclass
class Run:
    """One verification run of the engine."""
    oracle: SliceOracle
    candidate: object
    trials: int
    calls: list                 # the user-function points it asked
    tally: Agreement


def traced_reconstruct(case, monkeypatch, **config):
    """Reconstruct CASES[case], recording every verification run; returns
    (the user's function unspied, the config, the runs)."""
    text, field, seed = CASES[case]
    ast = parse(text, 3)

    def plain(pt):
        return eval_expr(ast, pt, field)

    active, runs = [], []

    def fn(pt):
        if active:
            active[-1].append(pt)
        return plain(pt)

    verify = engine.verify_agreement

    def spy(oracle, g, trials, rng, height_bound, values):
        active.append([])
        try:
            tally = verify(oracle, g, trials, rng, height_bound, values)
        finally:
            calls = active.pop()
        runs.append(Run(oracle, g, trials, calls, tally))
        return tally

    monkeypatch.setattr(engine, "verify_agreement", spy)
    cfg = ReconConfig(seed=seed, **config)
    report = reconstruct(SliceOracle(3, field, fn), cfg)
    assert report.result.same_function(to_ratfun(ast, field, 3))
    return plain, cfg, runs


def stream_hits(cfg, run):
    """The (id, coordinate) draws of `run`'s trials: the first points of
    the root's `verify` stream."""
    node = run.oracle
    stream = derive_rng(cfg.seed, "verify")
    return node.field._sampler(stream, cfg.height_bound)(node.arity * run.trials)


def asked(run, hits):
    """The distinct points of `hits`, in the order drawn, as the user's
    function sees them."""
    arity = run.oracle.arity
    return list(dict.fromkeys(tuple(c for _, c in hits[i:i + arity]) + run.oracle._suffix
                              for i in range(0, len(hits), arity)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_root_asks_the_parent_points(case, monkeypatch):
    plain, cfg, runs = traced_reconstruct(case, monkeypatch)
    root, = runs
    stream = derive_rng(cfg.seed, "verify")
    hits = root.oracle.field._sampler(stream, cfg.height_bound)(3 * cfg.verify_trials)
    assert root.calls == asked(root, hits)


@pytest.mark.parametrize("case", sorted(CASES))
def test_five_trials_draw_five(case, monkeypatch):
    _, cfg, runs = traced_reconstruct(case, monkeypatch, verify_trials=5)
    root, = runs
    hits = stream_hits(cfg, root)
    assert root.tally[0] == 5 and len(hits) == 5 * root.oracle.arity
    assert root.calls == asked(root, hits)
