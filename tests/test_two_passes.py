"""`reconstruct` against its strict pass.

The fast pass checks only the root's result; the strict pass, which runs
when the fast pass fails after a node skipped its check, is the engine in
which every node checks its own result (`strict_reconstruct`).  On the
benchmark's recon shapes the fast pass answers with the strict pass's
report byte for byte and fewer oracle calls; a refusal raised before any
skipped check is the strict pass's own and runs once.  A wrong sparse
solve that the fast pass lets through either fails the root's check, and
the run gives the strict pass's report, or, when it does not combine, is
left out by the unlucky-anchor retry, and the checked answer stands.

In the strict pass every node draws all its trials from its own `verify`
stream and asks the oracle at each distinct point drawn, as 0.8.0 did;
tests/test_probe_trials.py checks each run's tally against 0.8.0's, on
the runs that `traced_reconstruct` records."""

import importlib
import pathlib
from dataclasses import dataclass

import pytest

from faults import counterexample_oracle
from ratrecon.errors import TooManyFailures, VerificationFailed
from ratrecon.expr import eval_expr, parse, to_ratfun
from ratrecon.fields import QQ, PrimeField, _draw_point, derive_rng
from ratrecon.reconstruct import Agreement, ReconConfig, SliceOracle, reconstruct
from test_level_classes import root_anchors, strict_reconstruct

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
    """One entry per run of the root: True for the fast pass."""
    runs = []
    level = engine._reconstruct_level

    def spy(oracle, cfg, path, leaves):
        if not path:
            runs.append(oracle._skipped is not None)
        return level(oracle, cfg, path, leaves)

    monkeypatch.setattr(engine, "_reconstruct_level", spy)
    return runs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["recon_sparse_fp", "recon_dense_fp", "recon_q"])
def test_fast_pass_gives_the_strict_report_with_fewer_calls(workloads, roots, name, seed):
    for i in range(len(workloads.WORKLOADS[name].cycle)):
        inst = workloads.instance(name, seed, i)
        inst.prepare()
        oracle, cfg = inst.slice_oracle, inst.recon_config
        fast, fast_calls = counted(oracle.fn)
        strict, strict_calls = counted(oracle.fn)
        roots.clear()
        report = reconstruct(SliceOracle(oracle.arity, oracle.field, fast), cfg)
        assert roots == [True], (name, i)
        assert inst.check(report), (name, i)
        want = strict_reconstruct(SliceOracle(oracle.arity, oracle.field, strict), cfg)
        assert report.to_json() == want.to_json(), (name, i)
        assert len(fast_calls) < len(strict_calls), (name, i)


POWER = parse("(x1 + x2 + 1)^1024", 2)


@pytest.mark.parametrize("fn,field", [
    (lambda pt: eval_expr(POWER, pt, FP), FP),
    (counterexample_oracle, QQ),        # the paper's function
], ids=["power", "counterexample"])
def test_refusal_before_any_skipped_check_runs_once(roots, fn, field):
    # every slice of the root fails its detection, before any node below
    # the root has run
    cfg = ReconConfig(seed=1)
    fast, fast_calls = counted(fn)
    with pytest.raises(TooManyFailures) as refused:
        reconstruct(SliceOracle(2, field, fast), cfg)
    assert roots == [True]
    strict, strict_calls = counted(fn)
    with pytest.raises(TooManyFailures) as want:
        strict_reconstruct(SliceOracle(2, field, strict), cfg)
    assert str(refused.value) == str(want.value)
    assert fast_calls == strict_calls


def test_wrong_sparse_solve_fails_the_root_and_the_strict_pass_answers(roots,
                                                                       monkeypatch):
    # On the second root anchor x3 = b1 the oracle answers the truth's
    # restriction to x3 = b1 + 1 at the points of that sibling's sparse
    # stream, and the truth everywhere else.  The solve finds that function
    # and its check rows agree.  The fast pass does not check the sibling,
    # and the root combines it: a function of the same class in x3 that
    # is the lie on x3 = b1, which the root's check rejects.  The strict
    # pass checks the sibling, which falls back and recurses to the truth.
    text = "(x1*x2 + x3)/(x1 + x2 + x3 + 1)"
    truth = to_ratfun(parse(text, 3), FP, 3)
    cfg = ReconConfig(seed=3)
    b1 = root_anchors(text, 3, FP, cfg)[1]
    lie = b1 + FP.one
    draw = FP._sampler(derive_rng(cfg.seed, "sparse", 1), cfg.height_bound)
    lied = {_draw_point(draw, 2)[1] for _ in range(100)}

    def fn(pt):
        if pt[2] == b1 and pt[:2] in lied:
            return truth.eval_or_none(pt[:2] + (lie,))
        return truth.eval_or_none(pt)

    failures = []
    verify_node = engine._verify_node

    def spy(oracle, result, cfg_, path):
        try:
            return verify_node(oracle, result, cfg_, path)
        except VerificationFailed:
            failures.append((oracle._skipped is not None, path))
            raise

    monkeypatch.setattr(engine, "_verify_node", spy)
    roots.clear()
    report = reconstruct(SliceOracle(3, FP, fn), cfg)
    assert roots == [True, False]
    assert failures == [(True, ()), (False, (1,))]
    assert report.result.same_function(truth)
    assert report.to_json() == strict_reconstruct(SliceOracle(3, FP, fn), cfg).to_json()
    assert report.to_json()["nodes"]["fallbacks"] == 1


def test_a_wrong_sibling_the_retry_leaves_out_is_not_rerun(roots):
    # A lie of another class on the same sibling's sparse stream: the
    # function (x1*x2 + 2*b1)/(x1 + x2 + b1 + 1), which no function of the
    # root's class combines with the first child.  The fast pass takes it
    # unchecked, the combine fails, and the unlucky-anchor retry draws one
    # more anchor and combines without it: the truth, which passes the
    # root's check.  That answer stands, with one anchor and one sparse
    # node more than the strict pass, whose check of the sibling makes it
    # fall back instead.
    text = "(x1*x2 + x3)/(x1 + x2 + x3 + 1)"
    truth = to_ratfun(parse(text, 3), FP, 3)
    cfg = ReconConfig(seed=3)
    b1 = root_anchors(text, 3, FP, cfg)[1]
    g = to_ratfun(parse(f"(x1*x2 + {2 * b1.residue})/(x1 + x2 + {b1.residue} + 1)", 2),
                  FP, 2)
    draw = FP._sampler(derive_rng(cfg.seed, "sparse", 1), cfg.height_bound)
    lied = {_draw_point(draw, 2)[1] for _ in range(100)}

    def fn(pt):
        if pt[2] == b1 and pt[:2] in lied:
            return g.eval_or_none(pt[:2])
        return truth.eval_or_none(pt)

    roots.clear()
    report = reconstruct(SliceOracle(3, FP, fn), cfg)
    assert roots == [True]
    assert report.result.same_function(truth)
    strict = strict_reconstruct(SliceOracle(3, FP, fn), cfg)
    assert strict.result.same_function(truth)
    assert report.anchors[0] == strict.anchors[0] + report.anchors[0][3:]
    assert len(report.anchors[0]) == len(strict.anchors[0]) + 1
    assert report.to_json()["nodes"] == {"recursed": 5, "sparse": 3, "fallbacks": 0}
    assert strict.to_json()["nodes"] == {"recursed": 9, "sparse": 1, "fallbacks": 1}


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
    path: tuple
    oracle: SliceOracle
    candidate: object
    trials: int
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
        active.append([])
        try:
            tally = verify(oracle, g, trials, rng, height_bound)
        finally:
            calls = active.pop()
        runs.append(Run(paths[-1], oracle, g, trials, calls, tally))
        return tally

    monkeypatch.setattr(engine, "_verify_node", node_spy)
    monkeypatch.setattr(engine, "verify_agreement", spy)
    cfg = ReconConfig(seed=seed, **config)
    report = strict_reconstruct(SliceOracle(3, field, fn), cfg)
    assert report.result.same_function(to_ratfun(ast, field, 3))
    return plain, cfg, runs


def stream_hits(cfg, run):
    """The (id, coordinate) draws of `run`'s trials: the first points of
    the `verify` stream of its node's path."""
    node = run.oracle
    stream = derive_rng(cfg.seed, "verify", *run.path)
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
    root, = [run for run in runs if not run.path]
    stream = derive_rng(cfg.seed, "verify")
    hits = root.oracle.field._sampler(stream, cfg.height_bound)(3 * cfg.verify_trials)
    assert root.calls == asked(root, hits)


@pytest.mark.parametrize("case", sorted(CASES))
def test_five_trials_draw_five(case, monkeypatch):
    _, cfg, runs = traced_reconstruct(case, monkeypatch, verify_trials=5)
    assert sum(bool(run.path) for run in runs) >= 3
    for run in runs:
        hits = stream_hits(cfg, run)
        assert run.tally[0] == 5 and len(hits) == 5 * run.oracle.arity
        assert run.calls == asked(run, hits), run.path
