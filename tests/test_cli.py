import argparse
import hashlib
import json
import math
import pathlib
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ratrecon.cli as cli
from ratrecon import errors
from ratrecon.cli import main
from ratrecon.expr import eval_expr, parse
from ratrecon.fields import PrimeField, derive_rng
from ratrecon.interp import detect_profile_with_fit
from ratrecon.poly import WORD_PRIME
from ratrecon.reconstruct import ReconConfig, SliceOracle, reconstruct


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fib_series(path, n=20):
    vals = [1, 1]
    while len(vals) <= n:
        vals.append(vals[-1] + vals[-2])
    path.write_text(json.dumps(
        {"field": "q", "coeffs": [str(v) for v in vals[:n + 1]]}))


def write_squares_series(path, n=40):
    import math
    coeffs = ["1" if math.isqrt(i) ** 2 == i else "0" for i in range(n + 1)]
    path.write_text(json.dumps({"field": "q", "coeffs": coeffs}))


def test_hankel_fibonacci(tmp_path, capsys):
    f = tmp_path / "fib.json"
    write_fib_series(f)
    code, out, _ = run_cli(capsys, "hankel", "--series", str(f),
                           "--lmax", "5", "--mmax", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["verdict"] == "RationalWitness"
    assert obj["certificate"]["witness_den_at0is1"] == "1 - t - t^2"
    assert obj["manifest"]["command"] == "hankel"


def test_hankel_no_witness(tmp_path, capsys):
    f = tmp_path / "squares.json"
    write_squares_series(f)
    code, out, _ = run_cli(capsys, "hankel", "--series", str(f))
    assert code == 3
    assert json.loads(out)["certificate"]["verdict"] == "NoWitnessUpTo"


def test_hankel_malformed_json(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"field": "q", "coeffs": [1, }')
    code, _, err = run_cli(capsys, "hankel", "--series", str(f))
    assert code == 1
    assert "offset" in err


def test_hankel_series_not_an_object(tmp_path, capsys):
    f = tmp_path / "list.json"
    f.write_text("[1, 2, 3]")
    code, out, err = run_cli(capsys, "hankel", "--series", str(f))
    assert code == 1
    assert out == ""
    assert err.startswith("input error: bad series file")


@pytest.mark.parametrize("field", ["q", "fp:101"])
def test_hankel_zero_denominator_coefficient(tmp_path, capsys, field):
    f = tmp_path / "div0.json"
    f.write_text(json.dumps({"field": field, "coeffs": ["1", "1/0", "2"]}))
    code, out, err = run_cli(capsys, "hankel", "--series", str(f))
    assert code == 1
    assert out == ""
    assert err.startswith("input error: bad series file")


def test_hankel_negative_bounds(tmp_path, capsys):
    f = tmp_path / "fib.json"
    write_fib_series(f)
    code, out, err = run_cli(capsys, "hankel", "--series", str(f),
                             "--lmax", "-1", "--mmax", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: scan bounds must be >= 0")


def test_hankel_field_mismatch(tmp_path, capsys):
    f = tmp_path / "fib.json"
    write_fib_series(f)
    code, _, err = run_cli(capsys, "hankel", "--series", str(f), "--field", "fp:7")
    assert code == 1


def test_interp_at(tmp_path, capsys):
    f = tmp_path / "inv.csv"
    f.write_text("1,1\n2,1/2\n4,1/4\n")
    code, out, _ = run_cli(capsys, "interp", "--samples", str(f),
                           "--field", "q", "--n", "0", "--m", "1", "--at", "3")
    assert code == 0
    assert json.loads(out)["value"] == "1/3"


def test_interp_fit(tmp_path, capsys):
    f = tmp_path / "sq.csv"
    f.write_text("0,1\n1,2\n2,5\n3,10\n")
    code, out, _ = run_cli(capsys, "interp", "--samples", str(f),
                           "--field", "q", "--n", "2", "--m", "0", "--fit")
    assert code == 0
    assert json.loads(out)["ratfun"] == "(x1^2 + 1)/(1)"


def test_interp_json_samples(tmp_path, capsys):
    f = tmp_path / "inv.json"
    f.write_text(json.dumps({"samples": [["1", "1"], ["2", "1/2"]]}))
    code, out, _ = run_cli(capsys, "interp", "--samples", str(f),
                           "--field", "q", "--n", "0", "--m", "1", "--at", "3")
    assert code == 0
    assert json.loads(out)["value"] == "1/3"


def test_interp_json_samples_zero_denominator(tmp_path, capsys):
    f = tmp_path / "div0.json"
    f.write_text(json.dumps({"samples": [["1", "1"], ["2", "1/0"]]}))
    code, out, err = run_cli(capsys, "interp", "--samples", str(f),
                             "--field", "q", "--n", "0", "--m", "1", "--at", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: bad samples JSON")


@pytest.mark.parametrize("field, message", [
    ("q", "zero denominator in '1/0'"),
    ("fp:101", "zero denominator mod 101 in '1/202'")])
def test_interp_zero_denominator_names_itself(tmp_path, capsys, field, message):
    # a sample line and an --at value with a zero denominator are input
    # errors that name the denominator and the text
    bad = message.split("'")[1]
    f = tmp_path / "div0.csv"
    f.write_text(f"1,1\n2,{bad}\n")
    code, out, err = run_cli(capsys, "interp", "--samples", str(f),
                             "--field", field, "--n", "0", "--m", "1", "--at", "3")
    assert (code, out, err) == (1, "", f"input error: {f}:2: {message}\n")
    f.write_text("1,1\n2,3\n")
    code, out, err = run_cli(capsys, "interp", "--samples", str(f),
                             "--field", field, "--n", "0", "--m", "1", "--at", bad)
    assert (code, out, err) == (1, "", f"input error: bad --at value: {message}\n")


def test_interp_beta_zero_exit(tmp_path, capsys):
    f = tmp_path / "inv.csv"
    f.write_text("1,1\n2,1/2\n")
    code, _, err = run_cli(capsys, "interp", "--samples", str(f),
                           "--field", "q", "--n", "0", "--m", "1", "--at", "0")
    assert code == 4


def test_interp_no_fit_exit(tmp_path, capsys):
    f = tmp_path / "inv.csv"
    f.write_text("1,1\n2,1/2\n4,1/4\n")
    code, _, _ = run_cli(capsys, "interp", "--samples", str(f),
                         "--field", "q", "--n", "1", "--m", "0", "--fit")
    assert code == 5


@pytest.mark.parametrize("n,m", [("-1", "1"), ("1", "-1"), ("-2", "-3")])
@pytest.mark.parametrize("mode", [("--fit",), ("--at", "3")])
def test_interp_negative_degrees(tmp_path, capsys, n, m, mode):
    f = tmp_path / "inv.csv"
    f.write_text("1,1\n2,1/2\n4,1/4\n")
    code, out, err = run_cli(capsys, "interp", "--samples", str(f),
                             "--field", "q", "--n", n, "--m", m, *mode)
    assert code == 1
    assert out == ""
    flag, value = ("--n", n) if n.startswith("-") else ("--m", m)
    assert err == f"input error: {flag} must be >= 0, got {value}\n"


def test_reconstruct_expr_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "reconstruct",
                           "--expr", "(x1*x2+1)/(x1-x2)", "--arity", "2",
                           "--field", "fp:1000003", "--seed", "11")
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["result"] == "(x1*x2 + 1)/(x1 - x2)"
    v = obj["report"]["verification"]
    assert v["agreements"] == v["trials"] - v["undefined_skips"]


def test_reconstruct_polynomial_example(capsys):
    code, out, _ = run_cli(capsys, "reconstruct",
                           "--expr", "x1^3 + x1*x2^3", "--arity", "2",
                           "--field", "fp:1000003", "--seed", "12")
    assert code == 0
    assert json.loads(out)["report"]["result"] == "(x1^3 + x1*x2^3)/(1)"


def test_reconstruct_univariate(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--expr", "1/x1",
                           "--arity", "1", "--field", "fp:1000003", "--seed", "13")
    assert code == 0
    assert json.loads(out)["report"]["result"] == "(1)/(x1)"


def test_reconstruct_deterministic_stdout(capsys):
    args = ("reconstruct", "--expr", "(x1*x2+1)/(x1-x2)", "--arity", "2",
            "--field", "fp:1000003", "--seed", "21")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_reconstruct_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RATRECON_SEED", "77")
    args = ("reconstruct", "--expr", "x1+x2", "--arity", "2",
            "--field", "fp:1000003")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["manifest"]["seed"] == 77


def test_reconstruct_record_and_replay(tmp_path, capsys):
    rec = tmp_path / "replay.json"
    args = ("reconstruct", "--expr", "(x1*x2+1)/(x1-x2)", "--arity", "2",
            "--field", "fp:101", "--seed", "31")
    code, out1, _ = run_cli(capsys, *args, "--record", str(rec))
    assert code == 0
    code2, out2, _ = run_cli(capsys, "reconstruct",
                             "--oracle-replay", str(rec), "--arity", "2",
                             "--field", "fp:101", "--seed", "31")
    assert code2 == 0
    r1 = json.loads(out1)["report"]
    r2 = json.loads(out2)["report"]
    assert r1 == r2


# seed 5002 #62 of the `recon_q` benchmark workload: on the hyperplane
# x3 = 0 its numerator and denominator share the factor x2
UNLUCKY_SIBLING = ("(-420*x1^2*x3 - 60*x1*x2*x3 + 252*x1*x2)"
                   "/(700*x1*x2*x3^2 + 3360*x1*x2 - 315*x2)")


def test_reconstruct_combines_a_sibling_that_keeps_its_factor(monkeypatch, capsys):
    # The root's third anchor is 0.  Its child is solved on the support of
    # the first, the restriction to x3 = 1/2, scaled and not reduced, so it
    # is the exact restriction and the four children combine.  0.12.0
    # reduced it, drew a fifth anchor, 5/2, and asked 308 queries.
    asked = []

    def counted(ast, pt, field):
        asked.append(pt)
        return eval_expr(ast, pt, field)

    monkeypatch.setattr(cli, "eval_expr", counted)
    code, out, _ = run_cli(capsys, "reconstruct", "--expr", UNLUCKY_SIBLING,
                           "--arity", "3", "--field", "q", "--seed", "1521320594")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["result"] == UNLUCKY_SIBLING
    assert report["verification"] == {"trials": 200, "agreements": 192,
                                      "undefined_skips": 8}
    assert report["anchors"][0] == ["1/2", "3/5", "0", "1/4"]
    assert len(asked) == 300


@pytest.mark.parametrize("argv,name", [
    (("reconstruct", "--expr", "(x1*x2+1)/(x1-x2)", "--arity", "2",
      "--field", "fp:101", "--record"), "f.json"),
    (("counterexample", "--n", "3", "--dmax", "0", "--grid", "2", "--table-out"),
     "t.csv")], ids=["record", "table-out"])
def test_an_output_file_that_cannot_be_written_is_an_input_error(tmp_path, capsys,
                                                                 monkeypatch, argv, name):
    # the path is opened before the run: neither command starts its work
    ran = []
    for work in ("reconstruct", "nonrationality_report"):
        monkeypatch.setattr(cli, work, lambda *a, work=work: ran.append(work))
    path = tmp_path / "missing" / name
    code, out, err = run_cli(capsys, *argv, str(path))
    assert ran == []
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: cannot write {path}: ")
    assert err.count("\n") == 1 and "No such file or directory" in err
    assert not path.parent.exists()


def replay_record(tmp_path, text, arity, field, seed, off=lambda pt: False):
    """Run `reconstruct` on `text`, with the oracle's values one more at the
    points where `off` holds; returns (the run's report, or None where it refused,
    the points it asked with their values, and a function that writes them
    as a replay file)."""
    ast = parse(text, arity)
    asked = {}

    def recording(pt):
        value = eval_expr(ast, pt, field)
        asked[pt] = value + 1 if off(pt) else value
        return asked[pt]

    try:
        report = reconstruct(SliceOracle(arity, field, recording), ReconConfig(seed=seed))
    except errors.VerificationFailed:
        report = None

    def write():
        rec = tmp_path / "replay.json"
        rec.write_text(json.dumps({"arity": arity, "field": field.descriptor(), "samples": [
            {"point": [field.format(c) for c in pt],
             "value": None if v is None else field.format(v)} for pt, v in asked.items()]}))
        return rec

    return report, asked, write


def test_reconstruct_verification_failure_detail(tmp_path, capsys):
    # The replay of a run whose last defined point has its value off by
    # one: the root's check asks for it last, fails there, and so does
    # every candidate of the unlucky-anchor retry, whose points the replay
    # lists too.
    field = PrimeField(1000003)
    _, clean, _ = replay_record(tmp_path, "(x1*x2+1)/(x1-x2)", 2, field, 31)
    point = [pt for pt, v in clean.items() if v is not None][-1]
    value = field.format(clean[point])
    report, asked, write = replay_record(tmp_path, "(x1*x2+1)/(x1-x2)", 2, field, 31,
                                         off=lambda pt: pt == point)
    assert report is None
    oracle = field.format(asked[point])
    code, out, _ = run_cli(capsys, "reconstruct", "--oracle-replay", str(write()),
                           "--arity", "2", "--field", "fp:1000003", "--seed", "31")
    assert code == 6
    a, b = (field.format(c) for c in point)
    assert json.loads(out)["error"] == {
        "kind": "VerificationFailed",
        "detail": f"reconstruction mismatch at recursion path (), point ({a}, {b}): "
                  f"oracle {oracle}, result {value}",
        "path": [],
        "point": [a, b],
        "oracle": oracle,
        "result": value}


@pytest.mark.parametrize("seed,failed", [("1", 12), ("5", 10)])
def test_reconstruct_refusal_on_a_sparse_domain_is_kept(capsys, seed, failed):
    # In the 7-value box of height 2, x3 = 1/2 is a pole and half the
    # root's slices are dead.  The root's first slices give a class too low,
    # its verification fails, and the full classification's refusal stands:
    # exit 7 with the refusal that classifying all 20 slices first gives.
    code, out, err = run_cli(capsys, "reconstruct", "--expr",
                             "(-x1*x2 + 6*x1)/(2*x3 - 1)", "--arity", "3",
                             "--field", "q", "--height-bound", "2", "--seed", seed)
    assert code == 7
    assert err == (f"reconstruction budget failure: {failed}/20 slices failed "
                   "profile detection; oracle is likely not slice-rational "
                   "within the budget\n")


def test_reconstruct_verification_failure_fields_name_the_root(tmp_path, capsys):
    # The replay of a run whose values are off by one on the whole first
    # anchor hyperplane x2 = b and at the last fresh point of the root's
    # check.  The first child is then the wrong function, unchecked, and no
    # three children with it combine; the unlucky-anchor retry leaves it
    # out, and every candidate without it fails the root's check at that
    # last point.  The error names the root, in its own coordinates.
    field = PrimeField(1000003)
    text = "(x1*x2+1)/(x1-x2)"
    report, clean, _ = replay_record(tmp_path, text, 2, field, 31)
    b, last = report.anchors[0][0], [pt for pt, v in clean.items() if v is not None][-1]
    _, asked, write = replay_record(tmp_path, text, 2, field, 31,
                                    off=lambda pt: pt[1] == b or pt == last)
    args = ("--arity", "2", "--field", "fp:1000003", "--seed", "31")
    code, out, _ = run_cli(capsys, "reconstruct", "--oracle-replay", str(write()), *args)
    assert code == 6
    err = json.loads(out)["error"]
    assert err["kind"] == "VerificationFailed" and err["path"] == []
    point = [field.format(c) for c in last]
    assert (err["point"], err["oracle"]) == (point, field.format(asked[last]))
    assert int(err["oracle"]) == int(err["result"]) + 1
    assert err["detail"] == (f"reconstruction mismatch at recursion path (), "
                             f"point ({point[0]}, {point[1]}): oracle {err['oracle']}, "
                             f"result {err['result']}")


def test_reconstruct_vacuous_verification_exit(tmp_path, capsys):
    # Replay only the points the leaf's fit asks for: every verification
    # point is then a hole, and a check that compared nothing is refused.
    field = PrimeField(1000003)
    cfg = ReconConfig(seed=13)
    asked = {}

    def recording(a):
        asked[a] = field.one / a if a else None
        return asked[a]

    detect_profile_with_fit(recording, field, cfg, derive_rng(cfg.seed, "fit"))
    rec = tmp_path / "replay.json"
    rec.write_text(json.dumps({"arity": 1, "field": "fp:1000003", "samples": [
        {"point": [str(a)], "value": None if v is None else str(v)}
        for a, v in asked.items()]}))
    code, out, err = run_cli(capsys, "reconstruct", "--oracle-replay", str(rec),
                             "--arity", "1", "--field", "fp:1000003", "--seed", "13")
    assert code == 7
    assert out == ""
    assert err.startswith("reconstruction budget failure: verification at "
                          "recursion path () found no point")


@pytest.mark.parametrize("p", ["2", "3"])
def test_reconstruct_small_prime_field(capsys, p):
    code, out, err = run_cli(capsys, "reconstruct", "--expr", "x1", "--arity", "1",
                             "--field", f"fp:{p}")
    assert code == 1
    assert out == ""
    assert err == f"input error: p = {p} has too few points: p must be a prime >= 5\n"
    assert "allow_small" not in err


@pytest.mark.parametrize("command,flag,value,bound", [
    ("reconstruct", "--max-degree", "25", "<= 24"),
    ("counterexample", "--n", "65", "<= 64"),
    ("counterexample", "--n", "0", ">= 1"),
    ("counterexample", "--dmax", "9", "<= 8"),
    ("counterexample", "--dmax", "-1", ">= 0"),
    ("counterexample", "--grid", "33", "<= 32"),
])
def test_size_flag_bounds(capsys, command, flag, value, bound):
    extra = ("--expr", "x1*x2", "--arity", "2") if command == "reconstruct" else ()
    code, out, err = run_cli(capsys, command, *extra, flag, value)
    assert code == 1
    assert out == ""
    assert err == f"input error: {flag} must be {bound}, got {value}\n"


def test_size_flag_bounds_admit_their_limits(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--expr", "x1*x2", "--arity", "2",
                           "--max-degree", "24")
    assert code == 0
    assert json.loads(out)["report"]["result"] == "(x1*x2)/(1)"
    code, out, _ = run_cli(capsys, "counterexample", "--n", "2",
                           "--dmax", "0", "--grid", "32")
    assert code == 0
    assert json.loads(out)["certificate"]["grid"] == 32


def product_of_vars(k):
    return "*".join(f"x{i}" for i in range(1, k + 1))


@pytest.mark.parametrize("value,bound", [("65", "<= 64"), ("600", "<= 64"),
                                         ("0", ">= 1")])
def test_reconstruct_arity_bounds(capsys, value, bound):
    # --arity 600 used to recurse 599 levels deep into a RecursionError
    code, out, err = run_cli(capsys, "reconstruct", "--expr", "x1", "--arity", value)
    assert code == 1
    assert out == ""
    assert err == f"input error: --arity must be {bound}, got {value}\n"


def test_reconstruct_refuses_a_tree_of_more_than_1024_leaves(capsys):
    # slice degree 1 in each of x2..x12: 2^11 leaves, refused at the first
    # node of the deepest level instead of solving for seconds per leaf
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "reconstruct", "--expr", product_of_vars(12),
                             "--arity", "12")
    assert time.perf_counter() - start < 10
    assert code == 7
    assert out == ""
    assert err == ("reconstruction budget failure: the recursion tree would have "
                   "at least 2048 leaves, more than 1024\n")


def test_reconstruct_admits_a_tree_of_512_leaves(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--expr", product_of_vars(10),
                           "--arity", "10")
    assert code == 0
    assert json.loads(out)["report"]["result"] == f"({product_of_vars(10)})/(1)"


@pytest.mark.parametrize("field", ["fp:1000003", "q"])
@pytest.mark.parametrize("arity", [24, 64])
def test_a_long_product_answers_or_refuses_quickly(field, arity):
    # a guard for a successor of the leaf cap: a run-wide cap of 2048
    # recursed nodes ran x1*...*x24 over Q for minutes
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ratrecon.cli", "reconstruct", "--arity", str(arity),
         "--field", field, "--expr", product_of_vars(arity)],
        capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode in (0, 6, 7), proc.stderr
    if proc.returncode == 0:
        assert json.loads(proc.stdout)["report"]["result"] == \
            f"({product_of_vars(arity)})/(1)"


@pytest.mark.parametrize("expr", ["x1^3^3^3^3", "x1^1025", "(x1+1)^2^11",
                                  "x1^2^2^2^2^2"])
def test_reconstruct_exponent_over_cap(capsys, expr):
    code, out, err = run_cli(capsys, "reconstruct", "--expr", expr, "--arity", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: syntax error at offset ")
    assert err.rstrip().endswith("expected an exponent of at most 1024")


LONG_SUM = "+".join(["x1"] * 1500)


@pytest.mark.parametrize("expr, result", [
    (LONG_SUM, "(1500*x1)/(1)"),
    (f"({LONG_SUM})^2", "(2250000*x1^2)/(1)"),
])
def test_reconstruct_long_flat_expressions(capsys, expr, result):
    # a sum far longer than Python's recursion limit is a flat chain: it
    # parses, compiles and reconstructs, raised to a power or not
    code, out, err = run_cli(capsys, "reconstruct", "--expr", expr, "--arity", "1",
                             "--field", "q")
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]["result"] == result


@pytest.mark.parametrize("expr, offset", [
    ("(" * 600 + "x1" + ")" * 600, 100),
    ("-" * 1500 + "x1", 100),
    ("x1" + "^1" * 1500, 204),
])
def test_reconstruct_nesting_over_cap(capsys, expr, offset):
    # deep nesting is an input error at the first level past the cap, not
    # a RecursionError traceback
    code, out, err = run_cli(capsys, "reconstruct", f"--expr={expr}", "--arity", "1")
    assert code == 1
    assert out == "" and len(err.splitlines()) == 1
    assert err.rstrip() == (f"input error: syntax error at offset {offset}: "
                            "expected a nesting depth of at most 100")


def test_reconstruct_budget_failure_exit(capsys):
    # an oracle undefined everywhere: slice classification cannot succeed
    code, _, err = run_cli(capsys, "reconstruct", "--expr", "1/(x1-x1)",
                           "--arity", "2", "--field", "fp:1000003", "--seed", "5")
    assert code == 7


def test_reconstruct_zero_samples_per_class(capsys):
    code, out, err = run_cli(capsys, "reconstruct", "--expr", "x1*x2",
                             "--arity", "2", "--samples-per-class", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: --samples-per-class")


def test_reconstruct_negative_samples_per_class_at_arity_one(capsys):
    # arity 1 classifies no slice, but a negative count is no count at all
    code, out, err = run_cli(capsys, "reconstruct", "--expr", "x1",
                             "--arity", "1", "--samples-per-class", "-3")
    assert (code, out) == (1, "")
    assert err.rstrip() == "input error: --samples-per-class must be >= 0, got -3"


@pytest.mark.parametrize("height,extra,least", [("1", "4", 2), ("2", "10", 3),
                                                 ("10", "200", 13)])
def test_reconstruct_refuses_a_q_height_box_too_small(monkeypatch, capsys,
                                                      height, extra, least):
    # before any query: the expression is never evaluated
    monkeypatch.setattr(cli, "eval_expr", lambda *a: pytest.fail("oracle queried"))
    code, out, err = run_cli(capsys, "reconstruct", "--expr", "x1*x2", "--arity", "2",
                             "--field", "q", "--height-bound", height,
                             "--validation-extra", extra)
    assert code == 1
    assert out == ""
    assert err.startswith(f"input error: height bound {height} gives ")
    assert err.endswith(f"use a height bound of at least {least}\n")
    assert "Traceback" not in err


DATA = pathlib.Path(__file__).parent / "data"
ARITY3 = ("--arity", "3", "--field", "fp:101", "--seed", "9")
# the refusals of an old record's replay: a leaf on a hyperplane that the
# record never asked (DomainTooSparse), and a node of arity 2 there, all of
# whose slices are dead (TooManyFailures)
NO_LEAF_POINT = "101 consecutive undefined oracle responses"
NO_SLICE = ("20/20 slices failed profile detection; oracle is likely not "
            "slice-rational within the budget")


def assert_refused(capsys, record, detail, *args):
    """A record written before 0.11.0 holds no points on the anchor
    hyperplanes that 0.11.0 draws, which no longer interleave a probe with
    the anchors: they replay as holes, each child there refuses and is
    replaced until the retry's cap, and the run refuses with exit code 7,
    never a traceback."""
    code, out, err = run_cli(capsys, "reconstruct", "--oracle-replay", str(record),
                             *(args or ARITY3))
    assert (code, out) == (7, "")
    assert err == f"reconstruction budget failure: {detail}\n"


def assert_round_trip(tmp_path, capsys, expr, *args):
    """A fresh record of `expr` replays to the fresh run's report; returns
    the record's path."""
    again = tmp_path / "record.json"
    code, out, _ = run_cli(capsys, "reconstruct", "--expr", expr, *(args or ARITY3),
                           "--record", str(again))
    assert code == 0
    code, replayed, _ = run_cli(capsys, "reconstruct", "--oracle-replay", str(again),
                                *(args or ARITY3))
    assert code == 0
    assert json.loads(replayed)["report"] == json.loads(out)["report"]
    return again


def test_reconstruct_replays_a_record_written_by_0_4_0(capsys):
    # written by version 0.4.0 for (x1^2 + 3*x2)/(x1 - x2 + 4): each leaf
    # on a new anchor finds no point
    assert_refused(capsys, DATA / "record-0.4.0-fp101.json", NO_LEAF_POINT,
                   "--arity", "2", "--field", "fp:101", "--seed", "9")


def test_reconstruct_replays_a_record_written_by_0_5_0(capsys):
    # written by version 0.5.0, in which every node recursed
    assert_refused(capsys, DATA / "record-0.5.0-fp101-arity3.json", NO_SLICE)


def test_reconstruct_replays_a_record_written_by_0_6_0(tmp_path, capsys):
    # written by version 0.6.0 from the input of the 0.5.0 file.  A fresh
    # record of the expression replays to its run's report, and holds
    # exactly the points of the 0.11.0 file.
    assert_refused(capsys, DATA / "record-0.6.0-fp101-arity3.json", NO_SLICE)
    again = assert_round_trip(tmp_path, capsys, "(x1*x2 + 3*x3)/(x1 - x2 + 4)")
    assert json.loads(again.read_text()) == json.loads(
        (DATA / "record-0.11.0-fp101-arity3-as-0.6.0.json").read_text())


def test_reconstruct_replays_a_record_written_by_0_7_0(tmp_path, capsys):
    # written by version 0.7.0.  A fresh record of the expression replays
    # to its run's report, and holds exactly the points of the 0.11.0 file.
    assert_refused(capsys, DATA / "record-0.7.0-fp101-arity3.json", NO_SLICE)
    again = assert_round_trip(tmp_path, capsys, "(x1*x2*x3 + 2)/(x1 + x2^2 - x3)")
    assert json.loads(again.read_text()) == json.loads(
        (DATA / "record-0.11.0-fp101-arity3.json").read_text())


def test_reconstruct_replays_a_record_written_by_0_8_0(tmp_path, capsys):
    # written by version 0.8.0: the root's first anchor, 40, is unlucky
    # (both parts are x1 + 40^2 there).  It is still the first draw of the
    # root's stream, so a fresh run draws one more anchor too.
    assert_refused(capsys, DATA / "record-0.8.0-fp101-arity3.json", NO_SLICE)
    again = assert_round_trip(tmp_path, capsys, "(x1 + 40*x3)/(x1 + x3^2)")
    _, out, _ = run_cli(capsys, "reconstruct", "--oracle-replay", str(again), *ARITY3)
    report = json.loads(out)["report"]
    assert report["anchors"][0] == ["40", "91", "95", "74", "60"]
    assert report["nodes"] == {"recursed": 11, "sparse": 0, "fallbacks": 4}


@pytest.mark.parametrize("name,expr", [
    ("record-0.9.0-fp101-arity3.json", "(x1*x2*x3 + 2)/(x1 + x2^2 - x3)"),
    ("record-0.9.0-fp101-arity3-as-0.6.0.json", "(x1*x2 + 3*x3)/(x1 - x2 + 4)"),
], ids=["0.7.0-input", "0.6.0-input"])
def test_reconstruct_replays_a_record_written_by_0_9_0(tmp_path, capsys, name, expr):
    # written by version 0.9.0, in which every node checked its result
    assert_refused(capsys, DATA / name, NO_SLICE)
    assert_round_trip(tmp_path, capsys, expr)


def write_replay(path, points, field="q", arity=2):
    path.write_text(json.dumps({
        "arity": arity, "field": field,
        "samples": [{"point": pt, "value": "1"} for pt in points]}))


def test_reconstruct_replay_zero_denominator_point(tmp_path, capsys):
    rec = tmp_path / "replay.json"
    write_replay(rec, [["1", "2"], ["3", "1/0"]])
    code, out, err = run_cli(capsys, "reconstruct", "--oracle-replay", str(rec),
                             "--arity", "2", "--field", "q")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: bad replay file")


def test_reconstruct_replay_wrong_arity_point(tmp_path, capsys):
    rec = tmp_path / "replay.json"
    write_replay(rec, [["1", "2"], ["3", "4"], ["5"]])
    code, out, err = run_cli(capsys, "reconstruct", "--oracle-replay", str(rec),
                             "--arity", "2", "--field", "q")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: replay sample 2: point has 1 coordinates")


@pytest.mark.parametrize("flag,value", [("--verify-trials", "0"),
                                        ("--validation-extra", "0"),
                                        ("--validation-extra", "-1"),
                                        ("--max-degree", "-1"),
                                        ("--height-bound", "0")])
def test_reconstruct_vacuous_flags(capsys, flag, value):
    code, out, err = run_cli(capsys, "reconstruct", "--expr", "x1*x2",
                             "--arity", "2", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith(f"input error: {flag} must be >= ")


# the options of `reconstruct` that name its input or its output file; every
# other option must set the ReconConfig field of the same name
RECONSTRUCT_IO = {"--expr", "--oracle-replay", "--arity", "--field", "--seed",
                  "--record"}


class ConfigSeen(Exception):
    pass


def test_reconstruct_options_set_config_fields(monkeypatch):
    # a no-op flag or an output-only flag cannot come back unnoticed
    def capture(oracle, cfg):
        raise ConfigSeen(cfg)

    def config(*extra):
        with pytest.raises(ConfigSeen) as exc:
            main(["reconstruct", "--expr", "x1*x2", "--arity", "2", *extra])
        return exc.value.args[0]

    monkeypatch.setattr(cli, "reconstruct", capture)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fields = set(cli.ReconConfig().to_json())
    default = config()
    for action in sub.choices["reconstruct"]._actions:
        flag = action.option_strings[-1]
        if flag in RECONSTRUCT_IO or action.dest == "help":
            continue
        assert action.dest in fields, f"{flag} sets no ReconConfig field"
        value = action.default + 1
        assert config(flag, str(value)) == \
            cli.ReconConfig(**{**default.to_json(), action.dest: value}), flag


def test_reconstruct_timings_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--expr", "x1*x2", "--arity", "2", "--timings"])
    assert exc.value.code == 2
    assert "--timings" in capsys.readouterr().err


def test_counterexample_small(tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "counterexample", "--n", "5",
                           "--dmax", "1", "--grid", "6",
                           "--table-out", str(out_csv))
    assert code == 0
    obj = json.loads(out)
    assert obj["table"]["symmetric"] is True
    assert obj["table"]["slice_degrees"] == [0, 1, 2, 3, 4]
    assert out_csv.exists()
    for entry in obj["certificate"]["per_degree"]:
        assert entry["rational_refuted"]


def test_counterexample_single_entry(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--n", "1",
                           "--dmax", "0", "--grid", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["table"]["slice_degrees"] == [0]
    assert "0" in obj["table"]["csv"]


def test_counterexample_deterministic(capsys):
    a = run_cli(capsys, "counterexample", "--n", "6", "--dmax", "1", "--grid", "6")
    b = run_cli(capsys, "counterexample", "--n", "6", "--dmax", "1", "--grid", "6")
    assert a == b


def test_console_entry_point_subprocess(tmp_path):
    f = tmp_path / "fib.json"
    write_fib_series(f)
    proc = subprocess.run(
        [sys.executable, "-m", "ratrecon.cli", "hankel", "--series", str(f),
         "--lmax", "5", "--mmax", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["verdict"] == "RationalWitness"


def test_hankel_wide_bounds_refuse_within_the_timeout(tmp_path):
    # 201 random integer coefficients: no m up to 90 has a candidate row in
    # the extended-Euclid walk, so the refusal takes no determinant
    rng = random.Random(13)
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({"field": "q",
                             "coeffs": [str(rng.randint(-9, 9)) for _ in range(201)]}))
    proc = subprocess.run(
        [sys.executable, "-m", "ratrecon.cli", "hankel", "--series", str(f),
         "--lmax", "20", "--mmax", "90"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    cert = json.loads(proc.stdout)["certificate"]
    assert (cert["verdict"], cert["l"], cert["m"]) == ("NoWitnessUpTo", 20, 90)


def test_hankel_wide_bounds_on_fractions_refuse_within_the_timeout(tmp_path):
    # 201 random fractions: scaled to integers the entries carry the lcm of
    # the denominators, and the refusal is settled on the walk mod a word prime
    rng = random.Random(14)
    f = tmp_path / "wide_fractions.json"
    f.write_text(json.dumps({"field": "q", "coeffs": [
        f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(201)]}))
    proc = subprocess.run(
        [sys.executable, "-m", "ratrecon.cli", "hankel", "--series", str(f),
         "--lmax", "20", "--mmax", "90"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    cert = json.loads(proc.stdout)["certificate"]
    assert (cert["verdict"], cert["l"], cert["m"]) == ("NoWitnessUpTo", 20, 90)


def _limit_address_space():
    # 1 GiB: the flags below once asked for lists of several GB
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("flag,cap", [("--validation-extra", "1000"),
                                      ("--verify-trials", "10000"),
                                      ("--samples-per-class", "1000")])
def test_reconstruct_budget_flags_are_capped(flag, cap):
    proc = subprocess.run(
        [sys.executable, "-m", "ratrecon.cli", "reconstruct", "--expr", "x1",
         "--arity", "1", "--field", "q", flag, "1000000000"],
        capture_output=True, text=True, timeout=30,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {flag} must be <= {cap}, got 1000000000\n"


# A dense function over Q, arity 4, degree 2 per variable, 24/27 terms.  A
# combine by symbolic determinants over Q[x1, x2, x3] needs a multivariate
# gcd here to cancel their extraneous factor, and that gcd runs for
# minutes; the scale system needs none.  Regenerate: with random.Random(7),
# for the numerator and then the denominator, keep each exponent of
# itertools.product(range(3), repeat=4) if rng.random() < 0.3, with
# coefficient Fraction(rng.randint(-9, 9), rng.randint(1, 9)) redrawn while
# zero; the text is format_ratfunn(normalize_ratfunn(num, den)).
DENSE_Q_ARITY4 = (
    "(-2880*x1^2*x2^2*x3*x4 + 7560*x1^2*x2*x3*x4 + 5040*x1^2*x2*x4 + "
    "5880*x1^2*x2 - 1680*x1^2*x3^2 - 1800*x1^2*x4 + 720*x1*x2^2*x3^2*x4 - "
    "5040*x1*x2^2*x4^2 + 3528*x1*x2*x3^2*x4^2 - 3360*x1*x2*x3 - "
    "840*x1*x3^2*x4^2 + 8820*x1*x3^2 - 2520*x1*x3*x4 + 2520*x1*x3 + "
    "5040*x2^2*x3*x4^2 - 5670*x2^2*x4^2 - 3360*x2*x3^2 + 5040*x2*x3*x4 - "
    "3240*x2*x3 - 11340*x3^2*x4^2 - 2880*x3^2*x4 + 2520*x3*x4^2 - 22680*x3 + "
    "10080*x4)/(1400*x1^2*x2^2*x3*x4^2 - 630*x1^2*x2*x3^2*x4^2 + "
    "1512*x1^2*x2*x4^2 + 1890*x1^2*x2*x4 + 1680*x1^2*x3^2*x4^2 - "
    "6720*x1^2*x3^2*x4 - 4200*x1^2*x4^2 + 12600*x1^2*x4 - 1260*x1*x2^2*x3 - "
    "1890*x1*x2^2*x4 - 2520*x1*x2*x3^2*x4^2 + 3780*x1*x2*x4^2 - 630*x1*x3^2 + "
    "4536*x1*x3*x4 - 2205*x1*x4^2 + 1890*x2^2*x3^2*x4^2 - 2240*x2^2*x3^2 + "
    "3528*x2^2*x4^2 - 20160*x2^2 - 2940*x2*x3^2*x4^2 - 504*x2*x3*x4 - "
    "1890*x2*x4 + 420*x3^2*x4 + 1080*x3^2 - 7560*x4^2 - 2520*x4 + 945)"
)


def test_dense_arity4_q_reconstruct_finishes_quickly():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ratrecon.cli", "reconstruct", "--arity", "4",
         "--field", "q", "--seed", "1", "--expr", DENSE_Q_ARITY4],
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10
    assert json.loads(proc.stdout)["report"]["result"] == DENSE_Q_ARITY4


# every library error a command lets through ends in a documented exit code
EXIT_CODES = {
    "RatreconError": 8, "FieldMismatch": 8, "ZeroDenominator": 1,
    "ZeroFunction": 8, "ZeroPolynomial": 8, "InexactDivision": 8,
    "NonSquareMatrix": 8, "UndefinedAt": 8, "PrefixTooShort": 1,
    "PoleAtOrigin": 1, "NoSolution": 1, "SizeMismatch": 1,
    "DegenerateInput": 1, "BetaZero": 4, "NoFit": 5,
    "BudgetExhausted": 7, "DomainTooSparse": 7,
    "TooManyFailures": 7, "AnchorSearchFailed": 7, "EmptyHistogram": 8,
    "VerificationFailed": 6, "ExprSyntaxError": 1, "ExponentTooLarge": 1,
    "UnknownVariable": 1, "NegativeExponent": 1, "NestingTooDeep": 1,
}
ERROR_ARGS = {
    "UndefinedAt": ((2,),),
    "VerificationFailed": ((1, 2), 3, 4, (0,)),
    "ExprSyntaxError": (5, {"an operand"}),
    "ExponentTooLarge": (5, 1024),
    "NestingTooDeep": (5, 100),
    "UnknownVariable": (3, "y1"),
    "NegativeExponent": (4,),
}


def documented_exit_codes():
    text = (pathlib.Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    table = text.split("## Exit codes")[1].split("\n## ")[0]
    return {int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)}


@pytest.mark.parametrize("command, target", [
    ("hankel", "certify_rationality"),
    ("interp", "fit_ratfun"),
    ("reconstruct", "reconstruct"),
    ("counterexample", "nonrationality_report"),
])
def test_every_library_error_has_a_documented_exit_code(tmp_path, capsys, monkeypatch,
                                                        command, target):
    series, samples = tmp_path / "fib.json", tmp_path / "samples.csv"
    write_fib_series(series)
    samples.write_text("0,1\n1,2\n2,3\n")
    argv = {"hankel": ["--series", str(series)],
            "interp": ["--samples", str(samples), "--n", "1", "--m", "0", "--fit"],
            "reconstruct": ["--expr", "x1", "--arity", "1"],
            "counterexample": ["--n", "2", "--dmax", "0", "--grid", "2"]}[command]
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.RatreconError)]
    assert {c.__name__ for c in classes} == set(EXIT_CODES)
    assert set(EXIT_CODES.values()) <= documented_exit_codes()
    for cls in classes:
        error = cls(*ERROR_ARGS.get(cls.__name__, ("detail",)))

        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, raising)
        code, out, err = run_cli(capsys, command, *argv)
        assert code == EXIT_CODES[cls.__name__], cls.__name__
        if command == "reconstruct" and cls is errors.VerificationFailed:
            assert json.loads(out)["error"]["kind"] == "VerificationFailed"
            continue
        assert out == "" and len(err.splitlines()) == 1, cls.__name__
        assert "Traceback" not in err


# sha256 of stdout for small inputs of each command, recorded with version
# 0.13.0: the "byte-identical stdout for a given version and seed" contract,
# checked across commits.  A version bump changes the manifest and re-records
# every value.
STDOUT_DIGESTS = {
    "reconstruct-q-2": ("reconstruct", "--expr", "(x1*x2+1)/(x1-x2)", "--arity", "2",
                        "--field", "q", "--seed", "3"),
    "reconstruct-q-3": ("reconstruct", "--expr", "(x1^2 - x2*x3/2)/(x3 + 2*x1 + 1)",
                        "--arity", "3", "--field", "q", "--seed", "4"),
    "reconstruct-fp-2": ("reconstruct", "--expr", "(x1^2*x2 + 3)/(x1 - 2*x2 + 5)",
                         "--arity", "2", "--field", "fp:1000003", "--seed", "5"),
    "reconstruct-fp-3": ("reconstruct", "--expr", "(x1*x2*x3 + x2^2)/(x1 + x3^2 - 7)",
                         "--arity", "3", "--field", "fp:1000003", "--seed", "6"),
    "hankel": ("hankel", "--series", "fib.json", "--lmax", "5", "--mmax", "5"),
    "interp-fit": ("interp", "--samples", "sq.csv", "--field", "q", "--n", "2",
                   "--m", "1", "--fit"),
    # an abscissa with the word prime as denominator: the Q value comes from
    # the exact path, not the word-prime lift
    "interp-at-q": ("interp", "--samples", "wp.csv", "--field", "q", "--n", "1",
                    "--m", "2", "--at", "7"),
    "interp-at-fp101": ("interp", "--samples", "fp.csv", "--field", "fp:101", "--n", "1",
                        "--m", "2", "--at", "33"),
    # a series with the word prime as denominator: the Q certificate comes
    # from the exact walk, not the word-prime lift; and a factorial refusal
    "hankel-q-wp": ("hankel", "--series", "wp.json", "--field", "q", "--lmax", "3",
                    "--mmax", "3"),
    "hankel-q-factorial": ("hankel", "--series", "fact.json", "--field", "q",
                           "--lmax", "4", "--mmax", "4"),
    # heights and a small field the benchmark never runs; with --record the
    # file lists the queried points in query order
    "reconstruct-q-h1": ("reconstruct", "--expr", "(x1*x2 + 1)/(x1 - x2)", "--arity", "2",
                         "--field", "q", "--seed", "7", "--height-bound", "1"),
    "reconstruct-q-h3": ("reconstruct", "--expr", "(x1*x2 + 1)/(x1 - x2)", "--arity", "2",
                         "--field", "q", "--seed", "7", "--height-bound", "3"),
    "reconstruct-q-h1000": ("reconstruct", "--expr", "(x1^2 - 3*x2)/(x1*x2 + 2)",
                            "--arity", "2", "--field", "q", "--seed", "8",
                            "--height-bound", "1000"),
    "reconstruct-fp101": ("reconstruct", "--expr", "(x1^2 + 3*x2)/(x1 - x2 + 4)",
                          "--arity", "2", "--field", "fp:101", "--seed", "9"),
    # the table, its slice degrees and the rank-test witness indices
    "counterexample": ("counterexample",),
    "counterexample-24": ("counterexample", "--n", "24", "--dmax", "6", "--grid", "20"),
}
for _name in ("reconstruct-q-h1", "reconstruct-q-h3", "reconstruct-q-h1000",
              "reconstruct-fp101"):
    STDOUT_DIGESTS[f"{_name}-record"] = STDOUT_DIGESTS[_name] + ("--record", "record.json")
STDOUT_SHA256 = {
    "counterexample": "b0ef2749bca7bc589e2cea09e54c5622a29bc5da74db09ef95b4084d244ec2e0",
    "counterexample-24": "f6a89f84ebdeab0cb84147d5c0bdecda6302c6a594e012840d81cb6ee009ce50",
    "hankel": "6830b06aa6dbd302804a1e25d389dd6faa78638c7f69a142f56ab16f26b7f058",
    "hankel-q-factorial": "dcaf95947aa6259fdf6643492913ff747f91f728b6f5b6885be12278a13f8b54",
    "hankel-q-wp": "2d04325db8b9b3612418610043551866eb3174bdcab6491fbd07f0faa8267479",
    "interp-fit": "1fa8bb7705f5d67425daa452317c9f693ef2a0043e432c7620a914c5366dc1dc",
    "interp-at-q": "197124435463bde9284447415d6bf4f0acb68eec061cb76353c074214ab758f5",
    "interp-at-fp101": "d86caf73ecc8b7e9ff6fcc986f0abe10e3793612118d7cb4c4dda401b8f6dd08",
    "reconstruct-fp-2": "c79f380b4b1cd6d83041a5347c71d0e7d8a2ec49a3c8c75e029484413cdbb9c0",
    "reconstruct-fp-3": "79964430c83d0c2eab8e580e8e7b443cbcfa12e1f96c14bec50f7955567f7ba0",
    "reconstruct-q-2": "3f4a4c6093ca0ee1410f246def7b8154b8ad3f1198a56cc688624969f67f8724",
    "reconstruct-q-3": "0c0766795481b1ce250e582e9e4aa913d2f6ae2b66f8d108a7edb911f8a7aeae",
    "reconstruct-q-h1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "reconstruct-q-h1-record":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "reconstruct-q-h3": "3b8e8afc97d4c8ff7c3f3f5d09c12063bfc50c943433192243069ce03280fe52",
    "reconstruct-q-h3-record":
        "3b8e8afc97d4c8ff7c3f3f5d09c12063bfc50c943433192243069ce03280fe52",
    "reconstruct-q-h1000": "4555f59093940a1f4a9bf295cb51535fd2cf49a7123b3ff10755352912cf4a88",
    "reconstruct-q-h1000-record":
        "4555f59093940a1f4a9bf295cb51535fd2cf49a7123b3ff10755352912cf4a88",
    "reconstruct-fp101": "680c18966156aad755acf0bd7b0c6b25cf9ca282a954397e8487c5aadce6dbb9",
    "reconstruct-fp101-record":
        "680c18966156aad755acf0bd7b0c6b25cf9ca282a954397e8487c5aadce6dbb9",
}
# the --record files; at height 1 Q offers three values, fewer than even a
# constant's detection needs, so the run is refused before any query (exit
# 1) and writes no file; height 3 is the lowest at which this function
# reconstructs
RECORD_SHA256 = {
    "reconstruct-q-h1-record": None,
    "reconstruct-q-h3-record":
        "ba73e2e83585aabd049156d60dfad1ce04b383f8921b475c1991e59589900953",
    "reconstruct-q-h1000-record":
        "49119f643660ad28db3484db6827b19c10ca18144c432aa9db5dd8242559862e",
    "reconstruct-fp101-record":
        "f59d123dc843ddb896955f936d69a2c6ad974ab01c718fc13daf8eaa27cf358e",
}
EXIT_CODE = {"reconstruct-q-h1": 1, "reconstruct-q-h1-record": 1,
             "hankel-q-factorial": 3}


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_stdout_bytes_are_stable(tmp_path, capsys, monkeypatch, name):
    # relative paths: the manifest records each input's path as given
    monkeypatch.chdir(tmp_path)
    write_fib_series(tmp_path / "fib.json")
    (tmp_path / "sq.csv").write_text("1,2\n2,5/2\n3,10/3\n4,17/4\n5,26/5\n6,37/6\n")
    # samples of (1 + 2x)/(3 + x^2) over Q and of (x + 3)/(x^2 + 1) mod 101
    (tmp_path / "wp.csv").write_text(
        f"1/{WORD_PRIME},1152921431592404099/3458764288334761564\n"
        "2,5/7\n3,7/12\n5/2,24/37\n4,9/19\n")
    (tmp_path / "fp.csv").write_text("2,1\n5,78\n9,10\n14,37\n20,26\n")
    # the prefixes of (1 + t/WORD_PRIME)/(1 - t - t^2) and of k!
    fib = [1, 1]
    while len(fib) < 21:
        fib.append(fib[-1] + fib[-2])
    wp = [str(Fraction(a) + Fraction(b, WORD_PRIME)) for a, b in zip(fib, [0] + fib)]
    (tmp_path / "wp.json").write_text(json.dumps({"field": "q", "coeffs": wp}))
    (tmp_path / "fact.json").write_text(json.dumps(
        {"field": "q", "coeffs": [str(math.factorial(k)) for k in range(16)]}))
    code, out, _ = run_cli(capsys, *STDOUT_DIGESTS[name])
    assert code == EXIT_CODE.get(name, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name]
    if name in RECORD_SHA256:
        record = tmp_path / "record.json"
        digest = hashlib.sha256(record.read_bytes()).hexdigest() if record.exists() else None
        assert digest == RECORD_SHA256[name]


def test_manifest_input_digests_are_sha256_of_the_file_bytes(tmp_path, capsys):
    series, samples, replay = (tmp_path / n for n in ("fib.json", "sq.csv", "replay.json"))
    write_fib_series(series)
    samples.write_bytes(b"1,2\n2,5/2\r\n3,10/3\n4,17/4\n5,26/5\n6,37/6\n")
    code, _, _ = run_cli(capsys, "reconstruct", "--expr", "x1/(x2 + 1)", "--arity", "2",
                         "--field", "fp:101", "--seed", "2", "--record", str(replay))
    assert code == 0
    for key, path, argv in [
            ("series", series, ("hankel", "--series", str(series))),
            ("samples", samples, ("interp", "--samples", str(samples), "--field", "q",
                                  "--n", "2", "--m", "1", "--fit")),
            ("oracle_replay", replay, ("reconstruct", "--oracle-replay", str(replay),
                                       "--arity", "2", "--field", "fp:101", "--seed", "2"))]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, key
        assert json.loads(out)["manifest"]["inputs"] == {key: {
            "path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}}
