"""Short inputs end quickly.

Each row is one command-line run on a short input, in a subprocess under a
time bound, with the exit code it must end in.  A row that hangs fails at
its bound instead of holding up the suite.

Over Q an element is `[+-]digits` or `[+-]digits/digits` (docs/formats.md);
a decimal or exponent literal is an input error.  Parsed as a Python
`Fraction`, the 10-character `1e99999999` built 10^99999999 and ran past
any bound.

The refusals over Q are expressions whose slices have no rational profile
within `max_degree`: each must end in exit 7.  Their oracle values have
thousands of digits, and while detection walked the Euclid rows of every
pool over Q they took 1 to 66 s; detection now runs on the samples'
image mod `WORD_PRIME` from the first point, which settles those passes.

A fit of degrees (50, 50) over Q through 102 samples of a function with
7-digit coefficients needs its row's coefficients lifted beyond one
word prime; it took a minute while the walk over Q answered, and takes
a few word primes joined by CRT now (about 0.3 s).

A row runs under a small wrapper
process that reports the row's peak RSS from
`resource.getrusage(RUSAGE_CHILDREN)`, its only child.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

BOUND_S = 5
BOUND_MIB = 200
HUGE = "1e99999999"

# `python -c WRAPPER BOUND_S ARGS...` runs `python -m ratrecon.cli ARGS...`
# as its one child, killed after BOUND_S seconds, and prints the child's
# exit code and peak RSS in MiB (ru_maxrss is in KiB on Linux).
WRAPPER = """
import resource, subprocess, sys
try:
    proc = subprocess.run([sys.executable, "-m", "ratrecon.cli", *sys.argv[2:]],
                          capture_output=True, text=True, timeout=float(sys.argv[1]))
except subprocess.TimeoutExpired:
    sys.exit("timed out")
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
sys.stderr.write(proc.stderr)
print(proc.returncode, rss)
"""


def hankel_series(tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"field": "q", "coeffs": ["1", HUGE, "2", "3"]}))
    return ["hankel", "--series", str(path), "--lmax", "1", "--mmax", "1"]


def interp_sample(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(f"1,1\n2,1/2\n3,{HUGE}\n")
    return ["interp", "--samples", str(path), "--n", "0", "--m", "1", "--fit"]


def interp_at(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("1,1\n2,1/2\n")
    return ["interp", "--samples", str(path), "--n", "0", "--m", "1",
            "--at", "1e-99999999"]


def replay_value(tmp_path):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps({"arity": 1, "field": "q", "samples": [
        {"point": ["2"], "value": HUGE}]}))
    return ["reconstruct", "--oracle-replay", str(path), "--arity", "1",
            "--field", "q"]


@pytest.mark.parametrize("argv, code", [
    (hankel_series, 1),
    (interp_sample, 1),
    (interp_at, 1),
    (replay_value, 1),
], ids=["hankel-series", "interp-sample", "interp-at", "reconstruct-replay"])
def test_short_input_ends_within_its_bound(argv, code, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "ratrecon.cli", *argv(tmp_path)],
                          capture_output=True, text=True, timeout=BOUND_S)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("input error: "), proc.stderr


@pytest.mark.parametrize("expr, arity, extra", [
    ("(x1+x2+1)^1024", 2, []),
    ("(x1^32*x2^32)^32+1", 2, []),
    ("(x1+x2+x3+x4+x5+1)^1024", 5, []),
    ("1/(x1^512+x2^512)", 2, []),
    ("x1^1024", 1, []),
    ("(x1*x2+1)^24/(x1+x2)^24", 2, ["--max-degree", "24"]),
])
def test_q_refusal_ends_within_its_bounds(expr, arity, extra):
    argv = ["reconstruct", "--expr", expr, "--arity", str(arity), "--field", "q",
            "--seed", "1", *extra]
    proc = subprocess.run([sys.executable, "-c", WRAPPER, str(BOUND_S), *argv],
                          capture_output=True, text=True, timeout=2 * BOUND_S)
    assert proc.returncode == 0, proc.stderr
    code, rss = proc.stdout.split()
    assert int(code) == 7, proc.stderr
    assert proc.stderr.startswith("reconstruction budget failure: "), proc.stderr
    assert float(rss) < BOUND_MIB


def test_large_coefficient_fit_ends_within_its_bounds(tmp_path):
    # `interp --fit` at (50, 50) over Q on the 102 samples x = 1..102 of a
    # function with random 7-digit integer coefficients
    rng = random.Random(5050)
    num, den = ([rng.choice((-1, 1)) * rng.randint(10 ** 6, 10 ** 7 - 1) for _ in range(51)]
                for _ in range(2))
    path = tmp_path / "samples.csv"

    def at(cs, x):
        return sum(c * x ** k for k, c in enumerate(cs))
    path.write_text("".join(f"{x},{Fraction(at(num, x), at(den, x))}\n"
                            for x in range(1, 103)))
    argv = ["interp", "--samples", str(path), "--field", "q", "--n", "50", "--m", "50",
            "--fit"]
    proc = subprocess.run([sys.executable, "-c", WRAPPER, str(BOUND_S), *argv],
                          capture_output=True, text=True, timeout=2 * BOUND_S)
    assert proc.returncode == 0, proc.stderr
    code, rss = proc.stdout.split()
    assert int(code) == 0, proc.stderr
    assert float(rss) < BOUND_MIB
