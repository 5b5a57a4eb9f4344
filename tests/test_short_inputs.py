"""Short inputs end quickly.

Each row is one command-line run on a short input, in a subprocess under a
time bound, with the exit code it must end in.  A row that hangs fails at
its bound instead of holding up the suite.

Over Q an element is `[+-]digits` or `[+-]digits/digits` (docs/formats.md);
a decimal or exponent literal is an input error.  Parsed as a Python
`Fraction`, the 10-character `1e99999999` built 10^99999999 and ran past
any bound.
"""

import json
import subprocess
import sys

import pytest

BOUND_S = 5
HUGE = "1e99999999"


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
