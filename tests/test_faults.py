"""The fault-and-domain suite: `reconstruct` on black boxes that are wrong
at some points, not rational at all, or undefined where the truth is not
(`faults.py`), over kinds x truths x fields x seeds.

No run may return a wrong answer.  Each run's outcome is pinned: the truth
("="), or the refusal's class and exit code by its letter in `REFUSALS`.
A row of `OUTCOMES` lists the runs of one kind and field, truth by truth
in `TRUTHS` order, one letter per seed of `SEEDS`, and `CALLS` pins the
oracle queries that the row's runs ask in all, refusals included: 108,994
over the table, where 0.11.0, whose refusals could run the tree twice,
asked 114,855.  docs/formats.md tabulates the same runs.  No run, refused
or not, calls the multivariate gcd."""

import pytest

from faults import KINDS, counterexample_oracle, exit_code
from test_boundary import GcdSpy
from ratrecon.errors import RatreconError
from ratrecon.expr import parse, to_ratfun
from ratrecon.fields import QQ, PrimeField
from ratrecon.reconstruct import ReconConfig, SliceOracle, reconstruct

TRUTHS = [
    ("(x1 + 2*x2)/(x1*x2 + 3)", 2),
    ("x1^2 - 3*x2 + 1", 2),
    ("(x1*x2*x3 + 2)/(x1 + x2^2 - x3)", 3),
    ("(x1 - x3)/(x2^2 + x1*x3 + 1)", 3),
]
FIELDS = {"q": QQ, "fp101": PrimeField(101), "fp1000003": PrimeField(1000003)}
SEEDS = (1, 2, 3)
REFUSALS = {
    "V": ("VerificationFailed", 6),
    "B": ("BudgetExhausted", 7),
    "M": ("TooManyFailures", 7),
    "D": ("DomainTooSparse", 7),
    "A": ("AnchorSearchFailed", 7),
}
OUTCOMES = {
    ("pointwise", "q"): "BBV BBV VVV VVV",
    ("pointwise", "fp101"): "VVV VVV VB= VB=",
    ("pointwise", "fp1000003"): "VVM VVM VVV VVV",
    ("hyperplane", "q"): "BVV BVV BBB BBB",
    ("hyperplane", "fp101"): "BBV BBV VVB VVB",
    ("hyperplane", "fp1000003"): "=== === === ===",
    ("diagonal", "q"): "VVB BVB VVB VVB",
    ("diagonal", "fp101"): "V=V V=V =VV =VV",
    ("diagonal", "fp1000003"): "=== === === ===",
    ("nonrational", "q"): "MMM MMM MMM MMM",
    ("nonrational", "fp101"): "MMM MMM MMM MMM",
    ("nonrational", "fp1000003"): "MMM MMM MMM MMM",
    ("hole-line", "q"): "=== === === ===",
    ("hole-line", "fp101"): "=== === === ===",
    ("hole-line", "fp1000003"): "=== === === ===",
    ("hole-parabola", "q"): "=== === === ===",
    ("hole-parabola", "fp101"): "=== === === ===",
    ("hole-parabola", "fp1000003"): "=== === === ===",
    ("hole-hyperbola", "q"): "=== === === ===",
    ("hole-hyperbola", "fp101"): "=== === === ===",
    ("hole-hyperbola", "fp1000003"): "=== === === ===",
    ("hole-x1", "q"): "=== === === ===",
    ("hole-x1", "fp101"): "=== === === ===",
    ("hole-x1", "fp1000003"): "=== === === ===",
    ("hole-xn", "q"): "=== === === ===",
    ("hole-xn", "fp101"): "=== === === ===",
    ("hole-xn", "fp1000003"): "=== === === ===",
}
CALLS = {
    ("pointwise", "q"): 4123,
    ("pointwise", "fp101"): 4357,
    ("pointwise", "fp1000003"): 4996,
    ("hyperplane", "q"): 2581,
    ("hyperplane", "fp101"): 3001,
    ("hyperplane", "fp1000003"): 3216,
    ("diagonal", "q"): 3740,
    ("diagonal", "fp101"): 4849,
    ("diagonal", "fp1000003"): 3216,
    ("nonrational", "q"): 2297,
    ("nonrational", "fp101"): 2400,
    ("nonrational", "fp1000003"): 2324,
    ("hole-line", "q"): 3198,
    ("hole-line", "fp101"): 3234,
    ("hole-line", "fp1000003"): 3216,
    ("hole-parabola", "q"): 3201,
    ("hole-parabola", "fp101"): 3230,
    ("hole-parabola", "fp1000003"): 3216,
    ("hole-hyperbola", "q"): 3627,
    ("hole-hyperbola", "fp101"): 3245,
    ("hole-hyperbola", "fp1000003"): 3216,
    ("hole-x1", "q"): 3472,
    ("hole-x1", "fp101"): 3236,
    ("hole-x1", "fp1000003"): 3216,
    ("hole-xn", "q"): 15741,
    ("hole-xn", "fp101"): 9630,
    ("hole-xn", "fp1000003"): 3216,
}
# the paper's function over Q^2, one letter per seed
COUNTEREXAMPLE = "MMM"


def outcome(fn, arity, field, seed, truth=None) -> str:
    """"=" for the truth, the letter of a refusal; a wrong answer fails."""
    try:
        report = reconstruct(SliceOracle(arity, field, fn), ReconConfig(seed=seed))
    except RatreconError as e:
        letter = next((k for k, v in REFUSALS.items() if v[0] == type(e).__name__), "?")
        assert REFUSALS.get(letter) == (type(e).__name__, exit_code(e)), e
        return letter
    assert truth is not None and report.result.same_function(truth), \
        f"wrong answer at seed {seed}: {report.to_json()['result']}"
    return "="


def test_the_table_covers_every_kind_and_field():
    assert set(OUTCOMES) == set(CALLS) == {(k, f) for k in KINDS for f in FIELDS}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_no_wrong_answer_and_each_outcome_pinned(kind, field, monkeypatch):
    truths = [(to_ratfun(parse(text, arity), FIELDS[field], arity), arity)
              for text, arity in TRUTHS]
    spy = GcdSpy(monkeypatch)       # installed after the truths' own gcds
    got, calls = [], []
    for truth, arity in truths:
        fn = KINDS[kind](truth)

        def counted(pt, fn=fn):
            calls.append(pt)
            return fn(pt)

        got.append("".join(outcome(counted, arity, FIELDS[field], seed, truth)
                           for seed in SEEDS))
    assert " ".join(got) == OUTCOMES[(kind, field)]
    assert len(calls) == CALLS[(kind, field)]
    assert spy.calls == 0


def test_the_papers_function_is_refused(monkeypatch):
    spy = GcdSpy(monkeypatch)
    assert "".join(outcome(counterexample_oracle, 2, QQ, seed)
                   for seed in SEEDS) == COUNTEREXAMPLE
    assert spy.calls == 0
