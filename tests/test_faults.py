"""The fault-and-domain suite: `reconstruct` on black boxes that are wrong
at some points, not rational at all, or undefined where the truth is not
(`faults.py`), over kinds x truths x fields x seeds.

No run may return a wrong answer.  Each run's outcome is pinned: the truth
("="), or the refusal's class and exit code by its letter in `REFUSALS`.
A row of `OUTCOMES` lists the runs of one kind and field, truth by truth
in `TRUTHS` order, one letter per seed of `SEEDS`.  docs/formats.md
tabulates the same runs."""

import pytest

from faults import KINDS, counterexample_oracle, exit_code
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
    ("hyperplane", "q"): "VVV VVV VVV VVV",
    ("hyperplane", "fp101"): "VVV VVV VVB VVB",
    ("hyperplane", "fp1000003"): "=== === === ===",
    ("diagonal", "q"): "VVV VVV VVV VVV",
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
    assert set(OUTCOMES) == {(k, f) for k in KINDS for f in FIELDS}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_no_wrong_answer_and_each_outcome_pinned(kind, field):
    got = []
    for text, arity in TRUTHS:
        truth = to_ratfun(parse(text, arity), FIELDS[field], arity)
        got.append("".join(outcome(KINDS[kind](truth), arity, FIELDS[field], seed,
                                   truth) for seed in SEEDS))
    assert " ".join(got) == OUTCOMES[(kind, field)]


def test_the_papers_function_is_refused():
    assert "".join(outcome(counterexample_oracle, 2, QQ, seed)
                   for seed in SEEDS) == COUNTEREXAMPLE
