"""Faulty and partial oracles for the fault-and-domain suite.

`KINDS[kind]` takes a truth, a `RatFunN` over the oracle's field, and gives
the `SliceOracle.fn` of a black box that departs from it in one way:

- a fault adds 1 to the truth's value at some points: where the sha256 of
  the point is 0 mod 97 (pointwise), on the hyperplane x1 = 2, on the
  diagonal x1 = xn, or where the sha256 is 0 mod 5 (non-rational: a fifth
  of all points, with no algebraic pattern);
- a hole makes the box undefined where the truth is not: on x1 + x2 = 0, on
  x2 = x1^2, on x1*x2 = 1 or x1 = 0, or where x1 (resp. xn) is 0, 1 or -1.

`counterexample_oracle` is the paper's countable-field function over Q^2,
rational along every slice but not a rational function.  `exit_code` maps
an engine error to the command line's exit code.
"""

import hashlib
from fractions import Fraction

from ratrecon.cli import _EXIT_BUDGET, _EXIT_INPUT, _EXIT_INTERNAL, _EXIT_NO_FIT
from ratrecon.cli import _EXIT_VERIFICATION
from ratrecon.counterexample import f_counter
from ratrecon.errors import (
    AnchorSearchFailed,
    BudgetExhausted,
    DomainTooSparse,
    NoFit,
    TooManyFailures,
    VerificationFailed,
    ZeroDenominator,
)


def _hash(field, point) -> int:
    text = ",".join(field.format(c) for c in point)
    return int.from_bytes(hashlib.sha256(text.encode()).digest(), "big")


def _faulty(truth, at):
    """The truth plus 1 wherever it is defined and `at(point)` holds."""
    one = truth.field.one

    def fn(point):
        value = truth.eval_or_none(point)
        if value is not None and at(point):
            value = value + one
        return value

    return fn


def _holed(truth, at):
    """The truth, undefined wherever `at(point)` holds."""
    def fn(point):
        return None if at(point) else truth.eval_or_none(point)

    return fn


def _units(field):
    return (field.zero, field.one, -field.one)


KINDS = {
    "pointwise": lambda f: _faulty(f, lambda x: _hash(f.field, x) % 97 == 0),
    "hyperplane": lambda f: _faulty(f, lambda x: x[0] == f.field.from_int(2)),
    "diagonal": lambda f: _faulty(f, lambda x: x[0] == x[-1]),
    "nonrational": lambda f: _faulty(f, lambda x: _hash(f.field, x) % 5 == 0),
    "hole-line": lambda f: _holed(f, lambda x: not x[0] + x[1]),
    "hole-parabola": lambda f: _holed(f, lambda x: x[1] == x[0] * x[0]),
    "hole-hyperbola": lambda f: _holed(f, lambda x: x[0] * x[1] == f.field.one or not x[0]),
    "hole-x1": lambda f: _holed(f, lambda x: x[0] in _units(f.field)),
    "hole-xn": lambda f: _holed(f, lambda x: x[-1] in _units(f.field)),
}


def calkin_wilf_index(q: Fraction) -> int:
    """The inverse of `fields.enumerate_countable`: the i with
    enumerate_countable(i) == q."""
    if not q:
        return 0
    num, den = abs(q.numerator), q.denominator
    bits = []
    while (num, den) != (1, 1):
        if num < den:
            bits.append("0")
            den -= num
        else:
            bits.append("1")
            num -= den
    k = int("1" + "".join(reversed(bits)), 2)
    return 2 * k - 1 if q > 0 else 2 * k


def counterexample_oracle(point):
    """`counterexample.f_counter` at the enumeration indices of a point of
    Q^2."""
    return f_counter(*(calkin_wilf_index(Fraction(c)) for c in point))


def exit_code(error) -> int:
    """The exit code of `ratrecon.cli.main` for an engine error."""
    if isinstance(error, ZeroDenominator):
        return _EXIT_INPUT
    if isinstance(error, NoFit):
        return _EXIT_NO_FIT
    if isinstance(error, VerificationFailed):
        return _EXIT_VERIFICATION
    if isinstance(error, (TooManyFailures, AnchorSearchFailed, BudgetExhausted,
                          DomainTooSparse)):
        return _EXIT_BUDGET
    return _EXIT_INTERNAL
