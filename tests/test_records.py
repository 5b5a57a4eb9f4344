"""ratrecon's records against dataclass twins, and what `import ratrecon`
leaves out of `sys.modules`.

Each twin below is the class as it was written with `@dataclass`: the same
fields, defaults and `__post_init__` validation.  The records must build,
compare, print, hash and refuse input exactly as their twins do.  The twins
carry the records' names, so the reprs can be compared as text.
"""

import copy
import dataclasses
import importlib
import inspect
import pathlib
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from ratrecon import counterexample, hankel, interp
from ratrecon.errors import DegenerateInput
from ratrecon.expr import eval_expr, parse, to_ratfun
from ratrecon.fields import QQ, PrimeField
from ratrecon.hankel import certify_rationality
from ratrecon.records import Record
from ratrecon.reconstruct import (
    SAMPLES_PER_CLASS_CAP,
    VALIDATION_EXTRA_CAP,
    VERIFY_TRIALS_CAP,
    Agreement,
)

# the package's `reconstruct` is the function of that name
reconstruct = importlib.import_module("ratrecon.reconstruct")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_by_import(names):
    """Which of `names` a fresh `python -I -S` has loaded after importing
    ratrecon and its CLI from this checkout."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             f"import ratrecon, ratrecon.cli; print(sorted({set(names)!r} & set(sys.modules)))")
    return subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_no_dataclasses_inspect_or_typing():
    assert loaded_by_import(("dataclasses", "inspect", "typing")) == "[]\n"


def test_import_loads_no_hashlib():
    # hashlib loads OpenSSL (_hashlib); fields takes sha256 from the builtin module
    assert loaded_by_import(("hashlib", "_hashlib")) == "[]\n"


@dataclass
class CounterexampleTable:
    enumeration: list
    values: list


@dataclass
class NonrationalityReport:
    n_grid: int
    d_max: int
    slice_degrees: list
    table_symmetric: bool
    per_degree: list


@dataclass
class SeriesPrefix:
    field: object
    coeffs: list

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least a_0")


@dataclass
class RationalityCertificate:
    verdict: str
    l: int
    m: int
    witness: object
    checked_prefix_length: int


@dataclass(frozen=True)
class DegreeProfile:
    d: int
    e: int
    n: int
    m: int
    l: int

    def __post_init__(self):
        if self.n != self.d + min(0, self.e) or self.m != self.d - max(0, self.e):
            raise ValueError("inconsistent degree profile")
        if self.l != self.n + self.m or self.n < 0 or self.m < 0:
            raise ValueError("inconsistent degree profile")


@dataclass
class SampleSet1:
    points: list

    def __post_init__(self):
        if len({a for a, _ in self.points}) != len(self.points):
            raise DegenerateInput("duplicate sample abscissae")


@dataclass
class SamplingBudget:
    max_degree: int = 8
    validation_extra: int = 4
    height_bound: int = 10
    max_consecutive_undefined: int = 100


@dataclass
class SliceOracle:
    arity: int
    field: object
    fn: object
    _suffix: tuple = ()
    _skipped: object = None


@dataclass
class ReconConfig:
    samples_per_class: int = 20
    max_degree: int = 8
    validation_extra: int = 4
    verify_trials: int = 200
    height_bound: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, low in (("samples_per_class", 0), ("max_degree", 0),
                          ("validation_extra", 1), ("verify_trials", 1),
                          ("height_bound", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name, cap in (("samples_per_class", SAMPLES_PER_CLASS_CAP),
                          ("validation_extra", VALIDATION_EXTRA_CAP),
                          ("verify_trials", VERIFY_TRIALS_CAP)):
            if getattr(self, name) > cap:
                raise ValueError(
                    f"{name} must be <= {cap}, got {getattr(self, name)}")


@dataclass
class ClassifyResult:
    histogram: Counter
    failures: int
    total: int
    de: tuple
    redrawn: int
    dens: list


@dataclass
class ReconReport:
    result: object
    arity: int
    field: object
    class_histogram: dict
    failures: int
    anchors: list
    verification: tuple
    config: object
    nodes: Counter


@dataclass
class NodeRecord:
    result: object
    anchors: list
    verification: object
    histogram: Counter
    failures: int
    nodes: Counter


F101 = PrimeField(101)
RESULT = to_ratfun(parse("(x1 + 2*x2)/(x1 - 3)", 2), QQ, 2)
WITNESS = certify_rationality(
    hankel.SeriesPrefix(QQ, [Fraction(1)] * 8), 1, 2).witness


def oracle_fn(point):
    return point[0]


# class name: (valid argument sets, invalid argument sets), each set a pair
# (positional arguments, keyword arguments)
CASES = {
    "CounterexampleTable": (
        [(([Fraction(0), Fraction(1)], [[0, 1], [1, 2]]), {}),
         ((), {"values": [[3]], "enumeration": [Fraction(-1, 2)]})],
        []),
    "NonrationalityReport": (
        [((4, 1, [0, 1, 2, 3], True, [{"degree_bound": 0}]), {}),
         ((4, 1), {"slice_degrees": [0, 1, 2, 3], "table_symmetric": False,
                   "per_degree": []})],
        []),
    "SeriesPrefix": (
        [((QQ, [Fraction(1), Fraction(2, 3)]), {}),
         ((F101, [F101.from_int(5)]), {})],
        [((QQ, []), {})]),
    "RationalityCertificate": (
        [(("NoWitnessUpTo", 3, 2, None, 8), {}),
         (("RationalWitness", 0, 1, WITNESS, 8), {}),
         (("RationalWitness",), {"l": 0, "m": 1, "witness": WITNESS,
                                  "checked_prefix_length": 8})],
        []),
    "DegreeProfile": (
        [((2, 0, 2, 2, 4), {}), ((3, -1, 2, 3, 5), {}), ((1, 1, 1, 0, 1), {}),
         ((), {"d": 0, "e": 0, "n": 0, "m": 0, "l": 0})],
        [((1, 0, 2, 1, 3), {}), ((0, 0, 0, 0, 1), {}), ((-1, 0, -1, -1, -2), {})]),
    "SampleSet1": (
        [(([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(3))],), {}),
         ((), {"points": [(F101.from_int(1), F101.from_int(7))]})],
        [(([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))],), {})]),
    "SamplingBudget": (
        [((), {}), ((3,), {}), ((), {"height_bound": 5}), ((1, 2, 3, 4), {})],
        []),
    "SliceOracle": (
        [((2, QQ, oracle_fn), {}), ((3, F101, oracle_fn, (F101.from_int(5),), []), {}),
         ((1, QQ), {"fn": oracle_fn, "_skipped": []})],
        []),
    "ReconConfig": (
        [((), {}), ((5,), {}), ((), {"seed": 7}), ((1, 2, 3, 4, 5, 6), {})],
        [((-1,), {}), ((), {"max_degree": -1}), ((), {"validation_extra": 0}),
         ((), {"verify_trials": 0}), ((), {"height_bound": 0}),
         ((SAMPLES_PER_CLASS_CAP + 1,), {}),
         ((), {"validation_extra": VALIDATION_EXTRA_CAP + 1}),
         ((), {"verify_trials": VERIFY_TRIALS_CAP + 1})]),
    "ClassifyResult": (
        [((Counter({(1, 0): 3}), 0, 3, (1, 0), 0, []), {}),
         ((Counter(), 2, 2), {"de": (0, 0), "redrawn": 1, "dens": [None]})],
        []),
    "ReconReport": (
        [((RESULT, 2, QQ, {(1, 1): 3}, 0, [[Fraction(4)]], (200, 200, 0),
           reconstruct.ReconConfig(), Counter(recursed=3)), {})],
        []),
    "NodeRecord": (
        [((RESULT, [[Fraction(4)]], Agreement(2, 2, 0), Counter({(1, 1): 2}), 0,
           Counter(recursed=3)), {}),
         ((RESULT, []), {"verification": Agreement(0, 0, 0), "histogram": Counter(),
                         "failures": 1, "nodes": Counter(sparse=1)})],
        []),
}

MODULES = (counterexample, hankel, interp, reconstruct)


def record_class(name):
    return next(getattr(m, name) for m in MODULES if hasattr(m, name))


def outcome(cls, args, kwargs):
    try:
        return cls(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def test_every_record_has_a_twin():
    assert {name for m in MODULES for name, obj in vars(m).items()
            if isinstance(obj, type) and issubclass(obj, Record)
            and obj.__module__ == m.__name__} == CASES.keys()


@pytest.mark.parametrize("name", CASES)
def test_record_matches_its_dataclass_twin(name):
    rec_cls, twin_cls = record_class(name), globals()[name]
    valid, invalid = CASES[name]
    # field order, keyword names and defaults
    assert rec_cls.__slots__ == tuple(f.name for f in dataclasses.fields(twin_cls))
    assert [(p.name, p.default) for p in inspect.signature(rec_cls).parameters.values()] \
        == [(p.name, p.default) for p in inspect.signature(twin_cls).parameters.values()]
    recs = [rec_cls(*args, **kwargs) for args, kwargs in valid]
    twins = [twin_cls(*args, **kwargs) for args, kwargs in valid]
    for rec, twin in zip(recs, twins):
        assert tuple(getattr(rec, k) for k in rec_cls.__slots__) == \
            tuple(getattr(twin, f.name) for f in dataclasses.fields(twin))
        assert repr(rec) == repr(twin)
        assert copy.copy(rec) == rec
        assert rec != twin
    assert [r == s for r in recs for s in recs] == [t == u for t in twins for u in twins]
    # an instance of a subclass, with equal fields, is not equal
    args, kwargs = valid[0]
    sub_rec = type("Sub", (rec_cls,), {})(*args, **kwargs)
    sub_twin = type("Sub", (twin_cls,), {})(*args, **kwargs)
    assert sub_rec != recs[0] and sub_twin != twins[0]
    rebuilt = [rec_cls(*args, **kwargs) for args, kwargs in valid]
    assert rebuilt == recs
    # hashability
    if name == "DegreeProfile":
        assert [hash(r) for r in recs] == [hash(t) for t in twins]
        assert [hash(r) for r in rebuilt] == [hash(r) for r in recs]
    else:
        assert rec_cls.__hash__ is None and twin_cls.__hash__ is None
        for rec in recs:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(rec)
    # validation errors, by type and message
    for args, kwargs in invalid:
        assert outcome(rec_cls, args, kwargs) == outcome(twin_cls, args, kwargs)


def test_degree_profile_is_immutable():
    prof = interp.DegreeProfile.from_de(2, -1)
    twin = DegreeProfile(2, -1, 1, 2, 3)
    for name in ("d", "l", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(prof, name, 0)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(twin, name, 0)
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del prof.n
    assert (prof.d, prof.e, prof.n, prof.m, prof.l) == (2, -1, 1, 2, 3)
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del twin.n
    assert {prof: "found"}[interp.DegreeProfile(2, -1, 1, 2, 3)] == "found"


@pytest.mark.parametrize("mismatch", [None, ((Fraction(1), Fraction(-2)), Fraction(3), None)],
                         ids=["unset", "set"])
def test_agreement_copies_and_pickles_with_its_mismatch(mismatch):
    tally = Agreement(5, 3, 1, mismatch)
    copies = [copy.copy(tally), copy.deepcopy(tally)]
    copies += [pickle.loads(pickle.dumps(tally, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is Agreement
        assert twin == (5, 3, 1) and twin.mismatch == mismatch


def test_report_of_a_real_run_deep_copies():
    ast = parse("(x1*x2 + 1)/(x1 - x2)", 2)
    oracle = reconstruct.SliceOracle(2, QQ, lambda pt: eval_expr(ast, pt, QQ))
    report = reconstruct.reconstruct(oracle, reconstruct.ReconConfig(seed=3))
    twin = copy.deepcopy(report)
    assert twin == report and twin.to_json() == report.to_json()
    assert type(twin.verification) is Agreement
    assert twin.verification.mismatch is None
