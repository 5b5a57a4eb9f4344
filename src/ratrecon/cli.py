"""Command-line surface: JSON on stdout, human diagnostics on stderr.

Every output embeds a run manifest (command, field, seed, config echo, tool
version, input digests); identical flags and seed produce byte-identical
stdout.  Exit codes are a stable contract:

    0  success (including RationalWitness)
    1  input error (malformed files, bad flags values, parse errors)
    2  command-line usage error (argparse)
    3  NoWitnessUpTo
    4  BetaZero
    5  NoFit / ambiguous fit
    6  VerificationFailed
    7  reconstruction budget failure (TooManyFailures, AnchorSearchFailed,
       BudgetExhausted, DomainTooSparse)
    8  internal error: any other RatreconError, a broken library invariant
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (
    AnchorSearchFailed,
    BetaZero,
    BudgetExhausted,
    DegenerateInput,
    DomainTooSparse,
    ExprSyntaxError,
    NegativeExponent,
    NoFit,
    NoSolution,
    PoleAtOrigin,
    PrefixTooShort,
    RatreconError,
    SizeMismatch,
    TooManyFailures,
    UnknownVariable,
    VerificationFailed,
    ZeroDenominator,
)
from .counterexample import CounterexampleTable, nonrationality_report, slice_poly
from .expr import eval_expr, parse as parse_expr
from .fields import Field, field_from_string, sha256
from .hankel import SeriesPrefix, certify_rationality
from .interp import DegreeProfile, SampleSet1, fit_ratfun, interp_point
from .ratfun import format_ratfun1
from .reconstruct import (
    SAMPLES_PER_CLASS_CAP,
    VALIDATION_EXTRA_CAP,
    VERIFY_TRIALS_CAP,
    ReconConfig,
    SliceOracle,
    reconstruct,
)

_EXIT_INPUT = 1
_EXIT_NO_WITNESS = 3
_EXIT_BETA_ZERO = 4
_EXIT_NO_FIT = 5
_EXIT_VERIFICATION = 6
_EXIT_BUDGET = 7
_EXIT_INTERNAL = 8

# Upper bounds on the size flags: the largest accepted value of each runs
# in seconds, not hours (see docs/formats.md).
MAX_DEGREE_CAP = 24
ARITY_CAP = 64
TABLE_N_CAP = 64
DMAX_CAP = 8
GRID_CAP = 32


class InputError(Exception):
    pass


def _sha256(data: bytes) -> str:
    return sha256(data).hexdigest()


def _manifest(command: str, field: str, seed, config: dict, inputs: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "field": field,
        "seed": seed,
        "config": config,
        "inputs": inputs,
    }


def _emit(obj: dict) -> int:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _load_json(raw: bytes, what: str) -> dict:
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {what} at offset {e.pos}: {e.msg}") from e


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RATRECON_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as e:
            raise InputError(f"RATRECON_SEED must be an integer, got {env!r}") from e
    return 0


def _check_range(flag: str, value: int, low: int, high: int = None):
    if value < low:
        raise InputError(f"{flag} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{flag} must be <= {high}, got {value}")


def _parse_field(desc: str) -> Field:
    try:
        return field_from_string(desc)
    except ValueError as e:
        raise InputError(str(e)) from e


# ---------------------------------------------------------------------------
# hankel


def _cmd_hankel(args) -> int:
    raw = _read_file(args.series)
    obj = _load_json(raw, args.series)
    try:
        series = SeriesPrefix.from_json(obj)
    except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as e:
        raise InputError(f"bad series file: {e}") from e
    if args.field is not None:
        want = _parse_field(args.field)
        if want != series.field:
            raise InputError(
                f"--field {args.field} does not match series field "
                f"{series.field.descriptor()}")
    cert = certify_rationality(series, args.lmax, args.mmax)
    manifest = _manifest("hankel", series.field.descriptor(), None,
                         {"lmax": args.lmax, "mmax": args.mmax},
                         {"series": {"path": args.series, "sha256": _sha256(raw)}})
    _emit({"manifest": manifest, "certificate": cert.to_json()})
    return 0 if cert.verdict == "RationalWitness" else _EXIT_NO_WITNESS


# ---------------------------------------------------------------------------
# interp


def _load_samples(path: str, field: Field):
    raw = _read_file(path)
    if path.endswith(".json"):
        obj = _load_json(raw, path)
        try:
            pts = [(field.parse(a), field.parse(v)) for a, v in obj["samples"]]
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
            raise InputError(f"bad samples JSON: {e}") from e
        return SampleSet1(pts), raw
    pts = []
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected 'a,f(a)'")
        try:
            pts.append((field.parse(parts[0]), field.parse(parts[1])))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"{path}:{lineno}: {e}") from e
    if not pts:
        raise InputError(f"{path}: no samples")
    return SampleSet1(pts), raw


def _cmd_interp(args) -> int:
    _check_range("--n", args.n, 0)
    _check_range("--m", args.m, 0)
    field = _parse_field(args.field)
    try:
        samples, raw = _load_samples(args.samples, field)
    except RatreconError as e:
        raise InputError(str(e)) from e
    config = {"n": args.n, "m": args.m,
              "mode": "fit" if args.fit else "at", "at": args.at}
    manifest = _manifest("interp", field.descriptor(), None, config,
                         {"samples": {"path": args.samples, "sha256": _sha256(raw)}})
    if args.fit:
        f = fit_ratfun(samples, args.n, args.m)
        _emit({"manifest": manifest, "ratfun": format_ratfun1(f)})
        return 0
    try:
        a = field.parse(args.at)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad --at value: {e}") from e
    profile = DegreeProfile.from_de(max(args.n, args.m), args.n - args.m)
    if len(samples) < profile.l + 1:
        raise InputError(
            f"need {profile.l + 1} samples for degrees ({args.n}, {args.m}), "
            f"got {len(samples)}")
    head = SampleSet1(samples.points[:profile.l + 1])
    value = interp_point(head, profile, a)
    _emit({"manifest": manifest, "value": field.format(value)})
    return 0


# ---------------------------------------------------------------------------
# reconstruct


def _oracle_from_args(args, field: Field):
    inputs = {}
    if args.expr is not None:
        try:
            ast = parse_expr(args.expr, args.arity)
        except (ExprSyntaxError, UnknownVariable, NegativeExponent) as e:
            raise InputError(str(e)) from e
        inputs["expr"] = {"text": args.expr,
                          "sha256": _sha256(args.expr.encode("utf-8"))}
        oracle = SliceOracle(args.arity, field,
                             lambda pt: eval_expr(ast, pt, field))
        return oracle, inputs
    raw = _read_file(args.oracle_replay)
    obj = _load_json(raw, args.oracle_replay)
    try:
        if obj["arity"] != args.arity:
            raise InputError(
                f"replay arity {obj['arity']} != --arity {args.arity}")
        if obj["field"] != field.descriptor():
            raise InputError(
                f"replay field {obj['field']} != --field {field.descriptor()}")
        table = {}
        for i, entry in enumerate(obj["samples"]):
            pt = tuple(field.parse(s) for s in entry["point"])
            if len(pt) != args.arity:
                raise InputError(
                    f"replay sample {i}: point has {len(pt)} coordinates, "
                    f"--arity is {args.arity}")
            v = entry["value"]
            table[pt] = None if v is None else field.parse(v)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad replay file: {e}") from e
    inputs["oracle_replay"] = {"path": args.oracle_replay, "sha256": _sha256(raw)}
    # points absent from the table are reported as domain holes
    oracle = SliceOracle(args.arity, field, lambda pt: table.get(pt))
    return oracle, inputs


def _cmd_reconstruct(args) -> int:
    _check_range("--arity", args.arity, 1, ARITY_CAP)
    field = _parse_field(args.field)
    seed = _resolve_seed(args)
    if args.arity > 1 and args.samples_per_class < 1:
        raise InputError("--samples-per-class must be >= 1 for arity > 1")
    _check_range("--samples-per-class", args.samples_per_class, 0,
                 SAMPLES_PER_CLASS_CAP)
    _check_range("--verify-trials", args.verify_trials, 1, VERIFY_TRIALS_CAP)
    _check_range("--validation-extra", args.validation_extra, 1, VALIDATION_EXTRA_CAP)
    _check_range("--max-degree", args.max_degree, 0, MAX_DEGREE_CAP)
    _check_range("--height-bound", args.height_bound, 1)
    cfg = ReconConfig(samples_per_class=args.samples_per_class,
                      max_degree=args.max_degree,
                      validation_extra=args.validation_extra,
                      verify_trials=args.verify_trials,
                      height_bound=args.height_bound,
                      seed=seed)
    try:
        cfg.check_field(field)
    except ValueError as e:
        raise InputError(str(e)) from e
    oracle, inputs = _oracle_from_args(args, field)
    record = {} if args.record else None
    if record is not None:
        base_fn = oracle.fn

        def recording(pt):
            v = base_fn(pt)
            record[pt] = v
            return v

        oracle = SliceOracle(oracle.arity, field, recording)
    manifest = _manifest("reconstruct", field.descriptor(), seed, cfg.to_json(),
                         inputs)
    try:
        report = reconstruct(oracle, cfg)
    except VerificationFailed as e:
        _emit({"manifest": manifest,
               "error": {"kind": "VerificationFailed", "detail": str(e),
                         "path": list(e.path),
                         "point": [str(c) for c in e.point],
                         "oracle": str(e.expected), "result": str(e.got)}})
        return _EXIT_VERIFICATION
    if record is not None:
        payload = {"arity": oracle.arity, "field": field.descriptor(),
                   "samples": [{"point": [field.format(c) for c in pt],
                                "value": None if v is None else field.format(v)}
                               for pt, v in record.items()]}
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    _emit({"manifest": manifest, "report": report.to_json()})
    return 0


# ---------------------------------------------------------------------------
# counterexample


def _cmd_counterexample(args) -> int:
    _check_range("--n", args.n, 1, TABLE_N_CAP)
    _check_range("--dmax", args.dmax, 0, DMAX_CAP)
    _check_range("--grid", args.grid, 1, GRID_CAP)
    table = CounterexampleTable.build(args.n)
    csv_text = table.to_csv()
    cert = nonrationality_report(args.dmax, args.grid)
    slice_degs = []
    for m in range(args.n):
        p = slice_poly(m)
        slice_degs.append(int(p.degree) if not p.is_zero() else 0)
    table_obj = {
        "n": args.n,
        "symmetric": all(table.values[i][j] == table.values[j][i]
                         for i in range(args.n) for j in range(args.n)),
        "slice_degrees": slice_degs,
        "csv_sha256": _sha256(csv_text.encode("utf-8")),
    }
    if args.table_out:
        with open(args.table_out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        table_obj["csv_path"] = args.table_out
    else:
        table_obj["csv"] = csv_text
    manifest = _manifest("counterexample", "q", None,
                         {"n": args.n, "dmax": args.dmax, "grid": args.grid}, {})
    _emit({"manifest": manifest, "table": table_obj,
           "certificate": cert.to_json()})
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ratrecon",
        description="Exact rational function reconstruction from point "
                    "evaluations")
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("hankel", help="certify rationality of a series prefix")
    ph.add_argument("--series", required=True, help="series prefix JSON file")
    ph.add_argument("--lmax", type=int, default=4)
    ph.add_argument("--mmax", type=int, default=4)
    ph.add_argument("--field", default=None, help="'q' or 'fp:<p>' (must match file)")
    ph.set_defaults(fn=_cmd_hankel)

    pi = sub.add_parser("interp", help="pointwise interpolation or rational fit")
    pi.add_argument("--samples", required=True, help="CSV 'a,f(a)' or JSON samples")
    pi.add_argument("--field", default="q")
    pi.add_argument("--n", type=int, required=True, help="numerator degree")
    pi.add_argument("--m", type=int, required=True, help="denominator degree")
    group = pi.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", default=None, help="evaluation target")
    group.add_argument("--fit", action="store_true", help="return the fitted function")
    pi.set_defaults(fn=_cmd_interp)

    pr = sub.add_parser("reconstruct", help="reconstruct from a black-box oracle")
    src = pr.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr", default=None, help="oracle as an expression in x1..xN")
    src.add_argument("--oracle-replay", default=None, help="recorded oracle JSON")
    pr.add_argument("--arity", type=int, required=True)
    pr.add_argument("--field", default="fp:1000003")
    pr.add_argument("--seed", type=int, default=None,
                    help="default: RATRECON_SEED or 0")
    pr.add_argument("--samples-per-class", type=int, default=20)
    pr.add_argument("--max-degree", type=int, default=8)
    pr.add_argument("--validation-extra", type=int, default=4)
    pr.add_argument("--verify-trials", type=int, default=200)
    pr.add_argument("--height-bound", type=int, default=10)
    pr.add_argument("--record", default=None, help="write queried points to FILE")
    pr.set_defaults(fn=_cmd_reconstruct)

    pc = sub.add_parser("counterexample",
                        help="slice-polynomial but non-rational demonstration")
    pc.add_argument("--n", type=int, default=20, help="table size")
    pc.add_argument("--dmax", type=int, default=5)
    pc.add_argument("--grid", type=int, default=16)
    pc.add_argument("--table-out", default=None, help="write table CSV to FILE")
    pc.set_defaults(fn=_cmd_counterexample)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return _EXIT_INPUT
    except (PrefixTooShort, NoSolution, PoleAtOrigin, SizeMismatch,
            ZeroDenominator, DegenerateInput, ExprSyntaxError, UnknownVariable,
            NegativeExponent, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return _EXIT_INPUT
    except BetaZero as e:
        print(f"interpolation failed: {e}", file=sys.stderr)
        return _EXIT_BETA_ZERO
    except NoFit as e:
        print(f"fit failed: {e}", file=sys.stderr)
        return _EXIT_NO_FIT
    except VerificationFailed as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return _EXIT_VERIFICATION
    except (TooManyFailures, AnchorSearchFailed, BudgetExhausted,
            DomainTooSparse) as e:
        print(f"reconstruction budget failure: {e}", file=sys.stderr)
        return _EXIT_BUDGET
    except RatreconError as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
