"""Outside-in tracing for the ratrecon benchmark.

The traced run wraps public functions of each module from outside.  A
callee is imported by name into its callers' modules, so one function can
be bound under its name in several modules; each binding is replaced where
it is looked up, found by identity over every loaded `ratrecon` module.
Modules come from `importlib.import_module`: the attribute
`ratrecon.reconstruct` is the function, because the package's `__init__`
rebinds the name.

Each wrapped call records a span (label, start, end, parent span, instance)
in memory; spans are written out after the run.  A span's self time is its
duration minus the time covered by its child spans.  Spans are recorded
only while an instance is being solved, so truth generation and answer
checks never appear.

`FpCounter` counts FpElement constructions in a pass of its own: a hook on
every field operation would distort every other layer's self time.

The `counterexample` and `cli` modules are not wrapped: the first is a
fixed demonstration, the second a thin JSON wrapper whose import cost is
already in setup_s.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function, split by entry kind: PolyN vs scalar)
TARGETS = (
    ("reconstruct", "reconstruct", False),
    ("reconstruct", "classify_slices", False),
    ("reconstruct", "choose_anchors", False),
    ("reconstruct", "verify_agreement", False),
    ("interp", "detect_profile_with_fit", False),
    ("interp", "fit_ratfun", False),
    ("interp", "paired_determinants", True),
    ("interp", "interp_point", False),
    ("matrix", "nullspace", False),
    ("matrix", "maximal_minors", True),
    ("matrix", "det_exact", False),
    ("hankel", "certify_rationality", False),
    ("hankel", "kronecker_scan", False),
    ("hankel", "pade_reconstruct", False),
    ("poly", "gcd_polyn", False),
    ("ratfun", "normalize_ratfunn", False),
)
KINDS = ("polyn", "scalar")


def span_labels():
    for module, function, split in TARGETS:
        base = f"{module}.{function}"
        yield from ((f"{base}.{k}" for k in KINDS) if split else (base,))


def _entry_kind(x) -> str:
    from ratrecon import PolyN
    while isinstance(x, list):
        x = x[0]
    return "polyn" if isinstance(x, PolyN) else "scalar"


class Tracer:
    def __init__(self):
        self.spans = []          # (label, start, end, parent index, instance)
        self.tally = Counter()   # counts taken from arguments and results
        self.instance = -1
        self._stack = []
        self._active = False
        self._points = set()

    def wrap(self, name, fn, split=False, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            label = f"{name}.{_entry_kind(args[0])}" if split else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.instance)
            if hook is not None:
                hook(args, result)
            return result

        traced.bench_span = name
        return traced

    @contextmanager
    def installed(self):
        hooks = {"verify_agreement": self._verify_hook,
                 "certify_rationality": self._certify_hook}
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "ratrecon" or name.startswith("ratrecon.")]
        patched = []
        for module, function, split in TARGETS:
            orig = getattr(importlib.import_module(f"ratrecon.{module}"), function, None)
            if orig is None:   # removed by a later version; its metrics read 0
                continue
            wrapper = self.wrap(f"{module}.{function}", orig, split, hooks.get(function))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def enter(self, i, inst):
        self.instance = i
        self._points = set()
        inst.oracle.fn = self.wrap("oracle", inst.oracle.fn, hook=self._oracle_hook)
        self._active = True

    def exit(self):
        self._active = False
        self.tally["oracle.distinct"] += len(self._points)

    def _oracle_hook(self, args, result):
        self._points.add(args[0])
        self.tally["oracle.defined"] += result is not None

    def _verify_hook(self, args, result):
        trials, _, skips = result
        self.tally["verify.trials"] += trials
        self.tally["verify.skips"] += skips

    def _certify_hook(self, args, result):
        self.tally["hankel.witnesses"] += result.witness is not None

    def aggregate(self) -> dict:
        """label -> (calls, summed self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {}
        for (label, start, end, _, _), covered in zip(self.spans, child):
            calls, self_s = agg.get(label, (0, 0.0))
            agg[label] = (calls + 1, self_s + (end - start) - covered)
        return agg

    def write(self, directory: str, stem: str) -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{stem}.jsonl")
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for label, start, end, parent, inst in self.spans:
                out.write(json.dumps([label, start - t0, end - t0, parent, inst]) + "\n")
        return path


class FpCounter:
    """Counts FpElement constructions while instances are being solved."""

    def __init__(self):
        self.count = 0
        self._active = False

    @contextmanager
    def installed(self):
        from ratrecon.fields import FpElement
        orig = FpElement.__init__

        def counting_init(elem, residue, field):
            self.count += self._active
            orig(elem, residue, field)

        FpElement.__init__ = counting_init
        try:
            yield self
        finally:
            FpElement.__init__ = orig

    def enter(self, i, inst):
        self._active = True

    def exit(self):
        self._active = False


def layer_metrics(tracer: Tracer, counter: FpCounter, count: int, base, traced) -> dict:
    """Per-layer metrics, each a mean per instance.  Self times are raw wall
    time; the trace.*_s times are at the reference speed (run.py)."""
    agg = tracer.aggregate()

    def calls(label):
        return agg.get(label, (0, 0.0))[0]

    def per(x, unit):
        return {"value": x / count, "unit": unit}

    def ratio(num, den):
        return {"value": num / den if den else 0.0, "unit": "ratio"}

    out = {}
    for label in span_labels():
        n, self_s = agg.get(label, (0, 0.0))
        out[f"{label}.calls"] = per(n, "calls/solve")
        out[f"{label}.self_s"] = per(self_s, "s/solve")
    oracle_calls = calls("oracle")
    out["oracle.self_s"] = per(agg.get("oracle", (0, 0.0))[1], "s/solve")
    detects = calls("interp.detect_profile_with_fit")
    out.update({
        "reconstruct.verify_agreement.trials": per(tracer.tally["verify.trials"], "trials/solve"),
        "reconstruct.verify_agreement.skips": per(tracer.tally["verify.skips"], "trials/solve"),
        "interp.fit_yield": ratio(detects, calls("interp.fit_ratfun")),
        "hankel.witness_yield": ratio(tracer.tally["hankel.witnesses"],
                                      calls("hankel.pade_reconstruct")),
        "oracle.queries": per(traced.queries, "queries/solve"),
        "oracle.defined_frac": ratio(tracer.tally["oracle.defined"], oracle_calls),
        "oracle.distinct_frac": ratio(tracer.tally["oracle.distinct"], oracle_calls),
        "fields.fp_elements": per(counter.count, "elements/solve"),
        "trace.untraced_s": per(sum(base.scaled), "s/solve"),
        "trace.traced_s": per(sum(traced.scaled), "s/solve"),
        "trace.overhead_s": per(sum(traced.scaled) - sum(base.scaled), "s/solve"),
        "trace.self_sum_frac": ratio(sum(s for _, s in agg.values()), sum(traced.times)),
    })
    return out
