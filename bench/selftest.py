"""Self-test of the ratrecon benchmark, on one cycle of every workload.

    python3 bench/selftest.py

It asserts that
- every instance is answered correctly;
- the same seed gives identical deterministic counters: oracle queries per
  solve, every `.calls`, `fields.fp_elements` and the other counts;
- the traced run returns the same answers as the untraced run, and its
  `oracle.queries` equals the untraced count;
- every binding the traced run must intercept is replaced while it is
  installed, and restored afterwards;
- summed self times do not exceed the traced wall time;
- the printed metric names are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import run

SEED = 7
# Callees are imported by name; each must be patched where it is looked up.
SITES = {
    "reconstruct": ("detect_profile_with_fit", "paired_determinants", "normalize_ratfunn",
                    "classify_slices", "choose_anchors", "verify_agreement"),
    "interp": ("maximal_minors", "nullspace", "fit_ratfun", "paired_determinants"),
    "ratfun": ("gcd_polyn",),
    "hankel": ("det_exact", "nullspace"),
}


def check_sites(tracing):
    def bound(module, name):
        return getattr(importlib.import_module(f"ratrecon.{module}"), name)

    with tracing.Tracer().installed():
        for module, names in SITES.items():
            for name in names:
                assert hasattr(bound(module, name), "bench_span"), \
                    f"ratrecon.{module}.{name} is not intercepted"
    for module, names in SITES.items():
        for name in names:
            assert not hasattr(bound(module, name), "bench_span"), \
                f"ratrecon.{module}.{name} was not restored"


def check_workload(name, spec, tracing, workloads):
    count = len(workloads.WORKLOADS[name].cycle)
    e2e = run.end_to_end(name, SEED, count)
    assert e2e["correct"] and e2e["failed"] == 0, f"{name}: untraced run failed"
    assert set(e2e["metrics"]) == {m["name"] for m in spec["end_to_end"]}, name

    layers = []
    for _ in range(2):
        base, traced, counted, tracer, counter = run.trace_passes(name, SEED, count)
        for res in (base, traced, counted):
            assert res.failed == 0, f"{name}: a traced or counting pass failed"
        assert base.answers == traced.answers == counted.answers, \
            f"{name}: tracing changed an answer"
        assert base.queries == traced.queries == counted.queries, \
            f"{name}: tracing changed the oracle query count"
        assert base.queries / count == e2e["metrics"]["oracle_queries_per_solve"]["value"]
        self_sum = sum(s for _, s in tracer.aggregate().values())
        assert self_sum <= sum(traced.times), f"{name}: self times exceed wall time"
        layers.append(tracing.layer_metrics(tracer, counter, count, base, traced))
    first, second = layers
    assert set(first) == {m["name"] for m in spec["per_layer"]}, name
    for key, value in first.items():
        timed = key.startswith("trace.") or key.endswith(".self_s")
        if not timed:   # every count and ratio of counts repeats exactly
            assert value == second[key], f"{name}: {key} differs between runs"
    print(f"selftest: {name}: {count} instances, answers and counters agree",
          file=sys.stderr)


def main() -> int:
    run.import_ratrecon()
    import tracing
    import workloads
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    check_sites(tracing)
    for name in workloads.WORKLOADS:
        check_workload(name, spec, tracing, workloads)
    print("selftest: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
