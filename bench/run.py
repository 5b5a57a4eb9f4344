"""Run one ratrecon benchmark workload and print its metrics.

    python3 bench/run.py --workload recon_sparse_fp --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: instance i+1 is generated,
set up and solved only after instance i has been answered and checked.
The run solves a fixed number of instances, sized from --seconds at the
seed commit's rate, so a given seed always meets the same inputs.  Solve
times are reported at the speed of a fixed reference loop timed around
each solve (see reference_loop), which cancels the machine's swings.

--trace 0 prints the end-to-end metrics of the untraced loop.  --trace 1
runs half as many instances three times (untraced, traced, counting
FpElement constructions) and prints the per-layer metrics; see tracing.py.
The last line of stdout is one JSON object; a readable summary goes to
stderr.  Spans of a traced run are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
# reference_loop() on a 2-core x86 VM (Xeon, 2.1 GHz) with no contention
REFERENCE_S = 0.005

# `import ratrecon` in a fresh process, then the program-side set-up of one
# cycle of inputs (parse, SliceOracle, SeriesPrefix, SampleSet1).  Generating
# the truths is benchmark work and stays outside both timers.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import ratrecon
t1 = time.perf_counter()
import workloads
insts = [workloads.instance({workload!r}, {seed!r}, i) for i in range({count})]
t2 = time.perf_counter()
for inst in insts:
    inst.prepare()
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


def import_ratrecon():
    """Import ratrecon from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import ratrecon
    except ImportError as exc:
        sys.exit(f"bench: cannot import ratrecon from {SRC}: {exc}")
    if not os.path.abspath(ratrecon.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: ratrecon came from {ratrecon.__file__}, not {SRC}")


def reference_loop():
    """A fixed pure-Python loop of integer arithmetic and dict updates.

    On a shared machine the speed of a solve swings by up to 2x over
    seconds, with other tenants' load.  This loop is timed before and after
    every solve of an untraced run; dividing by its time tracks those
    swings."""
    table = {}
    x = 12345
    for i in range(20000):
        x = (x * 1103515245 + 12345) % 1000003
        table[x & 1023] = table.get(x & 1023, 0) + i
    return table


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class LoopResult:
    def __init__(self):
        self.times = []      # wall seconds of each solve
        self.scaled = []     # the same, at the reference speed (calibrated loops only)
        self.answers = []    # canonical text of each answer, or the error
        self.failed = 0      # wrong answers, refusals and errors
        self.wrong = 0       # wrong answers and errors other than a documented refusal
        self.queries = 0


def run_loop(workload: str, seed: int, count: int, probe=None,
             calibrate=False) -> LoopResult:
    """Closed loop over instances 0..count-1.  `probe` (a Tracer or an
    FpCounter) is told when each solve starts and ends.  With `calibrate`,
    each solve's wall time is also scaled to the reference speed:
    t * REFERENCE_S / r, with r the mean time of the reference loop just
    before and just after the solve."""
    import workloads
    from ratrecon import RatreconError
    res = LoopResult()
    refs = []
    for i in range(count):
        inst = workloads.instance(workload, seed, i)
        inst.prepare()
        if probe is not None:
            probe.enter(i, inst)
        if calibrate:
            refs.append(time_reference())
        t0 = time.perf_counter()
        try:
            answer = inst.solve()
        except Exception as exc:  # every failure is counted, none is dropped
            answer = exc
        dt = time.perf_counter() - t0
        if probe is not None:
            probe.exit()
        res.times.append(dt)
        res.queries += inst.oracle.calls
        if isinstance(answer, Exception):
            res.failed += 1
            res.wrong += not isinstance(answer, RatreconError)
            res.answers.append(f"error {type(answer).__name__}: {answer}")
            print(f"bench: instance {i} ({inst.kind}) raised {answer!r}", file=sys.stderr)
            continue
        res.answers.append(inst.render(answer))
        if not inst.check(answer):
            res.failed += 1
            res.wrong += 1
            print(f"bench: instance {i} ({inst.kind}) wrong answer {res.answers[-1]}",
                  file=sys.stderr)
    if calibrate:
        refs.append(time_reference())
        res.scaled = [t * 2 * REFERENCE_S / (before + after)
                      for t, before, after in zip(res.times, refs, refs[1:])]
    return res


def measure_setup(workload: str, seed: int, count: int) -> float:
    code = _SETUP_PROBE.format(src=SRC, bench=BENCH, workload=workload,
                               seed=seed, count=count)
    samples = []
    for k in range(SETUP_REPEATS + 1):   # the first fills the bytecode cache
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                             text=True, check=True, timeout=120, cwd=ROOT)
        if k:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, count: int) -> dict:
    import workloads
    setup_s = measure_setup(workload, seed, len(workloads.WORKLOADS[workload].cycle))
    res = run_loop(workload, seed, count, calibrate=True)
    solved = count - res.failed
    metrics = {
        "solves_per_s": metric(solved / sum(res.scaled), "1/s"),
        "solve_s_p50": metric(statistics.median(res.scaled), "s"),
        "solve_s_p75": metric(statistics.quantiles(res.scaled, n=4)[2], "s"),
        "oracle_queries_per_solve": metric(res.queries / count, "queries"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"bench: {workload} seed {seed}: {count} instances, {res.failed} failed "
          f"(fail_frac {res.failed / count:.3f}), solver wall time {sum(res.times):.2f} s, "
          f"{sum(res.scaled):.2f} s at the reference speed",
          file=sys.stderr)
    return {"correct": res.wrong == 0, "attempted": count, "failed": res.failed,
            "metrics": metrics}


def trace_passes(workload: str, seed: int, count: int):
    """The same instances untraced, traced, and with FpElement counting.
    The first two are calibrated, so that their difference, the tracing
    overhead, is not swamped by the machine's swings in speed."""
    import tracing
    base = run_loop(workload, seed, count, calibrate=True)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_loop(workload, seed, count, tracer, calibrate=True)
    counter = tracing.FpCounter()
    with counter.installed():
        counted = run_loop(workload, seed, count, counter)
    return base, traced, counted, tracer, counter


def per_layer(workload: str, seed: int, count: int) -> dict:
    import tracing
    base, traced, counted, tracer, counter = trace_passes(workload, seed, count)
    path = tracer.write(os.path.join(ROOT, ".bench_out"), f"{workload}-seed{seed}")
    same = (base.answers == traced.answers == counted.answers
            and base.queries == traced.queries == counted.queries)
    if not same:
        print("bench: traced or counting run differs from the untraced run", file=sys.stderr)
    metrics = tracing.layer_metrics(tracer, counter, count, base, traced)
    print(f"bench: {workload} seed {seed}: {count} instances traced; untraced "
          f"{sum(base.times):.2f} s, traced {sum(traced.times):.2f} s; "
          f"{len(tracer.spans)} spans in {path}", file=sys.stderr)
    wrong = base.wrong + traced.wrong + counted.wrong
    return {"correct": same and wrong == 0, "attempted": count, "failed": base.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_ratrecon()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    count = workloads.instance_count(args.workload, args.seconds)
    if args.trace:
        cycle = len(workloads.WORKLOADS[args.workload].cycle)
        result = per_layer(args.workload, args.seed, cycle * max(1, count // (2 * cycle)))
    else:
        result = end_to_end(args.workload, args.seed, count)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
