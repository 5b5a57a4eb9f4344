"""One digest line per benchmark instance, to compare two commits' answers.

    python3 tools/report_digest.py > digest.txt

Solves every instance that `bench/run.py` meets at seeds 1 and 2 (the
count that `BENCHMARK.json`'s run_seconds gives each workload) with this
checkout's `src`, and prints per instance: workload, seed, index, the
sha256 of the answer (the report JSON of `reconstruct`, the certificate
JSON of `hankel`, the value and fitted function of `interp`, or the error),
for `reconstruct` also the sha256 of the report without `class_histogram`
and `classify_failures`, that of the report without `nodes` and with
only the root's anchors, and that of the report with only `result` and
`verification`, whether the benchmark's exact check accepts it, and the
oracle calls.
After the instances come two lines for the `hankel` command on the wide
inputs of `tests/test_cli.py` (201 random integers, resp. fractions, with
--lmax 20 --mmax 90): the sha256 of the certificate in its stdout, as
sorted JSON (of the whole stdout if it holds none), and its exit code.
The manifest is left out: it carries the version, which says nothing of
the answer.
Run it in two checkouts and `diff` the outputs: identical output means the
same answers and the same oracle query counts.  The second digest of a
`reconstruct` line stays put when only the classification fields move, the
third when only the node counts and the anchors below the root do, as
when siblings are solved on their first sibling's support, and the fourth
holds the answer alone, which stays put when the anchors move, as when a
node draws one more anchor.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402

SEEDS = (1, 2)


CLASSIFICATION = ("class_histogram", "classify_failures")
ANSWER = ("result", "verification")


def answer_texts(inst, answer) -> list:
    """The answer's text, and for `reconstruct` those of the report without
    the classification fields, of the report without the node counts and
    the anchors below the root, and of its result and verification."""
    if isinstance(answer, Exception):
        text = f"error {type(answer).__name__}: {answer}"
        return [text] * 4 if inst.kind == "reconstruct" else [text]
    if inst.kind == "reconstruct":
        report = answer.to_json()
        rest = {k: v for k, v in report.items() if k not in CLASSIFICATION}
        root = {k: v for k, v in report.items() if k != "nodes"}
        root["anchors"] = root["anchors"][:1]
        result = {k: report[k] for k in ANSWER}
        return [json.dumps(d, sort_keys=True) for d in (report, rest, root, result)]
    return [inst.render(answer)]


# the 201-term inputs of the wide-bound `hankel` tests in tests/test_cli.py
WIDE_SERIES = {
    "ints": (13, lambda rng: str(rng.randint(-9, 9))),
    "fractions": (14, lambda rng: f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"),
}


def wide_hankel_lines():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (seed, coeff) in WIDE_SERIES.items():
            rng = random.Random(seed)
            path = f"{name}.json"       # relative: stdout names the path
            with open(os.path.join(tmp, path), "w") as f:
                json.dump({"field": "q", "coeffs": [coeff(rng) for _ in range(201)]}, f)
            proc = subprocess.run(
                [sys.executable, "-m", "ratrecon.cli", "hankel", "--series", path,
                 "--lmax", "20", "--mmax", "90"], capture_output=True, cwd=tmp, env=env)
            try:
                text = json.dumps(json.loads(proc.stdout)["certificate"],
                                  sort_keys=True).encode()
            except (ValueError, KeyError):
                text = proc.stdout
            yield (f"hankel_wide {name} {hashlib.sha256(text).hexdigest()} "
                   f"exit {proc.returncode}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    for name in workloads.WORKLOADS:
        count = workloads.instance_count(name, seconds)
        for seed in SEEDS:
            for i in range(count):
                inst = workloads.instance(name, seed, i)
                inst.prepare()
                try:
                    answer = inst.solve()
                except Exception as exc:  # a refusal or error is an answer too
                    answer = exc
                ok = not isinstance(answer, Exception) and inst.check(answer)
                digests = " ".join(hashlib.sha256(t.encode()).hexdigest()
                                   for t in answer_texts(inst, answer))
                print(f"{name} {seed} {i} {digests} {'ok' if ok else 'FAIL'} "
                      f"{inst.oracle.calls}", flush=True)
    for line in wide_hankel_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
