"""The committed benchmark records (`BENCH_*.json` at the repository root).

Each record holds alternating runs of `bench/run.py` on a parent commit and
on a change, per workload of `BENCHMARK.json`, with a summary per
end-to-end metric.  These tests only read `BENCHMARK.json` and the records.
"""

import glob
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def load(path):
    with open(path) as f:
        return json.load(f)


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_matches_the_benchmark(path):
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    metrics = [m["name"] for m in bench["end_to_end"]]
    record = load(path)
    pairs = record["pairs"]
    assert record["workloads"].keys() == {w["name"] for w in bench["workloads"]}
    for name, runs in record["workloads"].items():
        assert len(runs["parent"]) == len(runs["change"]) == pairs, name
        assert set(runs["summary"]) >= set(metrics), name
        for metric in metrics:
            summary = runs["summary"][metric]
            for side in ("parent", "change"):
                values = [run["metrics"][metric]["value"] for run in runs[side]]
                q1, median, q3 = (summary[side][k] for k in ("q1", "median", "q3"))
                assert median == statistics.median(values), (name, metric, side)
                assert min(values) <= q1 <= median <= q3 <= max(values), (name, metric)
            assert 0 <= summary["change_wins"] <= pairs, (name, metric)
