"""The answers and oracle query counts of every benchmark instance, pinned.

`tools/report_digest.py` prints one line per instance of the benchmark's
workloads (seeds 1 and 2) and two for the wide `hankel` inputs; its output
of version 0.11.0 is kept in tests/data/digest-0.11.0.txt.  A change that
moves an answer or a query count fails here, naming each moved line; a
change meant to move them records the file again and lists the lines.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "data", "digest-0.11.0.txt")


def test_report_digest_matches_the_record():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "report_digest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    with open(RECORD) as f:
        want = f.read().splitlines()
    got = proc.stdout.splitlines()
    # a line's first three fields name it: workload, seed and index, or
    # "hankel_wide", the input and its digest
    moved = [" ".join(w.split()[:3]) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want), f"{len(got)} lines, recorded {len(want)}"
    assert not moved, f"{len(moved)} lines moved: {', '.join(moved)}"
