"""derive_rng's streams, pinned, and where its SHA-256 comes from.

Every draw and oracle query of a run comes from `derive_rng`, so its
streams are part of the byte-identical stdout contract.  The pinned values
and the probe live in `tools/check_interpreters.py`, which checks any
interpreter; here it runs on this one, in the lean path and with the
builtin modules blocked so that `fields` falls back to `hashlib`.
"""

import pathlib
import runpy
import subprocess
import sys

import pytest

from ratrecon.fields import derive_rng, sha256

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_interpreters.py"
CHECK = runpy.run_path(str(TOOL))
STREAMS = CHECK["STREAMS"]


@pytest.mark.parametrize("case, want", STREAMS, ids=[repr(c) for c, _ in STREAMS])
def test_derive_rng_streams_are_pinned(case, want):
    seed, path = case
    rng = derive_rng(seed, *path)
    assert tuple(rng.getrandbits(64) for _ in range(3)) == want


def test_hashlib_fallback_gives_the_pinned_streams():
    blocked = "import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
    facts = CHECK["probe"](sys.executable, blocked)
    assert "error" not in facts, facts
    assert facts["sha256"] not in ("_sha256", "_sha2")
    assert "hashlib" in facts["loaded"]
    assert [tuple(s) for s in facts["streams"]] == [want for _, want in STREAMS]
    assert facts["reconstruct"] == CHECK["RECONSTRUCT"][1]


def test_check_interpreters_passes_here():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"{sys.executable}: Python {sys.version.split()[0]}, " \
        f"sha256 from {sha256.__module__}: ok\n"
