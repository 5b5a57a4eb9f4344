"""Check ratrecon's SHA-256 source and start-up on one or more interpreters.

    python3 tools/check_interpreters.py [PYTHON ...]

For each interpreter given (default: the one running this script), a
fresh `PYTHON -I -S` process imports ratrecon from this checkout's src/
and reports:

- whether `import ratrecon, ratrecon.cli` loaded `hashlib` or `_hashlib`
  (hashlib loads OpenSSL; ratrecon takes sha256 from CPython's builtin
  `_sha256` or `_sha2` instead);
- the module that supplied `fields.sha256`;
- the first three `getrandbits(64)` of `derive_rng` for each (seed, path)
  in `STREAMS`;
- the canonical text of one small `reconstruct` over Q.

It prints one line per interpreter, "ok" or what differs, and exits 1 if
any interpreter fails a check.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (seed, path) and the first three getrandbits(64) of derive_rng(seed, *path),
# recorded with hashlib.sha256 on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0
# before fields.py took sha256 from the builtin module.  The paths cover each
# engine stream name, a negative seed, a seed above 2**64 and nested tuples.
STREAMS = [
    ((0, ("classify",)),
     (16284997550551308190, 2402340011426594250, 4323591629822191887)),
    ((3, ("verify", 1)),
     (3293963251266062774, 17221004352137501073, 17312272519508077450)),
    ((-7, ("anchors", 0, (1,))),
     (12705128387348176814, 2561041019753221225, 13347525678832353612)),
    ((17, ("fit",)),
     (1611171253855099185, 5974567364542588732, 17969991664901848298)),
    ((2 ** 70 + 5, ("sparse", 2, (0, 1))),
     (13518195331258671543, 4409673189875770623, 8879672009271934245)),
    ((12345, ("classify-slice", 1, 4)),
     (15395829035705096316, 17439058285916823332, 10027959979558627199)),
]

# (expression, arity, seed) reconstructed over Q, and its canonical text
RECONSTRUCT = (("(x1*x2+1)/(x1-x2)", 2, 3), "(x1*x2 + 1)/(x1 - x2)")

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import ratrecon, ratrecon.cli
loaded = sorted({{"hashlib", "_hashlib"}} & set(sys.modules))
import json
from ratrecon import QQ, ReconConfig, SliceOracle, derive_rng, format_ratfunn, reconstruct
from ratrecon.expr import eval_expr, parse
from ratrecon.fields import sha256
streams = []
for seed, path in {cases!r}:
    rng = derive_rng(seed, *path)
    streams.append([rng.getrandbits(64) for _ in range(3)])
text, arity, seed = {recon!r}
ast = parse(text, arity)
oracle = SliceOracle(arity, QQ, lambda pt: eval_expr(ast, pt, QQ))
result = reconstruct(oracle, ReconConfig(seed=seed)).result
print(json.dumps({{"version": sys.version.split()[0], "sha256": sha256.__module__,
                  "loaded": loaded, "streams": streams,
                  "reconstruct": format_ratfunn(result)}}))
""".format(cases=[case for case, _ in STREAMS], recon=RECONSTRUCT[0])


def probe(python: str, prelude: str = "") -> dict:
    """What a fresh `python -I -S` reports; `prelude` runs before the probe."""
    proc = subprocess.run([python, "-I", "-S", "-c", prelude + PROBE, SRC],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode:
        lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        return {"error": lines[-1]}
    return json.loads(proc.stdout)


def problems(facts: dict) -> list:
    if "error" in facts:
        return [facts["error"]]
    found = []
    if facts["loaded"]:
        found.append("import loaded " + ", ".join(facts["loaded"]))
    for ((seed, path), want), got in zip(STREAMS, facts["streams"]):
        if tuple(got) != want:
            found.append(f"derive_rng{(seed, *path)!r} gave {got}")
    if facts["reconstruct"] != RECONSTRUCT[1]:
        found.append(f"reconstruct gave {facts['reconstruct']!r}")
    return found


def main(argv=None) -> int:
    pythons = sys.argv[1:] if argv is None else argv
    failed = False
    for python in pythons or [sys.executable]:
        facts = probe(python)
        found = problems(facts)
        failed = failed or bool(found)
        head = f"{python}: Python {facts.get('version', '?')}, sha256 from {facts.get('sha256', '?')}"
        print(f"{head}: " + ("; ".join(found) if found else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
