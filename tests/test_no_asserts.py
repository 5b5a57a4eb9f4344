"""Guards in the library must survive `python -O`, which strips every
`assert` statement: invariants are checked with explicit raises."""

import ast
import pathlib

import ratrecon

SRC = pathlib.Path(ratrecon.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in ratrecon: {found}"
