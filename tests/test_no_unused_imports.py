"""Every name a library module imports is used in it, so a deleted caller
takes its import along.  `__init__` is exempt: its imports are the public
re-exports."""

import ast
import pathlib

import ratrecon

SRC = pathlib.Path(ratrecon.__file__).parent

# (module, name) pairs imported for a reader outside the module
KEPT = {
    ("ratfun", "gcd_polyn"): "bench/selftest.py looks it up in ratrecon.ratfun",
}


def unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_library_imports_only_names_it_uses():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found |= {(path.stem, name) for name in unused_imports(tree)}
    assert found - KEPT.keys() == set(), "unused imports in ratrecon"
    # a kept name that its module comes to use needs no exemption
    assert KEPT.keys() - found == set()
