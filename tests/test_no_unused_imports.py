"""Every name a library module imports is used in it, so a deleted caller
takes its import along.  `__init__` is exempt: its imports are the public
re-exports.  Every top-level function, class and constant a library module
defines is loaded somewhere in the library or re-exported by `__init__`,
so a deleted caller takes its callee along."""

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


def defined_names(tree: ast.Module) -> set:
    """The names of the top-level functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def loaded_names(tree: ast.Module) -> set:
    """The names a module reads, bare (`name`) or as an attribute (`x.name`)."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_library_defines_only_names_it_loads():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = {a.asname or a.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    loaded = set().union(*map(loaded_names, trees.values()))
    unloaded = {(stem, name) for stem, tree in trees.items() if stem != "__init__"
                for name in defined_names(tree) - loaded - exported}
    assert unloaded == set(), "definitions in ratrecon that nothing loads"
