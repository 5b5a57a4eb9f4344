"""`tools/code_lines.py` counts the lines that hold code: docstrings of
modules, classes and functions, comments and blank lines do not count,
while a string that is no docstring does, on every line it spans."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "code_lines.py")

MODULES = {
    # 6: import, class, def, the two lines of x's string, return
    "alpha.py": '''"""Module docstring
over two lines."""

# a comment line

import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        x = """not a
docstring"""
        return x
''',
    # 4: async def, return, the two lines of VALUE
    "beta.py": '''async def g():
    """Async function docstring."""

    return 1


VALUE = (1,
         2)
''',
    # 1: a module that is only a docstring and a statement
    "gamma.py": '''"""Only a docstring."""
pass
''',
}


def test_counts_code_lines_per_module_and_their_total(tmp_path):
    for name, text in MODULES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, TOOL, str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[-1][1] == "total"
    counts = {name: int(n) for n, name in lines[:-1]}
    assert counts == {"alpha.py": 6, "beta.py": 4, "gamma.py": 1}
    assert int(lines[-1][0]) == sum(counts.values())
