"""Count the code lines of each module of `src/ratrecon`.

    python3 tools/code_lines.py [DIR]

A code line is a line that holds a token outside every docstring and is
not only a comment: blank lines, comment lines and the lines of module,
class and function docstrings do not count.  Prints one line per module
of DIR (default: this checkout's src/ratrecon), sorted by name, then the
total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in docs)
    return len(lines)


def main(argv: list) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = argv[0] if argv else os.path.join(root, "src", "ratrecon")
    total = 0
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                n = code_lines(fh.read())
            total += n
            print(f"{n:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
