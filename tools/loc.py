"""Count the lines of the Python sources under given directories.

    python3 tools/loc.py [DIR ...]        (default: src tests)

For each directory it prints the number of .py files, their physical
lines, and their code lines: lines that hold a token other than a comment
or a docstring, so blank, comment-only and docstring lines do not count.
A multi-line statement or string counts every line it spans. Directories
are taken relative to the repository root, whatever the working
directory. Standard library only.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Lines of the module, class and function docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one file's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    print(f"{'':<8}{'files':>6}{'lines':>8}{'code':>8}")
    for name in argv or ["src", "tests"]:
        files = sorted((ROOT / name).rglob("*.py"))
        totals = [count(f.read_text(encoding="utf-8")) for f in files]
        print(f"{name:<8}{len(files):>6}{sum(t[0] for t in totals):>8}"
              f"{sum(t[1] for t in totals):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
