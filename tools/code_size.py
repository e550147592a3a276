"""Statements and tokens per module of ``src/planargca``.

Run from anywhere:

    python3 tools/code_size.py [DIR]

DIR defaults to the package directory.  For each ``*.py`` file directly
in DIR, and for their total, it prints

- statements: the ``ast.stmt`` nodes, not counting docstrings;
- tokens: the ``tokenize`` tokens, not counting comments, docstrings,
  NL, NEWLINE, INDENT, DEDENT, ENCODING or ENDMARKER.

A docstring is a string-literal expression statement that opens a module,
class or function body.  Physical lines, comments and docstrings do not
change either count, so both measure code and nothing else.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "planargca"
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> list:
    """The expression statements of ``tree`` that are docstrings."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.append(first)
    return found


def code_size(source: str) -> tuple:
    """``(statements, tokens)`` of one module's source."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    spans = [
        ((d.lineno, d.col_offset), (d.end_lineno, d.end_col_offset)) for d in docstrings
    ]
    tokens = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue
        tokens += 1
    return statements - len(docstrings), tokens


def main(argv: list) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    total_statements = total_tokens = 0
    print(f"{'module':<24}{'statements':>12}{'tokens':>10}")
    for path in sorted(directory.glob("*.py")):
        statements, tokens = code_size(path.read_text(encoding="utf-8"))
        total_statements += statements
        total_tokens += tokens
        print(f"{path.stem:<24}{statements:>12}{tokens:>10}")
    print(f"{'total':<24}{total_statements:>12}{total_tokens:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
