import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_size.py"
_spec = importlib.util.spec_from_file_location("code_size", TOOL)
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

SNIPPET = '''"""Module docstring."""

import os  # a comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,
        over two lines."""
        if x:
            return x + 1
        "a string statement, not a docstring"
        return "a string"
'''


def test_code_size_counts_a_fixed_snippet():
    # Statements: import, class, def, if, two returns and the second string
    # expression; the three docstrings are left out.  Tokens: import os (2),
    # class A : (3), def f ( self , x ) : (8), if x : (3), return x + 1 (4),
    # the string statement (1), return "a string" (2).
    assert code_size.code_size(SNIPPET) == (7, 23)


def test_code_size_ignores_comments_blank_lines_and_docstrings():
    padded = SNIPPET.replace("import os", "# one more comment\n\nimport os")
    padded = padded.replace('"""Class docstring."""', '"""A longer class docstring."""')
    assert code_size.code_size(padded) == code_size.code_size(SNIPPET)


def test_code_size_prints_a_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "statements", "tokens"],
        ["a", "7", "23"],
        ["b", "1", "3"],
        ["total", "8", "26"],
    ]
