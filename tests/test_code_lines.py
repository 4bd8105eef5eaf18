import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import math


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is code"""
        if text:
            "a string statement, not a docstring"
        return math.pi  # trailing comment
'''


def test_counts_code_and_leaves_out_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the two lines of text, if, its string, return
    assert code_lines.code_lines(path) == 8
