"""Count the code lines of each module of src/delaystab and their total.

A code line is a line that is not blank, not a comment and not part of a
module, class or function docstring.  Run from the repository root:

    python3 tools/code_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.update(range(value.lineno, value.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )


if __name__ == "__main__":
    package = Path(sys.argv[1] if len(sys.argv) > 1 else "src/delaystab")
    counts = {path.stem: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16} {count:6}")
    print(f"{'total':16} {sum(counts.values()):6}")
