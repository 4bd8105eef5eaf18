"""Print which code of src/delaystab one pass of each benchmark workload runs.

Each workload's pass (perfbench/workloads.py: its inputs at seed 0 and its
library calls, with no timing and no output check) runs under a sys.settrace
line tracer that records only frames of the package.  For each workload it
prints a summary line, one line per module naming the functions never
entered, and one line per entered function that has statements never run,
with their line numbers.  A statement has run when a line event fired on
any line of it (of its header, for a compound statement); a global or
nonlocal declaration, which runs no code, is not counted.  Module-level code
runs at import, before tracing starts, and is not counted either.  BLAS is
pinned to one thread before numpy loads, as in the benchmark, since the
collocation's last bits, and with them which branches run, can depend on it.
Diff two checkouts' outputs to see what a change moved in or out of the
benchmark's reach.  Run from the repository root:

    python3 tools/traffic.py [src directory]
"""

from __future__ import annotations

import ast
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Function(NamedTuple):
    """A function or method of a module: its qualified name, the first line
    of its code (its first decorator's, if any) and the lines of each of its
    own statements (those of nested functions belong to them)."""

    name: str
    first: int
    statements: tuple[tuple[int, frozenset[int]], ...]


def _lines(stmt: ast.stmt) -> frozenset[int]:
    """The lines of a statement that run its own code: all of a simple one,
    the header of a compound one (decorators included)."""
    start = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    body = getattr(stmt, "body", None)
    end = max(stmt.lineno, body[0].lineno - 1) if body else stmt.end_lineno
    return frozenset(range(start, end + 1))


def _statements(body, out: list) -> None:
    for stmt in body:
        if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
            out.append((stmt.lineno, _lines(stmt)))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            _statements(getattr(stmt, field, ()), out)
        for handler in getattr(stmt, "handlers", ()):
            _statements(handler.body, out)
        for case in getattr(stmt, "cases", ()):
            _statements(case.body, out)


def functions(path: Path) -> list[Function]:
    """Every function and method of the module at path, nested ones too."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]    # the docstring runs no code
                statements: list = []
                _statements(body, statements)
                first = min(_lines(child))
                found.append(Function(prefix + child.name, first, tuple(statements)))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def traced(run, package: Path) -> tuple[set, set]:
    """Run run() under a line tracer limited to the files under package;
    return the (file, first line) of every code object entered and the
    (file, line) of every line event."""
    prefix = str(package.resolve()) + os.sep
    entered: set = set()
    lines: set = set()

    def on_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return entered, lines


def report(name: str, package: Path, entered: set, lines: set) -> list[str]:
    """The summary, never-entered and unrun-statement lines of one run."""
    out, never_by_module = [], []
    n_functions = n_entered = n_unrun = 0
    for path in sorted(package.glob("*.py")):
        filename = str(path.resolve())
        never = []
        for function in functions(path):
            n_functions += 1
            if (filename, function.first) not in entered:
                never.append(function.name)
                continue
            n_entered += 1
            unrun = [
                first
                for first, stmt_lines in function.statements
                if not any((filename, line) in lines for line in stmt_lines)
            ]
            n_unrun += len(unrun)
            if unrun:
                out.append(
                    f"{name}  unrun  {path.stem}.{function.name}  {len(unrun)} of "
                    f"{len(function.statements)}: {' '.join(map(str, unrun))}"
                )
        if never:
            never_by_module.append(f"{name}  never entered  {path.stem}: {' '.join(never)}")
    summary = (
        f"{name}  entered {n_entered} of {n_functions} functions, "
        f"{n_unrun} statements unrun in them"
    )
    return [summary, *never_by_module, *out]


class _Clock:
    """The one method of the benchmark's clock that a pass calls."""

    mark = staticmethod(time.perf_counter)


if __name__ == "__main__":
    # One BLAS thread, set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(sys.argv[1] if len(sys.argv) > 1 else "src").resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, Caller

    package = src / "delaystab"
    for workload in WORKLOADS.values():
        inputs = workload.make_inputs(0)
        call = Caller(_Clock())
        entered, lines = traced(
            lambda: workload.run_pass(inputs, call, lambda *outcome: None), package
        )
        for line in report(workload.name, package, entered, lines):
            print(line)
