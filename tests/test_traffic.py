import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "traffic", Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
)
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)

SOURCE = '''"""Module docstring."""


def used(x):
    """Function docstring."""
    global SEEN
    if x:
        y = (
            x + 1
        )
    else:
        y = 0
    return y


def unused():
    return 1


class A:
    @staticmethod
    def method():
        def inner():
            return 2
        return 3
'''


def test_reports_functions_never_entered_and_statements_never_run(tmp_path):
    package = tmp_path / "package"
    package.mkdir()
    path = package / "sample.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("sample", path)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)

    def run():
        sample.used(1)
        sample.A.method()

    entered, lines = traffic.traced(run, package)
    # used: the if, the assignment over three lines, the else branch's
    # assignment (line 12, never run) and the return; the global runs no
    # code.  A.method: the nested def (run) and the return.
    assert traffic.report("w", package, entered, lines) == [
        "w  entered 2 of 4 functions, 1 statements unrun in them",
        "w  never entered  sample: unused A.method.inner",
        "w  unrun  sample.used  1 of 4: 12",
    ]
