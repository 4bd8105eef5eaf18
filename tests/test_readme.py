"""The README's command-line examples run and exit 0, and its library
example runs and prints the label its comment names, so the README cannot
drift from the package unnoticed."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from delaystab.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def cli_examples() -> list[list[str]]:
    """Each `delaystab ...` line of the sh block under "Command line", as
    an argv without the program name; continuation lines are joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("delaystab ")]


EXAMPLES = cli_examples()


def test_every_subcommand_has_an_example():
    assert [argv[0] for argv in EXAMPLES] == [
        "eig", "classify", "sweep", "trace-r0", "simulate", "certify",
    ]


@pytest.mark.parametrize("argv", EXAMPLES, ids=[argv[0] for argv in EXAMPLES])
def test_example_exits_zero(argv, tmp_path):
    argv = list(argv)
    output = tmp_path / "out"
    if "--output" in argv:
        at = argv.index("--output") + 1
        output = tmp_path / Path(argv[at]).name
        argv[at] = str(output)
    else:
        argv += ["--output", str(output)]
    assert main(argv) == 0
    assert output.stat().st_size > 0


def test_module_entry_point_exits_with_mains_code():
    """`python -m delaystab` passes main's exit code to the shell."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    classify = next(argv for argv in EXAMPLES if argv[0] == "classify")
    ok = subprocess.run(
        [sys.executable, "-m", "delaystab", *classify], capture_output=True, text=True, env=env
    )
    assert ok.returncode == 0 and ok.stdout.startswith("label,evidence,max_real_part\n")
    bad = list(classify)
    bad[bad.index("--alpha") + 1] = "-1"
    fail = subprocess.run(
        [sys.executable, "-m", "delaystab", *bad], capture_output=True, text=True, env=env
    )
    assert fail.returncode == 2 and fail.stdout == ""
    assert fail.stderr.startswith("delaystab: ") and "alpha" in fail.stderr


def test_library_example_prints_its_label():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    label_line = next(line for line in block.splitlines() if ".label" in line)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines()[0] == label_line.split("#", 1)[1].strip()
