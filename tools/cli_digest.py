"""Print a short digest of the CLI's output for a fixed list of invocations.

Each line holds the arguments and the first 12 hex digits of the SHA-256 of
(exit code, stdout, stderr), with the src directory's path in a warning's
file name written as "src".  Running it on two checkouts and diffing the
outputs shows which invocations changed.  Run from the repository root:

    python3 tools/cli_digest.py [src directory]
"""

import contextlib
import hashlib
import io
import os
import sys
import warnings

ONES = "--alpha 1 --delta 1 --l 1 --f 1"
POINT = ONES + " --beta 0.5 --tau 0.3"
FLAGS = {
    "eig": POINT,
    "classify": POINT,
    "sweep": ONES + " --beta-range -2:2 --tau-range 0:2 --grid 3x3",
    "trace-r0": ONES + " --tau-max 1 --steps 3 --omega-max 5",
    "simulate": POINT + " --nx 10 --t-final 0.5",
    "certify": POINT,
}
INVOCATIONS = [
    *(f"{cmd} {flags} --format {fmt}" for cmd, flags in FLAGS.items() for fmt in ("csv", "json")),
    *(f"{cmd} {FLAGS[cmd]} --format svg" for cmd in ("eig", "sweep", "trace-r0")),
    "eig --alpha -1 --delta 1 --l 1 --f 1 --beta 0 --tau 1",
    f"classify {ONES} --beta -4 --tau 4",
    f"classify {ONES} --beta 0.5 --tau 800",
    "classify --alpha 1 --delta -1000 --l 1 --f 1 --beta 1 --tau 1",
    f"classify {POINT} --output no-such-dir/out.csv",
    f"sweep {ONES} --beta-range 0:0.8 --tau-range 0:800 --grid 5x5",
    f"sweep {ONES} --beta-range 1:1 --tau-range 0:2 --grid 2x2 --format svg",
    f"sweep {ONES} --beta-range -1:1 --tau-range 0:1 --grid nonsense",
    "trace-r0 --alpha 0.5 --delta=-0.8 --l 2 --f 1 --tau-max 0.1 --steps 3 --format svg",
    "trace-r0 --alpha 1 --delta -800 --l 1 --f 1 --tau-max 1 --steps 3 --omega-max 1",
    "trace-r0 --alpha 1 --delta -709 --l 1 --f 1 --tau-max 1 --steps 3 --omega-max 1",
    "trace-r0 --alpha 1 --delta -709 --l 1 --f 1 --steps 3",
    "trace-r0 --alpha 1 --delta -800 --l 1 --f 1 --tau-max -1",
    f"trace-r0 {ONES} --steps 3 --omega-max nan",
    f"simulate {POINT} --nx 1 --t-final 1",
    f"simulate {ONES} --beta 0.5 --tau 800 --nx 10 --t-final 0.1",
    f"certify {ONES} --beta 1.5 --tau 0",
    f"certify {ONES} --beta 0.5 --tau 800",
    f"certify {POINT} --gamma 0",
    f"eig {ONES} --beta 5 --tau 5 --sigma 1",
    f"classify {ONES} --tau 1 --beta -1e-3",
    "trace-r0 --alpha 1 --delta 0 --l 1 --f 1 --tau-max 1 --steps 3 --omega-max 5",
    f"sweep {ONES} --beta-range 1e308:-1e308 --tau-range 0:1 --grid 2x2",
    f"simulate {POINT} --nx 10 --t-final 1e300",
]


def digest(main, line: str, src: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    # catch_warnings resets the once-per-location registry, so every
    # invocation prints its own numpy warnings.
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            try:
                code = main(line.split())
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error is an outcome too
                code, err = type(exc).__name__, io.StringIO(str(exc))
    payload = repr((code, out.getvalue(), err.getvalue().replace(src, "src"))).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


if __name__ == "__main__":
    src = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "src")
    sys.path.insert(0, src)
    from delaystab.cli import main

    for line in INVOCATIONS:
        print(f"{digest(main, line, src)}  {line}")
