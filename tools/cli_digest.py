"""Print a short digest of the CLI's output for a fixed list of invocations.

Each line holds three hashes and the arguments.  The first is the first 12
hex digits of the SHA-256 of (exit code, stdout, stderr), with the src
directory's path in a warning's file name written as "src".  The second is
the same with every `residual` CSV column and JSON key dropped from stdout,
so it equals the first where the output has none.  The third is the second
with every number in stdout rounded to 12 significant digits.  Running it on
two checkouts and diffing the outputs shows which invocations changed: a
change in the first hash alone is a residual that moved while every root and
crossing stayed put, and a change in the first two alone is a move in the
last digits of a number.  BLAS is pinned to one thread, as in the benchmark:
the collocation's eigenvalues round differently with the thread count.  Run
from the repository root:

    python3 tools/cli_digest.py [src directory]
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
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
    f"eig {ONES} --beta 10 --tau 50",
    f"classify {ONES} --tau 1 --beta -1e-3",
    "trace-r0 --alpha 1 --delta 0 --l 1 --f 1 --tau-max 1 --steps 3 --omega-max 5",
    f"sweep {ONES} --beta-range 1e308:-1e308 --tau-range 0:1 --grid 2x2",
    f"simulate {POINT} --nx 10 --t-final 1e300",
    f"simulate {POINT} --nx 10 --t-final 50",
    f"simulate {ONES} --beta -30 --tau 0.3 --nx 10 --t-final 2000 --gamma 1",
    *(
        f"simulate {POINT} --nx 10 --t-final 0.55 --stride 4 --format {fmt}"
        for fmt in ("csv", "json")
    ),
    # 69 eigenvalues: the count sizes the collocation, N = 112, not the box's
    # height, which asks for 56.
    "eig --alpha 3.1176520950873146 --beta 4.11593677105726 --delta=-0.8464677180674761"
    " --l 1.9512883749399508 --f 0.3343941848230898 --tau 3.4034170806494646",
    # n_tau = 500: each delay window spans about two blocks of the run, and
    # each segment goes as one window of arrays.
    f"simulate {ONES} --beta 0.5 --tau 5 --nx 100 --t-final 3",
    "simulate --alpha 1 --delta=-1e4 --l 1 --f 1 --beta 0.5 --tau 0.3 --nx 10 --t-final 1",
    f"simulate {ONES} --beta 0.5 --tau 1e300 --nx 10 --t-final 0.5",
    # 594 sign flips across the poles of the gain, each reported on stderr.
    "trace-r0 --alpha 1 --delta 0 --l 1 --f 1 --tau-max 10 --steps 200 --omega-max 20",
    # The README's trace: 500 delays, 5,500 crossings.
    f"trace-r0 {ONES} --tau-max 10 --steps 500",
    # 2**24 delay steps, the first delay window past the memory bound: exit
    # 2.  A tree without the bound samples all of them, in about 6 s.
    f"simulate {ONES} --beta 0.5 --tau 1677721.6 --nx 10 --t-final 0.5",
    # char_fn's pole at -alpha lies at every omega = 0 crossing, so the batch
    # residual fails and each of the 23 crossings is checked on its own.
    "trace-r0 --alpha 1e-13 --delta 1 --l 1 --f 1 --tau-max 3 --steps 5",
    # A stride past any C long: the run's two outputs, as at --stride 10.
    f"simulate {POINT} --nx 10 --t-final 1 --stride 100000000000000000000",
    # 1000*eps0 overflows: exit 2 before any node is classified.
    f"sweep {ONES} --beta-range -5:5 --tau-range 0:10 --grid 3x3 --eps0 1e308",
    # delta**2 overflows and delta*l/f = -1 does not: the search radius
    # overflows, exit 3.
    "classify --alpha 1 --beta 3 --delta=-1e200 --l 1e-200 --f 1 --tau 1",
    "trace-r0 --alpha 1 --delta=-1e200 --l 1e-200 --f 1 --steps 3",
    # The eigenvalue lies within char_fn's pole tolerance of -alpha: exit 0.
    "classify --alpha 1e-7 --beta 1e-20 --delta 1 --l 1 --f 1 --tau 1",
    # dt = (l/nx)/f underflows to 0: exit 2 before any sample.
    "simulate --alpha 1 --beta 0.5 --delta 1 --l 1e-320 --f 1e10 --tau 0.3 --nx 10 --t-final 1",
    # dt = (l/nx)/f overflows to inf: exit 2 before any sample.
    "simulate --alpha 1 --beta 0.5 --delta 1 --l 1e30 --f 1e-300 --tau 0.3 --nx 10 --t-final 1",
    # gamma*exp(tau) = exp(3000) overflows: exit 3 at t = 0, no RuntimeWarning.
    "simulate --alpha 1 --beta 0.5 --delta 1 --l 10000 --f 1 --nx 2 --tau 3000 --gamma 1"
    " --t-final 20000",
    # l/f = 1e-15: the gain has no pole at delta > 0, so every crossing is a row.
    "trace-r0 --alpha 1 --delta 1 --l 1e-15 --f 1 --tau-max 1 --steps 3 --omega-max 5",
    # tau = 0: each step's delayed sample is the outlet of the step before.
    f"simulate {ONES} --beta 0.5 --tau 0 --nx 10 --t-final 5",
    # nx = 2: blocks of two steps.
    f"simulate {POINT} --nx 2 --t-final 5",
    # delta < 0: the profile grows along the tube.
    "simulate --alpha 1 --delta=-0.7 --l 1 --f 1 --beta 0.5 --tau 0.3 --nx 10 --t-final 5",
    # The README-size run (nx = 400, n_tau = 2000) up to t = 20: blocks of
    # 255 steps, each one window of arrays.
    f"simulate {ONES} --beta 0.5 --tau 5 --nx 400 --t-final 20",
    # Three delays over a wide window: each grid step crosses about 95
    # integers of its turn count, more than there are delays, so the flip
    # scan takes every delay of every step.
    f"trace-r0 {ONES} --tau-max 30 --steps 3 --omega-max 20",
    # delta < 0 over 300 delays: the flip scan's candidate intervals.
    "trace-r0 --alpha 1 --delta=-0.8 --l 1 --f 1 --tau-max 10 --steps 300",
    # No crossing: the SVG draws the default frame's axes alone.
    "trace-r0 --alpha 1e-300 --delta 1 --l 1 --f 1 --steps 3 --tau-max 1 --omega-max 0.001"
    " --format svg",
    # Two simple eigenvalues near -3, 2.1e-6 apart, share a cell at the
    # cluster size of tol = 1e-8 that Newton cannot polish: exit 3, no rows.
    "eig --alpha 1.4768116880880315 --beta=-0.4768116880884702 --delta 1 --l 1 --f 1 --tau 0"
    " --sigma 3.5 --tol 1e-8",
    # One real number per admission site the CLI reaches, each refused:
    # exit 2 before any search, scan or step.
    f"eig {POINT} --sigma inf",
    f"eig {POINT} --tol nan",
    f"classify {POINT} --eps0 -1",
    f"sweep {ONES} --beta-range -2:2 --tau-range 0:inf --grid 3x3",
    f"trace-r0 {ONES} --tau-max 1 --steps 3 --omega-max inf",
    f"simulate {POINT} --nx 10 --t-final 0.5 --gamma inf",
    f"simulate {POINT} --nx 10 --t-final 0.5 --a0 nan",
    f"certify {POINT} --gamma nan",
    # 2**60 delays by 2 gains: refused before any array is built, exit 2.
    f"sweep {ONES} --beta-range -2:2 --tau-range 0:2 --grid 1152921504606846976x2",
    # One count per admission site the CLI reaches, each refused: exit 2
    # before any array is built.
    f"trace-r0 {ONES} --tau-max 1 --steps 1 --omega-max 5",
    f"simulate {POINT} --nx 10 --t-final 0.5 --stride 0",
    f"sweep {ONES} --beta-range -2:2 --tau-range 0:2 --grid 1x3",
    f"simulate {POINT} --nx 16777216 --t-final 0.5",
]


def without_residuals(stdout: str) -> str:
    """stdout with the `residual` key of every JSON row, or the `residual`
    column of a CSV table, dropped; any other output as it is."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or "residual" not in rows[0]:
            return stdout
        col = rows[0].index("residual")
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(r[:col] + r[col + 1 :] for r in rows)
        return out.getvalue()
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not (rows and isinstance(rows[0], dict) and "residual" in rows[0]):
        return stdout
    for row in rows:
        del row["residual"]
    return json.dumps(doc, indent=2)


# A decimal number as the CLI writes one: in a CSV field, a JSON value or an
# SVG attribute.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def rounded(stdout: str) -> str:
    """stdout with every number rounded to 12 significant digits."""
    return NUMBER.sub(lambda m: format(float(m.group()), ".12g"), stdout)


def short_hash(code, stdout: str, stderr: str) -> str:
    return hashlib.sha256(repr((code, stdout, stderr)).encode()).hexdigest()[:12]


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
    stdout, stderr = out.getvalue(), err.getvalue().replace(src, "src")
    kept = without_residuals(stdout)
    hashes = (short_hash(code, out, stderr) for out in (stdout, kept, rounded(kept)))
    return "  ".join(hashes)


if __name__ == "__main__":
    # One BLAS thread, set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "src")
    sys.path.insert(0, src)
    from delaystab.cli import main

    for line in INVOCATIONS:
        print(f"{digest(main, line, src)}  {line}")
