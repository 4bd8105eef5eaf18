"""Print the minimum of 7 wall times of `run` for four shapes that the
benchmark's two rings leave out, one line each: its name and the time in ms.

- `nx2-T2000`: nx = 2, t_final = 2000 (4,000 steps in blocks of two);
- `nx10-T2000`: nx = 10, t_final = 2000 (20,000 steps);
- `delta-60`: the CLI digest's delta = -60 point (`--alpha 1 --beta 0.5
  --delta=-60 --l 1 --f 1 --tau 40 --nx 20 --t-final 40 --c0 zero --a0
  1e-160`), where most outputs are summed from their states' samples;
- `nx400-tau5-T200`: nx = 400, tau = 5, t_final = 200 (80,000 steps with a
  delay window of 2,000 samples).

The others are the README point (alpha 1, beta 0.5, delta 1, l 1, f 1, tau
0.3 unless given), from the half-sine profile, a0 = 1 and a zero history,
with gamma None and stride 1.  BLAS is pinned to one thread, as in the
benchmark.  Each shape runs once untimed first.  Run from the repository
root:

    python3 tools/run_times.py [src directory]
"""

import os
import sys
import time

SHAPES = {
    # name: (alpha, beta, delta, l, f, tau), nx, t_final, half-sine profile, a0
    "nx2-T2000": ((1, 0.5, 1, 1, 1, 0.3), 2, 2000.0, True, 1.0),
    "nx10-T2000": ((1, 0.5, 1, 1, 1, 0.3), 10, 2000.0, True, 1.0),
    "delta-60": ((1, 0.5, -60, 1, 1, 40.0), 20, 40.0, False, 1e-160),
    "nx400-tau5-T200": ((1, 0.5, 1, 1, 1, 5.0), 400, 200.0, True, 1.0),
}
REPEATS = 7


def run_time_ms(delaystab, family, nx, t_final, sine, a0) -> float:
    params = delaystab.SystemParams(*family)
    config = delaystab.SimConfig(nx=nx, t_final=t_final)
    c0 = delaystab.sine_profile(params.l) if sine else delaystab.zero_fn
    best = float("inf")
    for repeat in range(REPEATS + 1):
        start = time.perf_counter()
        delaystab.run(params, config, c0, a0, delaystab.zero_fn)
        if repeat:
            best = min(best, time.perf_counter() - start)
    return 1e3 * best


if __name__ == "__main__":
    # One BLAS thread, set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "src"))
    import delaystab

    for name, shape in SHAPES.items():
        print(f"{name:16} {run_time_ms(delaystab, *shape):10.2f} ms")
