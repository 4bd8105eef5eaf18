"""One set-up of a workload, timed from inside the child interpreter.

    python3 perfbench/setup_child.py <workload> <seed>

Imports delaystab from the checkout's ``src/`` and generates the workload's
inputs while a HostClock runs on the interpreter-only probe (numpy is not
loaded yet), then prints ``ready <raw seconds> <seconds at the reference
host speed>`` for that stretch.  run.measure_setup adds the wall time of
interpreter start around it.
"""

from __future__ import annotations

import sys

from hostspeed import INTERPRETER_REFERENCE_S, HostClock, interpreter_probe

PERIOD_S = 0.02    # a set-up lasts well under a second; probe it often


def main(workload: str, seed: int) -> None:
    clock = HostClock(interpreter_probe, INTERPRETER_REFERENCE_S, PERIOD_S)
    with clock.running():
        start = clock.mark()
        from run import import_package

        import_package()
        from workloads import WORKLOADS

        WORKLOADS[workload].make_inputs(seed)
        end = clock.mark()
    print(f"ready {end[0] - start[0]!r} {clock.seconds(start, end)!r}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
