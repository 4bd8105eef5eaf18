"""Timing at a reference host speed.

On a shared host the speed of the same code swings with the load of other
tenants, between two levels about 1.7x apart, several times a second and
independently on each CPU; over minutes the mix of the two drifts.  Measured
this way, one 20x20 sweep took from 4.8 s to 6.7 s within two minutes, and
whole runs were 20% slower than runs a few minutes apart.

While a HostClock runs, a timer signal interrupts the process every
PERIOD_S seconds to run a small fixed probe that does not use the package
(complex scalar arithmetic in the interpreter plus a small numpy vector
operation, the two kinds of work the package does) and logs how long it
took.  An interval's time is its wall time minus the probe time inside it,
scaled by REFERENCE_S / the mean duration of the probes run during it (or
the nearest ones, for a short interval), leaving out probes slower than
OUTLIER times their median, which something other than the host held up.
Times are thus seconds at the host speed at which the probe takes
REFERENCE_S.  Over those two minutes the scaled sweep time stayed within 4%
of its median.

The probe runs between bytecodes of the main thread, so it cannot disturb
the package's state; a long numpy call merely delays it.  A set-up, which
starts before numpy is loaded, is timed the same way with the scalar half
of the probe alone (interpreter_probe) against INTERPRETER_REFERENCE_S.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import gc
import signal
import time

PERIOD_S = 0.05
REFERENCE_S = 200e-6    # about the probe's time at the faster of the two levels
INTERPRETER_REFERENCE_S = 170e-6    # the same for interpreter_probe alone
WINDOW_S = 0.1          # probes this close to an interval also describe it
MIN_PROBES = 3
OUTLIER = 2.5           # a probe slower than this times the median is not the host's speed


def interpreter_probe() -> complex:
    """The scalar half of the probe; needs no module beyond the standard library."""
    s = 0j
    for k in range(300):
        w = complex(0.1 * k, 1.0)
        s += cmath.exp(-w) / (w + 1.0)
    return s


def workload_probe():
    """The full probe: the scalar half plus a small numpy vector operation."""
    import numpy as np

    z = np.linspace(0.0, 10.0, 512) * 1j + 0.3

    def probe() -> complex:
        return interpreter_probe() + complex((np.exp(-z) * z).sum())

    return probe


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class HostClock:
    """Marks instants and converts the interval between two marks into
    seconds at the reference host speed (see the module docstring)."""

    def __init__(self, probe=None, reference_s: float = REFERENCE_S, period_s: float = PERIOD_S):
        self._probe = workload_probe() if probe is None else probe
        self._reference_s = reference_s
        self._period_s = period_s
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._spent = 0.0

    def _sample(self, signum, frame) -> None:
        # A collection started by the probe's allocations would scan the
        # workload's heap and be booked as a slow host.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self._probe()
        duration = time.perf_counter() - start
        if collecting:
            gc.enable()
        self._starts.append(start)
        self._durations.append(duration)
        self._spent += duration

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._period_s, self._period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self._spent

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """The interval's own time at the reference host speed.  Call it
        once probes after ``end`` have run, e.g. after the pass."""
        raw = (end[0] - start[0]) - (end[1] - start[1])
        lo = bisect.bisect_left(self._starts, start[0] - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end[0] + WINDOW_S)
        if hi - lo < MIN_PROBES:
            middle = 0.5 * (start[0] + end[0])
            nearest = sorted(
                range(len(self._starts)), key=lambda i: abs(self._starts[i] - middle)
            )[:MIN_PROBES]
            durations = [self._durations[i] for i in nearest]
        else:
            durations = self._durations[lo:hi]
        typical = _median(durations)
        durations = [d for d in durations if d <= OUTLIER * typical]
        return raw * self._reference_s * len(durations) / sum(durations)
