"""Layer probes: micro-timings of each layer at fixed inputs.

They run outside the timed passes, with tracing off, and do not depend on
the workload.  Each timing is the median of several batches, each batch long
enough that the clock's resolution does not matter, at the reference host
speed of a running HostClock (see hostspeed).  The import breakdown is a
plain wall time of child interpreters.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys

import numpy as np

import delaystab
from delaystab import SimConfig, SystemParams, characteristic, eigensolver
from hostspeed import HostClock

README_EIG = SystemParams(1.0, 2.0, 1.0, 1.0, 1.0, 1.0)     # the README eig example
WIDE_EIG = SystemParams(1.0, 10.0, 1.0, 1.0, 1.0, 50.0)     # beta = 10, tau = 50
BATCHES = 5


def _per_call(clock, fn, repeats: int) -> float:
    """Median over batches of the seconds one call of ``fn`` takes."""
    batches = []
    for _ in range(BATCHES):
        start = clock.mark()
        for _ in range(repeats):
            fn()
        batches.append((start, clock.mark()))
    return statistics.median(clock.seconds(a, b) / repeats for a, b in batches)


def characteristic_probes(clock) -> dict[str, float]:
    box = eigensolver.default_box(README_EIG, 1e-6)
    edge = box.re_max + 1j * np.linspace(box.im_min, box.im_max, 4096)
    lam = complex(0.1, 1.3)
    vector = _per_call(clock, lambda: characteristic.char_num(README_EIG, edge), 50)
    return {
        "characteristic.char_num_vec_ns_per_point": vector / edge.size * 1e9,
        # Newton's per-iterate pair, as eigensolver calls it.
        "characteristic.deflated_scalar_us":
            _per_call(clock, lambda: characteristic._deflated(README_EIG, lam), 2000) * 1e6,
        "characteristic.deflated_prime_scalar_us":
            _per_call(clock, lambda: characteristic._deflated_prime(README_EIG, lam), 2000) * 1e6,
    }


def eigensolver_probes(clock) -> dict[str, float]:
    boxes = [
        (README_EIG, eigensolver.default_box(README_EIG, 1e-6)),
        (WIDE_EIG, eigensolver.default_box(WIDE_EIG, 1e-6)),
    ]
    count = statistics.mean(
        _per_call(clock, lambda p=p, b=b: eigensolver.count_zeros(p, b), 3) for p, b in boxes
    )
    # A box around the README point's rightmost root, small enough to hold
    # no other zero.
    lam = max(eigensolver.spectrum(README_EIG, 1e-6).roots, key=lambda r: r.lam.real).lam
    box = delaystab.ContourBox(lam.real - 0.05, lam.real + 0.05, lam.imag - 0.05, lam.imag + 0.05)
    found = len(eigensolver.find_roots(README_EIG, box).roots)
    if found != 1:
        raise RuntimeError(f"find_roots probe box holds {found} roots, expected 1")
    return {
        "eigensolver.count_zeros_ms_per_box": count * 1e3,
        "eigensolver.find_roots_ms_per_root":
            _per_call(clock, lambda: eigensolver.find_roots(README_EIG, box), 20) * 1e3,
    }


def simulator_probes(clock) -> dict[str, float]:
    metrics = {}
    for ring, nx, tau, repeats in (("small-ring", 100, 0.3, 2000), ("large-ring", 400, 5.0, 300)):
        params = SystemParams(1.0, 0.5, 1.0, 1.0, 1.0, tau)
        config = SimConfig(nx=nx, t_final=1.0, gamma=1.0)
        state = delaystab.init_state(
            params, config, delaystab.sine_profile(1.0), 1.0, delaystab.zero_fn
        )
        for _ in range(100):    # move off the zero history
            state = delaystab.step(state, params)
        metrics[f"simulator.step_us.{ring}"] = (
            _per_call(clock, lambda: delaystab.step(state, params), repeats) * 1e6
        )
        if ring == "large-ring":
            metrics["simulator.energy_us.large-ring"] = (
                _per_call(clock, lambda: delaystab.energy(state, params, 1.0), repeats) * 1e6
            )
    return metrics


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
IMPORTS = {"delaystab": "import.delaystab_ms", "scipy.optimize": "import.scipy_optimize_ms",
           "numpy": "import.numpy_ms"}


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative milliseconds of the modules in IMPORTS from the stderr of
    ``python -X importtime``."""
    found = {}
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(4) in IMPORTS:
            found[IMPORTS[match.group(4)]] = int(match.group(2)) / 1e3
    missing = set(IMPORTS.values()) - set(found)
    if missing:
        raise RuntimeError(f"importtime output lacks {sorted(missing)}")
    return found


def import_probes(src: str, repeats: int = 3) -> dict[str, float]:
    """Median over fresh interpreters of ``python -X importtime -c 'import delaystab'``."""
    env = dict(os.environ, PYTHONPATH=src)
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import delaystab"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(parse_importtime(done.stderr))
    return {name: statistics.median(r[name] for r in runs) for name in IMPORTS.values()}


def all_probes(src: str) -> dict[str, float]:
    metrics = import_probes(src)
    clock = HostClock()
    with clock.running():
        for probe in (characteristic_probes, eigensolver_probes, simulator_probes):
            metrics.update(probe(clock))
    return metrics
