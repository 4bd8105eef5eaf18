"""Inputs and passes of the benchmark workloads.

Every workload is a closed loop with a single caller: the next library call
is issued only when the previous one has returned.  The calls are the public
functions the CLI subcommands call, so the timed path holds the computation
and not argument parsing.

A pass hands every item it produces to ``sink`` (an output check) right after
the call that produced it, outside the timed region, and returns each of its
ops as a (start, end) pair of HostClock marks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import delaystab
from delaystab import SimConfig, SystemParams, region

EPS0 = 1e-8          # classify default of the CLI
SIGMA = 1e-6         # eig default of the CLI
N_POINTS = 80
# The point set is a Latin hypercube drawn once from this fixed seed; the
# workload seed only orders the stream.  Per-call cost is chaotic in the
# parameters (it hangs on which Newton starts escape their cells), so points
# that moved with the seed would move wall time by about 20% between seeds.
DESIGN_SEED = 20070914

FAMILY = (1.0, 1.0, 1.0, 1.0)    # (alpha, delta, l, f) of the region map
SWEEP_BETA = (-5.0, 5.0)
SWEEP_TAU = (0.0, 10.0)
SWEEP_GRID = (20, 20)
TRACE_TAU_MAX = 10.0
TRACE_NUM_TAU = 500


@dataclass
class Outcome:
    """One item of a workload: a query call, a sweep node, a trace delay or
    a simulation run.  ``value`` is None when the item raised or returned
    an error entry, which ``error`` then describes."""

    kind: str
    key: str
    value: object
    error: str | None = None


@dataclass(frozen=True)
class Ring:
    name: str
    params: SystemParams
    config: SimConfig
    window: tuple[float, float]


class Caller:
    """Issues the calls of one pass and marks when each started and ended.

    With a tracer each call is also the root span of one workload call id.
    A raised exception is returned as its class name and message, because a
    failed item must not stop the loop.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.intervals: list[tuple] = []

    def __call__(self, name: str, fn: Callable, *args):
        if self.tracer is not None:
            fn = self.tracer.root(name, fn)
        start = self.clock.mark()
        try:
            value, error = fn(*args), None
        except Exception as exc:  # recorded as a failed item
            value, error = None, f"{type(exc).__name__}: {exc}"
        interval = (start, self.clock.mark())
        self.intervals.append(interval)
        return value, error, interval

    def times(self) -> list[float]:
        """Each call's time at the reference host speed."""
        return [self.clock.seconds(a, b) for a, b in self.intervals]

    @property
    def raw_wall(self) -> float:
        return sum(b[0] - a[0] for a, b in self.intervals)


def point_key(p: SystemParams) -> str:
    return " ".join(repr(v) for v in (p.alpha, p.beta, p.delta, p.l, p.f, p.tau))


def point_queries_inputs(seed: int) -> list[SystemParams]:
    """80 points covering alpha in 10^[-1,1], beta in [-10,10], delta in
    [-1,3], l and f in 10^[-0.5,0.5] and tau in [0,20], one per stratum of
    every coordinate, in an order set by ``seed``."""
    design = random.Random(DESIGN_SEED)
    strata = [design.sample(range(N_POINTS), N_POINTS) for _ in range(6)]
    points = []
    for i in range(N_POINTS):
        u = [(strata[d][i] + design.random()) / N_POINTS for d in range(6)]
        points.append(
            SystemParams(
                alpha=10.0 ** (2.0 * u[0] - 1.0),
                beta=20.0 * u[1] - 10.0,
                delta=4.0 * u[2] - 1.0,
                l=10.0 ** (u[3] - 0.5),
                f=10.0 ** (u[4] - 0.5),
                tau=20.0 * u[5],
            )
        )
    random.Random(seed).shuffle(points)
    return points


def point_queries_pass(points, call: Caller, sink) -> list[tuple]:
    """Two calls per point, classify then spectrum; an op is one call."""
    ops = []
    for p in points:
        key = point_key(p)
        for kind, span, fn, arg in (
            ("classify", "region.classify", delaystab.classify, EPS0),
            ("spectrum", "eigensolver.spectrum", delaystab.spectrum, SIGMA),
        ):
            value, error, interval = call(span, fn, p, arg)
            ops.append(interval)
            sink(Outcome(kind, key, value, error), p)
    return ops


def region_map_inputs(seed: int):
    """The fixed grids of the region-map workload; the seed is unused."""
    omega_max = delaystab.eig_bound_radius(10.0, FAMILY[1]) + 1.0
    return omega_max


def sweep_node_at(index: int) -> tuple[str, tuple[float, float]]:
    """Key and (beta, tau) of the sweep node at ``index`` of the row-major
    grid that ``sweep`` returns, beta being the outer index."""
    i, j = divmod(index, SWEEP_GRID[1])
    beta = SWEEP_BETA[0] + i * (SWEEP_BETA[1] - SWEEP_BETA[0]) / (SWEEP_GRID[0] - 1)
    tau = SWEEP_TAU[0] + j * (SWEEP_TAU[1] - SWEEP_TAU[0]) / (SWEEP_GRID[1] - 1)
    return f"{i} {j}", (beta, tau)


def trace_tau(index: int) -> float:
    return index * TRACE_TAU_MAX / (TRACE_NUM_TAU - 1)


def trace_index(tau: float) -> int | None:
    """The delay index whose grid value ``tau`` is, or None off the grid."""
    index = round(tau * (TRACE_NUM_TAU - 1) / TRACE_TAU_MAX)
    if 0 <= index < TRACE_NUM_TAU and abs(tau - trace_tau(index)) <= 1e-9:
        return index
    return None


def region_map_pass(omega_max, call: Caller, sink) -> list[tuple]:
    """One 20x20 sweep and one 500-delay boundary trace; an op is one sweep
    node, timed at the ``classify`` name that ``sweep`` looks up.

    Nodes are keyed by their grid index and delays by their index, so a
    node or delay the call leaves out, or one off the grid, fails its check.
    """
    nodes_timed: list[tuple] = []
    original = region.classify

    def timed_classify(*args, **kwargs):
        start = call.clock.mark()
        try:
            return original(*args, **kwargs)
        finally:
            nodes_timed.append((start, call.clock.mark()))

    region.classify = timed_classify
    try:
        nodes, error, _ = call(
            "region.sweep", delaystab.sweep, FAMILY, SWEEP_BETA, SWEEP_TAU,
            SWEEP_GRID, EPS0, 1,
        )
    finally:
        region.classify = original
    if nodes is None:
        nodes = [None] * (SWEEP_GRID[0] * SWEEP_GRID[1])
    for index, node in enumerate(nodes):
        key, grid = sweep_node_at(index)
        if node is None:
            sink(Outcome("node", key, None, error), grid)
        else:
            sink(Outcome("node", key, node, node.error), grid)

    trace, error, _ = call(
        "region.trace_boundary", delaystab.trace_boundary, FAMILY, TRACE_TAU_MAX,
        TRACE_NUM_TAU, omega_max,
    )
    points: dict = {}
    failed: dict = {}
    if trace is not None:
        for point in trace.points:
            points.setdefault(trace_index(point.tau), []).append(point)
        for tau, message in trace.failures:
            failed.setdefault(trace_index(tau), message)
    for index in range(TRACE_NUM_TAU):
        context = (FAMILY, trace_tau(index))
        if trace is None or index in failed:
            sink(Outcome("delay", str(index), None, error or failed[index]), context)
        else:
            sink(Outcome("delay", str(index), points.get(index, [])), context)
    if None in points or None in failed:
        sink(Outcome("delay", "off-grid", None, "crossings or failures at a tau off the grid"),
             None)
    return nodes_timed


def simulate_inputs(seed: int) -> list[Ring]:
    """The README simulate point at two ring sizes; the seed is unused."""
    rings = []
    for name, nx, tau, t_final, window in (
        ("small-ring", 100, 0.3, 200.0, (50.0, 200.0)),
        ("large-ring", 400, 5.0, 50.0, (10.0, 50.0)),
    ):
        params = SystemParams(1.0, 0.5, 1.0, 1.0, 1.0, tau)
        gamma = params.f * math.exp(-params.tau)   # the simulate CLI default
        config = SimConfig(nx=nx, t_final=t_final, gamma=gamma, output_stride=1)
        rings.append(Ring(name, params, config, window))
    return rings


def simulate_pass(rings, call: Caller, sink) -> list[tuple]:
    """``run`` then ``fit_decay_rate`` per ring; an op is that pair."""
    ops = []
    for ring in rings:
        traces, error, (start, end) = call(
            "simulator.run", delaystab.run, ring.params, ring.config,
            delaystab.sine_profile(ring.params.l), 1.0, delaystab.zero_fn,
        )
        fit = None
        if traces is not None:
            fit, error, (_, end) = call(
                "simulator.fit_decay_rate", delaystab.fit_decay_rate, traces[1], ring.window
            )
        ops.append((start, end))
        value = None if fit is None else (traces[0], traces[1], fit)
        # Drop the retained states (0.4 GB on large-ring) before the next run.
        del traces
        sink(Outcome("ring", ring.name, value, error), ring)
        del value
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable
    run_pass: Callable
    op: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("point-queries", point_queries_inputs, point_queries_pass, "library call"),
        Workload("region-map", region_map_inputs, region_map_pass, "sweep node"),
        Workload("simulate", simulate_inputs, simulate_pass, "run + fit"),
    )
}
