"""Spans at the public boundaries between the package's modules.

The traced run rebinds each function at the name its caller looks it up
under (``sweep`` reaches ``classify`` through ``delaystab.region``, for
example), so the package's own source is untouched.  The characteristic
evaluators that eigensolver imports under private names (Newton's
``_deflated`` and ``_deflated_prime``, contour sampling's
``_num_with_scale`` and ``_deflated_with_scale``) are bound there too, so
that their time counts to ``characteristic`` and not to ``eigensolver``.  Every call of a bound
function records a span: name, start, end, parent span and the id of the
workload call it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import Counter
from typing import NamedTuple

from delaystab import Evidence, eigensolver, region, simulator
from workloads import TRACE_NUM_TAU

# (module, name the caller looks up, span name = home module.function)
TARGETS = (
    (region, "classify", "region.classify"),
    (region, "oscillation_fast_path", "region.oscillation_fast_path"),
    (region, "decay_certificate", "params.decay_certificate"),
    (region, "spectral_bound", "eigensolver.spectral_bound"),
    (region, "beta_on_axis", "region.beta_on_axis"),
    (region, "char_fn", "characteristic.char_fn"),
    (eigensolver, "spectrum", "eigensolver.spectrum"),
    (eigensolver, "find_roots", "eigensolver.find_roots"),
    (eigensolver, "char_fn", "characteristic.char_fn"),
    (eigensolver, "_deflated", "characteristic._deflated"),
    (eigensolver, "_deflated_prime", "characteristic._deflated_prime"),
    (eigensolver, "_num_with_scale", "characteristic._num_with_scale"),
    (eigensolver, "_deflated_with_scale", "characteristic._deflated_with_scale"),
    (simulator, "init_state", "simulator.init_state"),
    (simulator, "step", "simulator.step"),
    (simulator, "energy", "simulator.energy"),
)

LAYERS = ("params", "characteristic", "eigensolver", "region", "simulator")
ERROR_CLASSES = (
    "SolverConsistencyError",
    "BoundaryZero",
    "QuadratureNonInteger",
    "MaxDepthExceeded",
    "PoleAtMinusAlpha",
    "DenominatorVanishes",
    "BracketingFailed",
    "InvalidParameter",
    "ValueError",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a workload call
    call_id: int
    probe: float     # seconds of HostClock probes run inside the span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans plus the counts read off the results that cross them.

    Each span also keeps the time of the HostClock probes inside it, so that
    span_metrics can give its time at the reference host speed.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.call_id = 0
        self.counts: Counter = Counter()
        self.states_bytes_max = 0
        self._hooks = {
            "region.classify": self._on_classify,
            "eigensolver.find_roots": self._on_find_roots,
            "region.trace_boundary": self._on_trace,
            "simulator.run": self._on_run,
        }

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        mark = self.clock.mark

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start, spent = mark()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc)
                raise
            finally:
                end, spent_end = mark()
                self._stack.pop()
                self.spans[index] = Span(
                    name, start, end, parent, self.call_id, spent_end - spent
                )
            if hook is not None:
                hook(result)
            return result

        return traced

    def root(self, name: str, fn):
        """``fn`` wrapped as the span of a new workload call."""
        self.call_id += 1
        return self.wrap(name, fn)

    @contextlib.contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, span), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, attr, self.wrap(span, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _count_error(self, exc: BaseException) -> None:
        # An exception crosses every span between where it is raised and
        # where it is caught; count it once.
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        for cls in type(exc).__mro__:
            if cls.__name__ in ERROR_CLASSES:
                self.counts[f"errors.{cls.__name__}"] += 1
                return
        self.counts["errors.other"] += 1

    def _on_classify(self, label) -> None:
        self.counts[f"region.evidence.{label.evidence.value}"] += 1

    def _on_find_roots(self, rootset) -> None:
        for root in rootset.roots:
            if not root.structural:
                self.counts["eigensolver.roots"] += root.multiplicity
                self.counts["newton_iters"] += root.newton_iters
        self.counts["eigensolver.unresolved_cells"] += len(rootset.unresolved)

    def _on_trace(self, trace) -> None:
        self.counts["region.trace_points"] += len(trace.points)
        self.counts["region.trace_failures"] += len(trace.failures)

    def _on_run(self, result) -> None:
        states = result[0].states
        held = sum(s.c.nbytes + 8 * len(s.history) for s in states)
        self.states_bytes_max = max(self.states_bytes_max, held)


def write_spans(spans: list[Span], path) -> None:
    """Write the spans as CSV: name, start, end, parent index, call id and
    probe seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("name,start,end,parent,call_id,probe\n")
        for span in spans:
            fh.write(
                f"{span.name},{span.start!r},{span.end!r},{span.parent},{span.call_id},"
                f"{span.probe!r}\n"
            )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls are single-threaded, so children nest strictly inside their parent
    and do not overlap; their durations can be summed.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _decile_ms(times: list[float], q: int) -> float:
    """The q-th decile of ``times`` in milliseconds; 0 when there are none."""
    if len(times) < 2:
        return sum(times) * 1e3
    return statistics.quantiles(times, n=10, method="inclusive")[q - 1] * 1e3


def span_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer counts, time shares and span times of one traced pass.

    Span times are at the reference host speed of the tracer's clock and
    include the tracing cost of the spans nested in them.
    """
    spans = tracer.spans
    own = self_times(spans)

    def seconds(span: Span) -> float:
        return tracer.clock.seconds((span.start, 0.0), (span.end, span.probe))

    classify_times = [seconds(s) for s in spans if s.name == "region.classify"]
    traces = [seconds(s) for s in spans if s.name == "region.trace_boundary"]
    by_name: Counter = Counter()
    calls: Counter = Counter()
    total: Counter = Counter()
    for span, t in zip(spans, own):
        by_name[span.name] += t
        calls[span.name] += 1
        total[span.name] += span.duration
    layer_self: Counter = Counter()
    for name, t in by_name.items():
        layer_self[name.split(".")[0]] += t

    counts = tracer.counts
    classify_calls = calls["region.classify"]
    roots = counts["eigensolver.roots"]
    fast = sum(
        counts[f"region.evidence.{e.value}"] for e in Evidence if e is not Evidence.SPECTRAL_SEARCH
    )
    metrics = {f"{layer}.self_share": layer_self[layer] / traced_wall for layer in LAYERS}
    metrics.update({
        "characteristic.char_fn_calls": calls["characteristic.char_fn"],
        "eigensolver.spectrum_self_share": by_name["eigensolver.spectrum"] / traced_wall,
        "eigensolver.find_roots_self_share": by_name["eigensolver.find_roots"] / traced_wall,
        "eigensolver.roots": roots,
        "eigensolver.newton_iters_per_root": counts["newton_iters"] / roots if roots else 0.0,
        "eigensolver.unresolved_cells": counts["eigensolver.unresolved_cells"],
        "region.classify_calls": classify_calls,
        "region.fast_path_ratio": fast / classify_calls if classify_calls else 0.0,
        "region.spectral_share": (
            total["eigensolver.spectral_bound"] / total["region.classify"]
            if classify_calls else 0.0
        ),
        "region.classify_ms_p50": _decile_ms(classify_times, 5),
        "region.classify_ms_p90": _decile_ms(classify_times, 9),
        "region.trace_ms_per_delay": sum(traces) / (TRACE_NUM_TAU * len(traces)) * 1e3
        if traces else 0.0,
        "region.trace_points": counts["region.trace_points"],
        "region.trace_failures": counts["region.trace_failures"],
        "simulator.states_mb_computed": tracer.states_bytes_max / 1e6,
    })
    for evidence in Evidence:
        metrics[f"region.evidence.{evidence.value}"] = counts[f"region.evidence.{evidence.value}"]
    for name in (*ERROR_CLASSES, "other"):
        metrics[f"errors.{name}"] = counts[f"errors.{name}"]
    return metrics
