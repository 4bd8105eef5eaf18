"""Run one workload of the delaystab benchmark and print its metrics.

    python3 perfbench/run.py --workload point-queries --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout: it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric with its unit and sample count.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, measured with tracing
off; with ``--trace 1`` they are the per-layer ones.  Exit code 0 means every
output check passed, 1 that one failed, 2 that the package is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

# Every workload process is single-threaded: pin BLAS before numpy loads and
# keep the CLI's worker-count variable out of the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DDE_THREADS", None)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"    # where a traced run writes its spans
SETUP_REPEATS = 11


def declared_metrics() -> dict[str, dict[str, str]]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def import_package():
    """Import delaystab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "delaystab" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'delaystab'}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import delaystab

    if pathlib.Path(delaystab.__file__).resolve().parent != (SRC / "delaystab").resolve():
        print(f"error: imported delaystab from {delaystab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return delaystab


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    delaystab and generated the workload's inputs, once per repeat.

    The child times the import and the inputs itself, at the reference host
    speed (see setup_child); the wall time of interpreter start around that
    stretch is added as measured.
    """
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        fields = line.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != b"ready":
            raise RuntimeError(f"set-up child failed with code {proc.returncode}")
        raw, scaled = float(fields[1]), float(fields[2])
        times.append(elapsed - raw + scaled)
    return times


def decile(values: list[float], q: int) -> float:
    """The q-th decile; 0 when no op ran, as when the call that holds the
    ops raised (the run then fails its checks)."""
    if len(values) < 2:
        return sum(values)
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def per_position(passes: list[list[float]]) -> list[float]:
    """Each position's median time over the passes."""
    return [
        statistics.median(t for t in ts if t is not None)
        for ts in itertools.zip_longest(*passes)
    ]


def timed_run(workload, inputs, reference, seconds: float, seed: int):
    """Passes with tracing off, at least one and until ``seconds`` have
    been measured.  wall_s is one pass with every call at its median
    over the passes, and each op is likewise its median; times are at the
    reference host speed (see hostspeed)."""
    from checks import Checker
    from hostspeed import HostClock
    from workloads import Caller

    setup = measure_setup(workload.name, seed)
    checker = Checker(reference)
    clock = HostClock()
    callers, ops = [], []
    with clock.running():
        start = time.perf_counter()
        while not callers or time.perf_counter() - start < seconds:
            call = Caller(clock)
            ops.append(workload.run_pass(inputs, call, checker))
            checker.end_pass()
            callers.append(call)
    ops = per_position([[clock.seconds(a, b) for a, b in p] for p in ops])
    print(f"op_p50_ms = {decile(ops, 5) * 1e3!r} ms (n={len(ops)}, not bounded)")
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (sum(per_position([c.times() for c in callers])), len(callers)),
        "op_p90_ms": (decile(ops, 9) * 1e3, len(ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return checker, metrics


def traced_run(workload, inputs, reference, seed: int):
    """A pass with tracing off, a traced pass, then the probes.  The
    tracing overhead compares the two passes at the reference host speed."""
    import probes
    from checks import Checker
    from hostspeed import HostClock
    from tracing import Tracer, self_times, span_metrics, write_spans
    from workloads import Caller

    checker = Checker(reference)
    clock = HostClock()
    plain, traced = Caller(clock), Caller(clock, Tracer(clock))
    with clock.running():
        workload.run_pass(inputs, plain, checker)
        checker.end_pass()
        with traced.tracer.installed():
            workload.run_pass(inputs, traced, checker)
        checker.end_pass()
    tracer, wall = traced.tracer, traced.raw_wall
    write_spans(tracer.spans, SPANS_DIR / f"spans-{workload.name}-seed{seed}.csv")
    spans = len(tracer.spans)
    print(f"span self times cover {sum(self_times(tracer.spans)) / wall!r} of the traced wall")
    metrics = {name: (value, spans) for name, value in span_metrics(tracer, wall).items()}
    overhead = sum(traced.times()) / sum(plain.times()) - 1.0
    metrics["trace_overhead_frac"] = (overhead, 2)
    metrics.update((name, (value, 1)) for name, value in probes.all_probes(str(SRC)).items())
    return checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    # The benchmark's own modules import delaystab, so they load after it.
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    from checks import load_reference

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    reference = load_reference()[workload.name]
    inputs = workload.make_inputs(args.seed)
    if args.trace:
        checker, metrics = traced_run(workload, inputs, reference, args.seed)
    else:
        checker, metrics = timed_run(workload, inputs, reference, args.seconds, args.seed)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(declared)}")

    for problem in checker.problems:
        print(f"check failed: {problem}")
    print(f"workload {workload.name}: seed {args.seed}, op = {workload.op}")
    print(f"failed_frac = {checker.failed / checker.attempted!r} ratio (n={checker.attempted})")
    for name in sorted(metrics):
        value, samples = metrics[name]
        print(f"{name} = {value!r} {declared[name]} (n={samples})")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, (value, _) in sorted(metrics.items())
        },
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
