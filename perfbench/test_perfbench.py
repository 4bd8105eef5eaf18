"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import import_package  # noqa: E402

import_package()

import delaystab  # noqa: E402
import hostspeed  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from checks import Checker, compare, load_reference, summarize  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    FAMILY,
    TRACE_NUM_TAU,
    TRACE_TAU_MAX,
    Outcome,
    point_key,
    point_queries_inputs,
    region_map_inputs,
    sweep_node_at,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_same_seed_same_point_queries_inputs():
    assert point_queries_inputs(3) == point_queries_inputs(3)
    assert point_queries_inputs(3) != point_queries_inputs(4)
    assert sorted(map(point_key, point_queries_inputs(3))) == sorted(
        map(point_key, point_queries_inputs(4))
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_names_are_declared(trace, section):
    done = _run("--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == declared[name]


def test_declared_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_missing_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _cheap_spectrum_item():
    reference = load_reference()["point-queries"]
    for p in point_queries_inputs(0):
        key = f"spectrum {point_key(p)}"
        if 1 <= len(reference[key].get("roots", ())) <= 4:
            return p, reference
    raise AssertionError("no point with a small spectrum")


def test_perturbed_root_is_flagged():
    p, reference = _cheap_spectrum_item()
    rootset = delaystab.spectrum(p, 1e-6)
    good = Checker(reference)
    good(Outcome("spectrum", point_key(p), rootset), p)
    assert good.correct and good.failed == 0

    moved = dataclasses.replace(rootset.roots[0], lam=rootset.roots[0].lam + 1e-6)
    bad_set = dataclasses.replace(rootset, roots=(moved, *rootset.roots[1:]))
    bad = Checker(reference)
    bad(Outcome("spectrum", point_key(p), bad_set), p)
    assert not bad.correct and bad.failed == 1

    # The comparison alone flags it too, apart from the residual invariant.
    ref = reference[f"spectrum {point_key(p)}"]
    assert compare("spectrum", ref, summarize("spectrum", rootset)) is None
    assert compare("spectrum", ref, summarize("spectrum", bad_set)) is not None


def test_perturbed_energy_is_flagged():
    ref = load_reference()["simulate"]["ring small-ring"]
    got = dict(ref, energies=list(ref["energies"]))
    assert compare("ring", ref, got) is None
    got["energies"][-1] *= 1.0 + 1e-9
    assert compare("ring", ref, got) is not None


def test_raise_where_reference_has_result_is_flagged():
    p, reference = _cheap_spectrum_item()
    checker = Checker(reference)
    checker(Outcome("spectrum", point_key(p), None, "BoundaryZero: test"), p)
    assert not checker.correct


def test_sweep_node_is_checked_at_its_grid_index():
    reference = load_reference()["region-map"]
    # A node decided by a fast path, whose label carries no real part.
    key, (beta, tau) = next(
        sweep_node_at(i) for i in range(400)
        if reference[f"node {sweep_node_at(i)[0]}"]["max_real_part"] is None
    )
    ref = reference[f"node {key}"]
    label = delaystab.RegionLabel(
        delaystab.Label(ref["label"]), delaystab.Evidence(ref["evidence"]), None
    )
    wrong = next(lab for lab in delaystab.Label if lab is not label.label)
    moved_tau = math.nextafter(tau, math.inf)    # one ulp off the benchmark's grid

    for result, correct in ((label, True), (dataclasses.replace(label, label=wrong), False)):
        checker = Checker(reference)
        node = delaystab.SweepNode(tau=moved_tau, beta=beta, result=result)
        checker(Outcome("node", key, node), (beta, tau))
        assert checker.correct is correct, checker.problems

    off_grid = Checker(reference)
    node = delaystab.SweepNode(tau=tau + 0.1, beta=beta, result=label)
    off_grid(Outcome("node", key, node), (beta, tau))
    assert not off_grid.correct


def test_unreferenced_and_missing_items_are_flagged():
    reference = load_reference()["simulate"]
    checker = Checker(reference)
    checker(Outcome("ring", "medium-ring", None, "ValueError: test"), None)
    assert checker.problems == ["ring medium-ring: no reference entry"]
    checker.end_pass()
    assert checker.attempted == 3 and checker.failed == 3
    assert len(checker.problems) == 3


@pytest.fixture(scope="module")
def region_map_trace():
    return delaystab.trace_boundary(FAMILY, TRACE_TAU_MAX, TRACE_NUM_TAU, region_map_inputs(0))


@pytest.mark.parametrize("broken", ["raises", "empty"])
def test_broken_sweep_fails_the_run(monkeypatch, capsys, region_map_trace, broken):
    def sweep(*args):
        if broken == "raises":
            raise RuntimeError("sweep broke")
        return []

    monkeypatch.setattr(delaystab, "sweep", sweep)
    monkeypatch.setattr(delaystab, "trace_boundary", lambda *args: region_map_trace)
    monkeypatch.setattr(run, "measure_setup", lambda *args: [1.0])
    code = run.main(["--workload", "region-map", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] == 400    # every node of the one pass


def test_self_times_are_never_negative():
    tracer = Tracer(hostspeed.HostClock())
    with tracer.installed():
        tracer.root("eigensolver.spectrum", delaystab.spectrum)(probes.README_EIG, 1e-6)
        tracer.root("region.sweep", delaystab.sweep)(
            FAMILY, (-5.0, 5.0), (0.0, 10.0), (3, 3)
        )
        sim = delaystab.SystemParams(1.0, 0.5, 1.0, 1.0, 1.0, 0.3)
        config = delaystab.SimConfig(nx=20, t_final=2.0, gamma=1.0)
        tracer.root("simulator.run", delaystab.run)(
            sim, config, delaystab.sine_profile(1.0), 1.0, delaystab.zero_fn
        )
    spans = tracer.spans
    own = self_times(spans)
    assert len(spans) > 100
    assert min(own) >= 0.0
    roots = sum(s.duration for s in spans if s.parent < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    assert {s.name for s in spans} >= {
        "region.classify", "eigensolver.find_roots", "characteristic._deflated",
        "characteristic._deflated_prime", "characteristic._deflated_with_scale",
        "simulator.step", "simulator.energy",
    }


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |      80644 |   numpy",
        "import time:       300 |     475403 |     scipy.optimize",
        "import time:       900 |     635650 | delaystab",
    ])
    assert probes.parse_importtime(text) == {
        "import.numpy_ms": 80.644,
        "import.scipy_optimize_ms": 475.403,
        "import.delaystab_ms": 635.65,
    }


def test_host_clock_removes_probe_time_and_scales():
    clock = hostspeed.HostClock()
    clock._starts = [0.0, 0.05, 0.10, 0.15, 5.0]
    clock._durations = [2e-4, 4e-4, 4e-4, 2e-4, 1.0]
    # 0.1 s of wall time of which 0.4 ms was probe time, at probes that
    # took 1.5x REFERENCE_S on average; the probe at 5 s is out of reach.
    seconds = clock.seconds((0.02, 0.0), (0.12, 4e-4))
    assert seconds == pytest.approx((0.1 - 4e-4) * hostspeed.REFERENCE_S / 3e-4)


def test_host_clock_samples_while_running():
    clock = hostspeed.HostClock()
    with clock.running():
        start = clock.mark()
        deadline = start[0] + 0.3
        while clock.mark()[0] < deadline:
            pass
        end = clock.mark()
    assert len(clock._durations) >= 3
    assert end[1] > start[1]
    assert 0.0 < clock.seconds(start, end) < 10.0
