"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from delaystab import (
    ContourBox,
    Label,
    SystemParams,
    char_fn,
    char_num,
    char_num_prime,
    classify,
    count_zeros,
    decay_certificate,
    find_roots,
    phase_residual,
    spectral_bound,
    spectrum,
    threshold_gain,
    trace_boundary,
)
from delaystab.errors import BoundaryZero
from delaystab.simulator import (
    SimConfig,
    fit_decay_rate,
    run,
    sine_profile,
    state_norm_sq,
    zero_fn,
)

ONES = (1.0, 1.0, 1.0, 1.0)
B0 = threshold_gain(1, 1, 1, 1)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d}: {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def full_trace():
    return trace_boundary(ONES, 10.0, 500, 12.0)


def test_criterion_1_zero_gain_spectrum():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.05, 5.0)
        p = SystemParams(
            alpha,
            0.0,
            rng.uniform(-2.0, 3.0),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.0, 3.0),
        )
        roots = spectrum(p, alpha + rng.uniform(0.1, 1.0)).roots
        assert len(roots) == 1
        worst = max(worst, abs(roots[0].lam + alpha))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"50 draws, worst |lam + alpha| = {worst:.2e}, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_zero_eigenvalue_at_threshold():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst_hit = 0.0
    worst_escape = math.inf
    for _ in range(20):
        alpha = rng.uniform(0.2, 3.0)
        delta = rng.uniform(0.1, 2.5)
        l = rng.uniform(0.4, 2.0)
        f = rng.uniform(0.4, 2.0)
        tau = rng.uniform(0.0, 3.0)
        b0 = threshold_gain(alpha, delta, l, f)
        exact = spectrum(SystemParams(alpha, b0, delta, l, f, tau), 0.5)
        hit = min(abs(r.lam) for r in exact.roots)
        worst_hit = max(worst_hit, hit)
        for factor in (1.01, 0.99):
            moved = spectrum(SystemParams(alpha, factor * b0, delta, l, f, tau), 0.5)
            near = [abs(r.lam) for r in moved.roots if abs(r.lam) <= 1e-4]
            assert not near, f"root stayed in the 1e-4 band after {factor}x gain"
            if moved.roots:
                worst_escape = min(worst_escape, min(abs(r.lam) for r in moved.roots))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_hit <= 1e-8 and elapsed < 30.0,
        f"20 draws, worst |lam| at threshold = {worst_hit:.2e}, "
        f"closest perturbed root {worst_escape:.2e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_minus_delta_eigenvalue():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        while True:
            alpha = rng.uniform(0.3, 3.0)
            delta = rng.uniform(-1.5, 2.5)
            if abs(alpha - delta) > 0.1:
                break
        l = rng.uniform(0.4, 2.0)
        f = rng.uniform(0.4, 2.0)
        tau = rng.uniform(0.0, 2.0)
        beta = f * (alpha - delta) / (l * math.exp(delta * tau))
        p = SystemParams(alpha, beta, delta, l, f, tau)
        box = ContourBox(-delta - 0.7, -delta + 0.7, -0.7, 0.7)
        result = find_roots(p, box)
        genuine = [
            r for r in result.roots if not r.structural and abs(r.lam + delta) <= 1e-8
        ]
        assert genuine, f"no genuine eigenvalue at -delta for {p}"
        worst = max(worst, min(abs(r.lam + delta) for r in genuine))
    report(3, worst <= 1e-8, f"10 draws, worst |lam + delta| = {worst:.2e}")


def test_criterion_4_region_sample_labels():
    start = time.perf_counter()
    stable = [(1, 1), (1, -3), (3, 1), (4, -1), (3.9, 1.1)]
    oscillating = [(1, 3), (3, -3), (4, -2), (4, -4)]
    for tau, beta in stable:
        label = classify(SystemParams(1, beta, 1, 1, 1, tau), eps0=1e-6)
        assert label.label is Label.STABLE_STEADY_STATE, (tau, beta, label)
    for tau, beta in oscillating:
        label = classify(SystemParams(1, beta, 1, 1, 1, tau), eps0=1e-6)
        assert label.label is Label.LIMIT_CYCLE_OSCILLATION, (tau, beta, label)
    elapsed = time.perf_counter() - start
    report(4, elapsed < 60.0, f"9 labels correct, {elapsed:.1f}s (< 60s)")


def test_criterion_5_threshold_branch(full_trace):
    taus = sorted({p.tau for p in full_trace.points})
    assert len(taus) == 500
    assert taus == pytest.approx([p * 10.0 / 499 for p in range(500)], abs=1e-12)
    worst = 0.0
    for tau in taus:
        branch = [p for p in full_trace.points if p.tau == tau and p.omega == 0.0]
        assert len(branch) == 1
        worst = max(worst, abs(branch[0].beta - B0))
    report(5, worst <= 1e-8, f"500 delays, worst |beta - threshold| = {worst:.2e}")


def test_criterion_6_boundary_round_trip(full_trace):
    worst = 0.0
    for point in full_trace.points:
        p = SystemParams(1, point.beta, 1, 1, 1, point.tau)
        worst = max(worst, abs(char_fn(p, 1j * point.omega)))
    report(
        6,
        worst <= 1e-8,
        f"{len(full_trace.points)} boundary points, worst residual = {worst:.2e}",
    )


def test_criterion_7_count_find_consistency():
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 30:
        p = SystemParams(
            rng.uniform(0.2, 3.0),
            rng.uniform(-4.0, 4.0),
            rng.uniform(-1.5, 3.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.0, 2.0),
        )
        cx, cy = rng.uniform(-3, 3, 2)
        w, h = rng.uniform(0.5, 2.5, 2)
        box = ContourBox(cx - w, cx + w, cy - h, cy + h)
        try:
            result = find_roots(p, box)
            whole = count_zeros(p, result.box)
            sx = rng.uniform(result.box.re_min + 0.2 * w, result.box.re_max - 0.2 * w)
            sy = rng.uniform(result.box.im_min + 0.2 * h, result.box.im_max - 0.2 * h)
            quadrants = sum(
                count_zeros(p, ContourBox(a, b, c, d))
                for (a, b) in ((result.box.re_min, sx), (sx, result.box.re_max))
                for (c, d) in ((result.box.im_min, sy), (sy, result.box.im_max))
            )
        except BoundaryZero:
            continue
        found = sum(r.multiplicity for r in result.roots)
        found += sum(c.count for c in result.unresolved)
        assert found == result.total_count == whole
        assert quadrants == whole
        checked += 1
    report(7, True, "30 random boxes: find == count, 2x2 partitions additive")


def test_criterion_8_certificate_vs_simulation():
    start = time.perf_counter()
    p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
    cert = decay_certificate(p)
    config = SimConfig(nx=100, t_final=200.0, gamma=cert.gamma, output_stride=10)
    trace, etrace = run(p, config, sine_profile(1.0), 1.0, zero_fn)
    assert trace.tau_rounding_error == 0.0  # tau/dt = 30 exactly
    energies = etrace.energies
    times = etrace.times
    assert np.all(energies > 0.0)
    late = energies[times >= 50.0]
    coarse = late[:: max(1, int(round(5.0 / (times[1] - times[0]))))]
    assert np.all(np.diff(coarse) < 0.0), "energy not eventually decreasing"
    fit = fit_decay_rate(etrace, (50.0, 200.0))
    elapsed = time.perf_counter() - start
    report(
        8,
        fit.rate >= 0.95 * cert.rate and elapsed < 10.0,
        f"fitted rate {fit.rate:.4f} >= 0.95*K = {0.95 * cert.rate:.4f}, "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_9_simulation_growth_matches_spectrum():
    start = time.perf_counter()
    details = []
    for beta in (1.0, 3.0):
        p = SystemParams(1, beta, 1, 1, 1, 1)
        bound = spectral_bound(p, 2.0)
        config = SimConfig(nx=100, t_final=60.0, gamma=1.0, output_stride=20)
        trace, _ = run(p, config, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
        times = np.array([s.t for s in trace.states])
        norms = np.array([state_norm_sq(s, p) for s in trace.states])
        mask = times >= 30.0
        slope = float(np.polyfit(times[mask], np.log(norms[mask]), 1)[0])
        rel = abs(slope - 2.0 * bound) / abs(2.0 * bound)
        details.append(f"beta={beta}: slope {slope:+.4f} vs 2s {2 * bound:+.4f} ({rel:.1%})")
        assert rel <= 0.10
    elapsed = time.perf_counter() - start
    report(9, elapsed < 60.0, "; ".join(details) + f", {elapsed:.1f}s (< 60s)")


def test_criterion_10_derivative_against_finite_differences():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(1000):
        p = SystemParams(
            rng.uniform(0.2, 3.0),
            rng.uniform(-4.0, 4.0),
            rng.uniform(-2.0, 3.0),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.0, 3.0),
        )
        lam = complex(rng.normal(0, 2), rng.normal(0, 2))
        h = 1e-6 * (1 + abs(lam))
        fd = (char_num(p, lam + h) - char_num(p, lam - h)) / (2 * h)
        exact = char_num_prime(p, lam)
        worst = max(worst, abs(fd - exact) / (1 + abs(exact)))
    report(10, worst <= 1e-5, f"1000 draws, worst relative error = {worst:.2e}")


def test_criterion_11_conjugate_symmetry():
    rng = np.random.default_rng(111)
    worst_eval = 0.0
    for _ in range(200):
        p = SystemParams(
            rng.uniform(0.2, 3.0),
            rng.uniform(-4.0, 4.0),
            rng.uniform(-2.0, 3.0),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.0, 3.0),
        )
        omega = rng.uniform(0.01, 8.0)
        tau = rng.uniform(0.0, 10.0)
        assert phase_residual(ONES, -omega, tau) == -phase_residual(ONES, omega, tau)
        lam = complex(rng.normal(0, 2), rng.normal(0, 2))
        if abs(lam + p.alpha) < 1e-3:
            continue
        for fn in (char_fn, char_num, char_num_prime):
            value = fn(p, lam)
            mirrored = fn(p, lam.conjugate())
            worst_eval = max(
                worst_eval, abs(mirrored - value.conjugate()) / (1 + abs(value))
            )
    worst_pair = 0.0
    for _ in range(12):
        p = SystemParams(
            rng.uniform(0.2, 2.0),
            rng.uniform(-3.5, 3.5),
            rng.uniform(-1.0, 2.0),
            rng.uniform(0.5, 1.5),
            rng.uniform(0.5, 1.5),
            rng.uniform(0.0, 2.0),
        )
        roots = [r.lam for r in spectrum(p, rng.uniform(0.2, 1.0)).roots]
        for lam in roots:
            if abs(lam.imag) > 1e-9:
                partner = min(abs(lam.conjugate() - other) for other in roots)
                worst_pair = max(worst_pair, partner)
    report(
        11,
        worst_eval <= 1e-13 and worst_pair <= 1e-9,
        f"evaluator symmetry {worst_eval:.2e}, root pairing {worst_pair:.2e}",
    )
