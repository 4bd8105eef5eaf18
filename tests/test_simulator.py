import math
import tracemalloc

import numpy as np
import pytest

from delaystab import SystemParams, simulator, spectral_bound
from delaystab.errors import (
    DegenerateWindow,
    HistoryMismatch,
    IncompatibleBoundary,
    InvalidParameter,
)
from delaystab.simulator import (
    EnergySample,
    EnergyTrace,
    SimConfig,
    energy,
    fit_decay_rate,
    init_state,
    run,
    sine_profile,
    state_norm_sq,
    step,
    zero_fn,
)


class TestSimConfig:
    def test_validation(self):
        SimConfig(nx=2, t_final=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            SimConfig(nx=1, t_final=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            SimConfig(nx=10, t_final=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            SimConfig(nx=10, t_final=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            SimConfig(nx=10, t_final=1.0, gamma=0.5, output_stride=0)

    @pytest.mark.parametrize("field", ["nx", "t_final", "gamma", "output_stride"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_are_typed(self, field, bad):
        fields = {"nx": 10, "t_final": 1.0, "gamma": 0.5, "output_stride": 1}
        fields[field] = bad
        with pytest.raises(InvalidParameter, match=field):
            SimConfig(**fields)


class TestInitState:
    def test_zero_profile(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 1.0, zero_fn)
        assert np.all(state.c == 0.0)
        assert state.a == 1.0
        assert len(state.history) == state.n_tau + 1 == 4
        assert state.dt == 0.1

    def test_sine_profile_compatible_with_zero_history(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.5)
        state = init_state(p, SimConfig(20, 1.0, 1.0), sine_profile(1.0), 1.0, zero_fn)
        assert abs(state.c[-1]) <= 1e-12
        assert state.history[0] == 0.0

    def test_incompatible_inflow_rejected(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        with pytest.raises(IncompatibleBoundary):
            init_state(p, SimConfig(10, 1.0, 1.0), lambda x: 1.0, 1.0, lambda s: 1.0)

    def test_history_mismatch_rejected(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        with pytest.raises(HistoryMismatch):
            init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 1.0, lambda s: 0.5)

    def test_delay_rounding_reported(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.314)
        state = init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 1.0, zero_fn)
        assert state.n_tau == 3
        assert state.tau_rounding_error == pytest.approx(abs(3 * 0.1 - 0.314), abs=1e-15)

    def test_history_sampled_on_step_grid(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 0.0, lambda s: s)
        assert list(state.history) == pytest.approx([0.0, -0.1, -0.2, -0.3], abs=1e-15)


class TestStep:
    def test_decoupled_activation_decay_is_exact(self):
        p = SystemParams(2.0, 0.0, 1.0, 1.0, 1.0, 0.5)
        state = init_state(p, SimConfig(50, 3.0, 1.0), zero_fn, 1.0, zero_fn)
        for _ in range(150):
            state = step(state, p)
        assert np.all(state.c == 0.0)
        assert abs(state.a - math.exp(-2.0 * state.t)) <= 1e-10

    def test_pure_advection_is_a_shift(self):
        p = SystemParams(1.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        state = init_state(p, SimConfig(16, 1.0, 1.0), lambda x: x * (1 - x), 0.0, zero_fn)
        initial = state.c.copy()
        for k in range(1, 6):
            state = step(state, p)
            expected = np.concatenate([np.zeros(k), initial[:-k]])
            assert np.array_equal(state.c, expected)

    def test_inflow_pinned_every_step(self):
        p = SystemParams(1, 2, -0.5, 1, 1, 0.2)
        state = init_state(p, SimConfig(20, 1.0, 1.0), sine_profile(1.0), 1.0, zero_fn)
        for _ in range(40):
            state = step(state, p)
            assert state.c[0] == 0.0
            assert state.history[0] == state.c[-1]

    def test_self_convergence_against_fine_reference(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        finals = {}
        for nx in (100, 400):
            cfg = SimConfig(nx=nx, t_final=1.0, gamma=1.0, output_stride=10**9)
            trace, _ = run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
            finals[nx] = trace.states[-1]
        coarse, fine = finals[100], finals[400]
        scale = float(np.max(np.abs(fine.c))) + abs(fine.a)
        err = max(
            float(np.max(np.abs(coarse.c - fine.c[::4]))),
            abs(coarse.a - fine.a),
        )
        assert err / scale <= 1e-4

    def test_first_order_or_better(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        errors = []
        finals = {}
        for nx in (50, 100, 200):
            cfg = SimConfig(nx=nx, t_final=1.0, gamma=1.0, output_stride=10**9)
            trace, _ = run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
            finals[nx] = trace.states[-1]
        for nx in (50, 100):
            errors.append(abs(finals[nx].a - finals[2 * nx].a))
        assert errors[1] <= errors[0] / 1.8

    def test_linearity(self):
        p = SystemParams(1, 1.5, 0.5, 1, 1, 0.4)
        cfg = SimConfig(nx=25, t_final=2.0, gamma=1.0, output_stride=5)
        base, _ = run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
        scaled, _ = run(
            p, cfg, lambda x: 3.0 * math.sin(math.pi * x), 3.0, zero_fn, keep_states=True
        )
        for s_base, s_scaled in zip(base.states, scaled.states):
            assert np.allclose(3.0 * s_base.c, s_scaled.c, rtol=1e-12, atol=1e-13)
            assert s_scaled.a == pytest.approx(3.0 * s_base.a, rel=1e-12)


class TestEnergy:
    def test_zero_state(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 0.0, zero_fn)
        assert energy(state, p, 1.0) == 0.0

    def test_pure_activation(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 2.0, zero_fn)
        for gamma in (0.1, 1.0, 5.0):
            assert energy(state, p, gamma) == pytest.approx(2.0, rel=1e-15)

    def test_flat_profile_trapezoid_error(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.0)
        nx = 40
        state = init_state(p, SimConfig(nx, 1.0, 1.0), zero_fn, 0.0, zero_fn)
        state.c[1:] = 1.0
        dx = 1.0 / nx
        value = energy(state, p, 1.0)
        assert abs(value - 0.5) <= dx
        assert value == pytest.approx(0.5 - dx / 4.0, rel=1e-12)

    def test_matches_trapezoid_rule(self):
        # the weighted dots against numpy's composite trapezoid rule; only
        # the summation order differs
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(20, 1.0, 1.0), sine_profile(1.0), 1.0, zero_fn)
        for _ in range(37):
            state = step(state, p)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2
        z = state.history
        dx = p.l / 20
        c_sq = trapezoid(state.c * state.c, dx=dx)
        weights = np.exp(p.tau - np.arange(state.n_tau + 1) * state.dt)
        ref_energy = 0.5 * c_sq + 0.5 * state.a**2 + 0.5 * 0.7 * trapezoid(
            weights * z * z, dx=state.dt
        )
        ref_norm = c_sq + state.a**2 + p.f * p.tau * trapezoid(z * z, dx=1.0 / state.n_tau)
        assert energy(state, p, 0.7) == pytest.approx(ref_energy, rel=1e-14)
        assert state_norm_sq(state, p) == pytest.approx(ref_norm, rel=1e-14)

    def test_gamma_validation(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 0.0, zero_fn)
        with pytest.raises(ValueError):
            energy(state, p, 0.0)


class TestRun:
    def test_states_recorded_at_stride(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.2)
        cfg = SimConfig(nx=10, t_final=1.0, gamma=1.0, output_stride=3)
        trace, etrace = run(p, cfg, zero_fn, 1.0, zero_fn, keep_states=True)
        steps = [s.step_index for s in trace.states]
        assert steps == [0, 3, 6, 9, 10]
        times = [s.t for s in etrace.samples]
        assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-12)
        assert all(b.t > a.t for a, b in zip(etrace.samples, etrace.samples[1:]))

    def test_energy_trace_fields(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=0.5, gamma=1.0)
        trace, etrace = run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
        for state, sample in zip(trace.states, etrace.samples):
            assert sample.a_sq == state.a * state.a
            assert sample.c_l == state.c[-1]
            assert sample.energy >= 0.0

    def test_step_count_past_the_index_range_raises_before_allocating(self, monkeypatch):
        def boom(*args):
            raise AssertionError("init_state called")

        monkeypatch.setattr(simulator, "init_state", boom)
        cfg = SimConfig(nx=10, t_final=1e300)
        with pytest.raises(InvalidParameter, match="t_final"):
            run(SystemParams(1, 1, 1, 1, 1, 0.3), cfg, sine_profile(1.0), 1.0, zero_fn)


class TestFlatRun:
    # run's single loop against the public single-step API; blocks of 1 and
    # 4 steps wrap the outflow buffer many times, also below n_tau = 5
    @pytest.mark.parametrize("block", [None, 1, 4])
    @pytest.mark.parametrize(
        "p",
        [
            SystemParams(1, 0.5, 1, 1, 1, 0.3),
            SystemParams(1, 0.5, 1, 1, 1, 0.0),  # n_tau == 0
            SystemParams(1.3, 0.7, 0.0, 1, 1, 0.4),  # delta == 0
            SystemParams(0.5, -2, -0.7, 2, 0.5, 1.3),
        ],
    )
    def test_states_match_step_loop(self, p, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(simulator, "_BLOCK", block)
        cfg = SimConfig(nx=16, t_final=3.0, gamma=0.7, output_stride=5)
        trace, etrace = run(p, cfg, sine_profile(p.l), 1.0, zero_fn, keep_states=True)
        state = init_state(p, cfg, sine_profile(p.l), 1.0, zero_fn)
        n_steps = math.ceil(cfg.t_final / state.dt - 1e-9)
        expected = []
        for k in range(n_steps + 1):
            if k % 5 == 0 or k == n_steps:  # n_steps is off the stride here
                expected.append(state)
            if k < n_steps:
                state = step(state, p)
        assert n_steps % 5 != 0
        assert len(trace.states) == len(etrace.samples) == len(expected)
        for got, want, sample in zip(trace.states, expected, etrace.samples):
            assert got.step_index == want.step_index
            assert got.t == want.t == sample.t
            assert np.array_equal(got.c, want.c)
            assert got.a == want.a
            assert np.array_equal(got.history, want.history)
            assert sample.a_sq == want.a * want.a
            assert sample.c_l == want.c[-1]
            ref = energy(want, p, cfg.gamma)
            assert abs(sample.energy - ref) <= 1e-13 * ref
            for value in (sample.t, sample.energy, sample.a_sq, sample.c_l, got.a):
                assert type(value) is float

    def test_default_run_keeps_no_states(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=1.0, gamma=1.0)
        trace, etrace = run(p, cfg, sine_profile(1.0), 1.0, zero_fn)
        assert trace.states == ()
        assert len(etrace.samples) == 11

    def test_default_gamma_is_the_certificate_weight(self):
        # gamma None is f*exp(-tau); with f = 2 the two weights' exponents
        # differ only in rounding.  Past tau of about 745, where f*exp(-tau)
        # is 0.0, the default stays finite and exact.
        p = SystemParams(1, 0.5, 1, 1, 2, 1.5)
        given = SimConfig(nx=10, t_final=3.0, gamma=2 * math.exp(-1.5))
        _, want = run(p, given, sine_profile(1.0), 1.0, zero_fn)
        _, got = run(p, SimConfig(nx=10, t_final=3.0), sine_profile(1.0), 1.0, zero_fn)
        for a, b in zip(got.samples, want.samples):
            assert a.energy == pytest.approx(b.energy, rel=1e-14)
        state = init_state(p, SimConfig(10, 1.0), sine_profile(1.0), 1.0, zero_fn)
        assert energy(state, p) == pytest.approx(energy(state, p, 2 * math.exp(-1.5)), rel=1e-14)
        far = SystemParams(1, 0.5, 1, 1, 2, 800.0)
        _, etrace = run(far, SimConfig(nx=10, t_final=0.5), sine_profile(1.0), 1.0, zero_fn)
        assert all(0.0 < s.energy < 1.0 for s in etrace.samples)

    def test_memory_does_not_grow_with_the_run(self):
        # 20000 steps, 5 outputs: the outflow buffer holds n_tau + 1 + _BLOCK
        # samples, far fewer than one per step
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=2000.0, gamma=1.0, output_stride=5000)
        tracemalloc.start()
        try:
            _, etrace = run(p, cfg, sine_profile(1.0), 1.0, zero_fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.t for s in etrace.samples] == pytest.approx([0, 500, 1000, 1500, 2000])
        assert peak < 20_000 * 8


class TestFitDecayRate:
    def synthetic_trace(self, rate, t_max=20.0, n=201):
        ts = np.linspace(0.0, t_max, n)
        samples = tuple(
            EnergySample(t=float(t), energy=math.exp(-rate * t), a_sq=0.0, c_l=0.0)
            for t in ts
        )
        return EnergyTrace(samples=samples)

    def test_exact_exponential(self):
        fit = fit_decay_rate(self.synthetic_trace(0.5), (0.0, 20.0))
        assert fit.rate == pytest.approx(0.5, abs=1e-8)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.decayed_to_zero

    def test_decoupled_run_recovers_twice_alpha(self):
        p = SystemParams(1.3, 0.0, 1.0, 1.0, 1.0, 0.4)
        cfg = SimConfig(nx=20, t_final=5.0, gamma=1.0)
        _, etrace = run(p, cfg, zero_fn, 1.0, zero_fn)
        fit = fit_decay_rate(etrace, (0.0, 5.0))
        assert fit.rate == pytest.approx(2 * 1.3, rel=1e-10)

    def test_window_selects_the_same_samples_as_a_loop(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cfg = SimConfig(nx=20, t_final=10.0, gamma=0.7)
        _, etrace = run(p, cfg, sine_profile(1.0), 1.0, zero_fn)
        t0, t1 = etrace.samples[40].t, etrace.samples[150].t  # endpoints on samples
        ts = np.array([s.t for s in etrace.samples if t0 <= s.t <= t1])
        es = np.array([s.energy for s in etrace.samples if t0 <= s.t <= t1])
        assert ts.size == 111
        slope = np.polyfit(ts, np.log(es), 1)[0]
        assert fit_decay_rate(etrace, (t0, t1)).rate == -float(slope)

    def test_window_too_small(self):
        with pytest.raises(DegenerateWindow):
            fit_decay_rate(self.synthetic_trace(0.5), (0.0, 0.2))

    def test_decayed_to_zero_sentinel(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.2)
        cfg = SimConfig(nx=10, t_final=2.0, gamma=1.0)
        _, etrace = run(p, cfg, zero_fn, 0.0, zero_fn)
        fit = fit_decay_rate(etrace, (0.0, 2.0))
        assert fit.decayed_to_zero
        assert fit.rate == math.inf


class TestSpectralConsistency:
    def test_norm_growth_tracks_spectral_bound(self):
        # decaying and growing sample points; the fitted slope of the squared
        # state norm must match twice the spectral bound
        for beta in (1.0, 3.0):
            p = SystemParams(1, beta, 1, 1, 1, 1)
            bound = spectral_bound(p, 2.0)
            cfg = SimConfig(nx=100, t_final=60.0, gamma=1.0, output_stride=20)
            trace, _ = run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
            ts = np.array([s.t for s in trace.states])
            norms = np.array([state_norm_sq(s, p) for s in trace.states])
            mask = ts >= 30.0
            slope = np.polyfit(ts[mask], np.log(norms[mask]), 1)[0]
            assert slope == pytest.approx(2.0 * bound, rel=0.1)
