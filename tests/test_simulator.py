import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from delaystab import SystemParams, simulator, spectral_bound
from delaystab.errors import (
    DegenerateWindow,
    HistoryMismatch,
    IncompatibleBoundary,
    InvalidParameter,
    NonFiniteField,
    SimulationOverflow,
)
from delaystab.simulator import (
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

    @pytest.mark.parametrize(
        "field, bad", [("nx", 10**400), ("nx", -(10**400)), ("output_stride", -(10**400))]
    )
    def test_integers_past_the_float_range_are_typed(self, field, bad):
        # each field is range-checked before math would convert it to a float
        fields = {"nx": 10, "t_final": 1.0, "output_stride": 1}
        fields[field] = bad
        with pytest.raises(InvalidParameter, match=field):
            SimConfig(**fields)

    @pytest.mark.parametrize(
        "field, bad",
        [("nx", 10**5000), ("nx", -(10**5000)), ("output_stride", -(10**5000)),
         ("t_final", 10**5000), ("gamma", 10**5000)],
        ids=["nx", "negative-nx", "output-stride", "t-final", "gamma"],
    )
    def test_an_integer_too_long_to_print_is_shown_by_its_bits(self, field, bad):
        # str() of an int past 4300 digits raises ValueError on Python 3.11
        # and later; the message must not.
        fields = {"nx": 10, "t_final": 1.0, "output_stride": 1}
        fields[field] = bad
        sign = "-" if bad < 0 else ""
        with pytest.raises(InvalidParameter, match=f"{field}.*{sign}<an integer of 16610 bits>"):
            SimConfig(**fields)

    @pytest.mark.parametrize("field", ["t_final", "gamma"])
    def test_a_time_or_weight_past_the_float_range_is_refused(self, field):
        fields = {"nx": 10, "t_final": 1.0, field: 10**400}
        with pytest.raises(InvalidParameter, match=f"^{field} must be finite and > 0"):
            SimConfig(**fields)
        fields[field] = sys.float_info.max
        assert getattr(SimConfig(**fields), field) == sys.float_info.max

    def test_nx_is_bounded_when_the_config_is_built(self):
        bound = simulator._DELAY_SAMPLES
        assert SimConfig(nx=bound - 1, t_final=1.0).nx == bound - 1
        shown = f"^nx must be an integer from 2 to {bound - 1}, got {bound}"
        with pytest.raises(InvalidParameter, match=f"{shown}$"):
            SimConfig(nx=bound, t_final=1.0)
        with pytest.raises(InvalidParameter, match=rf"{shown}\.0$"):
            SimConfig(nx=float(bound), t_final=1.0)

    def test_a_stride_past_the_float_range_outputs_the_ends(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        _, etrace = run(p, SimConfig(nx=10, t_final=1.0, output_stride=10**400),
                        sine_profile(1.0), 1.0, zero_fn)
        assert etrace.times.tolist() == [0.0, 1.0]


    def test_integral_floats_run_as_ints(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        config = SimConfig(nx=10.0, t_final=1.0, output_stride=2.0)
        assert type(config.nx) is int and type(config.output_stride) is int
        runs = [
            run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
            for cfg in (config, SimConfig(nx=10, t_final=1.0, output_stride=2))
        ]
        (trace, etrace), (want_trace, want_etrace) = runs
        for column in ("times", "energies", "a_sq", "c_l"):
            assert getattr(etrace, column).tobytes() == getattr(want_etrace, column).tobytes()
        assert len(trace.states) == len(want_trace.states) == 6
        for state, want in zip(trace.states, want_trace.states):
            assert state.c.tobytes() == want.c.tobytes() and state.a == want.a


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

    def test_a_mismatched_head_is_refused_before_the_window_is_sampled(self):
        calls = []

        def history(s):
            calls.append(s)
            return 0.5

        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        with pytest.raises(HistoryMismatch):
            init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 1.0, history)
        assert calls == [0.0]

    def test_each_sample_is_taken_once_in_order_on_a_python_float(self):
        # The loops the block sampling replaced are the reference: the same
        # calls in the same order on the same floats, over more than one
        # block of the delay window (n_tau = 4,500).
        xs, ss = [], []

        def c0(x):
            xs.append(x)
            return 0.0

        def history(s):
            ss.append(s)
            return 0.0

        p = SystemParams(1, 1, 1, 1, 1, 0.9)
        config = SimConfig(5000, 1.0)
        state = init_state(p, config, c0, 0.0, history)
        dt = state.dt
        assert state.n_tau > simulator._SAMPLE_BLOCK
        assert xs == [float(x) for x in np.arange(config.nx + 1) * (p.l / config.nx)]
        assert ss == [0.0] + [-min(k * dt, p.tau) for k in range(1, state.n_tau + 1)]
        assert {type(t) for t in xs + ss} == {float}
        assert math.copysign(1.0, ss[0]) == 1.0

    def test_history_sampled_on_step_grid(self):
        p = SystemParams(1, 1, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0, 1.0), zero_fn, 0.0, lambda s: s)
        assert list(state.history) == pytest.approx([0.0, -0.1, -0.2, -0.3], abs=1e-15)

    @pytest.mark.parametrize(
        "p",
        [
            SystemParams(1, 0.5, 1, 1, 1, 1e300),  # 1e301 delay steps
            SystemParams(1, 0.5, 1, 1, 1e300, 1e300),  # tau/dt is inf
        ],
    )
    def test_delay_past_the_index_range_raises_before_sampling(self, p):
        def boom(x):
            raise AssertionError("sampled")

        with pytest.raises(InvalidParameter, match="^tau=1e[+]300 spans"):
            init_state(p, SimConfig(10, 1.0), boom, 0.0, boom)
        # a run short enough to pass the t_final guard fails the same way
        with pytest.raises(InvalidParameter, match="^tau="):
            run(p, SimConfig(10, 1e-300), boom, 0.0, boom)

    def test_delay_window_past_the_memory_bound_raises_before_sampling(self):
        # tau = 1e8 at dt = 0.1 spans 1e9 steps: minutes of sampling and tens
        # of GB, refused before the first history call
        calls = []

        def spy(t):
            calls.append(t)
            return 0.0

        p = SystemParams(1, 0.5, 1, 1, 1, 1e8)
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match="^tau=100000000.0 spans 1000000000 steps"):
            init_state(p, SimConfig(10, 1.0), zero_fn, 0.0, spy)
        with pytest.raises(InvalidParameter, match="delay window of more than 16777216"):
            run(p, SimConfig(10, 1.0), zero_fn, 0.0, spy)
        assert time.perf_counter() - start < 0.5 and calls == []

    def test_memory_bound_admits_its_last_window(self):
        class Sampled(Exception):
            pass

        def stop(t):
            raise Sampled

        bound = simulator._DELAY_SAMPLES
        with pytest.raises(Sampled):
            init_state(SystemParams(1, 0.5, 1, 1, 1, (bound - 1) * 0.1), SimConfig(10, 1.0),
                       zero_fn, 0.0, stop)
        with pytest.raises(InvalidParameter, match="delay window"):
            init_state(SystemParams(1, 0.5, 1, 1, 1, bound * 0.1), SimConfig(10, 1.0),
                       zero_fn, 0.0, stop)


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

    @pytest.mark.parametrize("beta", [0.5, 0.0, -0.0, -2.0])
    def test_a_reused_update_steps_as_a_fresh_one(self, beta):
        # One loop reuses its update but for a step with other params now
        # and then; the other builds it anew each step, from a new object.
        p, other = SystemParams(1, beta, 1, 1, 1, 0.3), SystemParams(1, -beta, 0.5, 1, 1, 0.3)
        state = init_state(p, SimConfig(20, 1.0, 1.0), sine_profile(1.0), 1.0, zero_fn)
        reused = [state]
        for k in range(30):
            reused.append(step(reused[-1], p))
            if k % 7 == 3:
                step(reused[-1], other)
        fresh = [state]
        for _ in range(30):
            fresh.append(step(fresh[-1], SystemParams(1, beta, 1, 1, 1, 0.3)))
        for got, want in zip(reused, fresh):
            assert got.c.tobytes() == want.c.tobytes()
            assert got.history.tobytes() == want.history.tobytes()
            assert math.copysign(1.0, got.a) == math.copysign(1.0, want.a)
            assert (got.a, got.t, got.step_index) == (want.a, want.t, want.step_index)

    @pytest.mark.parametrize(
        "p, nx",
        [
            (SystemParams(1, 0.5, 1, 1, 1, 0.3), 20),
            (SystemParams(1, 0.5, 1, 1, 1, 0.0), 16),  # n_tau == 0
            (SystemParams(1.3, 0.7, 0.0, 1, 1, 0.4), 16),  # delta == 0
            (SystemParams(0.5, -2, -0.7, 2, 0.5, 1.3), 16),
            (SystemParams(1, -0.0, 2, 1, 1, 0.3), 10),
            (SystemParams(2, 8.0, 1, 1, 1, 5.0), 100),
        ],
    )
    def test_a_step_is_march_at_one_step(self, p, nx):
        # step's one-step form against march and _profile at n = 1, bit for
        # bit, from a history that is not zero
        state = init_state(p, SimConfig(nx, 1.0, 1.0), sine_profile(p.l), 1.0, lambda s: 0.1 * s)
        march = simulator._march_fn(p, state.dt, state.n_tau, 1)
        for _ in range(60):
            buf = np.append(state.history[::-1], np.nan)
            table, sources, _ = march(state.c, state.a, buf, 1)
            a, power, acc, _, c_l = table[1].tolist()
            assert buf[-1] == c_l
            c = simulator._profile(state.c, power, acc, table[:, 1], sources)
            history = np.concatenate(([c_l], state.history[:-1]))
            state = step(state, p)
            assert state.c.view(np.int64).tolist() == c.view(np.int64).tolist()
            assert state.history.view(np.int64).tolist() == history.view(np.int64).tolist()
            assert np.float64(state.a).view(np.int64) == np.float64(a).view(np.int64)

    @pytest.mark.parametrize(
        "nx, n_tau, n",
        [
            (40, 12, 255),  # float steps only
            (50, 60, 250),  # a window of arrays spans each segment
            (100, 60, 255),  # a window of arrays, then float steps
        ],
    )
    def test_each_segment_starts_from_the_closed_form(self, nx, n_tau, n):
        # march's segment starts, built from its sources, against _profile
        # over the segment before, bit for bit; c0(0) = 1e-13 puts a
        # non-zero inflow sample into the outlet that ends the first segment
        p = SystemParams(1, 0.5, 1, 1, 1, n_tau / nx)
        c0 = sine_profile(1.0)
        state = init_state(p, SimConfig(nx, 1.0), lambda x: 1e-13 + c0(x), 1.0, lambda s: 0.1 * s)
        assert state.n_tau == n_tau and state.c[0] == 1e-13
        march = simulator._march_fn(p, state.dt, n_tau, nx)
        buf = np.empty(n_tau + 1 + n)
        buf[: n_tau + 1] = state.history[::-1]
        table, sources, starts = march(state.c, state.a, buf, n)
        powers = table[: nx + 1, 1]
        assert len(starts) == -(-n // nx) >= 3
        assert np.array_equal(starts[0], state.c)
        for b in range(1, len(starts)):
            want = simulator._profile(
                starts[b - 1], table[b * nx, 1], table[b * nx, 2], powers,
                sources[(b - 1) * nx : b * nx],
            )
            assert np.array_equal(starts[b], want)

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

    @pytest.mark.parametrize(
        "gamma, tau", [(1.7e308, 0.3), (1.0, 800.0)], ids=["gamma", "gamma-exp-tau"]
    )
    def test_a_weight_past_the_float_range_raises_overflow(self, gamma, tau):
        # gamma*exp(tau) overflows: inf weights times a zero history were NaN
        p = SystemParams(1, 0.5, 1, 1, 1, tau)
        state = init_state(p, SimConfig(10, 1.0), sine_profile(1.0), 1.0, zero_fn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflow, match=r"at t = 0\.0$"):
                energy(state, p, gamma)

    @pytest.mark.parametrize("where", ["c", "a", "history"])
    def test_a_sample_that_squares_past_the_float_range_raises_overflow(self, where):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0), sine_profile(1.0), 1.0, zero_fn)
        state.t = 2.5
        if where == "a":
            state.a = 1e200
        else:
            getattr(state, where)[-1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflow, match=r"at t = 2\.5$"):
                energy(state, p, 1.0)

    def test_a_state_norm_past_the_float_range_raises_overflow(self):
        # a0 = 1e200 squares past the range: as energy, no inf and no warning
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(10, 1.0), sine_profile(1.0), 1e200, zero_fn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflow, match=r"at t = 0\.0$"):
                energy(state, p)
            with pytest.raises(SimulationOverflow, match=r"^the state norm .* at t = 0\.0$"):
                state_norm_sq(state, p)

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

    def test_samples_are_the_four_arrays_as_floats(self):
        # 25 steps at stride 4: the final step 25 is appended after step 24
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=2.5, gamma=1.0, output_stride=4)
        trace, etrace = run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
        outputs = [s.step_index for s in trace.states]
        assert outputs == [0, 4, 8, 12, 16, 20, 24, 25]
        assert np.array_equal(etrace.times, np.asarray(outputs) * trace.states[0].dt)
        columns = (etrace.times, etrace.energies, etrace.a_sq, etrace.c_l)
        assert all(column.shape == (len(outputs),) for column in columns)
        for i, sample in enumerate(etrace.samples):
            assert (sample.t, sample.energy, sample.a_sq, sample.c_l) == tuple(
                column[i] for column in columns
            )
            for value in (sample.t, sample.energy, sample.a_sq, sample.c_l):
                assert type(value) is float

    def test_stride_past_the_step_count_outputs_as_the_step_count(self):
        # 10 steps; a stride of 10**20 does not fit a C long
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        traces = [
            run(p, SimConfig(nx=10, t_final=1.0, output_stride=s), sine_profile(1.0), 1.0, zero_fn)[1]
            for s in (10, 10**20)
        ]
        fields = [(t.times, t.energies, t.a_sq, t.c_l) for t in traces]
        assert traces[0].times.tolist() == [0.0, 1.0]
        assert all(np.array_equal(a, b) for a, b in zip(*fields))

    def test_step_count_past_the_index_range_raises_before_allocating(self, monkeypatch):
        def boom(*args):
            raise AssertionError("init_state called")

        monkeypatch.setattr(simulator, "init_state", boom)
        cfg = SimConfig(nx=10, t_final=1e300)
        with pytest.raises(InvalidParameter, match="t_final"):
            run(SystemParams(1, 1, 1, 1, 1, 0.3), cfg, sine_profile(1.0), 1.0, zero_fn)


    def test_step_that_underflows_raises_before_any_sample(self):
        # dt = (l/nx)/f = 1e-331 rounds to 0: a step count of t_final/0
        def never(*args):
            raise AssertionError("sampled")

        params = SystemParams(1, 0.5, 1, 1e-320, 1e10, 0.3)
        cfg = SimConfig(nx=10, t_final=1.0)
        with pytest.raises(InvalidParameter, match="underflows"):
            init_state(params, cfg, never, 0.0, never)
        with pytest.raises(InvalidParameter, match="underflows"):
            run(params, cfg, never, 0.0, never)

    def test_step_that_overflows_raises_before_any_sample(self):
        # dt = (l/nx)/f = 1e329 rounds to inf: ages, weights and output
        # times of inf*0 would be NaN
        def never(*args):
            raise AssertionError("sampled")

        params = SystemParams(1, 0.5, 1, 1e30, 1e-300, 0.3)
        cfg = SimConfig(nx=10, t_final=1.0)
        with pytest.raises(InvalidParameter, match=r"^the step \(l/nx\)/f overflows to inf$"):
            init_state(params, cfg, never, 0.0, never)
        with pytest.raises(InvalidParameter, match=r"^the step \(l/nx\)/f overflows to inf$"):
            run(params, cfg, never, 0.0, never)

    def test_history_weight_past_the_float_range_warns_nothing(self):
        # gamma*exp(tau) = exp(3000) overflows: the weights are inf, and the
        # first energy is not finite, without a RuntimeWarning
        params = SystemParams(1, 0.5, 1, 10000, 1, 3000)
        cfg = SimConfig(nx=2, t_final=20000.0, gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflow, match=r"at t = 0\.0$"):
                run(params, cfg, sine_profile(10000.0), 1.0, zero_fn)


def exact_outputs(p, cfg, stride, mpmath):
    """The states of step's discrete scheme at the outputs, in 50-digit
    arithmetic from init_state's samples and the float coefficients step
    computes: (c, a, history) per output, as lists of mpf."""
    state = init_state(p, cfg, sine_profile(p.l), 1.0, zero_fn)
    dt, n_tau = state.dt, state.n_tau
    mpf = mpmath.mpf
    decay_a, gain_a = mpf(math.exp(-p.alpha * dt)), mpf(-math.expm1(-p.alpha * dt))
    if p.delta == 0.0:
        decay_c, gain_c, delta = mpf(1), mpf(dt), mpf(1)
    else:
        decay_c, gain_c = mpf(math.exp(-p.delta * dt)), mpf(-math.expm1(-p.delta * dt))
        delta = mpf(p.delta)
    alpha, beta = mpf(p.alpha), mpf(p.beta)
    c, a = [mpf(x) for x in state.c], mpf(state.a)
    history = [mpf(x) for x in state.history]  # newest first
    n_steps = math.ceil(cfg.t_final / dt - 1e-9)
    outputs = []
    for k in range(n_steps + 1):
        if k % stride == 0 or k == n_steps:
            outputs.append((c, a, history))
        delayed = (history[-1] + history[-2]) / 2 if n_tau else history[-1]
        a_new = a * decay_a + delayed * gain_a / alpha
        s = beta * (a + a_new) / 2 * gain_c / delta
        c = [mpf(0)] + [x * decay_c + s for x in c[:-1]]
        history = [c[-1]] + history[:-1]
        a = a_new
    return outputs


def deviation(values, exact) -> float:
    """The largest |value - exact| over two sequences of one length."""
    return max(abs(float(x - y)) for x, y in zip(values, exact))


# The largest deviation from exact_outputs of run or of a step loop on
# TestFlatRun's runs, in units of the run's largest |c| (c and history) and
# largest |a|; run reaches 3.2e-16, 6.0e-16 with every window taken as
# arrays, and the step loop 3.0e-16.
EXACT_TOL = 1e-15


# run's block loop against a loop of the public single-step API, and both
# against the same scheme in exact arithmetic.  Blocks (_ROWS) of 1 and 3
# steps shift the outflow buffer many times, also below n_tau = 5, and put
# outputs at every phase of a block edge, also with outputs at every step;
# blocks of 21 and of _ROWS steps chain segments of nx = 16 steps, the
# first ending part way through a segment.  A _BREAK_EVEN of 1 takes every
# window of up to n_tau steps as arrays: windows end part way through a
# segment (n_tau = 5 or 6), at a segment's end and at a block's; at tau = 2
# (n_tau = 32) each window is a whole segment, and at alpha*dt = 125 the
# _WINDOW_RANGE cap cuts them to 2 steps.  (n_tau = 0 has no window.)
FLAT_BLOCKS = pytest.mark.parametrize(
    "patches, stride",
    [
        pytest.param({}, 5, id="None"),
        pytest.param({}, 1, id="stride1"),
        pytest.param({"_ROWS": 1}, 5, id="rows1"),
        pytest.param({"_ROWS": 3}, 5, id="rows3"),
        pytest.param({"_ROWS": 1}, 1, id="rows1-stride1"),
        pytest.param({"_ROWS": 3}, 1, id="rows3-stride1"),
        pytest.param({"_ROWS": 21}, 5, id="rows21"),
        pytest.param({"_ROWS": 21}, 1, id="rows21-stride1"),
        pytest.param({"_BREAK_EVEN": 1}, 5, id="arrays"),
        pytest.param({"_BREAK_EVEN": 1}, 1, id="arrays-stride1"),
        pytest.param({"_BREAK_EVEN": 1, "_ROWS": 1}, 1, id="arrays-rows1-stride1"),
        pytest.param({"_BREAK_EVEN": 1, "_ROWS": 3}, 5, id="arrays-rows3"),
        pytest.param({"_BREAK_EVEN": 1, "_ROWS": 21}, 5, id="arrays-rows21"),
        pytest.param({"_BREAK_EVEN": 1, "_ROWS": 21}, 1, id="arrays-rows21-stride1"),
    ],
)
FLAT_PARAMS = pytest.mark.parametrize(
    "p",
    [
        SystemParams(1, 0.5, 1, 1, 1, 0.3),
        SystemParams(1, 0.5, 1, 1, 1, 0.0),  # n_tau == 0
        SystemParams(1.3, 0.7, 0.0, 1, 1, 0.4),  # delta == 0
        SystemParams(0.5, -2, -0.7, 2, 0.5, 1.3),
        SystemParams(1, 0.5, 1, 1, 1, 2.0),  # a delay of two segments
        SystemParams(2000, 0.5, 1, 1, 1, 0.4),  # alpha*dt = 125
    ],
)
FLAT_CONFIG = dict(nx=16, t_final=3.0, gamma=0.7)


def flat_run(p, patches, stride, monkeypatch):
    """run's states and energies on a TestFlatRun case, and a step loop's
    states at the same outputs."""
    for name, value in patches.items():
        monkeypatch.setattr(simulator, name, value)
    cfg = SimConfig(**FLAT_CONFIG, output_stride=stride)
    trace, etrace = run(p, cfg, sine_profile(p.l), 1.0, zero_fn, keep_states=True)
    state = init_state(p, cfg, sine_profile(p.l), 1.0, zero_fn)
    n_steps = math.ceil(cfg.t_final / state.dt - 1e-9)
    expected = []
    for k in range(n_steps + 1):
        if k % stride == 0 or k == n_steps:
            expected.append(state)
        if k < n_steps:
            state = step(state, p)
    assert stride == 1 or n_steps % stride != 0  # n_steps is off the stride
    assert len(trace.states) == len(etrace.samples) == len(expected)
    return trace, etrace, expected


class TestFlatRun:
    @FLAT_BLOCKS
    @FLAT_PARAMS
    def test_states_match_step_loop(self, p, patches, stride, monkeypatch):
        trace, etrace, expected = flat_run(p, patches, stride, monkeypatch)
        # each is within EXACT_TOL of the exact scheme (test below)
        c_max = max(np.abs(state.c).max() for state in expected)
        a_max = max(abs(state.a) for state in expected)
        for got, want, sample in zip(trace.states, expected, etrace.samples):
            assert got.step_index == want.step_index
            assert got.t == want.t == sample.t
            assert deviation(got.c, want.c) <= 2 * EXACT_TOL * c_max
            assert deviation([got.a], [want.a]) <= 2 * EXACT_TOL * a_max
            assert deviation(got.history, want.history) <= 2 * EXACT_TOL * c_max
            assert sample.a_sq == got.a * got.a
            assert sample.c_l == got.c[-1]
            if got.step_index:
                assert got.history[0] == got.c[-1]
            ref = energy(want, p, FLAT_CONFIG["gamma"])
            assert abs(sample.energy - ref) <= 1e-13 * ref
            for value in (sample.t, sample.energy, sample.a_sq, sample.c_l, got.a):
                assert type(value) is float

    @FLAT_BLOCKS
    @FLAT_PARAMS
    def test_states_match_exact_scheme(self, p, patches, stride, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        trace, _, expected = flat_run(p, patches, stride, monkeypatch)
        cfg = SimConfig(**FLAT_CONFIG, output_stride=stride)
        with mpmath.workdps(50):
            exact = exact_outputs(p, cfg, stride, mpmath)
            c_max = max(abs(x) for c, _, _ in exact for x in c)
            a_max = max(abs(a) for _, a, _ in exact)
            assert len(exact) == len(expected)
            for got, want, (c, a, history) in zip(trace.states, expected, exact):
                for state in (got, want):
                    assert deviation(state.c, c) <= EXACT_TOL * c_max
                    assert deviation([state.a], [a]) <= EXACT_TOL * a_max
                    assert deviation(state.history, history) <= EXACT_TOL * c_max

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
        # 20000 steps, 5 outputs: the outflow buffer holds n_tau + 1 + _ROWS
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

    def test_large_nx_holds_a_few_profiles(self):
        # nx = 20000: a run holds a few profiles and their prefix sums, and
        # a block's outflow buffer and step records, never a profile per step;
        # the initial state holds the grid and the profile, and no list of
        # the profile's samples
        nx = 20_000
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cfg = SimConfig(nx=nx, t_final=0.0125, gamma=1.0, output_stride=100)
        tracemalloc.start()
        try:
            init_state(p, cfg, sine_profile(1.0), 1.0, zero_fn)
            sampled = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _, etrace = run(p, cfg, sine_profile(1.0), 1.0, zero_fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.t for s in etrace.samples] == pytest.approx([0, 0.005, 0.01, 0.0125])
        assert sampled < 3 * (nx + 1) * 8
        assert peak < (7 * (nx + 1) + 32 * simulator._ROWS) * 8

    def test_long_delay_window_holds_no_list_of_samples(self):
        # n_tau = 250,000: the history is sampled straight into its array;
        # a list of its samples first took about 2.2 times the array
        p = SystemParams(1, 0.5, 1, 1, 1, 2.5e4)
        tracemalloc.start()
        try:
            state = init_state(p, SimConfig(nx=10, t_final=1.0), zero_fn, 0.0, zero_fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.n_tau == 250_000
        assert peak < 1.5 * state.history.nbytes

    def test_nothing_per_output_is_held_before_the_first_step(self, monkeypatch):
        # 1e6 steps at stride 1: a list of the output steps built up front
        # peaked at 40 MB before the first step
        class Stop(Exception):
            pass

        def refuse(*args):
            raise Stop

        monkeypatch.setattr(simulator, "_march_fn", refuse)
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                run(p, SimConfig(10, 1e5), sine_profile(1.0), 1.0, zero_fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def window_lengths(monkeypatch) -> list:
    """The steps of each window run takes as arrays from now on, one entry
    per running sum (three a window)."""
    lengths = []
    running_sums = simulator._running_sums

    def spy(x):
        lengths.append(x.shape[-1] - 1)
        running_sums(x)

    monkeypatch.setattr(simulator, "_running_sums", spy)
    return lengths


class TestWindows:
    def test_a_long_delay_takes_windows_as_arrays_and_matches_the_loop(self, monkeypatch):
        # nx = 64 and n_tau = 128 reach _BREAK_EVEN: each segment is one
        # window of arrays, against the float loop (a _BREAK_EVEN of inf)
        p = SystemParams(1, 0.5, 1, 1, 1, 2.0)
        cfg = SimConfig(nx=64, t_final=30.0, gamma=0.7)
        lengths = window_lengths(monkeypatch)
        _, arrays = run(p, cfg, sine_profile(1.0), 1.0, zero_fn)
        assert lengths and min(lengths) >= simulator._BREAK_EVEN
        monkeypatch.setattr(simulator, "_BREAK_EVEN", math.inf)
        lengths.clear()
        _, loop = run(p, cfg, sine_profile(1.0), 1.0, zero_fn)
        assert lengths == []
        assert np.max(np.abs(arrays.energies - loop.energies) / loop.energies) <= 1e-13
        for window in ((5.0, 30.0), (10.0, 20.0)):
            want = fit_decay_rate(loop, window).rate
            assert abs(fit_decay_rate(arrays, window).rate - want) <= 1e-12 * want

    def test_a_growing_profile_caps_the_window(self, monkeypatch):
        # delta*dt = -40: d**2 = exp(80), so the _WINDOW_RANGE cap cuts the
        # windows to 4 steps (d**-8 = exp(-320)), below n_tau = nx = 10.
        # Every state is within a few roundings of a step loop's and every
        # energy within 1e-14 of energy() on it, also past 1e140.
        monkeypatch.setattr(simulator, "_BREAK_EVEN", 1)
        p = SystemParams(1, 0.5, -400, 1, 1, 1.0)
        cfg = SimConfig(nx=10, t_final=1.0, gamma=1.0)

        def c0(x):
            return 1e-100 * math.sin(math.pi * x)

        def history(s):
            return -1e-100 * s

        lengths = window_lengths(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace, etrace = run(p, cfg, c0, 1e-100, history, keep_states=True)
        assert max(lengths) == 4
        states = [init_state(p, cfg, c0, 1e-100, history)]
        for _ in range(10):
            states.append(step(states[-1], p))
        c_max = max(np.abs(state.c).max() for state in states)
        a_max = max(abs(state.a) for state in states)
        assert len(trace.states) == len(states)
        for got, want, value in zip(trace.states, states, etrace.energies.tolist()):
            assert deviation(got.c, want.c) <= 2 * EXACT_TOL * c_max
            assert deviation(got.history, want.history) <= 2 * EXACT_TOL * c_max
            assert deviation([got.a], [want.a]) <= 2 * EXACT_TOL * a_max
            ref = energy(want, p, 1.0)
            assert abs(value - ref) <= 1e-14 * ref
        assert etrace.energies[-1] > 1e140


def correlations(monkeypatch) -> list:
    """The number of outputs of each direct correlation of history terms
    run takes from now on, one entry a block."""
    calls = []
    convolve = np.convolve

    def spy(a, v, mode):
        calls.append(a.size - v.size + 1)
        return convolve(a, v, mode)

    monkeypatch.setattr(np, "convolve", spy)
    return calls


class TestHistoryTerm:
    # nx = 20 and 800 steps: n_tau = 800 or 1000 is past 2*span + 2 for a
    # block's 255 outputs, so each block sums the core its windows share
    # once and adds two edges; at stride 300 a block holds one output (span
    # 0)
    @pytest.mark.parametrize("stride", [1, 7, 300])
    @pytest.mark.parametrize(
        "p, amplitude, slope",
        [
            (SystemParams(1, 0.5, 1, 1, 1, 40.0), 1.0, -1.0),
            # dt*n_tau = 0.5: the oldest samples, from a history that grows
            # into the past, weigh exp(-0.5) of the newest
            (SystemParams(1, 0.5, 1, 1, 100, 0.5), 1.0, -1.0),
            # delta*dt = -3: the profile's squares underflow at a segment's
            # start and d**20 = exp(60) lifts them back, so outputs up to
            # 1e-256 are summed from their profiles
            (SystemParams(1, 0.5, -60, 1, 1, 40.0), 1e-160, 0.0),
        ],
        ids=["decaying", "short-delay", "growing-profile"],
    )
    def test_core_and_edges_match_the_direct_sum(self, p, amplitude, slope, stride, monkeypatch):
        calls = correlations(monkeypatch)
        summed = []
        sq_integral = simulator._sq_integral

        def counted(*args):
            summed.append(args)
            return sq_integral(*args)

        monkeypatch.setattr(simulator, "_sq_integral", counted)
        cfg = SimConfig(nx=20, t_final=800 / (20 * p.f), gamma=0.7, output_stride=stride)

        def c0(x):
            return amplitude * math.sin(math.pi * x)

        def history(s):
            return slope * s

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace, etrace = run(p, cfg, c0, amplitude, history, keep_states=True)
        assert calls == []
        # the outputs summed from their profiles, at delta < 0 only
        assert bool(summed) == (p.delta < 0.0)
        assert len(trace.states) == etrace.energies.size == -(-800 // stride) + 1
        # every energy but the few whose squares are subnormal (in the
        # reference too), at t = 0 and at the first segments' starts
        refs = [energy(state, p, 0.7) for state in trace.states]
        normal = [(value, ref) for value, ref in zip(etrace.energies.tolist(), refs)
                  if ref >= 1e-300]
        assert len(normal) >= len(refs) - 3
        for value, ref in normal:
            assert abs(value - ref) <= 1e-14 * ref
        assert etrace.c_l.base is None

    def test_a_span_past_the_float_range_correlates_directly(self, monkeypatch):
        # dt = 2: the first block's 256 outputs span 510 e-folds of exp(dt),
        # past _WINDOW_RANGE, though n_tau = 550 is past 2*255 + 2; the
        # second block's 45 outputs span 88 and take the core and edges
        calls = correlations(monkeypatch)
        p = SystemParams(1e-3, 5e-4, 1e-3, 20, 1, 1100.0)
        cfg = SimConfig(nx=10, t_final=600.0)
        trace, etrace = run(p, cfg, sine_profile(20.0), 1.0, zero_fn, keep_states=True)
        assert calls == [256]
        for state, value in zip(trace.states, etrace.energies.tolist()):
            ref = energy(state, p)
            assert abs(value - ref) <= 1e-14 * ref

    def test_a_weight_past_the_float_range_raises_overflow(self):
        # gamma*exp(tau) = exp(800): every energy is inf, the first at t = 0
        p = SystemParams(1, 0.5, 1, 1, 1, 800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflow, match=r"at t = 0\.0$"):
                run(p, SimConfig(20, 1.0, gamma=1.0), sine_profile(1.0), 1.0, zero_fn)

    def test_a_scaled_edge_past_the_float_range_leaves_the_energy_finite(self):
        # an edge's squares times exp(u*dt) overflow before the energy
        # does: the run still overflows first at t = 62.0, as by direct
        # correlation, where the scaled edges alone would at t = 31.1
        p = SystemParams(1, -30, 1, 1, 1, 30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflow, match=r"at t = 62\.0$"):
                run(p, SimConfig(20, 400.0, gamma=1.0), zero_fn, 1e145, zero_fn)


class TestOverflow:
    # beta = -30 grows until the energy overflows at t = 241 (step 2410)
    GROWING = SystemParams(1, -30, 1, 1, 1, 0.3)

    @pytest.mark.parametrize("stride", [1, 7, 1000])
    def test_growing_run_names_the_first_non_finite_output(self, stride):
        cfg = SimConfig(nx=10, t_final=2000, gamma=1, output_stride=stride)
        first = math.ceil(2410 / stride) * stride * 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflow, match=f"t = {first!r}$"):
                run(self.GROWING, cfg, sine_profile(1.0), 1.0, zero_fn)

    def test_run_just_short_of_the_overflow_is_finite(self):
        cfg = SimConfig(nx=10, t_final=240.9, gamma=1)
        _, etrace = run(self.GROWING, cfg, sine_profile(1.0), 1.0, zero_fn)
        assert np.isfinite(etrace.energies).all()
        assert etrace.samples[-1].energy > 1e300

    def test_decay_factor_past_the_float_range_is_simulation_overflow(self):
        # delta*dt = -1000: exp(1000) is past the floating-point range
        p = SystemParams(1, 0.5, -1e4, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=1.0)
        state = init_state(p, cfg, sine_profile(1.0), 1.0, zero_fn)
        message = r"exp\(-delta\*dt\) overflows at delta\*dt = -1000.0$"
        with pytest.raises(SimulationOverflow, match=message):
            step(state, p)
        with pytest.raises(SimulationOverflow, match=message):
            run(p, cfg, sine_profile(1.0), 1.0, zero_fn)

    def test_run_stops_at_the_block_that_overflows(self, monkeypatch):
        steps = []
        make = simulator._march_fn

        def counting(*args):
            march = make(*args)

            def counted(c, a, lag, n):
                steps.extend([None] * n)
                return march(c, a, lag, n)

            return counted

        monkeypatch.setattr(simulator, "_march_fn", counting)
        cfg = SimConfig(nx=10, t_final=2000, gamma=1)
        with pytest.raises(SimulationOverflow):
            run(self.GROWING, cfg, sine_profile(1.0), 1.0, zero_fn)
        assert 2410 <= len(steps) < 2410 + simulator._ROWS

    @pytest.mark.parametrize(
        "delta, t_final, amplitude",
        [(-400, 1.0, 1e-100), (-400, 1.0, 1e-170), (-60, 5.0, 1e-200)],
        ids=["square-overflows", "square-underflows", "fed-square-underflows"],
    )
    def test_decay_factor_squared_past_the_float_range_stays_finite(
        self, delta, t_final, amplitude
    ):
        # delta*dt = -40: d**20 = exp(800) overflows while d**10*c does not
        # (the largest energy is 2.87e110 at 1e-100), and at 1e-170 c**2
        # underflows to 0 while d**10*c is about 5e3.  delta*dt = -6 and a
        # 1e-200 profile: the sources fed in start below 1e-154, so their
        # squares underflow, and d**10 = exp(60) lifts them back into the
        # normal range.  Every energy is finite and not negative, and within
        # 1e-13 of a step loop's where that is normal; a subnormal energy
        # keeps only a few digits.
        p = SystemParams(1, 0.5, delta, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=t_final, gamma=1.0)

        def c0(x):
            return amplitude * math.sin(math.pi * x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, etrace = run(p, cfg, c0, 0.0, zero_fn)
        assert np.isfinite(etrace.energies).all()
        state = init_state(p, cfg, c0, 0.0, zero_fn)
        normal = 0
        for got in etrace.energies.tolist():
            ref = energy(state, p, 1.0)
            assert got >= 0.0
            if ref >= sys.float_info.min:
                assert abs(got - ref) <= 1e-13 * ref
                normal += 1
            state = step(state, p)
        assert normal >= 10

    @pytest.mark.parametrize("delta", [-1000, -4000, -7000])
    def test_zero_state_past_the_float_range_stays_zero(self, delta):
        # delta*dt = -100, -400 and -700: d**10 is inf, and inf*0 would be
        # NaN; the zero state stays exactly zero
        p = SystemParams(1, 0, delta, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=1.0, gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, etrace = run(p, cfg, zero_fn, 0.0, zero_fn)
        assert etrace.energies.tolist() == [0.0] * 11

    def test_tiny_decay_rate_runs_like_zero_decay(self):
        # delta*dt = 1e-308: 708/(delta*dt), the block length at which d**n
        # would leave the normal float range, is inf
        p = SystemParams(1, 0.5, 1e-307, 1, 1, 0.3)
        _, tiny = run(p, SimConfig(10, 1.0), sine_profile(1.0), 1.0, zero_fn)
        _, zero = run(SystemParams(1, 0.5, 0.0, 1, 1, 0.3), SimConfig(10, 1.0),
                      sine_profile(1.0), 1.0, zero_fn)
        assert tiny.energies.tolist() == pytest.approx(zero.energies.tolist(), rel=1e-15)

    def test_decay_factor_zero_matches_the_step_loop(self):
        # delta*dt = 1000: d = exp(-1000) is 0.0, so each profile is the
        # last step's source behind the inflow, one step per block
        p = SystemParams(1, 0.5, 1e4, 1, 1, 0.3)
        cfg = SimConfig(nx=10, t_final=3.0, gamma=1.0)
        trace, etrace = run(p, cfg, sine_profile(1.0), 1.0, zero_fn, keep_states=True)
        state = init_state(p, cfg, sine_profile(1.0), 1.0, zero_fn)
        for got, sample in zip(trace.states, etrace.samples):
            assert np.array_equal(got.c, state.c) and got.a == state.a
            assert np.array_equal(got.history, state.history)
            # within a few roundings: energy's dot may sum in another order
            assert sample.energy == pytest.approx(energy(state, p, 1.0), rel=1e-15)
            state = step(state, p)
        # the last energy as the profile-block run computed it
        assert etrace.samples[-1].energy == pytest.approx(0.0012398431614528737, rel=1e-15)


class TestFitDecayRate:
    def synthetic_trace(self, rate, t_max=20.0, n=201):
        ts = np.linspace(0.0, t_max, n)
        return EnergyTrace(ts, np.exp(-rate * ts), np.zeros(n), np.zeros(n))

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
        selected = EnergyTrace(ts, es, np.zeros(ts.size), np.zeros(ts.size))
        want = fit_decay_rate(selected, (-math.inf, math.inf))
        assert fit_decay_rate(etrace, (t0, t1)) == want

    @pytest.mark.parametrize(
        "ring",
        [
            # the benchmark's two rings, gamma the certificate weight
            (SystemParams(1, 0.5, 1, 1, 1, 0.3), SimConfig(100, 200.0), (50.0, 200.0)),
            (SystemParams(1, 0.5, 1, 1, 1, 5.0), SimConfig(400, 50.0), (10.0, 50.0)),
            None,
        ],
        ids=["small-ring", "large-ring", "synthetic"],
    )
    def test_the_closed_form_line_is_polyfit_to_rounding(self, ring):
        # the centred closed form and numpy's least squares differ only in
        # their roundings
        if ring is None:
            cases = [(self.synthetic_trace(rate), (0.0, 20.0)) for rate in (0.5, 1e-3, 20.0)]
            cases.append((self.synthetic_trace(0.05, t_max=1e4, n=5001), (100.0, 9e3)))
        else:
            p, cfg, window = ring
            cases = [(run(p, cfg, sine_profile(1.0), 1.0, zero_fn)[1], window)]
        for trace, (t0, t1) in cases:
            inside = (t0 <= trace.times) & (trace.times <= t1)
            ts, log_e = trace.times[inside], np.log(trace.energies[inside])
            slope, intercept = np.polyfit(ts, log_e, 1)
            resid = log_e - (slope * ts + intercept)
            total = log_e - log_e.mean()
            fit = fit_decay_rate(trace, (t0, t1))
            assert abs(fit.rate + slope) <= 1e-13 * abs(slope)
            r_sq = 1.0 - (resid @ resid) / (total @ total)
            assert abs(fit.r_squared - r_sq) <= 1e-13

    def test_a_window_whose_times_are_all_equal_is_degenerate(self):
        # twelve samples at one time span no line, also where their mean
        # rounds off them (twelve 0.1s), and no warning is raised
        for t in (1.0, 0.1):
            trace = EnergyTrace(np.full(12, t), np.exp(-np.arange(12.0)), np.zeros(12),
                                np.zeros(12))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateWindow, match=f"are at t = {t!r}$"):
                    fit_decay_rate(trace, (-math.inf, math.inf))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_energy_in_window_raises(self, bad):
        trace = self.synthetic_trace(0.5)
        trace.energies[150:] = bad
        with pytest.raises(SimulationOverflow, match=f"t = {trace.times[150].item()!r}$"):
            fit_decay_rate(trace, (0.0, 20.0))
        assert fit_decay_rate(trace, (0.0, 10.0)).rate == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize(
        "window, end, shown",
        [
            ((0.0, 10**400), "end", "a value past the float range"),
            ((0.0, math.nan), "end", "nan"),
            ((math.nan, 20.0), "start", "nan"),
            ((-(10**400), 20.0), "start", "a value past the float range"),
        ],
    )
    def test_a_window_end_neither_a_float_nor_infinite_is_typed(self, window, end, shown):
        message = f"^the window {end}, if not [+]-inf, must be finite, got {shown}$"
        with pytest.raises(NonFiniteField, match=message):
            fit_decay_rate(self.synthetic_trace(0.5), window)

    def test_a_window_that_is_not_a_pair_is_refused(self):
        # three ends or one are refused, not fitted over the first two or
        # left to fail unpacking
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        _, etrace = run(p, SimConfig(10, 5.0), sine_profile(1.0), 1.0, zero_fn)
        for window, shown in (((0, 1, 2), r"\(0, 1, 2\)"), ((0,), r"\(0,\)")):
            message = f"^the window must be a pair \\(start, end\\), got {shown}$"
            with pytest.raises(InvalidParameter, match=message):
                fit_decay_rate(etrace, window)
        assert fit_decay_rate(etrace, [0, 5]) == fit_decay_rate(etrace, (0.0, 5.0))

    def test_infinite_window_ends_take_every_sample(self):
        trace = self.synthetic_trace(0.5)
        want = fit_decay_rate(trace, (0.0, 20.0))
        assert fit_decay_rate(trace, (0.0, math.inf)) == want
        assert fit_decay_rate(trace, (-math.inf, math.inf)) == want

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
