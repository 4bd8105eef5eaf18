import cmath
import math
import os

import numpy as np
import pytest

from delaystab import region
from delaystab import (
    BelowThreshold,
    Evidence,
    Label,
    SystemParams,
    axis_crossing_candidates,
    beta_on_axis,
    char_fn,
    classify,
    decay_certificate,
    eig_bound_radius,
    oscillation_fast_path,
    phase_residual,
    spectrum,
    sweep,
    threshold_gain,
    trace_boundary,
)
from delaystab.characteristic import _phi_scalar
from delaystab.errors import (
    DelayStabError,
    InvalidParameter,
    NegativeTau,
    NonFiniteField,
    NonPositiveAlpha,
    NonPositiveF,
    NonPositiveL,
    QuadratureNonInteger,
    SampleBudgetExceeded,
)
from delaystab.region import _scan_roots

ONES = (1.0, 1.0, 1.0, 1.0)
B0 = threshold_gain(1, 1, 1, 1)


def explicit_axis_forms(omega, tau):
    """Trigonometric real/imaginary parts of the axis gain at the all-ones
    point, written out independently of the complex-arithmetic path."""
    e1 = math.exp(-1.0)
    c, s = math.cos(omega), math.sin(omega)
    ct, st = math.cos(omega * tau), math.sin(omega * tau)
    den = 1.0 - 2.0 * e1 * c + e1 * e1
    re = (
        (1.0 - e1 * c) * ((1.0 - omega**2) * ct - 2.0 * omega * st)
        + e1 * s * ((1.0 - omega**2) * st + 2.0 * omega * ct)
    ) / den
    im = (
        (1.0 - e1 * c) * ((1.0 - omega**2) * st + 2.0 * omega * ct)
        - e1 * s * ((1.0 - omega**2) * ct - 2.0 * omega * st)
    ) / den
    return re, im


class TestFamilyValidation:
    @pytest.mark.parametrize(
        "fixed, error",
        [
            ((-1.0, 1.0, 1.0, 1.0), NonPositiveAlpha),
            ((1.0, 1.0, 0.0, 1.0), NonPositiveL),
            ((1.0, 1.0, 1.0, 0.0), NonPositiveF),
            ((1.0, math.nan, 1.0, 1.0), NonFiniteField),
        ],
        ids=["alpha", "l", "f", "delta-nan"],
    )
    def test_every_entry_point_raises_the_systemparams_error(self, fixed, error):
        alpha, delta, l, f = fixed
        with pytest.raises(error):
            SystemParams(alpha, 0.0, delta, l, f, 0.0)
        entries = {
            "sweep": lambda: sweep(fixed, (0.0, 1.0), (0.0, 1.0), (2, 2)),
            "trace_boundary": lambda: trace_boundary(fixed, 1.0, 3, 5.0),
            "phase_residual": lambda: phase_residual(fixed, 0.5, 1.0),
            "beta_on_axis": lambda: beta_on_axis(fixed, 0.5, 1.0),
            "threshold_gain": lambda: threshold_gain(*fixed),
        }
        for name, call in entries.items():
            with pytest.raises(DelayStabError) as info:
                call()
            assert type(info.value) is error, name


class TestFarNegativeDecay:
    @pytest.mark.parametrize("delta", [-709.0, -1000.0])
    def test_typed_numerical_errors(self, delta):
        # exp(-delta*l/f) makes the search radius overflow: the point is
        # admissible, so the error is typed but not an InvalidParameter
        p = SystemParams(1, 1, delta, 1, 1, 1)
        for call in (lambda: classify(p), lambda: spectrum(p, 1e-6)):
            with pytest.raises(DelayStabError) as info:
                call()
            assert not isinstance(info.value, InvalidParameter)
        nodes = sweep((1.0, delta, 1.0, 1.0), (1.0, 2.0), (1.0, 2.0), (2, 2))
        assert all(node.result is None and node.error for node in nodes)

    @pytest.mark.parametrize("delta", [-709.79, -800.0])
    def test_overflowing_axis_gain_is_typed(self, delta, monkeypatch):
        # exp(-delta*l/f) overflows, which made the axis gain NaN
        fixed = (1.0, delta, 1.0, 1.0)
        traced = []
        monkeypatch.setattr(region, "_axis_gain", lambda *args: traced.append(args))
        for call in (
            lambda: phase_residual(fixed, 0.5, 1.0),
            lambda: beta_on_axis(fixed, 0.5, 1.0),
            lambda: trace_boundary(fixed, 1.0, 3, 1.0),
        ):
            with pytest.raises(QuadratureNonInteger, match="axis gain"):
                call()
        assert traced == []

    @pytest.mark.parametrize("delta", [-709.5, -709.78])
    def test_overflowing_axis_gain_division_is_typed(self, delta):
        # exp(-delta*l/f) is finite, but numpy's complex division by the
        # gain's denominator overflowed with a RuntimeWarning
        fixed = (1.0, delta, 1.0, 1.0)
        for call in (
            lambda: phase_residual(fixed, 0.5, 1.0),
            lambda: beta_on_axis(fixed, 0.5, 1.0),
            lambda: trace_boundary(fixed, 1.0, 3, 5.0),
        ):
            with pytest.raises(QuadratureNonInteger, match="axis gain"):
                call()

    def test_axis_gain_below_the_division_cut_is_unchanged(self):
        # values recorded with the gain built from phi, below the cut of the
        # division overflow check
        fixed = (1.0, -709.3, 1.0, 1.0)
        assert phase_residual(fixed, 0.5, 1.0) == 7.106867241488903e-306
        assert beta_on_axis(fixed, 0.5, 1.0) == 7.694874671683714e-307
        result = trace_boundary(fixed, 1.0, 3, 5.0)
        assert len(result.points) == 10 and result.failures == ()

    def test_axis_gain_just_inside_the_exp_range_is_unchanged(self):
        # values recorded before the overflow check was added
        fixed = (1.0, -709.0, 1.0, 1.0)
        assert phase_residual(fixed, 0.5, 1.0) == pytest.approx(9.589209538939218e-306, rel=1e-12)
        assert beta_on_axis(fixed, 0.5, 1.0) == pytest.approx(1.0382629750854185e-306, rel=1e-12)
        result = trace_boundary(fixed, 1.0, 3, 1.0)
        assert len(result.points) == 3 and result.failures == ()


class TestDelayPastExpOverflow:
    # exp(tau) overflows a float above tau of about 709.78
    def test_classify(self):
        result = classify(SystemParams(1, 0.5, 1, 1, 1, 800))
        assert result.label is Label.STABLE_STEADY_STATE

    def test_sweep_labels_every_node(self):
        nodes = sweep(ONES, (0.0, 0.8), (0.0, 800.0), (5, 5))
        assert len(nodes) == 25
        assert all(node.error is None and node.result is not None for node in nodes)


class TestPhaseResidual:
    def test_zero_frequency_is_always_a_root(self):
        for tau in (0.0, 0.7, 3.0, 10.0):
            assert phase_residual(ONES, 0.0, tau) == 0.0

    def test_matches_explicit_trigonometric_form(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            omega = rng.uniform(-8, 8)
            tau = rng.uniform(0, 10)
            re, im = explicit_axis_forms(omega, tau)
            assert phase_residual(ONES, omega, tau) == pytest.approx(im, abs=1e-12 * (1 + abs(im)))
            assert beta_on_axis(ONES, omega, tau) == pytest.approx(re, abs=1e-12 * (1 + abs(re)))

    def test_odd_in_frequency(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            omega = rng.uniform(0.01, 8)
            tau = rng.uniform(0, 10)
            assert phase_residual(ONES, -omega, tau) == -phase_residual(ONES, omega, tau)

    def test_gain_even_in_frequency(self):
        # mirror crossings at -omega carry the same gain
        rng = np.random.default_rng(57)
        for _ in range(100):
            omega = rng.uniform(0.01, 8)
            tau = rng.uniform(0, 10)
            assert beta_on_axis(ONES, -omega, tau) == beta_on_axis(ONES, omega, tau)

    def test_denominator_guard(self):
        from delaystab.errors import DenominatorVanishes

        # delta = 0: the gain has a pole at omega = 2*pi*k*f/l, k != 0
        with pytest.raises(DenominatorVanishes):
            phase_residual((1.0, 0.0, 1.0, 1.0), 2.0 * math.pi, 1.0)

    @pytest.mark.parametrize("tau", [0.0, 1.0, 7.5])
    def test_zero_frequency_at_zero_delta_is_the_threshold_branch(self, tau):
        # phi's removable singularity at w = 0 is no pole: the gain there is
        # the threshold gain alpha*f/l
        fixed = (1.0, 0.0, 1.0, 1.0)
        assert beta_on_axis(fixed, 0.0, tau) == 1.0 == threshold_gain(*fixed)
        assert phase_residual(fixed, 0.0, tau) == 0.0


class TestBetaOnAxis:
    def test_zero_frequency_recovers_threshold_gain(self):
        assert beta_on_axis(ONES, 0.0, 2.0) == pytest.approx(B0, rel=1e-12)

    def test_round_trip_through_characteristic_function(self):
        from scipy.optimize import brentq

        tau = 1.3
        f = lambda w: phase_residual(ONES, w, tau)
        omega = brentq(f, 1.0, 2.0, xtol=1e-13)
        beta = beta_on_axis(ONES, omega, tau)
        p = SystemParams(1, beta, 1, 1, 1, tau)
        assert abs(char_fn(p, 1j * omega)) <= 1e-10


class TestClassify:
    def test_stable_sample_point(self):
        label = classify(SystemParams(1, 1, 1, 1, 1, 1), eps0=1e-6)
        assert label.label is Label.STABLE_STEADY_STATE

    def test_oscillating_sample_point_uses_fast_path(self):
        label = classify(SystemParams(1, 3, 1, 1, 1, 1), eps0=1e-6)
        assert label.label is Label.LIMIT_CYCLE_OSCILLATION
        assert label.evidence is Evidence.GAIN_THRESHOLD_ALL_TAU

    def test_threshold_gain_lands_in_boundary_band(self):
        for tau in (0.3, 2.0):
            label = classify(SystemParams(1, B0, 1, 1, 1, tau), eps0=1e-6)
            assert label.label is Label.BOUNDARY_BAND
            assert abs(label.max_real_part) <= 1e-6

    def test_certificate_evidence_preferred(self):
        label = classify(SystemParams(1, 0.5, 1, 1, 1, 0.2), eps0=1e-8)
        assert label.label is Label.STABLE_STEADY_STATE
        assert label.evidence is Evidence.DECAY_CERTIFICATE
        assert isinstance(label.max_real_part, BelowThreshold)

    def test_label_stable_under_band_refinement(self):
        for tau, beta in ((1.0, 1.0), (1.0, 3.0), (4.0, -2.0)):
            p = SystemParams(1, beta, 1, 1, 1, tau)
            coarse = classify(p, eps0=1e-6)
            fine = classify(p, eps0=1e-7)
            assert coarse.label is fine.label

    def test_certificate_implies_spectrally_stable(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 5:
            p = SystemParams(
                rng.uniform(0.5, 2),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.5, 2),
                rng.uniform(0.5, 1.5),
                rng.uniform(0.5, 1.5),
                rng.uniform(0, 0.4),
            )
            cert = decay_certificate(p)
            if cert is None:
                continue
            checked += 1
            assert classify(p).label is Label.STABLE_STEADY_STATE
            half_rate = spectrum(p, cert.rate / 2)
            assert all(r.lam.real < 0 for r in half_rate.roots)

    def test_eps0_validation(self):
        with pytest.raises(ValueError):
            classify(SystemParams(1, 1, 1, 1, 1, 1), eps0=0.0)

    @pytest.mark.parametrize(
        "point",
        [
            (0.06258610018621615, 17.677583434925197, -1.216998575191424,
             3.454339200090323, 0.10974200890988042, 7.089619906245331),
            (0.03401576334896442, -4.477330728619231, -1.5597315108152006,
             2.8298389996264213, 0.1498082647384635, 11.852751250739027),
        ],
    )
    def test_non_finite_winding_total_is_typed(self, point):
        # delta < 0 with large l/f gives a search box about 1e9 high, whose
        # edges overflow exp; the sampling rule asks for more samples than
        # the budget before any NaN is evaluated
        with pytest.raises(SampleBudgetExceeded):
            classify(SystemParams(*point))

    @pytest.mark.parametrize("eps0", [math.nan, math.inf])
    def test_non_finite_eps0_is_typed(self, eps0):
        with pytest.raises(InvalidParameter, match="eps0"):
            classify(SystemParams(1, 1, 1, 1, 1, 1), eps0=eps0)

    def test_tall_box_is_labelled_or_over_budget(self):
        # exp(-lambda*tau) turns about 6400 times along each vertical edge of
        # this point's 4089-high search box; a capped sample count aliased
        # there and counted -394 zeros of char_num
        p = SystemParams(
            0.9233432782774748, 16.547630508295555, -1.5431070851209603,
            4.677097333045695, 0.5802692542351013, 9.766368483021132,
        )
        try:
            result = classify(p)
        except SampleBudgetExceeded:
            return
        assert result.label in Label


class TestOscillationFastPath:
    def test_all_ones_above_threshold(self):
        assert oscillation_fast_path(ONES, 3.0) is True

    def test_threshold_itself_is_undecided(self):
        assert oscillation_fast_path(ONES, B0) is False
        assert oscillation_fast_path(ONES, 0.0) is False

    def test_requires_positive_delta(self):
        with pytest.raises(InvalidParameter):
            oscillation_fast_path((1.0, -1.0, 1.0, 1.0), 3.0)

    @staticmethod
    def _oscillates_at_sampled_delays(fixed):
        rng = np.random.default_rng(63)
        beta = 1.4 * threshold_gain(*fixed)
        assert oscillation_fast_path(fixed, beta) is True
        for tau in rng.uniform(0, 10, 20):
            p = SystemParams(fixed[0], beta, fixed[1], fixed[2], fixed[3], float(tau))
            roots = spectrum(p, 0.0).roots
            assert roots and any(r.lam.real > 0 for r in roots)

    def test_agrees_with_spectral_search(self):
        self._oscillates_at_sampled_delays((0.8, 1.2, 1.0, 0.9))

    @pytest.mark.parametrize(
        "fixed",
        [
            (5.0, 0.3, 2.0, 0.5),
            (0.2, 3.0, 0.4, 2.5),
            # delta*l/f = 1e-6: the threshold sits close to its alpha*f/l limit
            (1.5, 1e-6, 0.5, 0.5),
        ],
    )
    def test_other_families_agree_with_spectral_search(self, fixed):
        self._oscillates_at_sampled_delays(fixed)

    def test_gain_map_monotone_when_margin_nonnegative(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            alpha, delta = rng.uniform(0.2, 3, 2)
            l, f = rng.uniform(0.3, 2, 2)

            def h(x):
                return (x + alpha) * (x + delta) / -math.expm1(-(x + delta) * l / f)

            xs = np.sort(rng.uniform(0, 8, 8))
            values = [h(x) for x in xs]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_rounding_corner_is_all_tau(self):
        # delta*l/f ~ 2.4e-22 with alpha >> delta: the monotonicity margin
        # rounds to about -5e-38, yet a gain above the threshold still puts a
        # positive real eigenvalue in the spectrum for every delay
        fixed = (
            242706.22033421503, 1.107202659715052e-20,
            0.4702438932156436, 21.342249566728263,
        )
        beta = 1.5 * threshold_gain(*fixed)
        assert oscillation_fast_path(fixed, beta) is True
        label = classify(SystemParams(fixed[0], beta, fixed[1], fixed[2], fixed[3], 1e14))
        assert label.evidence is Evidence.GAIN_THRESHOLD_ALL_TAU
        assert label.label is Label.LIMIT_CYCLE_OSCILLATION


class TestSweep:
    def test_zero_gain_column_is_stable(self):
        nodes = sweep(ONES, (0.0, 0.0001), (0.0, 10.0), (2, 4))
        for node in nodes:
            assert node.error is None
            assert node.result.label is Label.STABLE_STEADY_STATE

    def test_above_threshold_rows_oscillate(self):
        nodes = sweep(ONES, (2.0, 5.0), (0.0, 6.0), (3, 3))
        assert all(
            node.result.label is Label.LIMIT_CYCLE_OSCILLATION for node in nodes
        )

    def test_row_major_order_with_coordinates(self):
        nodes = sweep(ONES, (-1.0, 1.0), (0.0, 2.0), (2, 3))
        coords = [(node.beta, node.tau) for node in nodes]
        assert coords == [
            (-1.0, 0.0),
            (-1.0, 1.0),
            (-1.0, 2.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (1.0, 2.0),
        ]

    def test_parallel_matches_serial(self, started_pools):
        serial = sweep(ONES, (-2.0, 2.0), (0.0, 2.0), (2, 2), workers=1)
        parallel = sweep(ONES, (-2.0, 2.0), (0.0, 2.0), (2, 2), workers=2)
        assert serial == parallel
        assert started_pools == [2]

    @pytest.mark.parametrize(
        "workers, cpus, started",
        [(100_000, 64, 4), (100_000, 3, 3), (2, 64, 2), (1, 64, None)],
    )
    def test_pool_capped_at_jobs_and_cpus(self, monkeypatch, workers, cpus, started):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(region, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(region, "_usable_cpus", lambda: cpus)
        nodes = sweep(ONES, (-2.0, 2.0), (0.0, 2.0), (2, 2), workers=workers)
        assert nodes == sweep(ONES, (-2.0, 2.0), (0.0, 2.0), (2, 2))
        assert pools == ([] if started is None else [started])

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert region._usable_cpus() == 1

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(InvalidParameter, match="workers"):
            sweep(ONES, (0.0, 1.0), (0.0, 1.0), (2, 2), workers=workers)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(ONES, (0, 1), (0, 1), (1, 5))
        with pytest.raises(ValueError):
            sweep(ONES, (0, math.inf), (0, 1), (2, 2))

    @pytest.mark.parametrize(
        "tau_range, eps0, error",
        [
            ((-1.0, 1.0), 1e-8, NegativeTau),
            ((0.0, 1.0), 0.0, InvalidParameter),
            ((0.0, 1.0), math.nan, InvalidParameter),
            ((0.0, 1.0), math.inf, InvalidParameter),
        ],
    )
    def test_delay_range_and_eps0_checked_at_entry(self, tau_range, eps0, error):
        with pytest.raises(error):
            sweep(ONES, (0.0, 1.0), tau_range, (2, 2), eps0=eps0)


@pytest.fixture(scope="module")
def short_trace():
    return trace_boundary(ONES, 3.0, 31, 8.0)


class TestTraceBoundary:
    def test_zero_frequency_branch_present_at_every_delay(self, short_trace):
        taus = {p.tau for p in short_trace.points}
        assert len(taus) == 31
        for tau in taus:
            branch = [
                p for p in short_trace.points if p.tau == tau and p.omega == 0.0
            ]
            assert len(branch) == 1
            assert abs(branch[0].beta - B0) <= 1e-8

    def test_residual_invariant(self, short_trace):
        assert short_trace.points
        for point in short_trace.points:
            assert point.residual <= 1e-8
            assert point.omega >= 0.0

    def test_grid_matches_uniform_spacing(self, short_trace):
        taus = sorted({p.tau for p in short_trace.points})
        expected = [p * 3.0 / 30 for p in range(31)]
        assert taus == pytest.approx(expected, abs=1e-12)

    def test_points_on_first_crossing_are_boundary_band(self, short_trace):
        arc = [
            p
            for p in short_trace.points
            if 1.0 <= p.tau <= 1.5 and -4.0 <= p.beta <= -2.0
        ]
        assert arc
        for point in arc[:3]:
            label = classify(
                SystemParams(1, point.beta, 1, 1, 1, point.tau), eps0=1e-6
            )
            assert label.label is Label.BOUNDARY_BAND

    def test_crossing_frequencies_satisfy_modulus_equation(self, short_trace):
        for point in short_trace.points[:12]:
            p = SystemParams(1, point.beta, 1, 1, 1, point.tau)
            candidates = axis_crossing_candidates(p)
            assert min(abs(c - point.omega) for c in candidates) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            trace_boundary(ONES, 0.0, 10, 5.0)
        with pytest.raises(ValueError):
            trace_boundary(ONES, 1.0, 1, 5.0)

    @pytest.mark.parametrize(
        "tau_max, omega_max",
        [(math.inf, 5.0), (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)],
    )
    def test_limits_must_be_finite_and_positive(self, tau_max, omega_max):
        with pytest.raises(InvalidParameter):
            trace_boundary(ONES, tau_max, 3, omega_max)

    def test_bad_delay_grid_is_reported_before_the_default_window(self):
        # The default window's radius overflows for this family.
        with pytest.raises(InvalidParameter):
            trace_boundary((1.0, -800.0, 1.0, 1.0), -1.0, 3)

    @pytest.mark.parametrize(
        "fixed, tau_max, omega_max",
        [((1.0, -20.0, 1.0, 1.0), 10.0, None), (ONES, 1.0, 1e5)],
    )
    def test_window_over_the_scan_budget_raises(self, fixed, tau_max, omega_max):
        with pytest.raises(SampleBudgetExceeded, match="omega_max"):
            trace_boundary(fixed, tau_max, 3, omega_max)

    def test_scan_resolves_a_window_wider_than_4000_gaps(self):
        # Crossings of this family lie about pi/(tau + l/f) = pi/10 apart, so
        # the window holds some 4040 of them at tau <= 1e-3: a 4000-point
        # scan would step over some, a scan with 16 points per gap keeps all.
        omega_max = 1270.0
        trace = trace_boundary((1.0, -2.0, 10.0, 1.0), 1e-3, 2, omega_max)
        assert not trace.failures
        for tau in (0.0, 1e-3):
            omegas = [p.omega for p in trace.points if p.tau == tau]
            gaps = np.diff([0.0, *omegas, omega_max])
            assert len(omegas) > 4000 and gaps.max() < 1.5 * math.pi / 10.0


class TestZeroDecayTrace:
    def test_one_threshold_crossing_per_delay(self):
        # phi's removable singularity at omega = delta = 0 is the threshold
        # branch beta = b0, no pole
        fixed = (1.0, 0.0, 1.0, 1.0)
        trace = trace_boundary(fixed, 3.0, 7, 20.0)
        zero = [p for p in trace.points if p.omega == 0.0]
        assert [p.tau for p in zero] == [0.5 * k for k in range(7)]
        assert all(p.beta == threshold_gain(*fixed) == 1.0 for p in zero)


class TestAxisCrossingCandidates:
    def test_zero_candidate_exactly_at_threshold_gain(self):
        p = SystemParams(1, B0, 1, 1, 1, 2.0)
        assert 0.0 in axis_crossing_candidates(p)

    @pytest.mark.parametrize(
        "beta, expected", [(0.1, []), (1.0, [0.0]), (3.0, [2.209984451270111])]
    )
    def test_zero_delta_lists_omega_zero_only_at_threshold_gain(self, beta, expected):
        # |i*omega + delta|^2 vanishes at omega = delta = 0, so the modulus
        # equation holds there for every beta; |beta| = b0 = 1 alone is a crossing
        assert axis_crossing_candidates(SystemParams(1, beta, 0.0, 1, 1, 1)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_tiny_delta_lists_no_zero_below_threshold_gain(self):
        p = SystemParams(1, 1.0, 1e-7, 1, 1, 1)
        assert 1.0 < threshold_gain(1, 1e-7, 1, 1) and axis_crossing_candidates(p) == []

    @pytest.mark.parametrize(
        "beta, delta", [(1.0, -355.0), (1.0, -1000.0), (20.0, -354.0), (20.0, -709.0)]
    )
    def test_overflowing_scan_is_typed(self, beta, delta):
        with pytest.raises(QuadratureNonInteger):
            axis_crossing_candidates(SystemParams(1, beta, delta, 1, 1, 1))

    def test_threshold_gain_lists_omega_zero_alone(self):
        # |G(omega)| >= b0 with equality at omega = 0 only, so at |beta| = b0
        # omega = 0 is the one candidate and below b0 there is none; a scan
        # there would see rounding flip the sign of a double zero at 0.
        rng = np.random.default_rng(300)
        for _ in range(300):
            alpha = 10.0 ** rng.uniform(-1.0, 1.0)
            delta = rng.uniform(-1.0, 3.0)
            l, f = 10.0 ** rng.uniform(-0.5, 0.5, 2)
            b0 = threshold_gain(alpha, delta, l, f)
            for beta in (b0, -b0):
                assert axis_crossing_candidates(SystemParams(alpha, beta, delta, l, f, 1.0)) == [0.0]
            assert axis_crossing_candidates(SystemParams(alpha, b0 / 2, delta, l, f, 1.0)) == []

    def test_tiny_threshold_gain_keeps_far_crossings(self):
        # At delta = -40, b0 = 1.7e-16: beta = 1e-13 is far above it, so
        # omega = 0 is no root and the crossing near omega = 150 is, while
        # beta = 0 is below it and has none.  Where b0 underflows to 0 the
        # scan runs and its overflow is typed.
        [omega] = axis_crossing_candidates(SystemParams(1, 1e-13, -40, 1, 1, 1))
        assert omega == pytest.approx(150.83633685368784, rel=1e-9)
        assert axis_crossing_candidates(SystemParams(1, 0, -40, 1, 1, 1)) == []
        with pytest.raises(QuadratureNonInteger):
            axis_crossing_candidates(SystemParams(1, 0, -1000, 1, 1, 1))

    def test_zero_gain_has_no_candidates(self):
        assert axis_crossing_candidates(SystemParams(1, 0, 1, 1, 1, 1)) == []

    def test_small_gain_has_no_candidates(self):
        assert axis_crossing_candidates(SystemParams(1, 0.3, 1, 1, 1, 1)) == []

    def test_candidates_delay_independent(self):
        a = axis_crossing_candidates(SystemParams(1, -3, 1, 1, 1, 0.5))
        b = axis_crossing_candidates(SystemParams(1, -3, 1, 1, 1, 7.0))
        assert a == pytest.approx(b, abs=1e-12)


class TestScanRoots:
    def test_grid_zero_masked_bracket_and_several_flips(self):
        grid = np.linspace(0.0, 10.0, 11)
        values = np.sin(grid)
        values[6] = math.nan  # drops the flip across 2*pi in [6, 7]

        def fn(w, rows):
            assert not np.any((6.0 <= w) & (w <= 7.0))
            return np.sin(w)

        (roots,) = _scan_roots(fn, grid, [values])
        assert roots[0] == 0.0
        assert roots[1:] == pytest.approx([math.pi, 3.0 * math.pi], abs=1e-12)

    def test_merges_roots_closer_than_merge_distance(self):
        grid = np.array([0.0, 1.0, 1.0 + 5e-10, 2.0])
        values = np.array([-1.0, 0.0, 0.0, 1.0])
        assert _scan_roots(lambda w, rows: np.sin(w), grid, [values]) == [[1.0]]

    def test_rows_are_refined_together_and_kept_apart(self):
        grid = np.linspace(0.5, 10.0, 20)
        shifts = np.array([0.0, 0.25, 0.5])
        calls = []

        def fn(w, rows):
            calls.append(w.size)
            return np.sin(w + shifts[rows])

        roots = _scan_roots(fn, grid, (np.sin(grid + s) for s in shifts))
        for s, found in zip(shifts, roots):
            assert found == pytest.approx([k * math.pi - s for k in (1, 2, 3)], abs=1e-14)
        # one call steps the brackets of every row
        assert calls[0] == 9 and len(calls) < 12


def brentq_trace(fixed, tau_max, num_tau, omega_max):
    """The trace as one brentq solve per bracket and one SystemParams and
    scalar char_fn call per crossing, on the same scan grid: the oracle for
    the batched trace.  Returns {tau: ([(omega, beta), ...], failures)}."""
    from scipy.optimize import brentq

    alpha, delta, l, f = fixed
    needed = 16 * omega_max * (tau_max + l / f) / math.pi
    grid = np.linspace(0.0, omega_max, max(4000, math.ceil(needed)))
    out = {}
    for p in range(num_tau):
        tau = p * tau_max / (num_tau - 1)
        values = (np.exp(1j * grid * tau) * region._axis_gain(fixed, grid)).imag
        valid = ~np.isnan(values)

        def phase(w):
            # unmasked, so a bracket across a pole closes on the pole itself
            iw = 1j * w
            gain = (iw + alpha) / (l / f * _phi_scalar((iw + delta) * (l / f)))
            return (cmath.exp(iw * tau) * gain).imag

        usable = valid & (values != 0.0)
        negative = values < 0.0
        flips = np.flatnonzero(usable[:-1] & usable[1:] & (negative[:-1] != negative[1:]))
        roots = [float(w) for w in grid[valid & (values == 0.0)]]
        for i in flips:
            roots.append(brentq(phase, grid[i], grid[i + 1], xtol=1e-12, rtol=8.9e-16))
        deduped = []
        for omega in sorted(roots):
            if not deduped or omega - deduped[-1] > 1e-9:
                deduped.append(omega)
        points, failures = [], []
        for omega in deduped:
            beta = region._axis_gain_scalar(fixed, omega, tau).real
            try:
                residual = abs(char_fn(SystemParams(alpha, beta, delta, l, f, tau), 1j * omega))
            except DelayStabError:
                residual = math.inf
            (points if residual <= 1e-8 else failures).append((omega, beta))
        out[tau] = (points, failures)
    return out


class TestTraceAgainstBrentq:
    @pytest.mark.parametrize(
        "fixed, tau_max, num_tau, omega_max, failing",
        [
            (ONES, 10.0, 41, 12.0, False),
            # a 5093-point scan, finer than the default 4000
            ((0.5, -1.0, 3.0, 1.0), 2.0, 5, 200.0, False),
            # delta = 0: the gain has poles at omega = 2*pi*k, k != 0, each a
            # sign flip whose refined point fails the residual check
            ((1.0, 0.0, 1.0, 1.0), 3.0, 7, 20.0, True),
            # the omega = 0 crossing of every delay hits char_fn's pole at -alpha
            ((1e-13, 1.0, 1.0, 1.0), 1.0, 3, 5.0, True),
        ],
        ids=["delta>0", "delta<0-fine-scan", "delta=0-poles", "pole-at-minus-alpha"],
    )
    def test_same_crossings_and_failures(self, fixed, tau_max, num_tau, omega_max, failing):
        oracle = brentq_trace(fixed, tau_max, num_tau, omega_max)
        trace = trace_boundary(fixed, tau_max, num_tau, omega_max)
        assert [tau for tau, _ in trace.failures] == [
            tau for tau, (_, failures) in oracle.items() for _ in failures
        ]
        for tau, (expected, failures) in oracle.items():
            points = [p for p in trace.points if p.tau == tau]
            assert len(points) == len(expected)
            for point, (omega, beta) in zip(points, expected):
                assert abs(point.omega - omega) <= 1e-12 * max(1.0, abs(omega))
                assert abs(point.beta - beta) <= 1e-12 * max(1.0, abs(beta))
            for (_, message), (omega, _) in zip(
                [f for f in trace.failures if f[0] == tau], failures
            ):
                failed_at = float(message.split(":")[0].removeprefix("omega="))
                assert abs(failed_at - omega) <= 1e-12 * max(1.0, omega)
        assert bool(trace.failures) is failing

    def test_call_counts(self, monkeypatch):
        # One scalar gain call per brentq step would make 34,524 calls on
        # this trace, and one char_fn call per crossing 5,500.
        calls = {"_axis_gain": 0, "char_fn": 0}
        for name in calls:
            def counted(*args, _fn=getattr(region, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(region, name, counted)
        trace = trace_boundary(ONES, 10.0, 500, eig_bound_radius(10.0, 1.0) + 1.0)
        assert len(trace.points) == 5500 and trace.failures == ()
        assert calls["_axis_gain"] <= 500 + 64
        assert calls["char_fn"] <= 3
