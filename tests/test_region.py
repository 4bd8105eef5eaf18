import cmath
import concurrent.futures
import math
import os
import tracemalloc
import warnings

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
from delaystab.region import _flips, _scan_roots

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
            ((1.0, 10**400, 1.0, 1.0), NonFiniteField),
        ],
        ids=["alpha", "l", "f", "delta-nan", "delta-past-the-float-range"],
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

    def test_long_tube_whose_axis_factor_overflows_is_typed(self):
        # delta*l/f = -709 is inside the cut, but |D| reaches about
        # exp(709)/|delta| and overflowed with a RuntimeWarning
        fixed = (1.0, -0.001, 709000.0, 1.0)
        for call in (
            lambda: phase_residual(fixed, 1e-3, 1.0),
            lambda: beta_on_axis(fixed, 1e-3, 1.0),
            lambda: trace_boundary(fixed, 1.0, 3, 1e-3),
            lambda: axis_crossing_candidates(SystemParams(*fixed[:1], 0.1, *fixed[1:], 1.0)),
        ):
            with pytest.raises(QuadratureNonInteger, match="axis gain"):
                call()

    def test_large_alpha_next_to_the_cut_traces_without_overflow(self):
        # (i*omega + alpha)*conj(D) overflows here; the scan divides it by
        # alpha + omega first
        result = trace_boundary((1e6, -709.4, 1.0, 1.0), 1.0, 3, 5.0)
        assert len(result.points) == 9 and result.failures == ()

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

    def test_axis_gain_of_a_tube_whose_l_over_f_underflows_warns_nothing(self):
        # l/f = 1e-600 underflows to 0, so D is 0 and every sample a pole:
        # the gain is NaN there without a division
        fixed = (1.0, 1.0, 1e-300, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain = region._axis_gain(fixed, np.linspace(0.0, 5.0, 7))
            result = trace_boundary(fixed, 1.0, 3, 5.0)
        assert np.isnan(gain).all()
        assert result.points == () and len(result.failures) == 12000


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

    @pytest.mark.parametrize("l", [1e-13, 1e-15, 1e-100, 1e-300])
    def test_short_tube_has_poles_only_at_zero_delta(self, l):
        # |D| = (l/f)*|phi(w)| is about l/f here: a pole is |phi(w)| <= 1e-14,
        # so delta > 0 gives a finite gain at every frequency, the threshold
        # branch included
        fixed = (1.0, 1.0, l, 1.0)
        for omega in (0.0, 0.7, 3.0):
            assert math.isfinite(beta_on_axis(fixed, omega, 0.3))
            assert math.isfinite(phase_residual(fixed, omega, 0.3))
        trace = trace_boundary(fixed, 1.0, 3, 5.0)
        assert len(trace.points) == 6 and not trace.failures
        assert all(p.residual <= 1e-15 for p in trace.points)
        zero = [p.beta for p in trace.points if p.omega == 0.0]
        assert zero == pytest.approx([threshold_gain(*fixed)] * 3, rel=1e-12)

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
    @pytest.mark.parametrize("beta", [1e-20, -1e-20])
    def test_eigenvalue_within_the_pole_tolerance_of_minus_alpha_is_stable(self, beta):
        # the eigenvalue lies within 1e-12*(1 + alpha) of -alpha, where
        # char_fn refuses to evaluate: the deflated numerator checks it
        result = classify(SystemParams(1e-7, beta, 1.0, 1.0, 1.0, 1.0))
        assert result.label is Label.STABLE_STEADY_STATE
        assert result.evidence is Evidence.SPECTRAL_SEARCH
        assert result.max_real_part == pytest.approx(-1e-7, rel=1e-12)

    def test_eigenvalue_within_the_pole_tolerance_inside_the_band(self):
        result = classify(SystemParams(1e-9, 1e-14, 1.0, 1.0, 1.0, 0.5))
        assert result.label is Label.BOUNDARY_BAND
        assert result.max_real_part == pytest.approx(-1e-9, rel=1e-5)

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(region, "_usable_cpus", lambda: cpus)
        nodes = sweep(ONES, (-2.0, 2.0), (0.0, 2.0), (2, 2), workers=workers)
        assert nodes == sweep(ONES, (-2.0, 2.0), (0.0, 2.0), (2, 2))
        assert pools == ([] if started is None else [started])

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert region._usable_cpus() == 1

    @pytest.mark.parametrize("count, cpus", [(6, 6), (None, 1)])
    def test_usable_cpus_without_an_affinity_mask_are_the_cpu_count(
        self, monkeypatch, count, cpus
    ):
        # os.cpu_count() is None where the count cannot be read
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert region._usable_cpus() == cpus

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(InvalidParameter, match="workers"):
            sweep(ONES, (0.0, 1.0), (0.0, 1.0), (2, 2), workers=workers)

    @pytest.mark.parametrize(
        "grid_counts, workers, shown",
        [
            (
                (-(10**5000), 2), 1,
                r"^n_beta must be an integer >= 2, got -<an integer of 16610 bits>$",
            ),
            (
                (10**5000, 2, 3), 1,
                r"^grid_counts must be a pair, got \(<an integer of 16610 bits>, 2, 3\)$",
            ),
            (
                [2, -(10**5000)], 1,
                r"^n_tau must be an integer >= 2, got -<an integer of 16610 bits>$",
            ),
            ((2, 2), -(10**5000), r"workers .* got -<an integer of 16610 bits>$"),
        ],
        ids=["grid-count", "grid-triple", "grid-list", "workers"],
    )
    def test_an_integer_too_long_to_print_is_shown_by_its_bits(self, grid_counts, workers, shown):
        # str() of an int past 4300 digits raises ValueError on Python 3.11
        # and later; the message must not.
        with pytest.raises(InvalidParameter, match=shown):
            sweep(ONES, (0, 1), (0, 1), grid_counts, workers=workers)

    def test_nodes_past_the_bound_are_refused(self, monkeypatch):
        # n_beta*n_tau > 2**24, refused before numpy is asked for the grid
        assert region._DELAY_SAMPLES == 2**24
        shown = rf"grid_counts=\(2, {2**60}\) asks for more than 16777216 nodes$"
        with pytest.raises(InvalidParameter, match=shown):
            sweep(ONES, (0, 1), (0, 1), (2, 2**60))
        # the bound itself is admitted, one more node is not
        monkeypatch.setattr(region, "_DELAY_SAMPLES", 6)
        for grid_counts in ((2, 3), (3, 2)):
            assert len(sweep(ONES, (0, 1), (0, 1), grid_counts)) == 6
        for grid_counts in ((2, 4), (4, 2), (3, 3)):
            with pytest.raises(InvalidParameter, match="more than 6 nodes$"):
                sweep(ONES, (0, 1), (0, 1), grid_counts)

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

    def test_eps0_whose_search_sigma_overflows_raises_before_any_node(self, monkeypatch):
        # 1000*eps0 is inf: every node that reached the spectral search
        # would fail on its sigma, and the ones a fast path decides would not
        calls = []
        monkeypatch.setattr(region, "classify", lambda *args: calls.append(args))
        with pytest.raises(InvalidParameter, match="eps0"):
            sweep(ONES, (-5.0, 5.0), (0.0, 10.0), (3, 3), eps0=1e308)
        assert calls == []
        with pytest.raises(InvalidParameter, match="eps0"):
            classify(SystemParams(1, 1, 1, 1, 1, 1), 1e308)


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

    def test_delays_past_the_bound_are_refused(self, monkeypatch):
        # before numpy is asked for an array of num_tau delays
        assert region._DELAY_SAMPLES == 2**24
        shown = f"^num_tau must be an integer from 2 to 16777216, got {2**60}$"
        with pytest.raises(InvalidParameter, match=shown):
            trace_boundary(ONES, 1.0, 2**60, 5.0)
        # the bound itself is admitted, one more delay is not
        monkeypatch.setattr(region, "_DELAY_SAMPLES", 4)
        assert len({p.tau for p in trace_boundary(ONES, 1.0, 4, 5.0).points}) == 4
        shown = "^num_tau must be an integer from 2 to 4, got 5$"
        with pytest.raises(InvalidParameter, match=shown):
            trace_boundary(ONES, 1.0, 5, 5.0)

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
    def test_pole_brackets_close_like_any_other(self, monkeypatch):
        # The scan samples |D|^2 times the gain's phase, which has a simple
        # zero at each pole of the gain: those brackets close within 30
        # rounds (594 were still open there when the gain's own phase was
        # refined), and each names its pole as a gain that is not finite.
        live = []
        refine = region._refine

        def spy(fn, row, *bracket):
            def counted(omega, rows):
                live.append(omega.size)
                return fn(omega, rows)

            return refine(counted, row, *bracket)

        monkeypatch.setattr(region, "_refine", spy)
        trace = trace_boundary((1.0, 0.0, 1.0, 1.0), 10.0, 200, 20.0)
        assert len(live) <= 30 and len(trace.failures) == 594
        for _, message in trace.failures:
            omega = float(message.split(":")[0].removeprefix("omega="))
            k = round(omega / (2.0 * math.pi))
            assert k != 0 and abs(omega - 2.0 * math.pi * k) <= 1e-12
            assert message.endswith("beta must be finite, got nan")

    @pytest.mark.parametrize("l, points", [(100.0, 99), (1000.0, 955)])
    def test_every_pole_of_a_long_tube_is_a_gain_that_is_not_finite(self, l, points):
        # |D| grows with l/f, and so does the pole test: no pole of the gain
        # slips past it to fail the residual check instead
        trace = trace_boundary((1.0, 0.0, l, 1.0), 1.0, 3, 2.0)
        assert len(trace.points) == points and trace.failures
        for _, message in trace.failures:
            omega = float(message.split(":")[0].removeprefix("omega="))
            k = round(omega * l / (2.0 * math.pi))
            assert k != 0 and abs(omega - 2.0 * math.pi * k / l) <= 1e-12
            assert message.endswith("beta must be finite, got nan")

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

    def test_scan_past_the_budget_raises(self):
        # the turning points of cos(omega*l/f) lie pi*1e-12 apart up to the
        # search radius plus 1
        p = SystemParams(1, 5, 1, 1e6, 1e-6, 0)
        with pytest.raises(SampleBudgetExceeded, match=r"^axis scan needs 1\.1e\+12 points$"):
            axis_crossing_candidates(p)

    @pytest.mark.parametrize("beta, delta", [(1.0, -1000.0), (20.0, -709.0)])
    def test_overflowing_scan_is_typed(self, beta, delta):
        with pytest.raises(QuadratureNonInteger):
            axis_crossing_candidates(SystemParams(1, beta, delta, 1, 1, 1))

    @pytest.mark.parametrize(
        "beta, delta, l",
        [
            (1.0, -355.0, 1.0),
            (20.0, -354.0, 1.0),
            (2.0, -3.0, 25.0),
            (5.0, -3.0, 25.0),
            (1.0, -4.0, 20.0),
        ],
    )
    def test_far_negative_decay_lists_its_one_root(self, beta, delta, l):
        # The scan's moduli stay finite down to delta*l/f of about -709.43,
        # so the first two answer where a quartic in omega overflowed.  At
        # delta*l/f of -75 and -80 the one crossing lies within rounding of
        # the search radius, where the sign of a scan ending at the radius
        # is noise; the scan ends a relative 1e-12 past it.
        mpmath = pytest.importorskip("mpmath")
        [omega] = axis_crossing_candidates(SystemParams(1, beta, delta, l, 1, 1))

        def gap(w):
            w = mpmath.mpf(w)
            z = (1j * w + delta) * l
            return abs(1j * w + 1) * abs(1j * w + delta) - beta * abs(1 - mpmath.exp(-z))

        with mpmath.workdps(60):
            assert gap(omega * (1 - 1e-13)) < 0 < gap(omega * (1 + 1e-13))

    @pytest.mark.parametrize(
        "fixed, beta, count",
        [
            ((1.0, 0.0, 1000.0, 1.0), 10.0, 1405),
            ((0.3, 0.0, 300.0, 1.0), -7.0, 355),
            ((2.0, -0.002, 500.0, 0.7), 5.0, 261),
        ],
    )
    def test_long_tube_matches_a_dense_scan(self, fixed, beta, count):
        # |D| dips narrowly next to every other turning point of
        # cos(omega*l/f); a fixed 4000-point grid stepped over most of those
        # bumps (883, 293 and 249 listed).  The oracle counts the strict
        # sign changes of |i*omega + alpha||i*omega + delta| -
        # |beta||1 - exp(-w)| on 4,000,000 points, in chunks.
        alpha, delta, l, f = fixed
        omegas = axis_crossing_candidates(SystemParams(alpha, beta, delta, l, f, 1.0))
        top = region._search_radius(beta, delta, l, f) + 1.0
        x = delta * l / f
        flips, last = 0, None
        for chunk in np.array_split(np.linspace(0.0, top, 4_000_000), 20):
            # |1 - exp(-w)|^2 = (1 - exp(-x))^2 + 4 exp(-x) sin^2(omega*l/(2f))
            half = np.sin(chunk * l / (2.0 * f))
            modulus = np.sqrt(np.expm1(-x) ** 2 + 4.0 * np.exp(-x) * half**2)
            sign = np.sign(np.hypot(chunk, alpha) * np.hypot(chunk, delta) - abs(beta) * modulus)
            if last is not None:
                sign = np.concatenate(([last], sign))
            flips += int(np.count_nonzero(sign[:-1] * sign[1:] < 0.0))
            last = sign[-1]
        assert len(omegas) == flips == count
        assert omegas == sorted(omegas) and omegas[0] > 0.0

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


def per_row(scan, count):
    """_scan_roots' flat (row, root) pair as each of count rows' list of
    roots."""
    row, root = scan
    return [root[row == k].tolist() for k in range(count)]


def flat(roots):
    """Each row's list of roots as _scan_roots' flat (row, root) pair."""
    row = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    return row, np.array([w for r in roots for w in r], dtype=float)


def flat_rows(pairs):
    """Each row's (zeros, lefts) pair of index arrays, in row order, as
    _scan_roots' flat zeros and lefts: two (row, index) pairs."""
    zeros, lefts = zip(*pairs)

    def rows(arrays):
        row = np.repeat(np.arange(len(arrays)), [a.size for a in arrays])
        return row, np.concatenate(arrays).astype(np.int64)

    return rows(zeros), rows(lefts)


def scanned(fn, grid, pairs):
    """_scan_roots of fn over grid, from each row's (zeros, lefts) pair, its
    samples at grid[i] taken by fn."""
    return _scan_roots(fn, grid, *flat_rows(pairs))


class TestScanRoots:
    def test_grid_zero_masked_bracket_and_several_flips(self):
        grid = np.linspace(0.0, 10.0, 11)
        values = np.sin(grid)
        values[6] = math.nan  # drops the flip across 2*pi in [6, 7]

        def fn(w, rows):
            assert not np.any((6.0 <= w) & (w <= 7.0))
            return np.sin(w)

        (roots,) = per_row(scanned(fn, grid, [_flips(values)]), 1)
        assert roots[0] == 0.0
        assert roots[1:] == pytest.approx([math.pi, 3.0 * math.pi], abs=1e-12)

    def test_merges_roots_closer_than_merge_distance(self):
        grid = np.array([0.0, 1.0, 1.0 + 5e-10, 2.0])
        values = np.array([-1.0, 0.0, 0.0, 1.0])
        scan = scanned(lambda w, rows: np.sin(w), grid, [_flips(values)])
        assert per_row(scan, 1) == [[1.0]]

    def test_rows_are_refined_together_and_kept_apart(self):
        grid = np.linspace(0.5, 10.0, 20)
        shifts = np.array([0.0, 0.25, 0.5])
        calls = []

        def fn(w, rows):
            calls.append(w.size)
            return np.sin(w + shifts[rows])

        rows = (_flips(np.sin(grid + s)) for s in shifts)
        roots = per_row(scanned(fn, grid, rows), 3)
        for s, found in zip(shifts, roots):
            assert found == pytest.approx([k * math.pi - s for k in (1, 2, 3)], abs=1e-14)
        # one call steps the brackets of every row
        assert calls[0] == 9 and len(calls) < 12

    @staticmethod
    def refined_brackets(monkeypatch):
        """Spy on _refine: the list it appends a copy of every input to."""
        seen = []
        refine = region._refine

        def spy(fn, *bracket):
            seen.append([a.copy() for a in bracket])
            return refine(fn, *bracket)

        monkeypatch.setattr(region, "_refine", spy)
        return seen

    def test_nan_and_exact_zeros_of_a_sign_row_open_no_bracket(self, monkeypatch):
        seen = self.refined_brackets(monkeypatch)
        grid = np.linspace(0.0, 10.0, 11)
        signs = np.sign(np.sin(grid))  # 0 at omega = 0
        signs[6] = math.nan  # drops the flip across 2*pi in [6, 7]
        scan = scanned(lambda w, rows: np.sin(w), grid, [_flips(signs)])
        (roots,) = per_row(scan, 1)
        ((row, lo, hi, flo, fhi),) = seen
        assert lo.tolist() == [3.0, 9.0] and hi.tolist() == [4.0, 10.0]
        assert flo.tolist() == np.sin([3.0, 9.0]).tolist()
        assert roots[0] == 0.0
        assert roots[1:] == pytest.approx([math.pi, 3.0 * math.pi], abs=1e-12)
        # an exact zero between opposite signs is a root, and no bracket
        seen.clear()
        signs = np.array([1.0, 1.0, 0.0, -1.0, -1.0])
        scan = scanned(lambda w, rows: 2.0 - w, np.arange(5.0), [_flips(signs)])
        assert per_row(scan, 1) == [[2.0]]
        ((row, *_),) = seen
        assert row.size == 0

    def test_row_whose_ends_disagree_with_its_signs_is_rescanned(self, monkeypatch):
        # Each row's sign next to its first root is read wrongly, as a sign
        # within rounding of a root can be: the bracket it opens has ends
        # of one sign, so that row is scanned again by fn over the grid.
        seen = self.refined_brackets(monkeypatch)
        grid = np.linspace(0.5, 10.0, 20)
        shifts = np.array([0.0, 0.25, 0.5])
        whole = []

        def fn(w, rows):
            if w.size == grid.size:
                whole.append(rows.tolist())
            return np.sin(w + shifts[rows])

        rows = [np.sign(np.sin(grid + s)) for s in shifts]
        rows[0][6] = 1.0  # sin(3.5) < 0
        rows[1][5] = 1.0  # sin(3.25) < 0
        roots = per_row(scanned(fn, grid, map(_flips, rows)), 3)
        assert sorted(r[0] for r in whole) == [0, 1]
        assert all(set(r) == {r[0]} for r in whole)
        ((row, lo, hi, flo, fhi),) = seen
        assert np.all(np.sign(flo) * np.sign(fhi) < 0.0)
        assert np.array_equal(flo, np.sin(lo + shifts[row]))
        assert row.size == 9
        for s, found in zip(shifts, roots):
            assert found == pytest.approx([k * math.pi - s for k in (1, 2, 3)], abs=1e-14)


def product_rows(fixed, grid, taus):
    """Im(exp(i*omega*tau)*S(omega)) on the grid for each delay, S =
    (i*omega + alpha)/(alpha + omega)*conj(D): the products whose signs the
    trace reads from the phase's parity, sampled as products."""
    alpha = fixed[0]
    s = (1j * grid + alpha) / (alpha + grid) * np.conj(region._axis_factor(fixed, grid))
    return [(np.exp(1j * grid * tau) * s).imag for tau in taus]


def product_scan(fn, grid, rows):
    """A sign scan of sampled values whose brackets carry those samples as
    their end values, refined by _refine: the boundary trace's scan before
    it read signs from the phase's parity."""
    found, brackets = [], []
    for k, values in enumerate(rows):
        sign = np.sign(values)
        i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
        found += [(k, w) for w in grid[values == 0.0].tolist()]
        brackets.append((np.full(i.size, k), grid[i], grid[i + 1], values[i], values[i + 1]))
    row, *bracket = (np.concatenate(parts) for parts in zip(*brackets))
    found += zip(row.tolist(), region._refine(fn, row, *bracket).tolist())
    roots = [[] for _ in brackets]
    for k, w in sorted(found):
        if not roots[k] or w - roots[k][-1] > 1e-9:
            roots[k].append(w)
    return roots


def seeded_trace_families(count, seed=24):
    """(fixed, tau_max, num_tau, omega_max) for count traces: a third each
    with delta = 0 (omega_max 1 to 3 pole spacings 2*pi*f/l, so poles lie
    on or within rounding of grid points), delta < 0 and delta > 0."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        alpha = 10.0 ** rng.uniform(-2.0, 1.0)
        l, f = 10.0 ** rng.uniform(-0.5, 0.5, 2)
        delta = (0.0, rng.uniform(-2.0, 0.0), rng.uniform(0.0, 3.0))[n % 3]
        if delta == 0.0:
            omega_max = 2.0 * math.pi * f / l * rng.integers(1, 4)
        else:
            omega_max = rng.uniform(2.0, 20.0)
        yield (
            (float(alpha), float(delta), float(l), float(f)),
            float(rng.choice([0.5, 3.0, 10.0])),
            int(rng.choice([2, 5, 17])),
            float(omega_max),
        )


class TestParityScan:
    def test_brackets_and_exact_zeros_are_the_products(self, monkeypatch):
        # The trace reads each delay's signs from the parity of its phase;
        # what reaches _refine, and each delay's exact zeros, must be what a
        # scan of the sampled products gives, down to the last bit.
        seen = {}
        scan, refine = region._scan_roots, region._refine

        def scan_spy(fn, grid, *rows):
            seen["grid"] = grid
            seen["roots"] = scan(fn, grid, *rows)
            return seen["roots"]

        def refine_spy(fn, *bracket):
            seen["brackets"] = [a.copy() for a in bracket]
            seen["refined"] = refine(fn, *bracket)
            return seen["refined"]

        monkeypatch.setattr(region, "_scan_roots", scan_spy)
        monkeypatch.setattr(region, "_refine", refine_spy)
        region_map = (ONES, 10.0, 500, eig_bound_radius(10.0, 1.0) + 1.0)
        families = [region_map, *seeded_trace_families(201)]
        zeros = brackets = 0
        for fixed, tau_max, num_tau, omega_max in families:
            trace_boundary(fixed, tau_max, num_tau, omega_max)
            grid = seen["grid"]
            row, lo, hi, flo, fhi = seen["brackets"]
            taus = np.arange(num_tau) * tau_max / (num_tau - 1)
            roots = per_row(seen["roots"], num_tau)
            for k, values in enumerate(product_rows(fixed, grid, taus)):
                sign = np.sign(values)
                i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
                mine = row == k
                assert np.array_equal(lo[mine], grid[i]) and np.array_equal(hi[mine], grid[i + 1])
                assert np.array_equal(flo[mine], values[i])
                assert np.array_equal(fhi[mine], values[i + 1])
                expected = []
                exact = grid[values == 0.0].tolist()
                for w in sorted(exact + seen["refined"][mine].tolist()):
                    if not expected or w - expected[-1] > 1e-9:
                        expected.append(w)
                assert roots[k] == expected
                zeros += len(exact)
                brackets += i.size
        # every delay's omega = 0, and the brackets of the region map alone
        assert zeros >= sum(family[2] for family in families) and brackets > 5500

    @staticmethod
    def parity_pairs_and_sign_rows(monkeypatch, families):
        """Each delay's (zeros, lefts) pair as the trace hands it to
        _scan_roots, with the sign row (-1)^floor((omega*tau + arg S)/pi),
        0 where S is 0 or omega is 0 and NaN where S is NaN, sampled."""
        seen = {}
        scan = region._scan_roots

        def scan_spy(fn, grid, zeros, lefts, *rest):
            seen["grid"], seen["rows"] = grid, (zeros, lefts)
            return scan(fn, grid, zeros, lefts, *rest)

        monkeypatch.setattr(region, "_scan_roots", scan_spy)
        for fixed, tau_max, num_tau, omega_max in families:
            trace_boundary(fixed, tau_max, num_tau, omega_max)
            grid, alpha = seen["grid"], fixed[0]
            s = (1j * grid + alpha) / (alpha + grid) * np.conj(region._axis_factor(fixed, grid))
            nan = np.isnan(s)
            held = nan | (s == 0.0) | (grid == 0.0)
            arg = np.where(held, 0.0, np.angle(s) / np.pi)
            taus = np.arange(num_tau) * tau_max / (num_tau - 1)
            (zrow, zero), (row, left) = seen["rows"]
            # every delay has its omega = 0 zero, and the lefts come sorted
            assert np.array_equal(np.unique(zrow), np.arange(num_tau))
            assert np.all(np.diff(row * grid.size + left) > 0) and row.max(initial=0) < num_tau
            pairs = [(zero[zrow == k], left[row == k]) for k in range(num_tau)]
            for tau, pair in zip(taus.tolist(), pairs):
                turns = np.floor(grid / np.pi * tau + arg).astype(np.int64)
                signs = np.where(turns & 1, -1.0, 1.0)
                signs[held] = np.where(nan[held], np.nan, 0.0)
                yield pair, signs

    def test_parity_pairs_are_the_flips_of_the_sign_rows(self, monkeypatch):
        region_map = (ONES, 10.0, 500, eig_bound_radius(10.0, 1.0) + 1.0)
        families = [region_map, *seeded_trace_families(150, seed=26)]
        rows = 0
        for (zeros, lefts), signs in self.parity_pairs_and_sign_rows(monkeypatch, families):
            expected_zeros, expected_lefts = _flips(signs)
            assert np.array_equal(zeros, expected_zeros) and np.array_equal(lefts, expected_lefts)
            rows += 1
        assert rows == sum(family[2] for family in families)

    def test_columns_where_s_is_nan_or_zero_are_held(self, monkeypatch):
        # S is NaN or 0 on the scan grid only within rounding of a pole, so
        # a stand-in D puts NaN and 0 at fixed columns of the 4000-point grid.
        factor = region._axis_factor

        def holed(fixed, omega):
            d = factor(fixed, omega)
            if np.size(omega) == 4000:
                d[1000::700], d[1350::700] = np.nan, 0.0
            return d

        monkeypatch.setattr(region, "_axis_factor", holed)
        families = [(ONES, 10.0, 7, 5.0), ((0.5, -1.0, 2.0, 1.0), 3.0, 5, 8.0)]
        for (zeros, lefts), signs in self.parity_pairs_and_sign_rows(monkeypatch, families):
            assert zeros.tolist() == [0, *range(1350, 4000, 700)]
            expected_zeros, expected_lefts = _flips(signs)
            assert np.array_equal(zeros, expected_zeros) and np.array_equal(lefts, expected_lefts)
            held = np.flatnonzero(np.isnan(signs) | (signs == 0.0))
            assert not np.isin(lefts, held).any() and not np.isin(lefts + 1, held).any()

    def test_only_crossings_with_a_nan_batch_residual_are_checked_alone(self, monkeypatch):
        # SystemParams is built in region only for a crossing's own check
        built = []
        monkeypatch.setattr(region, "SystemParams", lambda *a: built.append(a) or SystemParams(*a))
        region_map = trace_boundary(ONES, 10.0, 500, eig_bound_radius(10.0, 1.0) + 1.0)
        assert len(region_map.points) == 5500 and built == []
        # char_fn's pole at -alpha lies at every omega = 0 crossing, so the
        # batch residual is NaN and every crossing is checked alone
        tiny = trace_boundary((1e-13, 1.0, 1.0, 1.0), 3.0, 5)
        assert (len(built), len(tiny.points), len(tiny.failures)) == (23, 18, 5)
        assert all("pole at lambda" in message for _, message in tiny.failures)

    def test_region_map_trace_is_the_product_scans_bit_for_bit(self, monkeypatch):
        fixed, tau_max, num_tau = ONES, 10.0, 500
        omega_max = eig_bound_radius(10.0, 1.0) + 1.0
        trace = trace_boundary(fixed, tau_max, num_tau, omega_max)
        taus = np.arange(num_tau) * tau_max / (num_tau - 1)

        def by_product(fn, grid, *rows):
            return flat(product_scan(fn, grid, product_rows(fixed, grid, taus)))

        monkeypatch.setattr(region, "_scan_roots", by_product)
        assert len(trace.points) == 5500 and trace.failures == ()
        assert repr(trace_boundary(fixed, tau_max, num_tau, omega_max)) == repr(trace)

    @staticmethod
    def scan_parts(monkeypatch):
        """Spy on the flip scan's two parts: the steps that each is given."""
        given = {"lean": 0, "dense": 0}
        lean, dense = region._lean_flips, region._dense_flips

        def lean_spy(grid_pi, arg, taus, step):
            given["lean"] += step.size
            return lean(grid_pi, arg, taus, step)

        def dense_spy(grid_pi, arg, taus, heavy):
            given["dense"] += int(heavy.sum())
            return dense(grid_pi, arg, taus, heavy)

        monkeypatch.setattr(region, "_lean_flips", lean_spy)
        monkeypatch.setattr(region, "_dense_flips", dense_spy)
        return given

    def assert_pairs_are_the_sign_rows(self, monkeypatch, families):
        """Each delay's pair against its sampled sign row; returns the
        number of lefts of each family's tau = 0 row."""
        pairs = list(self.parity_pairs_and_sign_rows(monkeypatch, families))
        for (zeros, lefts), signs in pairs:
            expected_zeros, expected_lefts = _flips(signs)
            assert np.array_equal(zeros, expected_zeros) and np.array_equal(lefts, expected_lefts)
        firsts = np.cumsum([0] + [family[2] for family in families[:-1]])
        return [pairs[k][0][1].size for k in firsts]

    def test_tau_zero_rows_and_two_delays(self, monkeypatch):
        # At tau = 0 the turn count is floor(arg S/pi), which flips where S
        # crosses the real axis; with num_tau = 2 the delays are 0 and
        # tau_max alone.
        families = [
            ((0.5, -1.0, 2.0, 1.0), 30.0, 2, 10.0),
            (ONES, 10.0, 2, 6.0),
            ((0.5, -1.0, 2.0, 1.0), 3.0, 60, 8.0),
        ]
        assert self.assert_pairs_are_the_sign_rows(monkeypatch, families) == [6, 0, 5]

    def test_few_delays_over_a_wide_window_scan_every_delay(self, monkeypatch):
        # Steps whose lines cross more than one integer per _STEP_COST
        # delays take every delay; the 40-delay window splits between the
        # two parts, and three delays over a wide window leave none lean.
        given = self.scan_parts(monkeypatch)
        self.assert_pairs_are_the_sign_rows(monkeypatch, [(ONES, 30.0, 3, 20.0)])
        assert given == {"lean": 0, "dense": 3998}
        given.update(lean=0, dense=0)
        self.assert_pairs_are_the_sign_rows(monkeypatch, [(ONES, 10.0, 40, None)])
        assert given["lean"] > 900 and given["dense"] > 2900

    def test_phase_that_jumps_by_about_pi_between_neighbours(self, monkeypatch):
        # A stand-in D turned by 0.97*pi or pi on bands of the 4000-point
        # grid: across each band edge the two lines of a step lie about a
        # unit apart, where a step's candidate intervals are wide and can
        # overlap; the bands sit in both parts of the scan.
        factor = region._axis_factor

        def turned(fixed, omega):
            d = factor(fixed, omega)
            if np.size(omega) == 4000:
                d[500:900] *= np.exp(0.97j * np.pi)
                d[1500:1501] *= -1.0
                d[2000:2400] *= np.exp(-0.99j * np.pi)
                d[3900:3950] *= -1.0
            return d

        monkeypatch.setattr(region, "_axis_factor", turned)
        given = self.scan_parts(monkeypatch)
        self.assert_pairs_are_the_sign_rows(monkeypatch, [(ONES, 10.0, 60, 3.0)])
        assert given["lean"] > 3000 and given["dense"] > 0

    def test_turn_counts_exactly_on_integers(self):
        # Dyadic slopes, delays and phases make grid_pi*tau + arg exact, so
        # turn counts sit exactly on integers, at the edge of the candidate
        # intervals.  Columns 1-4 rise by less than the slack and those from
        # 3000 by more than 1/_STEP_COST a delay: both take every delay.
        rng = np.random.default_rng(33)
        j = np.arange(4000)
        grid_pi = np.where(j < 3000, j / 2.0**14, j / 2.0**8)
        grid_pi[1:5] = np.arange(1, 5) * 1e-12
        taus = np.arange(64) * 15.75 / 63  # k/4, exactly
        arg = rng.integers(-(2**16), 2**16 + 1, j.size) / 2.0**16
        arg[::3] = 0.25  # runs of smooth phase between the jumps
        cols = rng.choice(np.arange(5, 3000), 600, replace=False)
        x = grid_pi[cols] * taus[rng.integers(0, 64, cols.size)]
        arg[cols] = np.round(x) - x
        # steps whose lines lie 1 - 2**-35 apart, each just below an
        # integer at one delay: the delay lies in two candidate intervals
        close = rng.choice(np.arange(5, 2999, 3), 20, replace=False)
        tau = taus[rng.integers(1, 64, close.size)]
        x = grid_pi[close] * tau
        arg[close] = np.floor(x) - x - 2.0**-34
        arg[close + 1] = arg[close] + 1.0 - 2.0**-35 - (grid_pi[close + 1] - grid_pi[close]) * tau
        held = rng.random(j.size) < 0.02
        held[0] = True
        held[close] = held[close + 1] = False
        arg[held] = 0.0
        free = ~(held[:-1] | held[1:])
        turns = np.multiply.outer(taus, grid_pi) + arg
        assert np.count_nonzero((turns == np.floor(turns))[:, 5:-1] & free[5:]) > 600
        row, left = region._odd_steps(grid_pi, arg, free, taus)
        expected = []
        for k, tau in enumerate(taus.tolist()):
            step = 0.5 * np.diff(np.floor(grid_pi * tau + arg))
            expected.append(k * j.size + np.flatnonzero(free & (step != np.floor(step))))
        assert np.array_equal(row * j.size + left, np.concatenate(expected))
        assert row.size > 50000

    @pytest.mark.parametrize(
        "args, bound_mb",
        # The README's trace, and three delays over a window whose steps
        # each cross about 95 integers
        [((ONES, 10.0, 500), 2.5), ((ONES, 30.0, 3, 20.0), 1.0)],
        ids=["readme", "dense-steps"],
    )
    def test_peak_memory_of_a_trace(self, args, bound_mb):
        trace_boundary(*args)
        tracemalloc.start()
        try:
            trace_boundary(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


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
