"""The package's public names, written out so that adding or removing one
shows up as a change to this file."""

import functools
import math
import warnings

import pytest

import delaystab
from delaystab import ContourBox, SimConfig, SystemParams
from delaystab.errors import InvalidParameter, NonFiniteField

PUBLIC_NAMES = [
    "BelowThreshold",
    "BoundaryPoint",
    "ContourBox",
    "DecayCertificate",
    "EnergySample",
    "EnergyTrace",
    "Evidence",
    "ExclusionReport",
    "FitResult",
    "Label",
    "RegionLabel",
    "Root",
    "RootSet",
    "SimConfig",
    "SimState",
    "SimTrace",
    "SimulationOverflow",
    "SweepNode",
    "SystemParams",
    "TraceResult",
    "axis_crossing_candidates",
    "beta_on_axis",
    "char_fn",
    "char_num",
    "char_num_prime",
    "classify",
    "count_zeros",
    "decay_certificate",
    "default_box",
    "eig_bound_radius",
    "energy",
    "exclusions",
    "find_roots",
    "fit_decay_rate",
    "init_state",
    "oscillation_fast_path",
    "phase_residual",
    "run",
    "sine_profile",
    "spectral_bound",
    "spectrum",
    "state_norm_sq",
    "step",
    "sweep",
    "threshold_gain",
    "trace_boundary",
    "zero_fn",
]


def test_all_is_the_listed_names_in_sorted_order():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert delaystab.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in delaystab.__all__ if not hasattr(delaystab, name)]
    assert missing == []


def _energy_with_gamma(gamma):
    p = SystemParams(1, 1, 1, 1, 1, 0.3)
    zero = delaystab.zero_fn
    state = delaystab.init_state(p, SimConfig(10, 1.0, 1.0), zero, 0.0, zero)
    return delaystab.energy(state, p, gamma)


def _init_state(c0=delaystab.zero_fn, a0=0.0, history=delaystab.zero_fn, tau=0.3, f=1):
    p = SystemParams(1, 1, 1, 1, f, tau)
    return delaystab.init_state(p, SimConfig(10, 1.0, 1.0), c0, a0, history)


def _nan_off_zero(x):
    return 0.0 if x == 0.0 else math.nan


def _past_range_off_zero(x):
    return 0.0 if x == 0.0 else 10**400


ONES = (1.0, 1.0, 1.0, 1.0)
POINT = SystemParams(1, 0.5, 1, 1, 1, 0.3)
BAD_ARGUMENTS = {
    "box-non-finite": lambda: ContourBox(0.0, 1.0, 0.0, math.nan),
    "box-degenerate": lambda: ContourBox(1.0, 0.0, 0.0, 1.0),
    "sweep-grid": lambda: delaystab.sweep(ONES, (0, 1), (0, 1), (1, 5)),
    "sweep-range": lambda: delaystab.sweep(ONES, (0, math.inf), (0, 1), (2, 2)),
    "sweep-float-grid": lambda: delaystab.sweep(ONES, (0, 1), (0, 1), (2.5, 3)),
    "sweep-three-grid-counts": lambda: delaystab.sweep(ONES, (0, 1), (0, 1), (2, 2, 2)),
    "sweep-one-ended-range": lambda: delaystab.sweep(ONES, (-1,), (0, 1), (2, 2)),
    "sweep-range-span-overflows": lambda: delaystab.sweep(ONES, (1e308, -1e308), (0, 1), (2, 2)),
    "phase-residual-nan-omega": lambda: delaystab.phase_residual(ONES, math.nan, 1.0),
    "phase-residual-inf-tau": lambda: delaystab.phase_residual(ONES, 0.5, math.inf),
    "beta-on-axis-inf-omega": lambda: delaystab.beta_on_axis(ONES, math.inf, 1.0),
    "beta-on-axis-nan-tau": lambda: delaystab.beta_on_axis(ONES, 0.5, math.nan),
    "trace-float-steps": lambda: delaystab.trace_boundary(ONES, 10.0, 5.5),
    "exclusions-zero-gain": lambda: delaystab.exclusions(SystemParams(1, 0, 2, 1, 1, 1)),
    "energy-gamma": lambda: _energy_with_gamma(0.0),
    "simconfig-nx": lambda: SimConfig(nx=1, t_final=1.0, gamma=0.5),
    "certificate-zero-gamma": lambda: delaystab.decay_certificate(
        SystemParams(1, 0.5, 1, 1, 1, 0.3), gamma=0.0
    ),
    "init-state-a0-nan": lambda: _init_state(a0=math.nan),
    "init-state-a0-inf": lambda: _init_state(a0=math.inf),
    "init-state-c0-nan-at-inflow": lambda: _init_state(c0=lambda x: math.nan),
    "init-state-c0-nan-inside": lambda: _init_state(c0=_nan_off_zero),
    "init-state-history-nan-at-head": lambda: _init_state(history=lambda s: math.nan),
    "init-state-history-nan-in-window": lambda: _init_state(history=_nan_off_zero),
    "init-state-delay-past-index-range": lambda: _init_state(tau=1e300, f=1e300),
    "init-state-c0-past-the-float-range": lambda: _init_state(c0=_past_range_off_zero),
    "init-state-history-past-the-float-range": lambda: _init_state(history=_past_range_off_zero),
    "default-box-negative-sigma": lambda: delaystab.default_box(POINT, -1.0),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise_invalid_parameter(call):
    # InvalidParameter is a ValueError, so callers catching that still work
    with pytest.raises(InvalidParameter):
        call()


def _params_with(name, value):
    fields = dict(alpha=1, beta=0.5, delta=1, l=1, f=1, tau=0.3)
    fields[name] = value
    return SystemParams(**fields)


def _box_with(name, value):
    corners = dict(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0)
    corners[name] = value
    return ContourBox(**corners)


# Every real argument of every entry point, as a call of the one value.
REAL_ARGUMENTS = {
    **{
        f"params-{name}": functools.partial(_params_with, name)
        for name in ("alpha", "beta", "delta", "l", "f", "tau")
    },
    "certificate-gamma": lambda x: delaystab.decay_certificate(POINT, gamma=x),
    **{
        f"box-{name}": functools.partial(_box_with, name)
        for name in ("re_min", "re_max", "im_min", "im_max")
    },
    "find-roots-tol": lambda x: delaystab.find_roots(POINT, ContourBox(-1, 1, -1, 1), x),
    "spectrum-sigma": lambda x: delaystab.spectrum(POINT, x),
    "spectrum-tol": lambda x: delaystab.spectrum(POINT, 1e-6, x),
    "spectral-bound-sigma": lambda x: delaystab.spectral_bound(POINT, x),
    "default-box-sigma": lambda x: delaystab.default_box(POINT, x),
    "classify-eps0": lambda x: delaystab.classify(POINT, x),
    "sweep-eps0": lambda x: delaystab.sweep(ONES, (0, 1), (0, 1), (2, 2), eps0=x),
    "sweep-beta-start": lambda x: delaystab.sweep(ONES, (x, 1), (0, 1), (2, 2)),
    "sweep-beta-stop": lambda x: delaystab.sweep(ONES, (0, x), (0, 1), (2, 2)),
    "sweep-tau-start": lambda x: delaystab.sweep(ONES, (0, 1), (x, 1), (2, 2)),
    "sweep-tau-stop": lambda x: delaystab.sweep(ONES, (0, 1), (0, x), (2, 2)),
    "phase-residual-omega": lambda x: delaystab.phase_residual(ONES, x, 1.0),
    "phase-residual-tau": lambda x: delaystab.phase_residual(ONES, 0.5, x),
    "beta-on-axis-omega": lambda x: delaystab.beta_on_axis(ONES, x, 1.0),
    "beta-on-axis-tau": lambda x: delaystab.beta_on_axis(ONES, 0.5, x),
    "trace-tau-max": lambda x: delaystab.trace_boundary(ONES, x, 3),
    "trace-omega-max": lambda x: delaystab.trace_boundary(ONES, 1.0, 3, x),
    "fast-path-beta": lambda x: delaystab.oscillation_fast_path(ONES, x),
    "simconfig-t-final": lambda x: SimConfig(10, x),
    "simconfig-gamma": lambda x: SimConfig(10, 1.0, x),
    "init-state-a0": lambda x: _init_state(a0=x),
    "energy-gamma": _energy_with_gamma,
}
NOT_FINITE = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "int-past-the-range": 10**400,
    "-int-past-the-range": -(10**400),
}


@pytest.mark.parametrize("value", NOT_FINITE.values(), ids=NOT_FINITE.keys())
@pytest.mark.parametrize("call", REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS.keys())
def test_a_real_argument_that_is_not_finite_is_refused(call, value):
    # NonFiniteField is an InvalidParameter; no bare OverflowError, no
    # RuntimeWarning and no value for any of them
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteField):
            call(value)
