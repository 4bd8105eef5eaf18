"""The package's public names, written out so that adding or removing one
shows up as a change to this file."""

import math

import pytest

import delaystab
from delaystab import ContourBox, SimConfig, SystemParams
from delaystab.errors import InvalidParameter

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


ONES = (1.0, 1.0, 1.0, 1.0)
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
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise_invalid_parameter(call):
    # InvalidParameter is a ValueError, so callers catching that still work
    with pytest.raises(InvalidParameter):
        call()
