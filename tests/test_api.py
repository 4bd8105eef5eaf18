"""The package's public names, written out so that adding or removing one
shows up as a change to this file."""

import delaystab

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
    "SweepNode",
    "SystemParams",
    "TraceResult",
    "UnresolvedCell",
    "axis_crossing_candidates",
    "beta_on_axis",
    "char_fn",
    "char_fn_no_delay",
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
    "monotonicity_margin",
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
