"""The package's public names, written out so that adding or removing one
shows up as a change to this file."""

import dataclasses
import functools
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
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
    "init-state-c0-complex-at-inflow": lambda: _init_state(c0=lambda x: 0j),
    "init-state-c0-complex-inside": lambda: _init_state(c0=lambda x: 0.0 if x == 0.0 else 1j),
    "init-state-history-complex-at-head": lambda: _init_state(history=lambda s: 0j),
    "init-state-history-complex-in-window": lambda: _init_state(
        history=lambda s: 0.0 if s == 0.0 else 1j
    ),
    "init-state-c0-unparsed-str": lambda: _init_state(c0=lambda x: "abc"),
    "init-state-c0-sequence": lambda: _init_state(c0=lambda x: [1.0]),
    "init-state-history-unparsed-str-at-head": lambda: _init_state(history=lambda s: "abc"),
    "init-state-history-sequence-at-head": lambda: _init_state(history=lambda s: [1.0]),
    "init-state-history-unparsed-str-in-window": lambda: _init_state(
        history=lambda s: 0.0 if s == 0.0 else "abc"
    ),
    "init-state-history-sequence-in-window": lambda: _init_state(
        history=lambda s: 0.0 if s == 0.0 else [1.0]
    ),
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


# Every count argument of every entry point, as a call of the one count.
COUNT_ARGUMENTS = {
    "simconfig-nx": lambda n: SimConfig(n, 1.0),
    "simconfig-output-stride": lambda n: SimConfig(10, 1.0, output_stride=n),
    "sweep-n-beta": lambda n: delaystab.sweep(ONES, (0, 1), (0, 1), (n, 2)),
    "sweep-n-tau": lambda n: delaystab.sweep(ONES, (0, 1), (0, 1), (2, n)),
    "sweep-workers": lambda n: delaystab.sweep(ONES, (0, 1), (0, 1), (2, 2), workers=n),
    "trace-num-tau": lambda n: delaystab.trace_boundary(ONES, 1.0, n, 5.0),
}
# Counts with no upper bound admit 2**60: a stride past every run, and as
# many workers as the CPUs allow.
UNBOUNDED_COUNTS = ("simconfig-output-stride", "sweep-workers")
BAD_COUNTS = {
    "nan": (math.nan, NonFiniteField),
    "inf": (math.inf, NonFiniteField),
    "not-integral": (1.5, InvalidParameter),
    "zero": (0, InvalidParameter),
    "negative": (-1, InvalidParameter),
    "str": ("3", InvalidParameter),
    "2**60": (2**60, InvalidParameter),
}


@pytest.mark.parametrize("value, error", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_a_bad_count_is_refused(name, value, error):
    if value == 2**60 and name in UNBOUNDED_COUNTS:
        pytest.skip("no upper bound")
    with pytest.raises(InvalidParameter) as caught:
        COUNT_ARGUMENTS[name](value)
    assert type(caught.value) is error


INTEGRAL = {
    "float": 3.0, "int64": np.int64(3), "float32": np.float32(3.0), "fraction": Fraction(3)
}


@pytest.mark.parametrize("value", INTEGRAL.values(), ids=INTEGRAL.keys())
@pytest.mark.parametrize("name", [name for name in COUNT_ARGUMENTS if name != "sweep-workers"])
def test_an_integral_count_is_taken_as_the_int(name, value):
    # 10.0 is taken as 10 everywhere, as SimConfig documents
    assert COUNT_ARGUMENTS[name](value) == COUNT_ARGUMENTS[name](3)


# Every entry point that takes a family (alpha, delta, l, f), as a call of it.
FAMILY_ARGUMENTS = {
    "fast-path": lambda fixed: delaystab.oscillation_fast_path(fixed, 2.0),
    "sweep": lambda fixed: delaystab.sweep(fixed, (0, 1), (0, 1), (2, 2)),
    "trace": lambda fixed: delaystab.trace_boundary(fixed, 1.0, 3, 5.0),
    "phase-residual": lambda fixed: delaystab.phase_residual(fixed, 0.5, 1.0),
    "beta-on-axis": lambda fixed: delaystab.beta_on_axis(fixed, 0.5, 1.0),
}
BAD_FAMILIES = {
    "three": (1.0, 1.0, 1.0),
    "five": (1.0, 1.0, 1.0, 1.0, 1.0),
    "none": None,
    "list": [1.0, 1.0, 1.0, 1.0],
}


@pytest.mark.parametrize("fixed", BAD_FAMILIES.values(), ids=BAD_FAMILIES.keys())
@pytest.mark.parametrize("call", FAMILY_ARGUMENTS.values(), ids=FAMILY_ARGUMENTS.keys())
def test_a_family_that_is_not_a_four_tuple_is_refused(call, fixed):
    with pytest.raises(InvalidParameter) as caught:
        call(fixed)
    assert type(caught.value) is InvalidParameter
    assert str(caught.value).startswith("fixed must be a tuple (alpha, delta, l, f), got ")


# Every pair argument of every entry point: its name in the message, and a
# call of the one pair.
PAIR_ARGUMENTS = {
    "sweep-grid-counts": ("grid_counts", lambda v: delaystab.sweep(ONES, (0, 1), (0, 1), v)),
    "sweep-beta-range": ("beta_range", lambda v: delaystab.sweep(ONES, v, (0, 1), (2, 2))),
    "sweep-tau-range": ("tau_range", lambda v: delaystab.sweep(ONES, (0, 1), v, (2, 2))),
    "fit-window": ("the window", lambda v: delaystab.fit_decay_rate(_decaying_trace(), v)),
}
NOT_PAIRS = {"none": None, "int": 5, "float": 1.5, "one": (1,), "three": (0, 1, 2)}


@pytest.mark.parametrize("value", NOT_PAIRS.values(), ids=NOT_PAIRS.keys())
@pytest.mark.parametrize("name", PAIR_ARGUMENTS)
def test_a_pair_argument_that_is_not_a_pair_is_refused(name, value):
    # None and a number raised a bare TypeError from len()
    argument, call = PAIR_ARGUMENTS[name]
    with pytest.raises(InvalidParameter) as caught:
        call(value)
    assert type(caught.value) is InvalidParameter
    assert str(caught.value) == f"{argument} must be a pair, got {value}"


NOT_REAL = {"str": "1", "bad-str": "abc", "none": None, "complex": 1j, "decimal": Decimal("1")}
# None stands for the default weight f*exp(-tau), or the default window
NONE_ADMITTED = ("certificate-gamma", "simconfig-gamma", "energy-gamma", "trace-omega-max")


@pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_a_real_argument_that_is_not_a_real_number_is_refused(name, value):
    # a str was admitted, a bad one and None raised a bare error, and a
    # Decimal was admitted and failed later
    if value is None and name in NONE_ADMITTED:
        pytest.skip("None is the default")
    with pytest.raises(InvalidParameter) as caught:
        REAL_ARGUMENTS[name](value)
    assert type(caught.value) is InvalidParameter
    assert f"must be a real number, got {type(value).__name__}" in str(caught.value)


@functools.cache
def _decaying_trace():
    p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
    _, trace = delaystab.run(p, SimConfig(10, 5.0), delaystab.sine_profile(1.0), 1.0,
                             delaystab.zero_fn)
    return trace


SPECTRAL = SystemParams(1, 0.5, 1, 1, 1, 5)  # no certificate, no fast path
CERTIFIED = SystemParams(2, 0.5, 1, 1, 3, 0.3)  # gamma in (2/7, 3*exp(-0.3)]
# Every real argument of every entry point, as (a call of the one value, an
# admissible value, an admissible integer or None).
TYPED_CALLS = {
    **{
        f"params-{name}": (functools.partial(_params_with, name), value, k)
        for name, value, k in [
            ("alpha", 1.3, 2), ("beta", 0.7, 1), ("delta", 0.7, 2),
            ("l", 1.3, 1), ("f", 1.3, 2), ("tau", 0.3, 1),
        ]
    },
    "certificate-gamma": (lambda x: delaystab.decay_certificate(CERTIFIED, gamma=x), 0.7, 1),
    **{
        f"box-{name}": (functools.partial(_box_with, name), value, k)
        for name, value, k in [
            ("re_min", -1.3, -2), ("re_max", 1.3, 2), ("im_min", -1.3, -2), ("im_max", 1.3, 2),
        ]
    },
    "find-roots-tol": (
        lambda x: delaystab.find_roots(SPECTRAL, ContourBox(-1, 1, 0.5, 1.5), x), 1e-9, None
    ),
    "spectrum-sigma": (lambda x: delaystab.spectrum(SPECTRAL, x), 0.3, 1),
    "spectrum-tol": (lambda x: delaystab.spectrum(SPECTRAL, 1e-6, x), 1e-9, None),
    "spectral-bound-sigma": (lambda x: delaystab.spectral_bound(SPECTRAL, x), 0.3, 1),
    "default-box-sigma": (lambda x: delaystab.default_box(SPECTRAL, x), 0.3, 1),
    "classify-eps0": (lambda x: delaystab.classify(SPECTRAL, x), 1e-7, None),
    "sweep-eps0": (lambda x: delaystab.sweep(ONES, (0, 1), (0, 5), (2, 2), eps0=x), 1e-7, None),
    "sweep-beta-start": (lambda x: delaystab.sweep(ONES, (x, 1), (0, 1), (2, 2)), -0.3, -1),
    "sweep-beta-stop": (lambda x: delaystab.sweep(ONES, (0, x), (0, 1), (2, 2)), 0.7, 2),
    "sweep-tau-start": (lambda x: delaystab.sweep(ONES, (0, 1), (x, 1), (2, 2)), 0.3, 0),
    "sweep-tau-stop": (lambda x: delaystab.sweep(ONES, (0, 1), (0, x), (2, 2)), 0.7, 2),
    "sweep-family": (lambda x: delaystab.sweep((1, x, 1, 1), (0, 1), (0, 1), (2, 2)), 0.7, 2),
    "phase-residual-omega": (lambda x: delaystab.phase_residual(ONES, x, 1.0), 0.7, 1),
    "phase-residual-tau": (lambda x: delaystab.phase_residual(ONES, 0.5, x), 0.3, 1),
    "phase-residual-family": (lambda x: delaystab.phase_residual((1, x, 1, 1), 0.5, 1.0), 0.7, 2),
    "beta-on-axis-omega": (lambda x: delaystab.beta_on_axis(ONES, x, 1.0), 0.7, 1),
    "beta-on-axis-tau": (lambda x: delaystab.beta_on_axis(ONES, 0.5, x), 0.3, 1),
    "trace-tau-max": (lambda x: delaystab.trace_boundary(ONES, x, 3), 0.7, 1),
    "trace-omega-max": (lambda x: delaystab.trace_boundary(ONES, 1.0, 3, x), 4.3, 5),
    "trace-family": (lambda x: delaystab.trace_boundary((1, x, 1.3, 1), 2, 5, 5), 0.7, 2),
    "fast-path-beta": (lambda x: delaystab.oscillation_fast_path(ONES, x), 2.3, 2),
    "fast-path-family": (
        lambda x: delaystab.oscillation_fast_path((1.0, x, 1.3, 1.0), 1.2), 0.7, 2
    ),
    "threshold-gain-delta": (lambda x: delaystab.threshold_gain(1.0, x, 1.3, 1.0), 0.7, 2),
    "eig-bound-radius-beta": (lambda x: delaystab.eig_bound_radius(x, 0.7), 0.3, 2),
    "eig-bound-radius-delta": (lambda x: delaystab.eig_bound_radius(0.3, x), 0.7, 2),
    "simconfig-t-final": (lambda x: SimConfig(10, x), 0.7, 1),
    "simconfig-gamma": (lambda x: SimConfig(10, 1.0, x), 0.7, 1),
    "init-state-a0": (lambda x: _init_state(a0=x), 0.7, 1),
    "energy-gamma": (_energy_with_gamma, 0.7, 1),
    "fit-window-start": (lambda x: delaystab.fit_decay_rate(_decaying_trace(), (x, 5.0)), 1.3, 1),
    "fit-window-end": (lambda x: delaystab.fit_decay_rate(_decaying_trace(), (0.0, x)), 4.3, 4),
}
ODD_TYPES = {
    "float32": lambda value, k: np.float32(value),
    "int64": lambda value, k: None if k is None else np.int64(k),
    "fraction": lambda value, k: Fraction(repr(value)),
}


def _same(got, want) -> bool:
    """got is want's value with want's types: field by field, item by item,
    arrays by np.array_equal."""
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    if type(got) is not type(want):
        return False
    if dataclasses.is_dataclass(want):
        return all(_same(getattr(got, f.name), getattr(want, f.name))
                   for f in dataclasses.fields(want))
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


@pytest.mark.parametrize("odd", ODD_TYPES.values(), ids=ODD_TYPES.keys())
@pytest.mark.parametrize("name", TYPED_CALLS)
def test_an_odd_real_type_gives_what_its_float_gives(name, odd):
    # every entry point computes with the float it admitted, never with the
    # caller's object
    call, value, k = TYPED_CALLS[name]
    odd_value = odd(value, k)
    if odd_value is None:
        pytest.skip("no admissible integer")
    assert _same(call(odd_value), call(float(odd_value)))


def test_threshold_gain_of_a_float32_is_the_float_answer():
    gain = delaystab.threshold_gain(1.0, np.float32(0.7), 1.3, 1.0)
    assert type(gain) is float and gain == 1.1715956086341717
