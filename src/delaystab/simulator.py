"""Time-domain integration of the delayed transport loop.

The transport equation is integrated by the method of characteristics at
unit CFL (dt = dx/f), which makes advection and self-decay exact; the
activation ODE uses its exact integrating-factor update with the delayed
boundary trace held over each step.  ``run`` integrates by the method of
steps (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, OUP 2003): over up to nx steps the profile is a closed form in
the profile those steps start from and their sources, so a step advances
only the outlet and the activation.  Over up to n_tau steps the delayed
input is already known, so a window of that many steps is linear
recurrences with known inputs: one that spans _BREAK_EVEN steps or more is
solved as arrays, each recurrence one running sum of scaled terms, and a
shorter one is stepped as floats.  A block of steps chains such segments,
and c(l, .) goes into a buffer that holds the delay windows of the block's
steps.  When the block ends it evaluates the energies of its output steps
at once, their c-integrals from prefix sums of the segments' start profiles
and their history terms from the part of the delay window they all share,
summed once, and two edges of one running sum each, and the buffer shifts
by the block's steps.  A run whose energy leaves the floating-point range
raises SimulationOverflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWindow,
    HistoryMismatch,
    IncompatibleBoundary,
    InvalidParameter,
    SimulationOverflow,
    _DELAY_SAMPLES,
    _count,
    _pair,
    _real,
)
from .params import SystemParams


@dataclass(frozen=True)
class SimConfig:
    """Discretization choices: nx cells on [0, l], final time, energy
    weight gamma and output stride (in steps).  gamma None is the decay
    certificate's weight f*exp(-tau), taken exactly for every tau.  nx is
    a count from 2 to below _DELAY_SAMPLES (2**24) and output_stride one of
    1 or more, each admitted by errors._count and stored as int, so 10.0 is
    taken as 10.  t_final and a gamma given are admitted by errors._real,
    finite and > 0, and stored as floats: one that is not finite (NaN, inf
    or an int past the float range) raises NonFiniteField."""

    nx: int
    t_final: float
    gamma: float | None = None
    output_stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "nx", _count("nx", self.nx, 2, _DELAY_SAMPLES - 1))
        object.__setattr__(self, "t_final", _real("t_final", self.t_final, 0))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", _real("gamma", self.gamma, 0))
        object.__setattr__(self, "output_stride", _count("output_stride", self.output_stride, 1))


@dataclass
class SimState:
    """Snapshot of the discrete system.

    c[j] samples the concentration at x = j*l/nx (c[0] pinned to 0); the
    1-D float array history holds c(l, .) at t, t-dt, ..., t-n_tau*dt (newest
    first), so its last entry is the delayed trace feeding the activation.
    tau_rounding_error reports |n_tau*dt - tau| from rounding the delay to
    the step grid.
    """

    t: float
    step_index: int
    c: np.ndarray
    a: float
    history: np.ndarray
    dt: float
    n_tau: int
    tau_rounding_error: float


@dataclass(frozen=True)
class EnergySample:
    t: float
    energy: float
    a_sq: float
    c_l: float


@dataclass(frozen=True, eq=False)
class EnergyTrace:
    """The energy and its two pointwise terms at each output time, as four
    1-D float arrays of one length.  Equality is by identity: == over
    arrays has no single truth value."""

    times: np.ndarray
    energies: np.ndarray
    a_sq: np.ndarray
    c_l: np.ndarray

    @property
    def samples(self) -> tuple[EnergySample, ...]:
        """The trace as one EnergySample of Python floats per output time,
        built on each access."""
        columns = (self.times, self.energies, self.a_sq, self.c_l)
        return tuple(map(EnergySample, *(a.tolist() for a in columns)))


@dataclass(frozen=True)
class SimTrace:
    states: tuple[SimState, ...]
    tau_rounding_error: float


@dataclass(frozen=True)
class FitResult:
    rate: float
    r_squared: float
    decayed_to_zero: bool = False


def _step_size(params: SystemParams, config: SimConfig) -> float:
    """The step dt = (l/nx)/f of init_state and run; one that underflows to
    0 or overflows to inf raises InvalidParameter."""
    dt = params.l / config.nx / params.f
    if not 0.0 < dt < math.inf:
        word = "underflows" if dt == 0.0 else "overflows"
        raise InvalidParameter(f"the step (l/nx)/f {word} to {dt!r}")
    return dt


# _sample takes this many samples at a time: a block's list of floats stays
# near 130 kB however long the profile or delay window is.
_SAMPLE_BLOCK = 4096


def _sample(fn, points: np.ndarray, refused: str) -> np.ndarray:
    """points with each replaced by fn(point), fn called once a point on a
    Python float, from the first; a block of _SAMPLE_BLOCK points at a time,
    so no list of them all is held.  A sample that numpy cannot store as a
    float, an int past the float range (OverflowError), a complex
    (TypeError), or a str it cannot parse or a sequence (ValueError), raises
    InvalidParameter(refused); an error that fn raises itself propagates as
    it is."""
    for block in np.split(points, range(_SAMPLE_BLOCK, points.size, _SAMPLE_BLOCK)):
        samples = list(map(fn, block.tolist()))
        try:
            block[:] = samples
        except (OverflowError, TypeError, ValueError):
            raise InvalidParameter(refused) from None
        # so that this block's samples are not held while the next are built
        del samples
    return points


def init_state(params: SystemParams, config: SimConfig, c0, a0: float, c_l_history) -> SimState:
    """Sample the initial profile and delay history onto the step grid.

    c0 maps [0, l] to the initial concentration (c0(0) must vanish) and
    c_l_history maps [-tau, 0] to the outflow trace, compatible with
    c_l_history(0) = c0(l).  An a0 that is not finite raises
    NonFiniteField (errors._real).  A profile or history sample that is not
    a finite real, an int past the float range, a complex, a str numpy
    cannot parse or a sequence included, raises InvalidParameter, and so
    does a step (l/nx)/f that underflows to 0 or overflows to inf, or a
    delay that rounds to _DELAY_SAMPLES steps or more, before any sample is
    taken.  (SimConfig refuses an nx of _DELAY_SAMPLES or more.)  A sample
    that is a str numpy parses as a float, such as "0.5", is taken as that
    float.  Each function is called once per sample, on Python floats
    (_sample): c0 from x = 0 up, c_l_history from 0 back to -tau.
    """
    a = _real("a0", a0)
    dt = _step_size(params, config)
    delay_steps = params.tau / dt
    # round() takes half to even, so this is round(delay_steps) < _DELAY_SAMPLES
    if not delay_steps < _DELAY_SAMPLES - 0.5:
        raise InvalidParameter(
            f"tau={params.tau!r} spans {delay_steps:.10g} steps, a delay window of more "
            f"than {_DELAY_SAMPLES} samples"
        )
    n_tau = round(delay_steps)
    refused = "c0 must be finite on [0, l]"
    c = _sample(c0, np.arange(config.nx + 1) * (params.l / config.nx), refused)
    # Written so that NaN fails the tolerance checks.
    if not abs(c[0]) <= 1e-12:
        raise IncompatibleBoundary(f"c0(0) = {c.item(0)!r} violates c(0, t) = 0")
    if not np.isfinite(c).all():
        raise InvalidParameter(refused)
    # the sample times 0, -dt, ..., -n_tau*dt (the head +0.0), the last
    # clipped to -tau, each replaced by its sample after the head's has been
    # checked
    history = np.arange(0.0, -n_tau - 1.0, -1.0)
    history *= dt
    np.maximum(history, -params.tau, out=history)
    refused = "c_l_history must be finite on [-tau, 0]"
    head = _sample(c_l_history, history[:1], refused).item()
    if not abs(head - c[-1]) <= 1e-10:
        raise HistoryMismatch(f"c_l_history(0) = {head!r} but c0(l) = {c.item(-1)!r}")
    _sample(c_l_history, history[1:], refused)
    if not np.isfinite(history).all():
        raise InvalidParameter(refused)
    # positional, in field order, as step and run build their states
    return SimState(0.0, 0, c, a, history, dt, n_tau, abs(n_tau * dt - params.tau))


def _rates(params: SystemParams, dt: float) -> tuple[float, float, float, float, float]:
    """The factors of one step dt, as (exp(-alpha*dt), 1 - exp(-alpha*dt),
    d, gain_c, delta): d = exp(-delta*dt) and gain_c = 1 - d, so that a
    step's source is beta*a_mid*gain_c/delta.  At delta = 0 they are that
    source's limit, d = 1, gain_c = dt and delta = 1 (c*1.0 and x/1.0 are
    exact).  A delta*dt below about -709.78, whose decay factor
    exp(-delta*dt) is past the floating-point range, raises
    SimulationOverflow."""
    decay_a = math.exp(-params.alpha * dt)
    gain_a = -math.expm1(-params.alpha * dt)
    delta = params.delta
    if delta == 0.0:
        return decay_a, gain_a, 1.0, dt, 1.0
    try:
        return decay_a, gain_a, math.exp(-delta * dt), -math.expm1(-delta * dt), delta
    except OverflowError:
        raise SimulationOverflow(
            f"exp(-delta*dt) overflows at delta*dt = {delta * dt!r}"
        ) from None


# A window of at least this many steps is taken as arrays, a shorter one
# as floats: below it the closed forms' numpy calls cost more than the float
# steps they replace (one march call of 40 steps took 40.5 us as arrays and
# 37.6 us as floats, of 48 steps 41.2 and 43.6 us; 2 shared cores).
_BREAK_EVEN = 44

# A window spans at most this many e-folds of q = exp(-alpha*dt) and of d**2,
# so q**-L and d**-2L stay below exp(354), about 1.3e153: a closed form's
# partial sum is at most that factor above a value whose square is finite.
# run's history edge sums scale their squares by at most exp(354) alike.
_WINDOW_RANGE = 354.0


def _march_fn(params: SystemParams, dt: float, n_tau: int, longest: int):
    """The n-step update for this step size, as (march, powers): powers
    holds d**0 .. d**longest, each within a rounding, not successive
    products whose roundings drift one way, and march and run read every
    power of d from it.  The factors (_rates), those powers and the scaled
    powers of the windows are computed once.

    march(c, a, buf, n) takes n steps from the profile c and the activation
    a.  buf holds c(l, .) oldest first, buf[i : i + n_tau + 1] the delay
    window after i steps; march writes the outlet after step i to
    buf[n_tau + 1 + i].  The steps go in segments of nx (at most longest),
    each from the profile it starts from, which is c for the first.  Over a
    segment the profile has a closed form in its start: with d =
    exp(-delta*dt), the step's source s_i = beta*a_mid*(1 - d)/delta (dt at
    delta = 0) and S_{r+1} = d*S_r + s_r, sample j after r steps is
    d**r*start[j-r] + S_r for j >= r.  So a step needs only the outlet
    start[nx-r], and the next segment's start is the samples fed over this
    one, one running sum over the sources array.

    A segment goes in windows of at most n_tau steps (method of steps): the
    delayed samples a window reads were all written before it starts, so
    the activation, S, and the sum and the sum of squares of the fed samples
    follow linear recurrences with known inputs.  A window of _BREAK_EVEN
    steps or more solves each as one running sum of scaled terms
    (_running_sums): a_k = q**k*(a_0 +
    sum_{j<k} g_j*q**-(j+1)) with q = exp(-alpha*dt) and g_j the step's
    delayed input times (1 - q)/alpha, and S, the fed sum and the fed sum of
    squares alike with the factors d, d and d**2.  A shorter window, and a
    segment whose windows would all be shorter (n_tau or nx below
    _BREAK_EVEN, or the _WINDOW_RANGE cap), is stepped as floats, whose
    results go into the arrays when their segment ends; step is those float
    formulas at n = 1.

    march returns the (n + 1, 4) table of (a, S_r, F_r, c(l)) after 0 to n
    steps, where r counts the steps of its segment, up to nx, so that a row's
    power is the power table's entry r, and F_r is the sum of the squares of
    the r - 1 samples 0 < j < r fed in the segment (row 0's F is
    -c[0]**2/2, since the carried-over sum weighs its inflow sample h where
    the trapezoid weighs it h/2); the sources s_0..s_{n-1}; and the start of
    every segment, c first, as the rows of one array.
    """
    alpha, beta = params.alpha, params.beta
    decay_a, gain_a, d, gain_c, delta = _rates(params, dt)
    lagged = n_tau >= 1
    ramp = np.arange(longest + 1.0)
    powers = d**ramp
    power_list = powers.tolist()
    rate = max(alpha, 2.0 * abs(params.delta)) * dt
    span = int(min(n_tau, longest, _WINDOW_RANGE / rate if rate else math.inf))
    if span >= _BREAK_EVEN:
        q_powers = decay_a ** ramp[: span + 1]
        q_inverse = 1.0 / q_powers[1:]
        d_inverse = 1.0 / powers[1 : span + 1]
        d_squares = np.square(powers[: span + 1])

    def march(c: np.ndarray, a: float, buf: np.ndarray, n: int):
        nx = c.size - 1
        table = np.empty((n + 1, 4))
        head = c.item(0)
        table[0] = (a, 0.0, -0.5 * head * head, c.item(-1))
        flat = table.reshape(-1)
        sources = np.empty(n)
        # every start after c has its inflow sample pinned to 0
        starts = np.zeros((-(-n // nx), nx + 1))
        starts[0] = start = c
        for b in range(starts.shape[0]):
            i, end = b * nx, min(b * nx + nx, n)
            if b:
                # the profile after i steps: the samples fed since the last
                # start behind the pinned inflow, and the outlet
                start = starts[b]
                np.add.accumulate(powers[: nx - 1] * sources[i - 1 : i - nx : -1], out=start[1:nx])
                start[nx] = table[i, 3]
            # S starts at -0.0, so that S_1 = -0.0*d + s_0 is s_0 to the bit
            acc, fresh, fresh_sq = -0.0, 0.0, 0.0
            r = 0
            while (steps := min(span, end - i)) >= _BREAK_EVEN:
                # a after 0..steps steps, from its scaled partial sums;
                # g and s round as the float step's formulas do, term by
                # term, where one factor for all terms would bias them
                x = np.empty(steps + 1)
                x[0] = a
                g = np.add(buf[i : i + steps], buf[i + 1 : i + steps + 1], out=x[1:])
                g *= 0.5
                g *= gain_a
                g /= alpha
                g *= q_inverse[:steps]
                _running_sums(x)
                x *= q_powers[: steps + 1]
                s = x[:-1] + x[1:]
                s *= 0.5
                s *= beta
                s *= gain_c
                s /= delta
                # rows S, fed sum and fed sum of squares, each over the
                # powers of d (d**2 for the squares) of its window step;
                # the squares gain s_j*(2*fresh_j + r_j*s_j), which over
                # d**2(j+1) is Y_j*(phi_j + phi_{j+1}) with Y_j =
                # s_j/d**(j+1) and phi the scaled fed sums
                scaled = s * d_inverse[:steps]
                sums = np.empty((3, steps + 1))
                sums[0, 0], sums[1, 0], sums[2, 0] = acc, fresh, fresh_sq
                sums[0, 1:] = scaled
                np.multiply(scaled, ramp[:steps] + r, out=sums[1, 1:])
                _running_sums(sums[:2])
                np.add(sums[1, :-1], sums[1, 1:], out=sums[2, 1:])
                sums[2, 1:] *= scaled
                _running_sums(sums[2])
                sums[:2] *= powers[: steps + 1]
                sums[2] *= d_squares[: steps + 1]
                window = table[i + 1 : i + steps + 1]
                window[:, 0] = x[1:]
                window[:, 1:3] = sums[::2, 1:].T
                outlet = window[:, 3]
                carried = start[nx - r - steps : nx - r][::-1]
                np.multiply(powers[r + 1 : r + steps + 1], carried, out=outlet)
                outlet += sums[0, 1:]
                buf[n_tau + 1 + i : n_tau + 1 + i + steps] = outlet
                sources[i : i + steps] = s
                a = x.item(-1)
                acc, fresh, fresh_sq = sums[:, -1].tolist()
                i += steps
                r += steps
            if i == end:
                continue
            # the float steps' table rows, sources and c(l, .) from buf[i] on,
            # as lists that go into the arrays when the segment ends
            rows, fed = [], []
            outlets = start[nx - r - (end - i) : nx - r][::-1].tolist()
            lag = buf[i : i + min(end - i, n_tau) + 1].tolist()
            k = 0
            for r, p, outlet in zip(range(r, r + end - i), power_list[r + 1 :], outlets):
                # z(1, .) over [t, t+dt] spans the two oldest delay samples;
                # their average keeps the coupling second order (tau = 0 has
                # only the head)
                delayed = 0.5 * (lag[k] + lag[k + 1]) if lagged else lag[k]
                a_new = a * decay_a + delayed * gain_a / alpha
                s = beta * (0.5 * (a + a_new)) * gain_c / delta
                # the sum of squares and the sum of the fed samples after r +
                # 1 steps, which are s at j = 1 and d*c[j-1] + s at 1 < j <= r
                fresh_sq = d * (d * fresh_sq + 2.0 * s * fresh) + r * s * s
                fresh = d * fresh + r * s
                acc = acc * d + s
                c_l = p * outlet + acc
                lag.append(c_l)
                fed.append(s)
                rows += (a_new, acc, fresh_sq, c_l)
                a = a_new
                k += 1
            flat[4 * (i + 1) : 4 * (end + 1)] = rows
            sources[i:end] = fed
            buf[n_tau + 1 + i : n_tau + 1 + end] = lag[i - end :]
        return table, sources, starts

    return march, powers


def _running_sums(x: np.ndarray) -> None:
    """Replace x by its running sums along its last axis, each within about
    a rounding of the exact sum.  A plain cumsum of terms of one size drifts
    one way, a rounding per term; here each partial sum's rounding is found
    (FastTwoSum, exact while the sum before it is the larger, as in the
    closed forms' sums of small terms) and their running sum added back."""
    lost = x[..., 1:].copy()
    np.add.accumulate(x, axis=-1, out=x)
    after = x[..., 1:]
    lost -= after - x[..., :-1]
    np.add.accumulate(lost, axis=-1, out=lost)
    after += lost


def _profile(c: np.ndarray, acc: float, powers: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """The profile i = len(sources) steps after c, in march's closed form:
    d**i*c shifted by i plus S_i = acc, behind the fed samples sum_{m<j}
    d**m*s_{i-1-m} at 0 < j < i, with powers d**0, d**1, ...  One step is
    c[:-1]*d + s_0 behind the pinned inflow, as step computes it."""
    i = len(sources)
    row = np.empty_like(c)
    carried = row[i:]
    np.multiply(c[: c.size - i], powers[i], out=carried)
    np.add(carried, acc, out=carried)
    row[0] = 0.0
    np.cumsum(np.multiply(powers[: i - 1], sources[:0:-1]), out=row[1:i])
    return row


def step(state: SimState, params: SystemParams) -> SimState:
    """Advance one dt: exact advection/decay of c with the activation source
    integrated along the characteristic, then the exact activation update
    driven by the delayed trace averaged over the step.  It is march's step
    at r = 0, bit for bit what march and _profile give at n = 1: S_1 =
    -0.0*d + s_0 is s_0, and the outlet d*c[nx-1] + s_0 is the new
    profile's last sample."""
    decay_a, gain_a, d, gain_c, delta = _rates(params, state.dt)
    a, history = state.a, state.history
    lag = history[-2:].tolist()
    delayed = 0.5 * (lag[-1] + lag[0]) if state.n_tau >= 1 else lag[-1]
    a_new = a * decay_a + delayed * gain_a / params.alpha
    s = params.beta * (0.5 * (a + a_new)) * gain_c / delta
    c = np.empty(state.c.size)
    c[0] = 0.0
    carried = c[1:]
    np.multiply(state.c[:-1], d, carried)
    carried += s
    window = np.empty(history.size)
    window[0] = c[-1]
    window[1:] = history[:-1]
    n = state.step_index + 1
    # Positional, in field order: a dataclass call by keyword is slower.
    return SimState(
        n * state.dt, n, c, a_new, window, state.dt, state.n_tau, state.tau_rounding_error
    )


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite-trapezoid weights for n >= 1 samples spaced h apart; one
    sample spans no width and weighs 0."""
    w = np.full(n, h)
    w[0] -= 0.5 * h
    w[-1] -= 0.5 * h
    return w


def _history_weights(params: SystemParams, gamma: float | None, dt: float,
                     n_tau: int) -> np.ndarray:
    """Trapezoid weights times gamma*exp(tau - age) over the newest-first
    delay window, so the energy's gamma-weighted history integral is the
    sum of z**2 times them.  gamma enters the exponent as log(gamma) + tau:
    exp(tau - age) alone overflows for tau above about 709.78.  gamma None
    stands for f*exp(-tau), which underflows above tau of about 745; its
    log(gamma) + tau is log(f), so its weight is f*exp(-age) for every
    tau.  A weight past the float range is inf, with no RuntimeWarning."""
    log_weight = math.log(params.f) if gamma is None else math.log(gamma) + params.tau
    ages = np.arange(n_tau + 1) * dt
    with np.errstate(over="ignore", invalid="ignore"):
        return _trapezoid_weights(n_tau + 1, dt) * np.exp(log_weight - ages)


def _quadratic(c: np.ndarray, a: float, history: np.ndarray, c_weights: np.ndarray,
               history_weights: np.ndarray, scale: float, history_scale: float, t: float,
               what: str) -> float:
    """The weighted sum of squares of a state (c, a, delay window) that
    energy, state_norm_sq and run's direct outputs take: scale*(sum
    c**2*c_weights + a**2) plus history_scale*sum history**2*history_weights,
    each sum numpy's pairwise sum of the products, no BLAS dot, which a
    multithreaded BLAS runs threaded past about 10,000 samples.  The scales
    multiply the sums, not the weights, which would round the subnormal
    products otherwise.  A sum past the floating-point range raises
    SimulationOverflow reading "the {what} left the floating-point range at
    t = {t}", with no RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = scale * float((c * c * c_weights).sum()) + scale * a * a
        value += history_scale * float((history * history * history_weights).sum())
    if not math.isfinite(value):
        raise SimulationOverflow(f"the {what} left the floating-point range at t = {t!r}")
    return value


def energy(state: SimState, params: SystemParams, gamma: float | None = None) -> float:
    """Composite-trapezoid energy: half the squared L2 norm of c, half the
    squared activation, plus half the gamma-weighted history integral, as
    _quadratic sums them; gamma None is f*exp(-tau), as in SimConfig.  A
    gamma that is not finite and > 0 raises InvalidParameter
    (errors._real).  An energy past the floating-point range, from a
    gamma*exp(tau) or a sample that squares past it, raises
    SimulationOverflow naming state.t, as run does, with no
    RuntimeWarning."""
    if gamma is not None:
        gamma = _real("gamma", gamma, 0)
    c_weights = _trapezoid_weights(state.c.size, params.l / (state.c.size - 1))
    weights = _history_weights(params, gamma, state.dt, state.n_tau)
    return _quadratic(state.c, state.a, state.history, c_weights, weights, 0.5, 0.5, state.t,
                      "energy")


def state_norm_sq(state: SimState, params: SystemParams) -> float:
    """Squared natural norm of the full state (c, a, delayed trace): the
    trapezoid sums of c**2 and of the window's squares, the latter over
    unit length times f*tau, plus a**2, as _quadratic sums them; at n_tau =
    0 the window spans no time and weighs nothing.  A norm past the
    floating-point range raises SimulationOverflow naming state.t, as
    energy does, with no RuntimeWarning."""
    c_weights = _trapezoid_weights(state.c.size, params.l / (state.c.size - 1))
    n = state.n_tau
    window = state.history if n else state.history[:0]
    weights = _trapezoid_weights(n + 1, 1.0 / n) if n else window
    return _quadratic(state.c, state.a, window, c_weights, weights, 1.0,
                      params.f * params.tau if n else 0.0, state.t, "state norm")


# Steps per block: run takes up to this many steps, in segments of nx from
# the profile each starts from, and takes the energies of its output rows at
# once when the block ends.  The cap bounds the block's step records (an
# array of four floats a step) and outflow buffer; a longer block spreads
# the block's own numpy calls over more steps and lets a window run longer.
_ROWS = 255


def run(
    params: SystemParams,
    config: SimConfig,
    c0,
    a0: float,
    c_l_history,
    *,
    keep_states: bool = False,
) -> tuple[SimTrace, EnergyTrace]:
    """Integrate to t_final, recording the energy every output_stride steps
    (plus the final step).

    The run takes ceil(t_final/dt - 1e-9) steps of dt = (l/nx)/f, at least
    one, so its last output lies at t_final or up to one step past it:
    t_final=0.55 at dt=0.1 ends at t = 0.6000000000000001.

    It steps by the method of steps (Bellen & Zennaro, Numerical Methods for
    Delay Differential Equations, OUP 2003): a block of up to _ROWS steps
    goes in segments of nx, each a closed form in the profile it starts
    from, so only the outlet and the activation are stepped; a segment goes
    in windows of up to n_tau steps, each solved as arrays where it spans
    _BREAK_EVEN steps or more and stepped as floats where it does not
    (_march_fn).  An output's c-integral, r steps into its
    segment, is d**r*(d**r*A2 + 2*S_r*A1) + S_r**2*(D+1) over the D+1 =
    nx+1-r samples carried over from the segment's start, where A2 and A1
    are prefix sums of start**2 and start, plus the fed samples' F_r.  The
    history terms weigh the squared outflow by gamma*exp(tau - age), so
    over the core of the delay window that every output's window holds
    inside its ends an output j steps after the block's first takes
    exp(-j*dt) times the first's core sum: one sum per block, plus the
    newest and the oldest samples as two running sums over the outputs'
    span, every part a sum of positive terms.  Where the windows share no
    core (n_tau <= 2*span + 2) or exp(span*dt) would pass
    exp(_WINDOW_RANGE), the history terms are one direct correlation over
    the outputs' windows.  The next block starts from the profile in closed
    form.  A block also stops where d**n would leave the normal
    floating-point range.  An output whose energy is not finite (a scaled
    history term past the float range included) or nears the top of that
    range, or, where delta < 0, one small enough that a square which
    underflowed may weigh in it, is the sum energy() takes (_quadratic) of
    its profile, activation and delay window, with the c and history
    weights the run builds once: bit for bit energy() of its state, which
    is not built.

    The states at those steps are kept only with keep_states=True.  Without
    them the run holds O(nx + n_tau + outputs) floats at any length.  A
    t_final of sys.maxsize steps or more raises InvalidParameter before
    anything is allocated.  A run whose energy leaves the floating-point
    range raises energy()'s SimulationOverflow at the first output where it
    is not finite, naming that output's time, from that sum; the run
    marches on to that output, at most output_stride steps past the step
    where it left.
    """
    steps = config.t_final / _step_size(params, config) - 1e-9
    if not steps < sys.maxsize:
        raise InvalidParameter(
            f"t_final={config.t_final!r} needs {steps:.3g} steps, more than a run can index"
        )
    state = init_state(params, config, c0, a0, c_l_history)
    dt, n_tau = state.dt, state.n_tau
    n_steps = max(1, math.ceil(steps))
    # a stride of n_steps or more outputs step 0 and the last step alike
    stride = min(config.output_stride, n_steps)

    # c is the profile after k0 steps.  buf is c(l, .) oldest first, and
    # buf[i : i + n_tau + 1] is the delay window after k0 + i steps; it
    # shifts by the block's steps when the block ends.  A block stops where
    # d**n would leave the normal float range.
    nx = config.nx
    decay = abs(params.delta) * dt
    rows = max(1, int(min(_ROWS, 708.0 / decay if decay else _ROWS)))
    c = state.c
    buf = np.empty(n_tau + 1 + rows)
    buf[: n_tau + 1] = state.history[::-1]
    h = params.l / nx
    c_weights = _trapezoid_weights(nx + 1, h)
    # An energy below direct_above has no sample whose square leaves the
    # float range: c_j**2 <= 4*energy/h.  Where d > 1 (delta < 0), the
    # squares and products in an energy's sums that underflowed, at most
    # 4*(nx + 1), are each off by at most 2**-1074 and scaled up by at most
    # p**2 = d**2r; an energy of at least below*p**2 lost less than a
    # rounding to them.
    direct_above = sys.float_info.max * min(h, 1.0) / 8.0
    below = (nx + 1) * h * 2.0**-1020 if params.delta < 0.0 else 0.0
    # Step i of a block is r = i - b*nx steps into segment b = (i - 1)//nx
    # (b = 0 at i = 0), whose D + 1 samples carried over are d**r*start[q] +
    # S_r at q <= D = nx - r; their prefix sums are at b*(nx + 1) + D.
    index = np.arange(rows + 1)
    segment = np.maximum(index - 1, 0) // nx
    depth = (segment + 1) * nx - index
    prefix_at = segment * (nx + 1) + depth
    carried = depth + 1.0
    # exp(-u*dt) over a block's steps, up to _WINDOW_RANGE e-folds, for the
    # history terms
    ramp = np.arange(int(min(rows, _WINDOW_RANGE / dt)) + 1) * dt
    shrink = np.exp(-ramp)
    # the output columns, one array per block
    energies, a_sq, c_l, states = [], [], [], []

    def profile(i: int) -> np.ndarray:
        # the profile after i steps of the block, from its segment's start
        if not i:
            return c.copy()
        b = (i - 1) // nx
        return _profile(starts[b], table.item(i, 1), powers, sources[b * nx : i])

    def state_at(i: int) -> SimState:
        # the state kept after i steps of the block, its activation a float
        window = buf[i : i + n_tau + 1][::-1].copy()
        return SimState((k0 + i) * dt, k0 + i, profile(i), table.item(i, 0), window, dt, n_tau,
                        state.tau_rounding_error)

    def history(at: range) -> np.ndarray:
        # half the gamma-weighted history integral of each output at, each a
        # sum of positive terms (where an FFT would lose relative accuracy)
        span = at[-1] - at[0]
        sq = np.square(buf[at[0] : at[-1] + n_tau + 1])
        if n_tau > 2 * span + 2 and span < shrink.size:
            # Output j steps after the first weighs sq[k] by oldest_first[k -
            # j]: exp(-j*dt) times the first output's weight over the core
            # span < k < n_tau that every window holds inside its ends, so
            # the core is one sum.  Either edge is its half-weighted end
            # sample plus one running sum of squares times exp(j*dt) times
            # their weights: the newest samples, n_tau <= k < n_tau + j, and
            # the oldest, j < k <= span, summed from the newest down.  A
            # scaled term is no smaller than the term it stands for, so it
            # leaves the float range only upwards, and the output's total is
            # then not finite, which take sums directly.
            edges = np.zeros((2, span + 1))
            np.multiply(edge_weights[0, 1 : span + 1], sq[n_tau : n_tau + span], out=edges[0, 1:])
            np.multiply(edge_weights[1, :span][::-1], sq[1 : span + 1][::-1], out=edges[1, 1:])
            _running_sums(edges)
            terms = edges[0, :: at.step] + edges[1, ::-1][:: at.step]
            terms += (sq[span + 1 : n_tau] * oldest_first[span + 1 : n_tau]).sum()
            terms *= shrink[: span + 1 : at.step]
            terms += sq[n_tau : n_tau + span + 1 : at.step] * oldest_first[n_tau]
            terms += sq[: span + 1 : at.step] * oldest_first[0]
            return terms * 0.5
        # one direct correlation over the outputs' windows
        return 0.5 * np.convolve(sq, history_weights, "valid")[:: at.step]

    def take(picked: slice) -> None:
        # record the outputs at table[picked], after i steps of the block
        at = range(n + 1)[picked]
        if not at:
            return
        a, acc, fresh_sq, outlet = table[picked].T
        p = powers[nx - depth[picked]]
        # sum_j c_j**2 over the samples carried over from prefix sums of
        # start**2 and start, plus the fed ones
        at_depth = prefix_at[picked]
        value = p * np.square(starts).cumsum(axis=1).ravel()[at_depth]
        value += (acc + acc) * starts.cumsum(axis=1).ravel()[at_depth]
        value *= p
        value += acc * acc * carried[picked]
        value -= 0.5 * outlet * outlet
        value += fresh_sq
        value *= 0.5 * h
        a_sq_picked = a * a
        value += 0.5 * a_sq_picked
        total = value + history(at)
        # the energies are not negative, so their sum bounds each of them
        if below or not -direct_above < total.sum() < direct_above:
            # An energy that is not finite or nears the top of the float
            # range, or one so small that a square which underflowed may
            # weigh in it once d**r > 1 scales it up, is energy()'s sum of
            # its profile, activation and window: that sum leaves the range
            # where a sample's square does, and raises SimulationOverflow
            # there, and squares each sample only once d**r has scaled it.
            direct = ~((below * p * p <= total) & (total < direct_above))
            for m in np.flatnonzero(direct).tolist():
                i = at[m]
                total[m] = _quadratic(profile(i), table.item(i, 0), buf[i : i + n_tau + 1][::-1],
                                      c_weights, history_weights, 0.5, 0.5, (k0 + i) * dt, "energy")
        energies.append(total)
        a_sq.append(a_sq_picked)
        c_l.append(outlet.copy())
        if keep_states:
            states.extend(map(state_at, at))

    march, powers = _march_fn(params, dt, n_tau, min(rows, nx))
    a = state.a
    k0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # gamma*exp(tau) past the float range makes these weights inf; the
        # first energy is then not finite, and its direct sum raises
        # SimulationOverflow
        history_weights = _history_weights(params, config.gamma, dt, n_tau)
        oldest_first = history_weights[::-1].copy()
        # the weights next to a window's newest and oldest ends times
        # exp(u*dt), for the history's edge sums
        if n_tau > 2:
            edge_weights = np.outer(oldest_first[[n_tau - 1, 1]], np.exp(ramp))
        while k0 < n_steps:
            n = min(rows, n_steps - k0)
            table, sources, starts = march(c, a, buf, n)
            # the outputs among steps k0 + 1 .. k0 + n, and step 0
            first = stride - k0 % stride if k0 else 0
            take(slice(first, n + 1, stride))
            if k0 + n == n_steps and n_steps % stride:
                take(slice(n, n + 1))
            a = table.item(n, 0)
            c = profile(n)
            buf[: n_tau + 1] = buf[n : n + n_tau + 1]
            k0 += n
    # output j is step min(j*stride, n_steps)
    times = np.minimum(np.arange(-(-n_steps // stride) + 1) * stride, n_steps) * dt
    return (
        SimTrace(states=tuple(states), tau_rounding_error=state.tau_rounding_error),
        EnergyTrace(times, np.concatenate(energies), np.concatenate(a_sq), np.concatenate(c_l)),
    )


def fit_decay_rate(trace: EnergyTrace, window: tuple[float, float]) -> FitResult:
    """Least-squares slope of ln E over the window; rate is minus the slope.

    The slope is the closed-form least-squares line through the centred
    times and log energies.  Returns a decayed-to-zero sentinel (rate = inf)
    when the window contains non-positive energies; raises DegenerateWindow
    on fewer than 10 samples or samples all at one time, and
    SimulationOverflow on an energy that is inf or NaN.  The window is a
    pair (start, end), and anything else, None or one of another length,
    raises InvalidParameter (errors._pair).  Each end is a float or +-inf;
    NaN, or an int past the float range, raises NonFiniteField
    (errors._real).
    """
    t0, t1 = (
        float(end) if end in (-math.inf, math.inf) else _real(f"{name}, if not +-inf,", end)
        for name, end in zip(("the window start", "the window end"), _pair("the window", window))
    )
    ts, es = trace.times, trace.energies
    inside = (t0 <= ts) & (ts <= t1)
    ts, es = ts[inside], es[inside]
    if ts.size < 10:
        raise DegenerateWindow(f"only {ts.size} samples in window [{t0}, {t1}]")
    if ts.min() == ts.max():
        raise DegenerateWindow(
            f"all {ts.size} samples in window [{t0}, {t1}] are at t = {ts[0].item()!r}"
        )
    blown = ts[~np.isfinite(es)]
    if blown.size:
        raise SimulationOverflow(f"the energy is not finite at t = {blown[0].item()!r}")
    if np.any(es <= 0.0):
        return FitResult(rate=math.inf, r_squared=math.nan, decayed_to_zero=True)
    # the least-squares line through the centred times and log energies,
    # its sums numpy's pairwise ones: a multithreaded BLAS dot of 16,001
    # samples took about 8 ms a call on a shared 2-core host, where these
    # take microseconds
    x = ts - ts.mean()
    y = np.log(es)
    y -= y.mean()
    slope = float((x * y).sum() / (x * x).sum())
    resid = y - slope * x
    denom = float((y * y).sum())
    r_sq = 1.0 if denom == 0.0 else 1.0 - float((resid * resid).sum()) / denom
    return FitResult(rate=-slope, r_squared=r_sq)


def sine_profile(l: float):
    """Half-sine initial concentration vanishing at both tube ends."""
    return lambda x: math.sin(math.pi * x / l)


def zero_fn(_: float) -> float:
    return 0.0
