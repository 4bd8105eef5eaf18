"""Time-domain integration of the delayed transport loop.

The transport equation is integrated by the method of characteristics at
unit CFL (dt = dx/f), which makes advection and self-decay exact; the
activation ODE uses its exact integrating-factor update with the delayed
boundary trace held over each step.  ``run`` integrates by the method of
steps (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, OUP 2003): over up to nx steps the profile is a closed form in
the profile those steps start from and their sources, so each step advances
only the outlet and the activation, as floats.  A block of steps chains such
segments, and c(l, .) goes into a buffer that holds the delay windows of
the block's steps.  When the block ends it evaluates the energies of its
output steps at once, their c-integrals from prefix sums of the segments'
start profiles and their history terms as one correlation, and the buffer
shifts by the block's steps.  A run whose energy leaves the floating-point
range raises SimulationOverflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import mul

import numpy as np

from .errors import (
    DegenerateWindow,
    HistoryMismatch,
    IncompatibleBoundary,
    InvalidParameter,
    SimulationOverflow,
    _shown,
)
from .params import SystemParams


# The delay history is sampled by one c_l_history call a step, and it and
# run's outflow buffer each hold a float a step: 2**24 samples take about
# 10 s to sample and 134 MB an array.  The profile's nx + 1 samples are
# bounded alike, by SimConfig.
_DELAY_SAMPLES = 2**24


@dataclass(frozen=True)
class SimConfig:
    """Discretization choices: nx cells on [0, l], final time, energy
    weight gamma and output stride (in steps).  gamma None is the decay
    certificate's weight f*exp(-tau), taken exactly for every tau.  nx is
    an integer from 2 to below _DELAY_SAMPLES (2**24) and output_stride one
    of 1 or more; both are stored as int, so 10.0 is taken as 10.  Each is
    range-checked before its integrality, so an integer past the float
    range raises InvalidParameter, not OverflowError.  t_final and a gamma
    given must be > 0 and at most the largest float, so an integer past the
    float range raises InvalidParameter too."""

    nx: int
    t_final: float
    gamma: float | None = None
    output_stride: int = 1

    def __post_init__(self):
        nx = self.nx
        if nx >= _DELAY_SAMPLES:
            raise InvalidParameter(
                f"nx={_shown(nx)} asks for a profile of more than {_DELAY_SAMPLES} samples"
            )
        if not 2 <= nx or int(nx) != nx:
            raise InvalidParameter(f"nx must be an integer >= 2, got {_shown(nx)}")
        # For a float, <= the largest float is < inf; an int past it is refused.
        if not 0.0 < self.t_final <= sys.float_info.max:
            raise InvalidParameter(f"t_final must be finite and > 0, got {_shown(self.t_final)}")
        if self.gamma is not None and not 0.0 < self.gamma <= sys.float_info.max:
            raise InvalidParameter(f"gamma must be finite and > 0, got {_shown(self.gamma)}")
        stride = self.output_stride
        if not 1 <= stride < math.inf or int(stride) != stride:
            raise InvalidParameter(f"output_stride must be an integer >= 1, got {_shown(stride)}")
        object.__setattr__(self, "nx", int(nx))
        object.__setattr__(self, "output_stride", int(stride))


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


def init_state(params: SystemParams, config: SimConfig, c0, a0: float, c_l_history) -> SimState:
    """Sample the initial profile and delay history onto the step grid.

    c0 maps [0, l] to the initial concentration (c0(0) must vanish) and
    c_l_history maps [-tau, 0] to the outflow trace, compatible with
    c_l_history(0) = c0(l).  A non-finite a0, profile sample or history
    sample raises InvalidParameter, and so does a step (l/nx)/f that
    underflows to 0 or overflows to inf, a delay of sys.maxsize steps or
    more, or one of _DELAY_SAMPLES steps or more, before any sample is
    taken.  (SimConfig refuses an nx of _DELAY_SAMPLES or more.)
    """
    a = float(a0)
    if not math.isfinite(a):
        raise InvalidParameter(f"a0 must be finite, got {a!r}")
    dt = _step_size(params, config)
    delay_steps = params.tau / dt
    if not delay_steps < sys.maxsize:
        raise InvalidParameter(
            f"tau={params.tau!r} spans {delay_steps:.3g} steps, more than a run can index"
        )
    n_tau = round(delay_steps)
    if n_tau >= _DELAY_SAMPLES:
        raise InvalidParameter(
            f"tau={params.tau!r} spans {n_tau} steps, a delay window of more than "
            f"{_DELAY_SAMPLES} samples"
        )
    x = np.arange(config.nx + 1) * (params.l / config.nx)
    c = np.fromiter((float(c0(float(xj))) for xj in x), float, count=config.nx + 1)
    # Written so that NaN fails the tolerance checks.
    if not abs(c[0]) <= 1e-12:
        raise IncompatibleBoundary(f"c0(0) = {c[0]!r} violates c(0, t) = 0")
    if not np.isfinite(c).all():
        raise InvalidParameter("c0 must be finite on [0, l]")
    tau_err = abs(n_tau * dt - params.tau)
    head = float(c_l_history(0.0))
    if not abs(head - c[-1]) <= 1e-10:
        raise HistoryMismatch(
            f"c_l_history(0) = {head!r} but c0(l) = {c[-1]!r}"
        )
    window = (float(c_l_history(-min(k * dt, params.tau))) for k in range(1, n_tau + 1))
    history = np.fromiter(chain((head,), window), float, count=n_tau + 1)
    if not np.isfinite(history).all():
        raise InvalidParameter("c_l_history must be finite on [-tau, 0]")
    return SimState(
        t=0.0,
        step_index=0,
        c=c,
        a=a,
        history=history,
        dt=dt,
        n_tau=n_tau,
        tau_rounding_error=tau_err,
    )


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


def _march_fn(params: SystemParams, dt: float, n_tau: int):
    """The n-step update for this step size, its factors (_rates) computed once.

    march(c, a, lag, n) takes n steps from the profile c and the activation
    a.  lag holds c(l, .) oldest first from the oldest delayed sample the
    first step reads, through at least the second (the head alone at n_tau
    = 0); march appends the n new outlet values to it.  The steps go in
    segments of nx, each from the profile it starts from, which is c for
    the first.  Over a segment the profile has a closed form in its start:
    with d = exp(-delta*dt), the step's source s_i = beta*a_mid*(1 -
    d)/delta (dt at delta = 0) and S_{r+1} = d*S_r + s_r, sample j after r
    steps is d**r*start[j-r] + S_r for j >= r.  So each step is a few float
    operations on the outlet start[nx-r] alone, and the next segment's
    start is the samples fed over this one.  march returns a flat table of
    (a, d**r, S_r, F_r, c(l)) after each step, where r counts the steps of
    its segment, up to nx, and F_r is the sum of the squares of the r - 1
    samples 0 < j < r fed in the segment; the sources s_0..s_{n-1}; and the
    start of every segment after the first, as a list.  step is the same
    formulas at n = 1.
    """
    alpha, beta = params.alpha, params.beta
    decay_a, gain_a, d, gain_c, delta = _rates(params, dt)
    lagged = n_tau >= 1

    def march(c: np.ndarray, a: float, lag: list, n: int) -> tuple[list, list, list]:
        nx = c.size - 1
        m = min(n, nx)
        powers = [1.0, *accumulate(repeat(d, m), mul)]
        # after r + 1 steps of a segment the outlet holds start[nx - 1 - r]
        outlets = c[nx - m : nx].tolist()[::-1]
        table, sources, starts = [], [], []
        i = 0
        while i < n:
            if i:
                # the profile after i steps: the samples fed since the last
                # start behind the pinned inflow, and the outlet
                fed = accumulate(map(mul, powers, reversed(sources[i - nx + 1 :])))
                starts.append([0.0, *fed, c_l])
                outlets = starts[-1][-2::-1]
            # S starts at -0.0, so that S_1 = -0.0*d + s_0 is s_0 to the bit
            acc, fresh_sq, fresh = -0.0, 0.0, 0.0
            for r, p, outlet in zip(range(min(nx, n - i)), powers[1:], outlets):
                # z(1, .) over [t, t+dt] spans the two oldest delay samples;
                # their average keeps the coupling second order (tau = 0 has
                # only the head)
                delayed = 0.5 * (lag[i] + lag[i + 1]) if lagged else lag[i]
                a_new = a * decay_a + delayed * gain_a / alpha
                s = beta * (0.5 * (a + a_new)) * gain_c / delta
                # the sum of squares and the sum of the fed samples after r +
                # 1 steps, which are s at j = 1 and d*c[j-1] + s at 1 < j <= r
                fresh_sq = d * (d * fresh_sq + 2.0 * s * fresh) + r * s * s
                fresh = d * fresh + r * s
                acc = acc * d + s
                c_l = p * outlet + acc
                lag.append(c_l)
                sources.append(s)
                table += (a_new, p, acc, fresh_sq, c_l)
                a = a_new
                i += 1
        return table, sources, starts

    return march


def _profile(c: np.ndarray, p: float, acc: float, powers: list, sources: list) -> np.ndarray:
    """The profile len(sources) steps after c, in march's closed form: d**i*c
    shifted by i plus S_i, behind the fed samples sum_{m<j} d**m*s_{i-1-m} at
    0 < j < i, with powers d**0, d**1, ...  One step is c[:-1]*d + s_0 behind
    the pinned inflow, as step computes it."""
    i = len(sources)
    row = np.empty_like(c)
    carried = row[i:]
    np.multiply(c[: c.size - i], p, out=carried)
    np.add(carried, acc, out=carried)
    row[:i] = [0.0, *accumulate(map(mul, powers, reversed(sources[1:])))]
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


def _sq_integral(v: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature of v**2 with the given weights, as one dot product."""
    return float((v * v).dot(weights))


def _history_weights(
    params: SystemParams, gamma: float | None, dt: float, n_tau: int
) -> np.ndarray:
    """Trapezoid weights times gamma*exp(tau - age) over the newest-first
    delay window, so the energy's gamma-weighted history integral is a dot
    with z**2.  gamma enters the exponent as log(gamma) + tau: exp(tau - age)
    alone overflows for tau above about 709.78.  gamma None stands for
    f*exp(-tau), which underflows above tau of about 745; its log(gamma) +
    tau is log(f), so its weight is f*exp(-age) for every tau."""
    log_weight = math.log(params.f) if gamma is None else math.log(gamma) + params.tau
    ages = np.arange(n_tau + 1) * dt
    return _trapezoid_weights(n_tau + 1, dt) * np.exp(log_weight - ages)


def energy(state: SimState, params: SystemParams, gamma: float | None = None) -> float:
    """Composite-trapezoid energy: half the squared L2 norm of c, half the
    squared activation, plus the gamma-weighted history integral; gamma
    None is f*exp(-tau), as in SimConfig."""
    if gamma is not None and not 0.0 < gamma < math.inf:
        raise InvalidParameter(f"gamma must be finite and > 0, got {gamma}")
    dx = params.l / (state.c.size - 1)
    value = 0.5 * _sq_integral(state.c, _trapezoid_weights(state.c.size, dx))
    value += 0.5 * state.a * state.a
    weights = _history_weights(params, gamma, state.dt, state.n_tau)
    return value + 0.5 * _sq_integral(state.history, weights)


def state_norm_sq(state: SimState, params: SystemParams) -> float:
    """Squared natural norm of the full state (c, a, delayed trace)."""
    dx = params.l / (state.c.size - 1)
    value = _sq_integral(state.c, _trapezoid_weights(state.c.size, dx)) + state.a * state.a
    if state.n_tau >= 1:
        weights = _trapezoid_weights(state.n_tau + 1, 1.0 / state.n_tau)
        value += params.f * params.tau * _sq_integral(state.history, weights)
    return value


# Steps per block: run takes up to this many steps, in segments of nx from
# the profile each starts from, and takes the energies of its output rows at
# once when the block ends.  The cap bounds the block's step records and
# outflow buffer.
_ROWS = 127


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
    from, so only the outlet and the activation are stepped, as floats, and
    no array is touched per step.  An output's c-integral, r steps into its
    segment, is d**r*(d**r*A2 + 2*S_r*A1) + S_r**2*(D+1) over the D+1 =
    nx+1-r samples carried over from the segment's start, where A2 and A1
    are prefix sums of start**2 and start, plus the fed samples' F_r; the
    history term is a direct correlation over the outputs' delay windows,
    and the next block starts from the profile in closed form.  A block
    also stops where d**n would leave the normal floating-point range.  An
    output whose energy nears the top of that range, or, where delta < 0,
    one small enough that a square which underflowed may weigh in it, is
    summed directly from its profile.

    The states at those steps are kept only with keep_states=True.  Without
    them the run holds O(nx + n_tau + outputs) floats at any length.  A
    t_final of sys.maxsize steps or more raises InvalidParameter before
    anything is allocated; a run whose energy leaves the floating-point
    range raises SimulationOverflow naming the first output time at which it
    is not finite.
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
    energies, a_sq, c_l, states = [], [], [], []

    def profile(i: int, p: float, acc: float) -> np.ndarray:
        # the profile after i steps of the block, from its segment's start
        if not i:
            return c.copy()
        b = (i - 1) // nx
        return _profile(starts[b], p, acc, powers, sources[b * nx : i])

    def take(k0: int, picked: slice) -> bool:
        # record the outputs at table[picked], after i steps of the block
        # from c; False if an energy is not finite
        at = range(n + 1)[picked]
        if not at:
            return True
        a, p, acc, fresh_sq, outlet = table[picked].T
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
        # one direct correlation over the windows from the first output row
        # to the last (a direct sum of positive terms keeps relative accuracy
        # where an FFT would not)
        sq = np.square(buf[at[0] : at[-1] + n_tau + 1])
        history_terms = 0.5 * np.convolve(sq, history_weights, "valid")[:: at.step]
        value += history_terms
        values = value.tolist()
        # the energies are not negative, so their sum bounds each of them
        finite = -direct_above < sum(values) < direct_above
        if below or not finite:
            # An energy near the top of the float range, or one so small
            # that a square which underflowed may weigh in it once d**r > 1
            # scales it up, is the trapezoid sum of its squared profile: that
            # sum leaves the range where a sample's square does, and squares
            # each sample only once d**r has scaled it.
            weights = _trapezoid_weights(nx + 1, h)
            direct = ~((below * p * p <= value) & (value < direct_above))
            for m in np.flatnonzero(direct).tolist():
                row = profile(at[m], p[m], acc[m])
                value[m] = 0.5 * _sq_integral(row, weights) + 0.5 * a_sq_picked[m]
                value[m] += history_terms[m]
            values = value.tolist()
            finite = bool(np.isfinite(value).all())
        energies.extend(values)
        a_sq.extend(a_sq_picked.tolist())
        c_l.extend(outlet.tolist())
        if keep_states:
            for i, (a_i, p_i, acc_i, _, _) in zip(at, table[picked].tolist()):
                window = buf[i : i + n_tau + 1][::-1].copy()
                k = k0 + i
                states.append(
                    SimState(k * dt, k, profile(i, p_i, acc_i), a_i, window, dt, n_tau,
                             state.tau_rounding_error)
                )
        return finite

    march = _march_fn(params, dt, n_tau)
    a = state.a
    k0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # gamma*exp(tau) past the float range makes these weights inf with
        # no RuntimeWarning; the first energy then fails the finite check
        history_weights = _history_weights(params, config.gamma, dt, n_tau)
        while k0 < n_steps:
            n = min(rows, n_steps - k0)
            lag = buf[: min(n, n_tau) + 1].tolist()
            steps_taken, sources, later = march(c, a, lag, n)
            buf[n_tau + 1 : n_tau + 1 + n] = lag[-n:]
            # the profiles the block's segments start from, c first
            starts = np.array([c, *later])
            # row i is (a, d**r, S_r, F_r, c(l)) after i steps; row 0's F is
            # -c[0]**2/2, since the carried-over sum weighs its inflow sample
            # h where the trapezoid weighs it h/2
            head = c.item(0)
            table = np.array([a, 1.0, 0.0, -0.5 * head * head, c.item(-1), *steps_taken])
            table = table.reshape(n + 1, 5)
            powers = table[: min(n, nx) + 1, 1].tolist()
            # the outputs among steps k0 + 1 .. k0 + n, and step 0
            first = stride - k0 % stride if k0 else 0
            finite = take(k0, slice(first, n + 1, stride))
            if k0 + n == n_steps and n_steps % stride:
                finite &= take(k0, slice(n, n + 1))
            a, p, acc = steps_taken[-5:-2]
            c = profile(n, p, acc)
            buf[: n_tau + 1] = buf[n : n + n_tau + 1]
            k0 += n
            # a non-finite activation makes every later energy non-finite
            if not (finite and math.isfinite(a)):
                break
    energies = np.array(energies)
    # output j is step min(j*stride, n_steps)
    times = np.minimum(np.arange(-(-n_steps // stride) + 1) * stride, n_steps) * dt
    # a run that stopped early has no energies past the block that failed
    blown = np.flatnonzero(~np.isfinite(energies))
    first_bad = blown[0] if blown.size else energies.size
    if first_bad < times.size:
        raise SimulationOverflow(
            f"the energy left the floating-point range at t = {times[first_bad].item()!r}"
        )
    return (
        SimTrace(states=tuple(states), tau_rounding_error=state.tau_rounding_error),
        EnergyTrace(times, energies, np.array(a_sq), np.asarray(c_l)),
    )


def fit_decay_rate(trace: EnergyTrace, window: tuple[float, float]) -> FitResult:
    """Least-squares slope of ln E over the window; rate is minus the slope.

    Returns a decayed-to-zero sentinel (rate = inf) when the window contains
    non-positive energies; raises DegenerateWindow on fewer than 10 samples
    and SimulationOverflow on an energy that is inf or NaN.
    """
    t0, t1 = window
    ts, es = trace.times, trace.energies
    inside = (t0 <= ts) & (ts <= t1)
    ts, es = ts[inside], es[inside]
    if ts.size < 10:
        raise DegenerateWindow(f"only {ts.size} samples in window [{t0}, {t1}]")
    blown = ts[~np.isfinite(es)]
    if blown.size:
        raise SimulationOverflow(f"the energy is not finite at t = {blown[0].item()!r}")
    if np.any(es <= 0.0):
        return FitResult(rate=math.inf, r_squared=math.nan, decayed_to_zero=True)
    log_e = np.log(es)
    slope, intercept = np.polyfit(ts, log_e, 1)
    resid = log_e - (slope * ts + intercept)
    total = log_e - log_e.mean()
    denom = float(total @ total)
    r_sq = 1.0 if denom == 0.0 else 1.0 - float(resid @ resid) / denom
    return FitResult(rate=-float(slope), r_squared=r_sq)


def sine_profile(l: float):
    """Half-sine initial concentration vanishing at both tube ends."""
    return lambda x: math.sin(math.pi * x / l)


def zero_fn(_: float) -> float:
    return 0.0
