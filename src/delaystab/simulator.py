"""Time-domain integration of the delayed transport loop.

The transport equation is integrated by the method of characteristics at
unit CFL (dt = dx/f), which makes advection and self-decay exact; the
activation ODE uses its exact integrating-factor update with the delayed
boundary trace held over each step.  ``run`` keeps the outflow trace
c(l, .) on the dt grid in one preallocated block buffer and evaluates the
energy only at the output steps, the history terms of a block at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindow, HistoryMismatch, IncompatibleBoundary, InvalidParameter
from .params import SystemParams


@dataclass(frozen=True)
class SimConfig:
    """Discretization choices: nx cells on [0, l], final time, energy
    weight gamma and output stride (in steps).  gamma None is the decay
    certificate's weight f*exp(-tau), taken exactly for every tau."""

    nx: int
    t_final: float
    gamma: float | None = None
    output_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.nx) and int(self.nx) == self.nx and self.nx >= 2):
            raise InvalidParameter(f"nx must be an integer >= 2, got {self.nx}")
        if not 0.0 < self.t_final < math.inf:
            raise InvalidParameter(f"t_final must be finite and > 0, got {self.t_final}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise InvalidParameter(f"gamma must be finite and > 0, got {self.gamma}")
        stride = self.output_stride
        if not (math.isfinite(stride) and int(stride) == stride and stride >= 1):
            raise InvalidParameter(f"output_stride must be an integer >= 1, got {stride}")


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


@dataclass(frozen=True)
class EnergyTrace:
    samples: tuple[EnergySample, ...]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])


@dataclass(frozen=True)
class SimTrace:
    states: tuple[SimState, ...]
    tau_rounding_error: float


@dataclass(frozen=True)
class FitResult:
    rate: float
    r_squared: float
    decayed_to_zero: bool = False


def init_state(params: SystemParams, config: SimConfig, c0, a0: float, c_l_history) -> SimState:
    """Sample the initial profile and delay history onto the step grid.

    c0 maps [0, l] to the initial concentration (c0(0) must vanish) and
    c_l_history maps [-tau, 0] to the outflow trace, compatible with
    c_l_history(0) = c0(l).  A non-finite a0, profile sample or history
    sample raises InvalidParameter.
    """
    a = float(a0)
    if not math.isfinite(a):
        raise InvalidParameter(f"a0 must be finite, got {a!r}")
    dx = params.l / config.nx
    dt = dx / params.f
    x = np.arange(config.nx + 1) * dx
    c = np.array([float(c0(float(xj))) for xj in x])
    # Written so that NaN fails the tolerance checks.
    if not abs(c[0]) <= 1e-12:
        raise IncompatibleBoundary(f"c0(0) = {c[0]!r} violates c(0, t) = 0")
    if not np.isfinite(c).all():
        raise InvalidParameter("c0 must be finite on [0, l]")
    n_tau = round(params.tau / dt)
    tau_err = abs(n_tau * dt - params.tau)
    head = float(c_l_history(0.0))
    if not abs(head - c[-1]) <= 1e-10:
        raise HistoryMismatch(
            f"c_l_history(0) = {head!r} but c0(l) = {c[-1]!r}"
        )
    samples = [head]
    for k in range(1, n_tau + 1):
        samples.append(float(c_l_history(-min(k * dt, params.tau))))
    history = np.array(samples)
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


def _advance_fn(params: SystemParams, dt: float, n_tau: int):
    """The one-step update for this step size, its exponentials computed once.

    advance(a, trace, k, c, out) reads the delayed samples from the
    oldest-first outflow trace, whose oldest entry still in the delay window
    is trace[k]; it writes c at t + dt into out and returns a at t + dt.
    """
    alpha, beta = params.alpha, params.beta
    decay_a = math.exp(-alpha * dt)
    gain_a = -math.expm1(-alpha * dt)
    if params.delta == 0.0:
        # the delta -> 0 limit of the update below; c*1.0 and x/1.0 are exact
        decay_c, gain_c, delta = 1.0, dt, 1.0
    else:
        delta = params.delta
        decay_c = math.exp(-delta * dt)
        gain_c = -math.expm1(-delta * dt)
    lagged = n_tau >= 1

    def advance(a: float, trace: np.ndarray, k: int, c: np.ndarray, out: np.ndarray) -> float:
        # z(1, .) over [t, t+dt] spans the two oldest delay samples; their
        # average keeps the coupling second order (tau = 0 has only the head).
        if lagged:
            delayed = 0.5 * (trace.item(k) + trace.item(k + 1))
        else:
            delayed = trace.item(k)
        a_new = a * decay_a + delayed * gain_a / alpha
        a_mid = 0.5 * (a + a_new)
        out[0] = 0.0
        body = out[1:]
        np.multiply(c[:-1], decay_c, out=body)
        np.add(body, beta * a_mid * gain_c / delta, out=body)
        return a_new

    return advance


def step(state: SimState, params: SystemParams) -> SimState:
    """Advance one dt: exact advection/decay of c with the activation source
    integrated along the characteristic, then the exact activation update
    driven by the delayed trace averaged over the step."""
    advance = _advance_fn(params, state.dt, state.n_tau)
    c_new = np.empty_like(state.c)
    a_new = advance(state.a, state.history[::-1], 0, state.c, c_new)
    history = np.empty_like(state.history)
    history[0] = c_new[-1]
    history[1:] = state.history[:-1]
    n = state.step_index + 1
    return SimState(
        t=n * state.dt,
        step_index=n,
        c=c_new,
        a=a_new,
        history=history,
        dt=state.dt,
        n_tau=state.n_tau,
        tau_rounding_error=state.tau_rounding_error,
    )


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite-trapezoid weights for n >= 2 samples spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
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
    if state.n_tau >= 1:
        weights = _history_weights(params, gamma, state.dt, state.n_tau)
        value += 0.5 * _sq_integral(state.history, weights)
    return value


def state_norm_sq(state: SimState, params: SystemParams) -> float:
    """Squared natural norm of the full state (c, a, delayed trace)."""
    dx = params.l / (state.c.size - 1)
    value = _sq_integral(state.c, _trapezoid_weights(state.c.size, dx)) + state.a * state.a
    if state.n_tau >= 1:
        weights = _trapezoid_weights(state.n_tau + 1, 1.0 / state.n_tau)
        value += params.f * params.tau * _sq_integral(state.history, weights)
    return value


# Steps per block of the outflow buffer; a run holds n_tau + 1 + _BLOCK
# samples of c(l, .) whatever its length.
_BLOCK = 4096


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

    The states at those steps are kept only with keep_states=True.  Without
    them the run holds O(nx + n_tau + outputs) floats at any length.  A
    t_final of sys.maxsize steps or more raises InvalidParameter before
    anything is allocated.
    """
    # init_state's step is dt = (l/nx)/f.
    steps = config.t_final / (params.l / config.nx / params.f) - 1e-9
    if not steps < sys.maxsize:
        raise InvalidParameter(
            f"t_final={config.t_final!r} needs {steps:.3g} steps, more than a run can index"
        )
    state = init_state(params, config, c0, a0, c_l_history)
    dt, n_tau = state.dt, state.n_tau
    n_steps = max(1, math.ceil(steps))
    outputs = list(range(0, n_steps + 1, config.output_stride))
    if outputs[-1] != n_steps:
        outputs.append(n_steps)

    # c(l, .) oldest first: buf[k - base + n_tau] is the outflow after k
    # steps, and buf[k - base : k - base + n_tau + 1] is the delay window of
    # that state.  When a block of steps fills buf, its last window moves to
    # the front and base advances by _BLOCK.
    buf = np.empty(n_tau + 1 + _BLOCK)
    buf[: n_tau + 1] = state.history[::-1]
    base = 0
    c, c_next = state.c, np.empty_like(state.c)
    a = state.a
    c_weights = _trapezoid_weights(c.size, params.l / config.nx)
    history_weights = _history_weights(params, config.gamma, dt, n_tau) if n_tau >= 1 else None
    history_terms = np.zeros(len(outputs))
    flushed = 0

    def flush(upto: int) -> None:
        # the history integrals of outputs[flushed:upto], whose windows are
        # all in buf: one direct correlation from the first window to the
        # last (a direct sum of positive terms keeps relative accuracy where
        # an FFT would not)
        nonlocal flushed
        if history_weights is None or upto == flushed:
            return
        starts = np.array(outputs[flushed:upto]) - base
        lo, hi = starts[0], starts[-1]
        sq = buf[lo : hi + n_tau + 1] ** 2
        history_terms[flushed:upto] = np.convolve(sq, history_weights, "valid")[starts - lo]
        flushed = upto

    advance = _advance_fn(params, dt, n_tau)
    a_out, c_l, c_sq, states = [], [], [], []
    done = 0
    for i, stop in enumerate(outputs):
        for k in range(done, stop):
            if k - base == _BLOCK:
                flush(i)
                buf[: n_tau + 1] = buf[_BLOCK:]
                base = k
            a = advance(a, buf, k - base, c, c_next)
            c, c_next = c_next, c
            buf[k - base + n_tau + 1] = c[-1]
        done = stop
        a_out.append(a)
        c_l.append(c.item(-1))
        c_sq.append(_sq_integral(c, c_weights))
        if keep_states:
            window = buf[stop - base : stop - base + n_tau + 1][::-1].copy()
            states.append(
                SimState(stop * dt, stop, c.copy(), a, window, dt, n_tau, state.tau_rounding_error)
            )
    flush(len(outputs))

    a_out = np.array(a_out)
    energies = 0.5 * np.array(c_sq) + 0.5 * a_out * a_out + 0.5 * history_terms
    samples = tuple(
        map(
            EnergySample,
            [k * dt for k in outputs],
            energies.tolist(),
            (a_out * a_out).tolist(),
            c_l,
        )
    )
    return (
        SimTrace(states=tuple(states), tau_rounding_error=state.tau_rounding_error),
        EnergyTrace(samples=samples),
    )


def fit_decay_rate(trace: EnergyTrace, window: tuple[float, float]) -> FitResult:
    """Least-squares slope of ln E over the window; rate is minus the slope.

    Returns a decayed-to-zero sentinel (rate = inf) when the window contains
    non-positive energies; raises DegenerateWindow on fewer than 10 samples.
    """
    t0, t1 = window
    ts, es = trace.times, trace.energies
    inside = (t0 <= ts) & (ts <= t1)
    ts, es = ts[inside], es[inside]
    if ts.size < 10:
        raise DegenerateWindow(f"only {ts.size} samples in window [{t0}, {t1}]")
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
