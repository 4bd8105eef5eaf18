"""Parameter tuple of the feedback loop and its closed-form scalar quantities.

The model couples a transported concentration c(x,t) on a tube [0, l] to an
activation a(t) that feeds back into the transport source after a delay tau:

    dc/dt = -f dc/dx + beta*a - delta*c,   c(0,t) = 0,
    da/dt = c(l, t - tau) - alpha*a.

Everything in this module is a pure function of the six coefficients.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    InvalidParameter,
    NegativeTau,
    NonPositiveAlpha,
    NonPositiveF,
    NonPositiveL,
    QuadratureNonInteger,
    _real,
    _shown,
)


@dataclass(frozen=True)
class SystemParams:
    """The six coefficients (alpha, beta, delta, l, f, tau).

    alpha : activation decay rate, > 0
    beta  : feedback gain, any real
    delta : concentration decay rate, any real
    l     : tube length, > 0
    f     : transport speed, > 0 (every closed form below divides by f)
    tau   : feedback delay, >= 0

    Construction validates ranges and finiteness, and stores each field as
    a float; instances are immutable and safe to share across threads.  A
    field that is not finite (NaN, inf or an int past the float range)
    raises NonFiniteField (errors._real).
    """

    alpha: float
    beta: float
    delta: float
    l: float
    f: float
    tau: float

    def __post_init__(self):
        for name in ("alpha", "beta", "delta", "l", "f", "tau"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.alpha <= 0.0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {self.alpha}")
        if self.l <= 0.0:
            raise NonPositiveL(f"l must be > 0, got {self.l}")
        if self.f <= 0.0:
            raise NonPositiveF(f"f must be > 0, got {self.f}")
        if self.tau < 0.0:
            raise NegativeTau(f"tau must be >= 0, got {self.tau}")


@dataclass(frozen=True)
class DecayCertificate:
    """Witness of exponential energy decay.

    gamma          : energy weight used by the certificate
    rate           : guaranteed decay rate of the energy functional, > 0
    gamma_interval : admissible weight range (lo, hi], half-open on the left
    """

    gamma: float
    rate: float
    gamma_interval: tuple[float, float]

    def __post_init__(self):
        _check_gamma(self.gamma, self.gamma_interval)
        if not self.rate > 0.0:
            raise InvalidParameter(f"certificate rate must be > 0, got {self.rate}")


def _check_gamma(gamma: float, interval: tuple[float, float]) -> None:
    lo, hi = interval
    if not (lo < gamma <= hi):
        raise InvalidParameter(f"gamma={gamma} outside admissible interval ({lo}, {hi}]")


def _family(fixed) -> tuple[float, float, float, float]:
    """fixed = (alpha, delta, l, f), admitted by SystemParams' rules and
    returned as four floats (beta = tau = 0 are placeholders).  A bad item
    raises its SystemParams error; a tuple of another length, or anything
    that is not a tuple, raises InvalidParameter."""
    if not (isinstance(fixed, tuple) and len(fixed) == 4):
        raise InvalidParameter(f"fixed must be a tuple (alpha, delta, l, f), got {_shown(fixed)}")
    p = SystemParams(fixed[0], 0.0, *fixed[1:], 0.0)
    return p.alpha, p.delta, p.l, p.f


def threshold_gain(alpha: float, delta: float, l: float, f: float) -> float:
    """Critical gain at which a zero-frequency eigenvalue appears.

    Returns alpha*delta/-expm1(-delta*l/f), exact to rounding however
    small delta*l/f is.  Where delta*l/f is 0 or subnormal it returns the
    delta -> 0 limit alpha*f/l, which is within 1e-308 of the exact value
    there and, unlike a division by a subnormal, loses no digits.  The
    value is also evaluated for delta < 0, where the oscillation fast path
    does not use it; below delta*l/f of about -709.78, where
    exp(-delta*l/f) overflows, it is the limit 0.0.  Raises the
    SystemParams error for a bad family (_family).
    """
    return _threshold_gain(*_family((alpha, delta, l, f)))


def _threshold_gain(alpha: float, delta: float, l: float, f: float) -> float:
    """threshold_gain of an admitted family."""
    x = delta * l / f
    if abs(x) < sys.float_info.min:
        return alpha * f / l
    try:
        return alpha * delta / -math.expm1(-x)
    except OverflowError:
        return 0.0


def eig_bound_radius(beta: float, delta: float) -> float:
    """Radius bounding |lambda| for every eigenvalue with Re lambda >= 0 when
    delta >= 0: the case that _search_radius, valid for every delta, reduces
    to.  beta or delta that is not finite (NaN, +-inf or an int past the
    float range) raises NonFiniteField (errors._real)."""
    return _bound_radius(_real("beta", beta), _real("delta", delta))


def _bound_radius(beta: float, delta: float) -> float:
    """eig_bound_radius of two admitted floats."""
    return 0.5 * (abs(delta) + math.sqrt(delta * delta + 8.0 * abs(beta)))


def _search_radius(beta: float, delta: float, l: float, f: float) -> float:
    """Radius enclosing every eigenvalue with Re lambda >= 0, for any delta.

    For delta >= 0 this is the closed-form eig_bound_radius.  For delta < 0
    the |1 - exp(-(lambda+delta)l/f)| <= 2 step behind that formula fails,
    so the bound is _strip_radius at sigma = 0, with the exact factor
    1 + exp(-delta*l/f) > 2 in its place; in exact arithmetic it is at least
    eig_bound_radius.  A radius that overflows (below delta*l/f of about
    -708.4 at |beta| = 1) leaves no finite search region and raises
    QuadratureNonInteger.  The spectrum box, the axis crossing scan and the
    default trace window all search within it.
    """
    if delta >= 0.0:
        radius = _bound_radius(beta, delta)
    else:
        radius = _strip_radius(beta, delta, l, f, 0.0, 0.0)
    if radius == math.inf:
        raise QuadratureNonInteger(
            f"search radius overflows at beta={beta}, delta*l/f={delta * l / f}"
        )
    return radius


def _strip_radius(
    beta: float, delta: float, l: float, f: float, tau: float, sigma: float
) -> float:
    """Radius enclosing every eigenvalue with Re lambda >= -sigma, sigma >= 0,
    of the point (beta, delta, l, f, tau) with any alpha > 0.

    There |lambda + alpha| >= |lambda| - sigma, |lambda + delta| >=
    |lambda| - |delta|, |exp(-lambda*tau)| <= exp(sigma*tau) and
    |1 - exp(-(lambda + delta)*l/f)| <= 1 + exp((sigma - delta)*l/f), so
    (|lambda| - sigma)(|lambda| - |delta|) <= b with b = |beta| times the
    last two bounds, and |lambda| is at most the larger root,
    (sigma + |delta| + sqrt((|delta| - sigma)**2 + 4b))/2.  _search_radius
    takes it at sigma = 0 for delta < 0.  inf where it overflows.
    """
    d = abs(delta)
    try:
        b = abs(beta) * math.exp(sigma * tau) * (1.0 + math.exp((sigma - delta) * l / f))
        return 0.5 * (sigma + d + math.sqrt((d - sigma) ** 2 + 4.0 * b))
    except OverflowError:
        return math.inf


def decay_certificate(
    params: SystemParams, gamma: float | None = None
) -> DecayCertificate | None:
    """Exponential-decay certificate for the energy functional, if one exists.

    The certificate applies when f*(2*alpha - beta) > 1, delta > beta*l/2 > 0
    and exp(tau) < f*(2*alpha - beta), tested as tau < log(f*(2*alpha - beta))
    so that a delay past exp's overflow (about 709.78) finds no certificate
    instead of raising OverflowError.  Its rate is

        min(gamma/2, alpha - beta/2 - 1/(2*gamma), delta - beta*l/2)

    with gamma defaulting to f*exp(-tau), the right endpoint of the
    admissible interval.  Returns None when the conditions fail, which does
    NOT imply instability.  A gamma that is not finite raises
    NonFiniteField before any condition is tested (errors._real); a finite
    one outside the interval raises InvalidParameter.
    """
    if gamma is not None:
        gamma = _real("gamma", gamma)
    damping = params.f * (2.0 * params.alpha - params.beta)
    if not damping > 1.0:
        return None
    if not (params.delta > 0.5 * params.beta * params.l > 0.0):
        return None
    if not params.tau < math.log(damping):
        return None

    gamma_lo = 1.0 / (2.0 * params.alpha - params.beta)
    gamma_hi = params.f * math.exp(-params.tau)
    if gamma is None:
        gamma = gamma_hi
    _check_gamma(gamma, (gamma_lo, gamma_hi))
    rate = min(
        0.5 * gamma,
        params.alpha - 0.5 * params.beta - 0.5 / gamma,
        params.delta - 0.5 * params.beta * params.l,
    )
    return DecayCertificate(gamma=gamma, rate=rate, gamma_interval=(gamma_lo, gamma_hi))
