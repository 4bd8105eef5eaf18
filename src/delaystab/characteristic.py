"""Characteristic function of the loop and its pole-free numerator.

Away from lambda = -alpha the eigenvalues of the system operator are exactly
the zeros of

    char_fn(lambda) = 1 - beta*exp(-lambda*tau) * phi(w) * (l/f) / (lambda + alpha)

with w = (lambda + delta)*l/f and phi(w) = (1 - exp(-w))/w extended by
phi(0) = 1.  The entire numerator

    char_num(lambda) = (lambda + alpha)*(lambda + delta)*char_fn(lambda)

carries a structural zero at lambda = -delta that is an eigenvalue only
under the condition reported by ``exclusions``.  The contour machinery
samples the deflated numerator char_num/(lambda + delta) instead, whose
zeros are exactly the eigenvalues when beta != 0.  The public evaluators
accept scalars or numpy arrays of lambda and follow numpy's warning
settings: where exp overflows they return inf or nan, with numpy's
RuntimeWarning unless the caller silences it.  Newton's private
``_deflated``/``_deflated_prime`` take one complex.

The feedback term beta*exp(-lambda*tau)*(l/f)*phi(w) is written once, in
``_feedback``, whose pieces ``_coupling`` multiplies and
``_coupling_and_prime`` also differentiates; region's axis gain is that
term solved for beta at lambda = i*omega, built from the same ``_phi``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, PoleAtMinusAlpha
from .params import SystemParams

# |w| below this evaluates phi and phi' by truncated series; the direct
# quotients lose relative accuracy through the 1 - exp(-w) cancellation,
# phi's by about 1e-16/|w| and phi''s, which cancels down to |w|^2/2, by
# about 1e-16/|w|^2.  At |w| = 5e-3 phi's six-term series is good to ~3e-18
# and its quotient to ~2e-14; phi''s five-term series to ~8e-15 and its
# quotient to ~3e-11.
_SERIES_SWITCH = 5e-3
_POLE_TOL = 1e-12
# |condition| below this makes -delta an eigenvalue in ``exclusions``.
_MINUS_DELTA_TOL = 1e-10


def _phi_series(w):
    return 1.0 - w / 2.0 + w**2 / 6.0 - w**3 / 24.0 + w**4 / 120.0 - w**5 / 720.0


def _phi_prime_series(w):
    return -0.5 + w / 3.0 - w**2 / 8.0 + w**3 / 30.0 - w**4 / 144.0


def _phi(w: np.ndarray) -> np.ndarray:
    """(1 - exp(-w))/w, entire, with the removable singularity at w = 0;
    the series is evaluated only where |w| < _SERIES_SWITCH.  When no |w| is
    below the switch, the quotient is taken of w itself, with no copy and no
    series mask; its values are those of the masked path bit for bit."""
    w = np.asarray(w)
    small = np.abs(w) < _SERIES_SWITCH
    if not small.any():
        return np.asarray((1.0 - np.exp(-w)) / w)
    ws = np.where(small, 1.0, w)
    # asarray keeps a 0-d result an array, so the series can be written in.
    phi = np.asarray((1.0 - np.exp(-ws)) / ws)
    if small.any():
        phi[small] = _phi_series(w[small])
    return phi


def _phi_prime(w: np.ndarray) -> np.ndarray:
    """Derivative of _phi, by series for |w| < _SERIES_SWITCH."""
    small = np.abs(w) < _SERIES_SWITCH
    ws = np.where(small, 1.0, w)
    direct = ((1.0 + ws) * np.exp(-ws) - 1.0) / (ws * ws)
    return np.where(small, _phi_prime_series(w), direct)


def _as_complex(lam) -> tuple[np.ndarray, bool]:
    arr = np.asarray(lam, dtype=complex)
    return arr, arr.ndim == 0


def _maybe_scalar(value: np.ndarray, scalar: bool):
    return complex(value) if scalar else value


# Newton's per-iterate evaluators: scalar-only, in plain complex arithmetic.
# cmath.exp raises OverflowError where numpy would return inf; Newton treats
# that as a failed start.
def _phi_scalar(w: complex) -> complex:
    if abs(w) < _SERIES_SWITCH:
        return _phi_series(w)
    return (1.0 - cmath.exp(-w)) / w


def _phi_prime_scalar(w: complex) -> complex:
    if abs(w) < _SERIES_SWITCH:
        return _phi_prime_series(w)
    return ((1.0 + w) * cmath.exp(-w) - 1.0) / (w * w)


def _deflated(params: SystemParams, lam: complex) -> complex:
    """char_num / (lambda + delta) at one point, entire; its zeros are the
    eigenvalues whenever beta != 0."""
    ratio = params.l / params.f
    w = (lam + params.delta) * ratio
    coupling = params.beta * cmath.exp(-lam * params.tau) * ratio * _phi_scalar(w)
    return (lam + params.alpha) - coupling


def _deflated_prime(params: SystemParams, lam: complex) -> complex:
    """Derivative of _deflated at one point."""
    ratio = params.l / params.f
    w = (lam + params.delta) * ratio
    expl = cmath.exp(-lam * params.tau)
    return 1.0 - params.beta * expl * ratio * (
        ratio * _phi_prime_scalar(w) - params.tau * _phi_scalar(w)
    )


def _feedback(params: SystemParams, arr: np.ndarray):
    """w = (lambda + delta)*l/f, beta*exp(-lambda*tau)*(l/f) and phi(w) at
    every lambda of arr; the feedback term is the product of the last two."""
    ratio = params.l / params.f
    w = (arr + params.delta) * ratio
    return w, params.beta * np.exp(-arr * params.tau) * ratio, _phi(w)


def _coupling(params: SystemParams, arr: np.ndarray) -> np.ndarray:
    """The feedback term beta*exp(-lambda*tau)*(l/f)*phi(w) at every lambda
    of arr."""
    _, gain, phi = _feedback(params, arr)
    return gain * phi


def _coupling_and_prime(params: SystemParams, arr: np.ndarray):
    """The feedback term at every lambda of arr, and the derivative
    1 - beta*exp(-lambda*tau)*(l/f)*((l/f)*phi'(w) - tau*phi(w)) of the
    deflated numerator there, from one exp(-lambda*tau) and one phi(w);
    _deflated_prime is its scalar form."""
    w, gain, phi = _feedback(params, arr)
    ratio = params.l / params.f
    return gain * phi, 1.0 - gain * (ratio * _phi_prime(w) - params.tau * phi)


def char_fn(params: SystemParams, lam):
    """Characteristic function; zeros (away from -alpha) are the eigenvalues.

    Raises PoleAtMinusAlpha when |lambda + alpha| < 1e-12*(1 + |alpha|).
    At lambda = -delta the removable singularity is evaluated by series,
    giving the convention value 1 - beta*l*exp(delta*tau)/(f*(alpha - delta)).
    """
    arr, scalar = _as_complex(lam)
    if np.any(np.abs(arr + params.alpha) < _POLE_TOL * (1.0 + abs(params.alpha))):
        raise PoleAtMinusAlpha(
            f"characteristic function has a pole at lambda = {-params.alpha}"
        )
    return _maybe_scalar(1.0 - _coupling(params, arr) / (arr + params.alpha), scalar)


def char_num(params: SystemParams, lam):
    """Entire numerator (lambda + alpha)(lambda + delta)*char_fn(lambda).

    No pole; char_num(-delta) = 0 exactly for every parameter point, and
    char_num(-alpha) vanishes iff beta = 0 or delta = alpha.
    """
    arr, scalar = _as_complex(lam)
    # np.asarray keeps a scalar lambda's products in numpy's array loops;
    # numpy scalar arithmetic can round differently in the last bit.
    val = (arr + params.delta) * np.asarray((arr + params.alpha) - _coupling(params, arr))
    return _maybe_scalar(val, scalar)


def char_num_prime(params: SystemParams, lam):
    """Analytic derivative of char_num."""
    arr, scalar = _as_complex(lam)
    coupling, prime = _coupling_and_prime(params, arr)
    q = np.asarray((arr + params.alpha) - coupling)
    val = q + (arr + params.delta) * np.asarray(prime)
    return _maybe_scalar(val, scalar)


def _deflated_with_scale(params: SystemParams, arr: np.ndarray):
    """The deflated numerator (lambda + alpha) - coupling, the one function
    eigensolver's contour sampling evaluates, and 1 plus the size
    |lambda + alpha| + |coupling| of the terms that cancel in it."""
    shifted = arr + params.alpha
    coupling = _coupling(params, arr)
    return shifted - coupling, np.abs(shifted) + np.abs(coupling) + 1.0


@dataclass(frozen=True)
class ExclusionReport:
    """Structural facts about the zeros of char_num.

    minus_delta_is_eigen : -delta is a genuine eigenvalue (the deflated
                           numerator vanishes there too)
    delta_equals_alpha   : degenerate case where the structural zero sits on
                           the pole; treated as excluded
    """

    minus_delta_is_eigen: bool
    delta_equals_alpha: bool


def exclusions(params: SystemParams) -> ExclusionReport:
    """Report whether -delta is an eigenvalue; requires beta != 0.  -alpha
    is never one while beta != 0."""
    if params.beta == 0.0:
        raise InvalidParameter("exclusions requires beta != 0")
    if params.delta == params.alpha:
        return ExclusionReport(minus_delta_is_eigen=False, delta_equals_alpha=True)
    # exp(delta*tau) overflows only where the condition is infinite, so
    # -delta is then no eigenvalue.
    with np.errstate(over="ignore"):
        growth = np.exp(params.delta * params.tau)
    condition = 1.0 - params.beta * params.l * growth / (params.f * (params.alpha - params.delta))
    return ExclusionReport(
        minus_delta_is_eigen=bool(abs(condition) <= _MINUS_DELTA_TOL),
        delta_equals_alpha=False,
    )
