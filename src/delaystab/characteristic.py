"""Characteristic function of the loop and its pole-free numerator.

Away from lambda = -alpha the eigenvalues of the system operator are exactly
the zeros of

    char_fn(lambda) = 1 - beta*exp(-lambda*tau) * phi(w) * (l/f) / (lambda + alpha)

with w = (lambda + delta)*l/f and phi(w) = (1 - exp(-w))/w extended by
phi(0) = 1.  The entire numerator

    char_num(lambda) = (lambda + alpha)*(lambda + delta)*char_fn(lambda)

is what the contour machinery counts; it carries a structural zero at
lambda = -delta that is an eigenvalue only under the condition reported by
``exclusions``.  The public evaluators accept scalars or numpy arrays of
lambda; Newton's private ``_deflated``/``_deflated_prime`` take one complex.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, PoleAtMinusAlpha
from .params import SystemParams

# |w| below this evaluates phi by truncated series; the direct quotient
# loses relative accuracy through the 1 - exp(-w) cancellation.
_SERIES_SWITCH = 1e-6
# phi' switches later: its direct quotient cancels down to |w|^2/2, so just
# above 1e-6 it keeps only about five digits.  At |w| = 5e-3 the five-term
# series is good to ~8e-15 and the quotient to ~3e-11.
_PRIME_SERIES_SWITCH = 5e-3
_POLE_TOL = 1e-12


def _quiet(fn):
    # Contour samples may reach lambda where exp overflows; callers check
    # finiteness, so the numpy warnings are just noise.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)

    return wrapper


# _phi and _phi_prime are only called from _quiet evaluators, which already
# silence their overflow warnings.
def _phi(w: np.ndarray) -> np.ndarray:
    """(1 - exp(-w))/w, entire, with the removable singularity at w = 0."""
    small = np.abs(w) < _SERIES_SWITCH
    ws = np.where(small, 1.0, w)
    direct = (1.0 - np.exp(-ws)) / ws
    series = 1.0 - w / 2.0 + w**2 / 6.0 - w**3 / 24.0 + w**4 / 120.0
    return np.where(small, series, direct)


def _phi_prime(w: np.ndarray) -> np.ndarray:
    """Derivative of _phi, by series for |w| < _PRIME_SERIES_SWITCH."""
    small = np.abs(w) < _PRIME_SERIES_SWITCH
    ws = np.where(small, 1.0, w)
    direct = ((1.0 + ws) * np.exp(-ws) - 1.0) / (ws * ws)
    series = -0.5 + w / 3.0 - w**2 / 8.0 + w**3 / 30.0 - w**4 / 144.0
    return np.where(small, series, direct)


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
        return 1.0 - w / 2.0 + w**2 / 6.0 - w**3 / 24.0 + w**4 / 120.0
    return (1.0 - cmath.exp(-w)) / w


def _phi_prime_scalar(w: complex) -> complex:
    if abs(w) < _PRIME_SERIES_SWITCH:
        return -0.5 + w / 3.0 - w**2 / 8.0 + w**3 / 30.0 - w**4 / 144.0
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


def _check_pole(params: SystemParams, arr: np.ndarray) -> None:
    if np.any(np.abs(arr + params.alpha) < _POLE_TOL * (1.0 + abs(params.alpha))):
        raise PoleAtMinusAlpha(
            f"characteristic function has a pole at lambda = {-params.alpha}"
        )


@_quiet
def char_fn(params: SystemParams, lam):
    """Characteristic function; zeros (away from -alpha) are the eigenvalues.

    Raises PoleAtMinusAlpha when |lambda + alpha| < 1e-12*(1 + |alpha|).
    At lambda = -delta the removable singularity is evaluated by series,
    giving the convention value 1 - beta*l*exp(delta*tau)/(f*(alpha - delta)).
    """
    arr, scalar = _as_complex(lam)
    _check_pole(params, arr)
    w = (arr + params.delta) * (params.l / params.f)
    val = 1.0 - params.beta * np.exp(-arr * params.tau) * (
        params.l / params.f
    ) * _phi(w) / (arr + params.alpha)
    return _maybe_scalar(val, scalar)


def char_fn_no_delay(params: SystemParams, lam):
    """Characteristic function of the delay-free (tau = 0) operator."""
    return char_fn(replace(params, tau=0.0), lam)


@_quiet
def char_num(params: SystemParams, lam):
    """Entire numerator (lambda + alpha)(lambda + delta)*char_fn(lambda).

    No pole; char_num(-delta) = 0 exactly for every parameter point, and
    char_num(-alpha) vanishes iff beta = 0 or delta = alpha.
    """
    arr, scalar = _as_complex(lam)
    # np.asarray keeps a scalar lambda's products in numpy's array loops;
    # numpy scalar arithmetic can round differently in the last bit.
    val = (arr + params.delta) * np.asarray(_coupled(params, arr)[0])
    return _maybe_scalar(val, scalar)


@_quiet
def char_num_prime(params: SystemParams, lam):
    """Analytic derivative of char_num."""
    arr, scalar = _as_complex(lam)
    q = np.asarray(_coupled(params, arr)[0])
    ratio = params.l / params.f
    w = (arr + params.delta) * ratio
    expl = np.exp(-arr * params.tau)
    qp = np.asarray(
        1.0 - params.beta * expl * ratio * (ratio * _phi_prime(w) - params.tau * _phi(w))
    )
    val = q + (arr + params.delta) * qp
    return _maybe_scalar(val, scalar)


def _coupled(params: SystemParams, arr: np.ndarray):
    """Deflated numerator (lambda + alpha) - coupling, and the size
    |lambda + alpha| + |coupling| of the terms that cancel in it."""
    ratio = params.l / params.f
    w = (arr + params.delta) * ratio
    coupling = params.beta * np.exp(-arr * params.tau) * ratio * _phi(w)
    return (arr + params.alpha) - coupling, np.abs(arr + params.alpha) + np.abs(coupling)


# _deflated_with_scale is the one function eigensolver's contour sampling
# evaluates, under _quiet.  The package no longer calls _num_with_scale;
# eigensolver imports it only because perfbench/tracing.py rebinds it there.
def _num_with_scale(params: SystemParams, arr: np.ndarray):
    """char_num values plus a cancellation scale for on-zero detection."""
    q, size = _coupled(params, arr)
    return (arr + params.delta) * q, np.abs(arr + params.delta) * size + 1.0


def _deflated_with_scale(params: SystemParams, arr: np.ndarray):
    q, size = _coupled(params, arr)
    return q, size + 1.0


@dataclass(frozen=True)
class ExclusionReport:
    """Structural facts about the zeros of char_num.

    minus_delta_is_eigen : -delta is a genuine eigenvalue (the deflated
                           numerator vanishes there too)
    minus_alpha_note     : -alpha is never an eigenvalue while beta != 0
    delta_equals_alpha   : degenerate case where the structural zero sits on
                           the pole; treated as excluded
    """

    minus_delta_is_eigen: bool
    minus_alpha_note: bool
    delta_equals_alpha: bool


def exclusions(params: SystemParams, tol: float = 1e-10) -> ExclusionReport:
    """Report whether -delta is an eigenvalue; requires beta != 0."""
    if params.beta == 0.0:
        raise InvalidParameter("exclusions requires beta != 0")
    if params.delta == params.alpha:
        return ExclusionReport(
            minus_delta_is_eigen=False, minus_alpha_note=True, delta_equals_alpha=True
        )
    # exp(delta*tau) overflows only where the condition is infinite, so
    # -delta is then no eigenvalue.
    with np.errstate(over="ignore"):
        growth = np.exp(params.delta * params.tau)
    condition = 1.0 - params.beta * params.l * growth / (params.f * (params.alpha - params.delta))
    return ExclusionReport(
        minus_delta_is_eigen=bool(abs(condition) <= tol),
        minus_alpha_note=True,
        delta_equals_alpha=False,
    )
