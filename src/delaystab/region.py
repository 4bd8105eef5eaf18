"""Stability-region classification and bifurcation boundary tracing.

A parameter point is a stable steady state when every eigenvalue has
negative real part, oscillates when some eigenvalue has positive real part,
and sits on the boundary band when the spectral bound is numerically zero.
Exact membership of the boundary set has measure zero, so it is reported as
the band |max Re lambda| <= eps0.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq

from .characteristic import char_fn
from .eigensolver import BelowThreshold, spectral_bound
from .errors import (
    DelayStabError,
    DenominatorVanishes,
    InvalidParameter,
    NegativeTau,
    QuadratureNonInteger,
    SampleBudgetExceeded,
)
from .params import (
    SystemParams,
    _check_family,
    _search_radius,
    decay_certificate,
    threshold_gain,
)

_OMEGA_SCAN_POINTS = 4000
# A trace scan takes this many points per expected gap between crossings,
# and no more than the budget in all.
_SCAN_POINTS_PER_GAP = 16
_OMEGA_SCAN_BUDGET = 65536
_OMEGA_XTOL = 1e-12
_DENOM_TOL = 1e-14
_RESIDUAL_TOL = 1e-8


class Label(str, Enum):
    STABLE_STEADY_STATE = "StableSteadyState"
    LIMIT_CYCLE_OSCILLATION = "LimitCycleOscillation"
    BOUNDARY_BAND = "BoundaryBand"


class Evidence(str, Enum):
    SPECTRAL_SEARCH = "SpectralSearch"
    DECAY_CERTIFICATE = "DecayCertificate"
    GAIN_THRESHOLD_ALL_TAU = "GainThresholdAllTau"
    # Never produced; kept because perfbench/tracing.py builds its
    # region.evidence.* metric names from this enum.
    GAIN_THRESHOLD_TAU_WINDOW = "GainThresholdTauWindow"


@dataclass(frozen=True)
class RegionLabel:
    """Classification of one parameter point.

    max_real_part is the spectral bound when evidence is SpectralSearch, a
    BelowThreshold witness when the decay certificate applies, and None when
    the gain-threshold fast path decided without locating eigenvalues.
    """

    label: Label
    evidence: Evidence
    max_real_part: float | BelowThreshold | None


@dataclass(frozen=True)
class BoundaryPoint:
    """One traced point of the oscillation boundary.

    omega is the imaginary-axis frequency (only omega >= 0 is stored; the
    mirror -omega crossing carries the same beta), and residual is the
    characteristic-function modulus at i*omega after substituting beta.
    """

    tau: float
    beta: float
    omega: float
    residual: float


@dataclass(frozen=True)
class TraceResult:
    points: tuple[BoundaryPoint, ...]
    failures: tuple[tuple[float, str], ...] = ()


@dataclass(frozen=True)
class SweepNode:
    tau: float
    beta: float
    result: RegionLabel | None
    error: str | None = None


def oscillation_fast_path(fixed: tuple[float, float, float, float], beta: float) -> bool:
    """Analytic oscillation test: one comparison with the threshold gain.

    fixed = (alpha, delta, l, f) with delta > 0.  Returns True when beta
    exceeds b0 = threshold_gain(*fixed), so the point oscillates for every
    delay, and False when the test cannot decide.  On the real axis
    char_fn(x) is real, equals 1 - beta/b0 < 0 at x = 0 and tends to 1 as
    x -> +inf, so a positive real eigenvalue exists whatever the delay.
    """
    alpha, delta, l, f = fixed
    if delta <= 0.0:
        raise InvalidParameter("oscillation fast path requires delta > 0")
    return bool(beta > threshold_gain(alpha, delta, l, f))


def classify(params: SystemParams, eps0: float = 1e-8) -> RegionLabel:
    """Label one parameter point, preferring analytic evidence to numerics.

    Order: decay certificate, then the gain-threshold fast path (delta > 0
    only: a gain above the threshold oscillates for every delay), then a
    spectral search with sigma = 1000*eps0 thresholded at +/- eps0.  An
    eps0 that is not finite and > 0 raises InvalidParameter.
    """
    if not 0.0 < eps0 < math.inf:
        raise InvalidParameter(f"eps0 must be finite and > 0, got {eps0}")
    cert = decay_certificate(params)
    if cert is not None:
        return RegionLabel(
            Label.STABLE_STEADY_STATE,
            Evidence.DECAY_CERTIFICATE,
            BelowThreshold(-0.5 * cert.rate),
        )
    if params.delta > 0.0 and oscillation_fast_path(
        (params.alpha, params.delta, params.l, params.f), params.beta
    ):
        return RegionLabel(
            Label.LIMIT_CYCLE_OSCILLATION, Evidence.GAIN_THRESHOLD_ALL_TAU, None
        )
    bound = spectral_bound(params, sigma=eps0 * 1e3)
    if isinstance(bound, BelowThreshold) or bound < -eps0:
        return RegionLabel(Label.STABLE_STEADY_STATE, Evidence.SPECTRAL_SEARCH, bound)
    if bound > eps0:
        return RegionLabel(Label.LIMIT_CYCLE_OSCILLATION, Evidence.SPECTRAL_SEARCH, bound)
    return RegionLabel(Label.BOUNDARY_BAND, Evidence.SPECTRAL_SEARCH, bound)


def _classify_node(args) -> SweepNode:
    fixed, beta, tau, eps0 = args
    alpha, delta, l, f = fixed
    try:
        params = SystemParams(alpha, beta, delta, l, f, tau)
        return SweepNode(tau=tau, beta=beta, result=classify(params, eps0))
    except (DelayStabError, ValueError) as exc:
        return SweepNode(tau=tau, beta=beta, result=None, error=str(exc))


def sweep(
    fixed: tuple[float, float, float, float],
    beta_range: tuple[float, float],
    tau_range: tuple[float, float],
    grid_counts: tuple[int, int],
    eps0: float = 1e-8,
    workers: int = 1,
) -> list[SweepNode]:
    """Classify a (beta, tau) grid; row-major with beta as the outer index.

    grid_counts = (n_beta, n_tau), both integers >= 2.  A bad family, grid,
    range or eps0 raises before any node is classified: the family's
    SystemParams error, NegativeTau for a tau_range below 0,
    InvalidParameter otherwise, also for workers that is not an integer
    >= 1.  Failures of single nodes are recorded on the node and do not
    stop the sweep.  With workers > 1 the nodes are classified in a process
    pool of at most workers, node and usable CPU count processes; output
    order is deterministic either way.
    """
    _check_family(*fixed)
    n_beta, n_tau = grid_counts
    if not all(isinstance(n, numbers.Integral) and n >= 2 for n in grid_counts):
        raise InvalidParameter(f"grid_counts must be integers >= 2, got {grid_counts}")
    if not all(map(math.isfinite, (*beta_range, *tau_range))):
        raise InvalidParameter("sweep ranges must be finite")
    if min(tau_range) < 0.0:
        raise NegativeTau(f"tau_range must be >= 0, got {tau_range}")
    if not 0.0 < eps0 < math.inf:
        raise InvalidParameter(f"eps0 must be finite and > 0, got {eps0}")
    if not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise InvalidParameter(f"workers must be an integer >= 1, got {workers!r}")
    betas = np.linspace(beta_range[0], beta_range[1], n_beta)
    taus = np.linspace(tau_range[0], tau_range[1], n_tau)
    jobs = [
        (fixed, float(beta), float(tau), eps0) for beta in betas for tau in taus
    ]
    workers = min(workers, len(jobs), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_classify_node, jobs, chunksize=8))
    return [_classify_node(job) for job in jobs]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _axis_terms(fixed, omega, tau):
    """Numerator and denominator of the complex gain making i*omega an
    eigenvalue at delay tau (vectorized); the caller divides."""
    alpha, delta, l, f = fixed
    iw = 1j * np.asarray(omega, dtype=float)
    den = 1.0 - np.exp(-(iw + delta) * l / f)
    return np.exp(iw * tau) * (iw + alpha) * (iw + delta), den


def _axis_gain_scalar(fixed, omega: float, tau: float) -> complex:
    """Axis gain at one frequency, for a family the caller has checked."""
    num, den = _axis_terms(fixed, omega, tau)
    if abs(den) < _DENOM_TOL:
        raise DenominatorVanishes(
            f"axis gain denominator vanishes at omega={omega}, delta={fixed[1]}"
        )
    return complex(num / den)


def phase_residual(fixed, omega: float, tau: float) -> float:
    """Imaginary part of the axis gain; zero iff a real gain puts an
    eigenvalue at i*omega for this delay.  Odd in omega."""
    _check_family(*fixed)
    return _axis_gain_scalar(fixed, omega, tau).imag


def beta_on_axis(fixed, omega: float, tau: float) -> float:
    """Real part of the axis gain; the gain that places an eigenvalue at
    i*omega once phase_residual vanishes there."""
    _check_family(*fixed)
    return _axis_gain_scalar(fixed, omega, tau).real


def _scan_roots(fn, grid: np.ndarray, values: np.ndarray, valid=None) -> list[float]:
    """Roots of the scalar fn over grid, given its sampled values.

    Exact zeros on the grid are kept as they are; every strict sign flip
    between neighbouring valid samples is refined by brentq.  Roots closer
    than 1e-9 are merged.  valid (default: all) masks samples to ignore.
    """
    if valid is None:
        valid = np.ones(grid.shape, dtype=bool)
    nonzero = values != 0.0
    usable = valid & nonzero
    negative = values < 0.0
    flips = np.flatnonzero(usable[:-1] & usable[1:] & (negative[:-1] != negative[1:]))
    roots = [float(w) for w in grid[valid & ~nonzero]]
    for i in flips:
        roots.append(float(brentq(fn, grid[i], grid[i + 1], xtol=_OMEGA_XTOL, rtol=8.9e-16)))
    deduped: list[float] = []
    for w in sorted(roots):
        if not deduped or w - deduped[-1] > 1e-9:
            deduped.append(w)
    return deduped


def _omega_roots(fixed, tau: float, grid: np.ndarray) -> list[float]:
    num, den = _axis_terms(fixed, grid, tau)
    # Slots with a vanishing denominator divide to non-finite values; the
    # valid mask drops them.
    with np.errstate(invalid="ignore", divide="ignore"):
        values = (num / den).imag
    return _scan_roots(
        lambda w: _axis_gain_scalar(fixed, w, tau).imag, grid, values, np.abs(den) >= _DENOM_TOL
    )


def trace_boundary(
    fixed: tuple[float, float, float, float],
    tau_max: float,
    num_tau: int,
    omega_max: float | None = None,
) -> TraceResult:
    """Trace the oscillation boundary over a uniform delay grid.

    For each of num_tau delays spanning [0, tau_max], all real crossing
    frequencies omega in [0, omega_max] are located by a sign scan refined
    with brentq, the matching gain is read off, and the point is kept only
    if the characteristic residual at i*omega stays below 1e-8.  omega_max
    defaults to the eigenvalue search radius at |beta| = 10 plus 1, which
    holds every crossing with |beta| <= 10.  The gain's phase turns at about
    tau + l/f per unit of omega, so crossings lie about pi/(tau + l/f) apart
    or more; the scan takes 4000 points or 16 per such gap at tau_max,
    whichever is more.

    Before any delay is traced: a bad family raises its SystemParams error;
    a tau_max or omega_max that is not finite and positive, or a num_tau
    that is not an integer >= 2, raises InvalidParameter; a default window
    whose radius overflows raises QuadratureNonInteger; and a window needing
    more than 65536 scan points raises SampleBudgetExceeded, since a coarser
    scan would skip crossings.  Failures at single delays are recorded and
    skipped.
    """
    _check_family(*fixed)
    if not (0.0 < tau_max < math.inf) or not (
        isinstance(num_tau, numbers.Integral) and num_tau >= 2
    ):
        raise InvalidParameter("need finite tau_max > 0 and an integer num_tau >= 2")
    alpha, delta, l, f = fixed
    if omega_max is None:
        omega_max = _search_radius(10.0, delta, l, f) + 1.0
    if not 0.0 < omega_max < math.inf:
        raise InvalidParameter(f"omega_max must be finite and > 0, got {omega_max}")
    needed = _SCAN_POINTS_PER_GAP * omega_max * (tau_max + l / f) / math.pi
    if needed > _OMEGA_SCAN_BUDGET:
        raise SampleBudgetExceeded(
            f"omega_max={omega_max!r} at tau_max={tau_max!r} needs {needed:.3g} scan "
            f"points, over the budget of {_OMEGA_SCAN_BUDGET}; pass a smaller omega_max"
        )
    grid = np.linspace(0.0, omega_max, max(_OMEGA_SCAN_POINTS, math.ceil(needed)))
    points: list[BoundaryPoint] = []
    failures: list[tuple[float, str]] = []
    for p in range(num_tau):
        tau = p * tau_max / (num_tau - 1)
        try:
            omegas = _omega_roots(fixed, tau, grid)
        except (DelayStabError, ValueError) as exc:
            failures.append((tau, str(exc)))
            continue
        for omega in omegas:
            try:
                beta = _axis_gain_scalar(fixed, omega, tau).real
                params = SystemParams(alpha, beta, delta, l, f, tau)
                residual = abs(char_fn(params, 1j * omega))
            except (DelayStabError, ValueError) as exc:
                failures.append((tau, f"omega={omega}: {exc}"))
                continue
            if residual <= _RESIDUAL_TOL:
                points.append(BoundaryPoint(tau=tau, beta=beta, omega=omega, residual=residual))
            else:
                failures.append((tau, f"omega={omega}: residual {residual:.3e}"))
    return TraceResult(points=tuple(points), failures=tuple(failures))


def axis_crossing_candidates(params: SystemParams) -> list[float]:
    """Non-negative frequencies where an imaginary-axis eigenvalue is
    possible on modulus grounds (delay-independent necessary condition).

    Solves |i*omega + alpha|^2 |i*omega + delta|^2 =
    beta^2 * |1 - exp(-(i*omega + delta) l/f)|^2 by a sign scan refined with
    brentq up to the eigenvalue search radius plus 1, beyond which the
    quartic left side dominates, so the list is finite.  Where the radius
    or the scan's moduli overflow (delta*l/f below about -354 at |beta| = 1)
    it raises QuadratureNonInteger.
    """
    alpha, delta, l, f = params.alpha, params.delta, params.l, params.f
    x = delta * l / f
    gain_sq = params.beta * params.beta

    def mismatch(omega):
        omega = np.asarray(omega, dtype=float)
        lhs = (omega**2 + alpha**2) * (omega**2 + delta**2)
        rhs = gain_sq * (
            1.0 + math.exp(-2.0 * x) - 2.0 * math.exp(-x) * np.cos(omega * l / f)
        )
        return lhs - rhs

    ceiling = _search_radius(params.beta, delta, l, f) + 1.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            grid = np.linspace(0.0, ceiling, _OMEGA_SCAN_POINTS)
            roots = _scan_roots(lambda w: float(mismatch(w)), grid, mismatch(grid))
            scale0 = delta**2 * alpha**2 + gain_sq * math.expm1(-x) ** 2 + 1.0
            at_zero = abs(float(mismatch(0.0)))
    except (OverflowError, FloatingPointError) as exc:
        raise QuadratureNonInteger(f"axis modulus scan overflows for {params}") from exc
    if at_zero <= 1e-12 * scale0:
        # omega = 0 stands in for every root within the merge distance of it.
        roots = [0.0] + [w for w in roots if w > 1e-9]
    return roots
