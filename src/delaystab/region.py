"""Stability-region classification and bifurcation boundary tracing.

A parameter point is a stable steady state when every eigenvalue has
negative real part, oscillates when some eigenvalue has positive real part,
and sits on the boundary band when the spectral bound is numerically zero.
Exact membership of the boundary set has measure zero, so it is reported as
the band |max Re lambda| <= eps0.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

# Unused here; perfbench's import probe expects `import delaystab` to import
# scipy.optimize.
import scipy.optimize  # noqa: F401

from .characteristic import _phi, char_fn
from .eigensolver import BelowThreshold, spectral_bound
from .errors import (
    DelayStabError,
    DenominatorVanishes,
    InvalidParameter,
    NegativeTau,
    PoleAtMinusAlpha,
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
# Array rounds of the bracket refinement: a bracket around a root closes in
# about 10, one across a pole of the gain may run to the cap.
_REFINE_ROUNDS = 60
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

    grid_counts = (n_beta, n_tau), both integers >= 2, and each range is a
    (start, stop) pair whose ends and span stop - start are finite.  A bad
    family, grid, range or eps0 raises before any node is classified: the
    family's SystemParams error, NegativeTau for a tau_range below 0,
    InvalidParameter otherwise, also for workers that is not an integer
    >= 1.  Failures of single nodes are recorded on the node and do not
    stop the sweep.  With workers > 1 the nodes are classified in a process
    pool of at most workers, node and usable CPU count processes; output
    order is deterministic either way.
    """
    _check_family(*fixed)
    pairs = (grid_counts, beta_range, tau_range)
    if any(len(pair) != 2 for pair in pairs):
        raise InvalidParameter(f"grid_counts and both ranges must be pairs, got {pairs}")
    n_beta, n_tau = grid_counts
    if not all(isinstance(n, numbers.Integral) and n >= 2 for n in grid_counts):
        raise InvalidParameter(f"grid_counts must be integers >= 2, got {grid_counts}")
    # hi - lo is finite iff both ends are and the span does not overflow.
    if not all(math.isfinite(hi - lo) for lo, hi in (beta_range, tau_range)):
        raise InvalidParameter("sweep ranges and their spans must be finite")
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


def _axis_gain(fixed, omega):
    """The delay-free factor G(omega) = (i*omega + alpha)/((l/f)*phi(w)),
    w = (i*omega + delta)*l/f, of the gain exp(i*omega*tau)*G(omega) that
    makes i*omega an eigenvalue at delay tau: char_fn's feedback term solved
    for beta (vectorized).  G(0) is the threshold gain for every delta.
    NaN where |(l/f)*phi(w)| < 1e-14, at the poles delta = 0,
    omega = 2*pi*k*f/l, k != 0."""
    alpha, delta, l, f = fixed
    iw = 1j * np.asarray(omega, dtype=float)
    den = (l / f) * _phi((iw + delta) * (l / f))
    return np.where(np.abs(den) < _DENOM_TOL, np.nan, (iw + alpha) / den)


def _check_axis_gain(fixed) -> None:
    """Raise QuadratureNonInteger below delta*l/f of about -709.43, the cut
    where numpy's complex division by 1 - exp(-w), which scales by up to
    sqrt(2)*|1 - exp(-w)| <= sqrt(2)*(1 + exp(-delta*l/f)), overflows; the
    gain divides by (l/f)*phi(w) instead and keeps the same cut."""
    _, delta, l, f = fixed
    # The cap keeps math.exp from raising: exp(709.78) is finite, and
    # sqrt(2) times it is not.
    if math.sqrt(2.0) * (1.0 + math.exp(min(-delta * l / f, 709.78))) == math.inf:
        raise QuadratureNonInteger(f"axis gain overflows at delta*l/f={delta * l / f}")


def _axis_gain_scalar(fixed, omega: float, tau: float) -> complex:
    """Axis gain at one frequency, for a family the caller has checked; a
    non-finite omega or tau raises InvalidParameter."""
    if not (math.isfinite(omega) and math.isfinite(tau)):
        raise InvalidParameter(f"omega and tau must be finite, got {omega}, {tau}")
    gain = complex(np.exp(1j * omega * tau) * _axis_gain(fixed, omega))
    if cmath.isnan(gain):
        raise DenominatorVanishes(
            f"axis gain denominator vanishes at omega={omega}, delta={fixed[1]}"
        )
    return gain


def phase_residual(fixed, omega: float, tau: float) -> float:
    """Imaginary part of the axis gain; zero iff a real gain puts an
    eigenvalue at i*omega for this delay.  Odd in omega.  Raises the
    SystemParams error for a bad family, QuadratureNonInteger below
    delta*l/f of about -709.43 (_check_axis_gain), DenominatorVanishes at a
    pole of the gain (delta = 0, omega = 2*pi*k*f/l, k != 0), and
    InvalidParameter for an omega or tau that is not finite."""
    _check_family(*fixed)
    _check_axis_gain(fixed)
    return _axis_gain_scalar(fixed, omega, tau).imag


def beta_on_axis(fixed, omega: float, tau: float) -> float:
    """Real part of the axis gain; the gain that places an eigenvalue at
    i*omega once phase_residual vanishes there.  Raises as phase_residual
    does."""
    _check_family(*fixed)
    _check_axis_gain(fixed)
    return _axis_gain_scalar(fixed, omega, tau).real


def _scan_roots(fn, grid: np.ndarray, rows) -> list[list[float]]:
    """Roots of several functions over grid, given their sampled values.

    rows yields the values of one function per row, and fn(omega, row)
    evaluates them at arrays of frequencies and row indices.  Exact zeros on
    the grid are kept as they are; every strict sign flip between
    neighbouring samples is a bracket, and _refine refines the brackets of
    all rows together.  NaN samples take part in neither.  Roots of a row
    closer than 1e-9 are merged.  Returns each row's roots in increasing
    order.
    """
    found, brackets = [], []
    for k, values in enumerate(rows):
        sign = np.sign(values)
        i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
        found += [(k, w) for w in grid[values == 0.0].tolist()]
        brackets.append((np.full(i.size, k), grid[i], grid[i + 1], values[i], values[i + 1]))
    row, *bracket = (np.concatenate(parts) for parts in zip(*brackets))
    found += zip(row.tolist(), _refine(fn, row, *bracket).tolist())
    roots: list[list[float]] = [[] for _ in brackets]
    for k, w in sorted(found):
        if not roots[k] or w - roots[k][-1] > 1e-9:
            roots[k].append(w)
    return roots


def _refine(fn, row, lo, hi, flo, fhi) -> np.ndarray:
    """Roots of every bracket at once: the Illinois variant of regula falsi
    (Dowell & Jarratt, BIT 11, 1971), safeguarded by bisection.

    Bracket j is [lo[j], hi[j]], whose values flo[j], fhi[j] of the function
    fn(omega, row) evaluates at row[j] have strictly opposite signs; the four
    arrays are refined in place.  Each round steps every open bracket to its
    regula falsi point, held at least one ulp inside, and halves the value of
    an end kept twice in a row; every third round bisects instead, so a
    bracket at least halves in three.  A bracket closes when it is two ulps
    wide or less, or its new value is zero or NaN (a NaN leaves the bracket
    as it was); all close after _REFINE_ROUNDS rounds.  Its root is its end
    of smaller |value|.
    """
    moved = np.zeros(lo.size, dtype=np.int8)  # +1: lo moved last round, -1: hi
    live = np.arange(lo.size)
    for k in range(_REFINE_ROUNDS):
        if not live.size:
            break
        a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = np.clip(b - fb * (b - a) / (fb - fa), a + ulp, b - ulp)
        c = np.where((k % 3 == 2) | np.isnan(c), a + 0.5 * (b - a), c)
        fc = fn(c, row[live])
        finite = ~np.isnan(fc)
        to_lo = finite & ((fc < 0.0) == (fa < 0.0))
        to_hi = finite & ~to_lo
        flo[live] *= np.where(to_hi & (moved[live] == -1), 0.5, 1.0)
        fhi[live] *= np.where(to_lo & (moved[live] == 1), 0.5, 1.0)
        lo[live], flo[live] = np.where(to_lo, c, a), np.where(to_lo, fc, flo[live])
        hi[live], fhi[live] = np.where(to_hi, c, b), np.where(to_hi, fc, fhi[live])
        moved[live] = np.where(to_lo, 1, -1)
        live = live[finite & (fc != 0.0) & (hi[live] - lo[live] > 2.0 * ulp)]
    return np.where(np.abs(flo) <= np.abs(fhi), lo, hi)


def trace_boundary(
    fixed: tuple[float, float, float, float],
    tau_max: float,
    num_tau: int,
    omega_max: float | None = None,
) -> TraceResult:
    """Trace the oscillation boundary over a uniform delay grid.

    For each of num_tau delays spanning [0, tau_max], all real crossing
    frequencies omega in [0, omega_max] are located by a sign scan, and the
    brackets of all delays are refined together by _refine; the matching
    gain is read off, and the point is kept only if the characteristic
    residual at i*omega stays below 1e-8.  The scan samples the
    delay-independent factor _axis_gain once; each delay, in the scan and
    in the refinement alike, turns it by exp(i*omega*tau).  A sign flip
    across a pole of the gain (delta = 0, omega = 2*pi*k*f/l, k != 0, where
    the gain is NaN) refines to a point near the pole, which the residual
    check rejects; omega = 0 at delta = 0 is the threshold branch, listed
    at beta = threshold_gain for every delay.  omega_max defaults to the
    eigenvalue search radius at |beta| = 10 plus 1, which holds every
    crossing with |beta| <= 10.  The gain's phase turns at about tau + l/f
    per unit of omega, so crossings lie about pi/(tau + l/f) apart or more;
    the scan takes 4000 points or 16 per such gap at tau_max, whichever is
    more.

    Before any delay is traced: a bad family raises its SystemParams error;
    a tau_max or omega_max that is not finite and positive, or a num_tau
    that is not an integer >= 2, raises InvalidParameter; a default window
    whose radius overflows, or any window below delta*l/f of about -709.43
    (_check_axis_gain), raises QuadratureNonInteger; and a window needing
    more than 65536 scan points raises SampleBudgetExceeded, since a coarser
    scan would skip crossings.
    A crossing whose gain is not finite, or whose residual fails, is
    recorded as a failure at its delay and skipped.
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
    _check_axis_gain(fixed)
    needed = _SCAN_POINTS_PER_GAP * omega_max * (tau_max + l / f) / math.pi
    if needed > _OMEGA_SCAN_BUDGET:
        raise SampleBudgetExceeded(
            f"omega_max={omega_max!r} at tau_max={tau_max!r} needs {needed:.3g} scan "
            f"points, over the budget of {_OMEGA_SCAN_BUDGET}; pass a smaller omega_max"
        )
    grid = np.linspace(0.0, omega_max, max(_OMEGA_SCAN_POINTS, math.ceil(needed)))
    taus = np.arange(num_tau) * tau_max / (num_tau - 1)

    def phase(omega, rows):
        return (np.exp(1j * omega * taus[rows]) * _axis_gain(fixed, omega)).imag

    # The gain is NaN at its poles, on the grid and (phase) at an iterate,
    # so the scan and the refinement both leave them out.
    gain = _axis_gain(fixed, grid)
    scans = ((np.exp(1j * grid * tau) * gain).imag for tau in taus)
    roots = _scan_roots(phase, grid, scans)
    at = np.repeat(taus, [len(r) for r in roots])
    omegas = np.array([w for r in roots for w in r], dtype=float)
    betas = (np.exp(1j * omegas * at) * _axis_gain(fixed, omegas)).real
    # char_fn reads only these six fields, so arrays of beta and tau take
    # every crossing's residual in one call.
    family = SimpleNamespace(alpha=alpha, beta=betas, delta=delta, l=l, f=f, tau=at)
    try:
        residuals = np.abs(char_fn(family, 1j * omegas))
    except PoleAtMinusAlpha:
        residuals = np.full(betas.size, np.nan)
    points, failures = [], []
    crossings = zip(betas.tolist(), residuals.tolist())
    for tau, omegas_at_tau in zip(taus.tolist(), roots):
        for omega, (beta, residual) in zip(omegas_at_tau, crossings):
            try:
                # A NaN residual means a non-finite gain, or a batch that met
                # char_fn's pole at -alpha: this crossing's own check names
                # its failure, if it has one.
                if not math.isfinite(residual):
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
    beta^2 * |1 - exp(-(i*omega + delta) l/f)|^2 by a sign scan refined by
    _refine up to the eigenvalue search radius plus 1, beyond which the
    quartic left side dominates, so the list is finite.  For every real
    delta the axis gain's modulus is at least sqrt(omega^2 + alpha^2)/I >=
    b0, the threshold gain, where I = int_0^{l/f} exp(-delta*s) ds.  So
    where b0 > 0 and |beta| is at most b0 + w, w = 1e-12*b0, nothing is
    scanned: the list is [0.0] if |beta| >= b0 - w and empty otherwise,
    0.0 standing for every root inside that window.  The window is
    relative to b0, because only then does every root inside it lie next
    to omega = 0.  At delta = 0 the equation holds at omega = 0 for every
    beta, and above the window omega = 0 is not listed.  Where the radius
    or the scan's moduli overflow (delta*l/f below about -354 at
    |beta| = 1, and wherever b0 underflows to 0) it raises
    QuadratureNonInteger.
    """
    alpha, delta, l, f = params.alpha, params.delta, params.l, params.f
    b0 = threshold_gain(alpha, delta, l, f)
    window = 1e-12 * b0
    if b0 > 0.0 and abs(params.beta) <= b0 + window:
        return [0.0] if abs(params.beta) >= b0 - window else []
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
            (roots,) = _scan_roots(lambda w, _: mismatch(w), grid, [mismatch(grid)])
    except (OverflowError, FloatingPointError) as exc:
        raise QuadratureNonInteger(f"axis modulus scan overflows for {params}") from exc
    # The factor omega^2 + delta^2 makes omega = 0 solve the equation for
    # every beta at delta = 0.
    return [w for w in roots if w != 0.0]
