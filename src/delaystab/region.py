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
import os
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
    _DELAY_SAMPLES,
    _count,
    _pair,
    _real,
    _shown,
)
from .params import (
    SystemParams,
    _family,
    _search_radius,
    _threshold_gain,
    decay_certificate,
)

_OMEGA_SCAN_POINTS = 4000
# A trace scan takes this many points per expected gap between crossings,
# and no more than the budget in all.
_SCAN_POINTS_PER_GAP = 16
_OMEGA_SCAN_BUDGET = 65536
# Array rounds of the bracket refinement; a bracket around a simple root
# closes in about 10.
_REFINE_ROUNDS = 60
# The flip scan (_odd_steps): its slack on a turn count, in units of pi; the
# cost of a candidate interval, in samples of a scan of every delay; and the
# intervals or samples it takes at a time.
_TURN_SLACK = 1e-9
_STEP_COST = 8
_BLOCK = 1 << 14
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
    A bad family raises as threshold_gain does (params._family); a beta
    that is not finite (NaN, inf or an int past the float range) raises
    NonFiniteField (errors._real).
    """
    alpha, delta, l, f = _family(fixed)
    if delta <= 0.0:
        raise InvalidParameter("oscillation fast path requires delta > 0")
    return bool(_real("beta", beta) > _threshold_gain(alpha, delta, l, f))


def classify(params: SystemParams, eps0: float = 1e-8) -> RegionLabel:
    """Label one parameter point, preferring analytic evidence to numerics.

    Order: decay certificate, then the gain-threshold fast path (delta > 0
    only: a gain above the threshold oscillates for every delay), then a
    spectral search with sigma = 1000*eps0 thresholded at +/- eps0.  An
    eps0 that is not > 0, or whose sigma is not finite, raises
    InvalidParameter before any evidence is looked at (_eps0).
    """
    eps0 = _eps0(eps0)
    cert = decay_certificate(params)
    if cert is not None:
        return RegionLabel(
            Label.STABLE_STEADY_STATE,
            Evidence.DECAY_CERTIFICATE,
            BelowThreshold(-0.5 * cert.rate),
        )
    # oscillation_fast_path's comparison, on the family params holds
    if params.delta > 0.0 and params.beta > _threshold_gain(
        params.alpha, params.delta, params.l, params.f
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


def _eps0(eps0) -> float:
    """eps0 as a float; InvalidParameter for one that is not finite and > 0
    (errors._real) or whose search sigma = 1000*eps0 is not finite (eps0
    above about 1.8e305)."""
    eps0 = _real("eps0", eps0, 0)
    if eps0 * 1e3 == math.inf:
        raise InvalidParameter(f"eps0 must be > 0 and 1000*eps0 finite, got {eps0}")
    return eps0


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

    grid_counts = (n_beta, n_tau), both counts >= 2 (errors._count) with
    n_beta*n_tau at most 2**24 (_DELAY_SAMPLES) nodes, and each range is a
    (start, stop) pair whose ends (admitted by errors._real) and whose
    span, stop minus start, are finite; each of the three is admitted as a
    pair by errors._pair.  A bad family, grid, range or eps0
    raises before any array is built or node classified: the family's
    error (params._family), NegativeTau for a tau_range below 0,
    NonFiniteField for a range end or count that is not finite,
    InvalidParameter otherwise (for eps0, as classify would: _eps0), also
    for workers that is not a count >= 1.  Failures of single nodes are
    recorded on the node and do not stop the sweep.
    With workers > 1 the nodes are classified in a process pool of at most
    workers, node and usable CPU count processes; output order is
    deterministic either way.
    """
    fixed = _family(fixed)
    counts = _pair("grid_counts", grid_counts)
    n_beta, n_tau = (_count(name, n, 2) for name, n in zip(("n_beta", "n_tau"), counts))
    # n_beta*n_tau > _DELAY_SAMPLES, written so that no product overflows
    if n_beta > _DELAY_SAMPLES // n_tau:
        raise InvalidParameter(
            f"grid_counts={_shown(grid_counts)} asks for more than {_DELAY_SAMPLES} nodes"
        )
    ranges = (("beta_range", beta_range), ("tau_range", tau_range))
    beta_ends, tau_ends = ([_real(name, x) for x in _pair(name, pair)] for name, pair in ranges)
    # each end is admitted as a float, and the span of two can still overflow
    if not all(math.isfinite(hi - lo) for lo, hi in (beta_ends, tau_ends)):
        raise InvalidParameter("sweep ranges and their spans must be finite")
    if min(tau_ends) < 0.0:
        raise NegativeTau(f"tau_range must be >= 0, got {tau_range}")
    eps0 = _eps0(eps0)
    workers = _count("workers", workers, 1)
    betas = np.linspace(*beta_ends, n_beta)
    taus = np.linspace(*tau_ends, n_tau)
    jobs = [
        (fixed, float(beta), float(tau), eps0) for beta in betas for tau in taus
    ]
    workers = min(workers, len(jobs), _usable_cpus())
    if workers > 1:
        # imported here, so that a process that starts no pool never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_classify_node, jobs, chunksize=8))
    return [_classify_node(job) for job in jobs]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _axis_factor(fixed, omega):
    """The entire factor D(omega) = (l/f)*phi(w), w = (i*omega + delta)*l/f,
    of char_fn's feedback term on the imaginary axis (vectorized).  It
    vanishes only at delta = 0, omega = 2*pi*k*f/l, k != 0."""
    _, delta, l, f = fixed
    return (l / f) * _phi((1j * np.asarray(omega, dtype=float) + delta) * (l / f))


def _axis_gain(fixed, omega):
    """The delay-free factor G(omega) = (i*omega + alpha)/D(omega) of the
    gain exp(i*omega*tau)*G(omega) that makes i*omega an eigenvalue at
    delay tau: char_fn's feedback term solved for beta (vectorized).  G(0)
    is the threshold gain for every delta.  NaN where |D| <= 1e-14*(l/f),
    that is |phi(w)| <= 1e-14, at the poles delta = 0, omega = 2*pi*k*f/l,
    k != 0: the test scales with D, so a short tube has no spurious poles
    and a long one no missed ones.  The scans sample D itself, which has no
    poles."""
    alpha, _, l, f = fixed
    den = _axis_factor(fixed, omega)
    pole = np.abs(den) <= _DENOM_TOL * (l / f)
    num = 1j * np.asarray(omega) + alpha
    # divided off the poles alone: an l/f that underflows to 0 makes D 0
    return np.divide(num, den, out=np.full(num.shape, np.nan, complex), where=~pole)


def _check_axis_gain(fixed) -> None:
    """Raise QuadratureNonInteger below delta*l/f of about -709.43, the cut
    where numpy's complex division by 1 - exp(-w), which scales by up to
    sqrt(2)*|1 - exp(-w)| <= sqrt(2)*(1 + exp(-delta*l/f)), overflows; the
    gain divides by (l/f)*phi(w) instead and keeps the same cut.  It raises
    too where (1 + exp(-delta*l/f))*(l/f)/max(1, -delta*l/f), a bound on
    |D| = |(l/f)*phi(w)|, overflows, on a long tube: D itself would."""
    _, delta, l, f = fixed
    x = delta * l / f
    # The cap keeps math.exp from raising: exp(709.78) is finite, and
    # sqrt(2) times it is not.
    if (1.0 + math.exp(min(-x, 709.78))) * max(math.sqrt(2.0), l / f / max(1.0, -x)) == math.inf:
        raise QuadratureNonInteger(f"axis gain overflows at delta*l/f={x}")


def _axis_gain_scalar(fixed, omega: float, tau: float) -> complex:
    """Axis gain at one frequency; raises as phase_residual does."""
    fixed = _family(fixed)
    _check_axis_gain(fixed)
    omega, tau = _real("omega", omega), _real("tau", tau)
    # a finite omega and tau whose product leaves the float range are
    # refused before exp(1j*omega*tau) makes the gain NaN
    _real("omega*tau", omega * tau)
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
    pole of the gain (delta = 0, omega = 2*pi*k*f/l, k != 0, recognised by
    |phi(w)| <= 1e-14 whatever the tube's l/f), and InvalidParameter for an
    omega, a tau or a product omega*tau that is not finite (errors._real:
    NonFiniteField for NaN, inf or an int past the float range), before any
    numpy call: finite omega = tau = 1e200 make a phase past the float
    range."""
    return _axis_gain_scalar(fixed, omega, tau).imag


def beta_on_axis(fixed, omega: float, tau: float) -> float:
    """Real part of the axis gain; the gain that places an eigenvalue at
    i*omega once phase_residual vanishes there.  Raises as phase_residual
    does."""
    return _axis_gain_scalar(fixed, omega, tau).real


def _flips(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (zeros, lefts) index pair of sampled values: the exact zeros, and
    the left end of every step between neighbours of strictly opposite
    signs.  A NaN sample is in neither."""
    sign = np.sign(values)
    return np.flatnonzero(values == 0.0), np.flatnonzero(sign[:-1] * sign[1:] < 0.0)


def _scan_roots(fn, grid: np.ndarray, zeros, lefts) -> tuple[np.ndarray, np.ndarray]:
    """Roots of several functions over grid, given where each one's samples
    vanish and change sign.

    zeros and lefts are flat (row, index) pairs of index arrays into grid,
    as _flips reads them off each row's sampled values: grid[index] of a
    zero is a root of its row as it is, and each step [grid[i], grid[i + 1]]
    of a left i is a bracket of its row.  fn(omega, row) evaluates the
    functions at arrays of frequencies and row indices; it gives the values
    at the ends of every bracket, and _refine refines the brackets of all
    rows together.  A row where these do not give some bracket's ends
    strictly opposite signs (a pair read within rounding of a root) is
    scanned again: its zeros and lefts are _flips of fn's values over the
    whole grid, and its brackets' ends take those values.  Returns the flat
    pair (row, root) of arrays, sorted by row and then by root; a root
    within 1e-9 of the previous root of its row is merged into it, so a
    chain of such roots keeps only its first.
    """
    (zrow, zero), (row, i) = zeros, lefts
    flo, fhi = fn(grid[i], row), fn(grid[i + 1], row)
    again = np.unique(row[~((np.minimum(flo, fhi) < 0.0) & (np.maximum(flo, fhi) > 0.0))])
    keep, kept = ~np.isin(row, again), ~np.isin(zrow, again)
    parts = [(zrow[kept], zero[kept], row[keep], i[keep], flo[keep], fhi[keep])]
    for k in again.tolist():
        values = fn(grid, np.full(grid.size, k))
        z, j = _flips(values)
        parts.append((np.full(z.size, k), z, np.full(j.size, k), j, values[j], values[j + 1]))
    zrow, zero, row, i, flo, fhi = map(np.concatenate, zip(*parts))
    refined = _refine(fn, row, grid[i], grid[i + 1], flo, fhi)
    row = np.concatenate([zrow, row])
    root = np.concatenate([grid[zero], refined])
    order = np.lexsort((root, row))
    row, root = row[order], root[order]
    kept = np.ones(row.size, dtype=bool)
    kept[1:] = (row[1:] != row[:-1]) | (root[1:] - root[:-1] > 1e-9)
    return row[kept], root[kept]


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
            c = np.minimum(np.maximum(b - fb * (b - a) / (fb - fa), a + ulp), b - ulp)
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


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Each item's place in its group, for groups of the given sizes laid
    end to end."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - sizes, sizes)


def _odd_steps(grid_pi, arg, free, taus) -> tuple[np.ndarray, np.ndarray]:
    """Every delay's flips as one flat (row, left) pair, sorted by row and
    then by left: the free steps j across which the turn count
    floor(grid_pi*tau + arg), the float expression at tau = taus[row],
    changes parity.

    Step j's two counts are the floors of the lines u(tau) = grid_pi[j]*tau
    + arg[j] and v(tau) = grid_pi[j + 1]*tau + arg[j + 1] - e, where the
    even e nearest arg[j + 1] - arg[j] brings v next to u and leaves the
    parity as it is.  Both lines rise with tau, so an integer m lies between
    them only for the delays between the tau where u reaches m and the tau
    where v does, and where no integer lies between them the floors agree.
    The candidates of a step are the delays in those intervals, one per
    integer that its lines cross over the delay range, each interval
    widened by _TURN_SLACK on both lines; only the candidates are evaluated
    as floats, and the odd ones kept (a candidate of two overlapping
    intervals once).  The scan budget bounds omega*tau/pi by 4096, so a
    float count is within about 1e-12 of its line, far inside the slack,
    and no flip is missed.

    An interval costs about _STEP_COST samples of a scan of every delay.
    So a step whose lines rise by more than 1/_STEP_COST from one delay to
    the next, which would need more than one interval per _STEP_COST
    delays, takes every delay instead; so does a step whose lines rise by
    less than the slack, whose intervals would be wide, and so does every
    step when those with intervals would make less than a block of
    samples.  These steps are scanned together, a block of delays at a
    time, as the turn counts on the columns they span, so no step costs
    much more than in a scan of every delay.  Both parts go in blocks of
    about _BLOCK intervals or samples, and their temporaries stay under
    about 1 MB.
    """
    n, tau_max = taus.size, taus[-1]
    # the steps from lo to hi - 1 rise by between the slack and 1/_STEP_COST
    rises = np.array([_TURN_SLACK, 1.0 / _STEP_COST])
    lo, hi = np.searchsorted(grid_pi, rises * (n - 1) / tau_max)
    heavy = free.copy()
    keys = [np.zeros(0, np.int64)]
    # a lean part smaller than a block would save less than its setup costs
    if (hi - lo) * n > _BLOCK:
        step = lo + np.flatnonzero(free[lo : hi - 1])
        heavy[step] = False
        keys += _lean_flips(grid_pi, arg, taus, step)
    keys += _dense_flips(grid_pi, arg, taus, heavy)
    keys = np.concatenate(keys)
    # stable, as lexsort's: numpy's default int64 sort would map about 0.4 MB
    # more of its library into every process that traces
    keys.sort(kind="stable")
    return np.divmod(keys[np.diff(keys, prepend=-1) != 0], grid_pi.size)


def _lean_flips(grid_pi, arg, taus, step):
    """The flips of the given steps, by their candidate intervals
    (_odd_steps), as keys row*grid_pi.size + left, a block at a time."""
    n, tau_max = taus.size, taus[-1]
    a, a1, b = grid_pi[step], grid_pi[step + 1], arg[step]
    b1 = arg[step + 1] - 2.0 * np.round(0.5 * (arg[step + 1] - b))
    first = np.ceil(np.minimum(b, b1) - 2.0 * _TURN_SLACK)
    count = np.floor(np.maximum(a * tau_max + b, a1 * tau_max + b1) + 2.0 * _TURN_SLACK) - first
    count = count.astype(np.int64) + 1
    # the delay index where each line reaches the integer first, and the
    # delays from one integer to the next
    per_u, per_v = (n - 1) / (a * tau_max), (n - 1) / (a1 * tau_max)
    at_u, at_v = (first - b) * per_u, (first - b1) * per_v
    slack = _TURN_SLACK * per_u
    rows = max(1, _BLOCK // max(1, count.max(initial=0)))
    for r in range(0, step.size, rows):
        block = slice(r, r + rows)
        # integers down, steps across
        m = np.arange(count[block].max())[:, None]
        u = at_u[block] + m * per_u[block]
        v = at_v[block] + m * per_v[block]
        enter = np.minimum(u, v) - slack[block]
        leave = np.maximum(u, v) + slack[block]
        # an interval holds a delay where the floor of its end is not
        # below its start; integers past the last leave the delay range
        q, p = np.divmod(np.flatnonzero(np.floor(leave) >= enter), enter.shape[1])
        start = np.maximum(np.ceil(enter[q, p]), 0.0).astype(np.int64)
        width = np.maximum(np.minimum(np.floor(leave[q, p]), n - 1.0) + 1.0 - start, 0.0)
        width = width.astype(np.int64)
        k = np.repeat(start, width) + _offsets(width)
        j = np.repeat(step[block][p], width)
        tau = taus[k]
        turns = np.floor(grid_pi[j + 1] * tau + arg[j + 1]) - np.floor(grid_pi[j] * tau + arg[j])
        odd = (turns.astype(np.int64) & 1).astype(bool)
        yield k[odd] * grid_pi.size + j[odd]


def _dense_flips(grid_pi, arg, taus, heavy):
    """The flips of the heavy steps at every delay, as keys
    row*grid_pi.size + left: the turn counts on the columns the steps span,
    a block of delays at a time."""
    cols = np.flatnonzero(heavy)
    if not cols.size:
        return
    lo, hi = cols[0], cols[-1] + 2
    rows = max(1, _BLOCK // (hi - lo))
    for r in range(0, taus.size, rows):
        turns = np.multiply.outer(taus[r : r + rows], grid_pi[lo:hi])
        turns += arg[lo:hi]
        parity = np.floor(turns, out=turns).astype(np.int64)
        parity &= 1
        k, j = np.divmod(np.flatnonzero(parity[:, 1:] != parity[:, :-1]), hi - lo - 1)
        j += lo
        keep = heavy[j]
        yield (k[keep] + r) * grid_pi.size + j[keep]


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
    residual at i*omega stays below 1e-8.  The scan and the refinement
    work on Im(exp(i*omega*tau)*S(omega)), S = (i*omega + alpha)*conj(D(omega))
    /(alpha + omega), which is |D|^2/(alpha + omega) times the gain's
    imaginary part: the same sign, no poles and no overflow.  S, with the
    entire factor D (_axis_factor), is sampled once.  The product is
    |S|*sin(omega*tau + arg S), so its sign is (-1)^floor((omega*tau +
    arg S)/pi), with arg S/pi taken once.  The samples at omega = 0 and
    wherever S is 0 or NaN are held: the product is 0 there, an exact zero
    of every delay, or NaN.  A flip, the left end of a bracket, is a change
    of that turn count's parity between neighbours that are not held.  The
    flips are found a grid step at a time, not a delay at a time
    (_odd_steps): a step's two turn counts are straight lines in tau, so
    their parities can differ only at the delays next to where one of them
    crosses an integer, and only those candidates are evaluated, by the
    same float expression; a step that would need more candidates than a
    scan of every delay takes every delay.  Only the ends of the brackets
    the flips open and the refinement take the product itself, both from
    the one function _scan_roots is given, and a delay whose bracket ends
    do not have strictly opposite signs (a phase within rounding of a
    multiple of pi) is scanned again by it.  At a pole of the gain (delta = 0,
    omega = 2*pi*k*f/l, k != 0) that function has a simple zero, which
    refines like any other to a crossing whose gain is not finite; omega =
    0 at delta = 0 is the threshold branch, listed at beta =
    threshold_gain for every delay.  omega_max defaults to the eigenvalue
    search radius at |beta| = 10 plus 1, which holds every crossing with
    |beta| <= 10.  The gain's phase turns at about tau + l/f per unit of
    omega, so crossings lie about pi/(tau + l/f) apart or more; the scan
    takes 4000 points or 16 per such gap at tau_max, whichever is more.

    Before any delay is traced: a bad family raises its error
    (params._family); a tau_max or omega_max that is not finite and
    positive (errors._real: NonFiniteField where it is not finite), or a
    num_tau that is not a count from 2 to 2**24 (_DELAY_SAMPLES,
    errors._count), raises InvalidParameter; a
    default window whose radius overflows, or any window below delta*l/f
    of about -709.43 (_check_axis_gain), raises QuadratureNonInteger; and a
    window needing more than 65536 scan points raises SampleBudgetExceeded,
    since a coarser scan would skip crossings.
    The crossings of all delays are one flat list in (tau, omega) order, and
    one char_fn call on arrays of beta and tau takes every residual.  Only a
    crossing whose batch residual is not finite (NaN: its gain is not
    finite, or the batch met char_fn's pole at -alpha) is checked on its
    own, by SystemParams and a scalar char_fn, whose error names its
    failure.  A crossing whose gain is not finite, or whose residual fails,
    is recorded as a failure at its delay and skipped.
    """
    fixed = alpha, delta, l, f = _family(fixed)
    tau_max = _real("tau_max", tau_max, 0)
    num_tau = _count("num_tau", num_tau, 2, _DELAY_SAMPLES)
    if omega_max is None:
        omega_max = _search_radius(10.0, delta, l, f) + 1.0
    else:
        omega_max = _real("omega_max", omega_max, 0)
    _check_axis_gain(fixed)
    needed = _SCAN_POINTS_PER_GAP * omega_max * (tau_max + l / f) / math.pi
    if needed > _OMEGA_SCAN_BUDGET:
        raise SampleBudgetExceeded(
            f"omega_max={omega_max!r} at tau_max={tau_max!r} needs {needed:.3g} scan "
            f"points, over the budget of {_OMEGA_SCAN_BUDGET}; pass a smaller omega_max"
        )
    grid = np.linspace(0.0, omega_max, max(_OMEGA_SCAN_POINTS, math.ceil(needed)))
    taus = np.arange(num_tau) * tau_max / (num_tau - 1)

    def scaled(omega):
        # |D|^2/(alpha + omega) times the gain: the same phase, no poles,
        # and no larger than |D|
        return (1j * omega + alpha) / (alpha + omega) * np.conj(_axis_factor(fixed, omega))

    def phase(omega, rows):
        return (np.exp(1j * omega * taus[rows]) * scaled(omega)).imag

    # phase = |S| sin(omega*tau + arg S), S = scaled(omega), so its sign is
    # (-1)^floor((omega*tau + arg S)/pi).  At omega = 0, where S is real, and
    # where S is 0, every delay's phase is 0, and where S is NaN it is NaN:
    # those columns are held, and no bracket has a held end; their arg is
    # taken as 0, so the flip scan meets no NaN.
    on_grid = scaled(grid)
    held = np.isnan(on_grid) | (on_grid == 0.0) | (grid == 0.0)
    zero = np.flatnonzero(held & ~np.isnan(on_grid))
    free = ~(held[:-1] | held[1:])
    arg = np.where(held, 0.0, np.angle(on_grid) / np.pi)
    zeros = (np.repeat(np.arange(num_tau), zero.size), np.tile(zero, num_tau))
    # the flips go straight in, so nothing holds them past the scan
    row, omegas = _scan_roots(phase, grid, zeros, _odd_steps(grid / np.pi, arg, free, taus))
    at = taus[row]
    betas = (np.exp(1j * omegas * at) * _axis_gain(fixed, omegas)).real
    # char_fn reads only these six fields, so arrays of beta and tau take
    # every crossing's residual in one call.
    family = SimpleNamespace(alpha=alpha, beta=betas, delta=delta, l=l, f=f, tau=at)
    try:
        residuals = np.abs(char_fn(family, 1j * omegas))
    except PoleAtMinusAlpha:
        residuals = np.full(betas.size, np.nan)
    errors = {}
    # A NaN residual means a non-finite gain, or a batch that met char_fn's
    # pole at -alpha: that crossing's own check names its failure, if any.
    for n in np.flatnonzero(~np.isfinite(residuals)).tolist():
        omega = omegas[n].item()
        try:
            params = SystemParams(alpha, betas[n], delta, l, f, at[n])
            residuals[n] = abs(char_fn(params, 1j * omega))
        except (DelayStabError, ValueError) as exc:
            errors[n] = f"omega={omega}: {exc}"
    kept = residuals <= _RESIDUAL_TOL
    points = map(BoundaryPoint, *(a[kept].tolist() for a in (at, betas, omegas, residuals)))
    failures = [
        (at[n].item(), errors.get(n, f"omega={omegas[n].item()}: residual {residuals[n]:.3e}"))
        for n in np.flatnonzero(~kept).tolist()
    ]
    return TraceResult(points=tuple(points), failures=tuple(failures))


def axis_crossing_candidates(params: SystemParams) -> list[float]:
    """Non-negative frequencies where an imaginary-axis eigenvalue is
    possible on modulus grounds (delay-independent necessary condition).

    Solves |i*omega + alpha| = |beta| |D(omega)|, D = (l/f)*phi(w) the
    entire factor of the axis gain (_axis_factor), by a sign scan of their
    difference refined by _refine up to the eigenvalue search radius plus
    1, beyond which the left side dominates, so the list is finite.  The
    scan takes 4000 points plus the turning points of cos(omega*l/f) in the
    band where a root can lie, since |D| dips narrowly at every other one;
    a band of more than 65536 raises SampleBudgetExceeded.  For every real
    delta the axis gain's modulus is at least sqrt(omega^2 + alpha^2)/I >=
    b0, the threshold gain, where I = int_0^{l/f} exp(-delta*s) ds.  So
    where b0 > 0 and |beta| is at most b0 + w, w = 1e-12*b0, nothing is
    scanned: the list is [0.0] if |beta| >= b0 - w and empty otherwise,
    0.0 standing for every root inside that window.  The window is
    relative to b0, because only then does every root inside it lie next
    to omega = 0.  Above the window omega = 0 is no root, for every delta.
    Below delta*l/f of about -709.43 (_check_axis_gain), and where the
    search radius overflows (delta*l/f below about -708.4 at |beta| = 1),
    it raises QuadratureNonInteger; where b0 underflows to 0 the scan runs.
    """
    fixed = alpha, delta, l, f = params.alpha, params.delta, params.l, params.f
    beta, b0 = abs(params.beta), _threshold_gain(*fixed)
    window = 1e-12 * b0
    if b0 > 0.0 and beta <= b0 + window:
        return [0.0] if beta >= b0 - window else []
    _check_axis_gain(fixed)
    m, e = math.frexp(beta)

    def gap(omega, _rows=None):
        # |i*omega + alpha| - beta*|D| times 2**-e, beta = m*2**e: exact, and
        # it keeps beta*|D| from overflowing
        return np.ldexp(np.abs(1j * omega + alpha), -e) - m * np.abs(_axis_factor(fixed, omega))

    # The gap is positive past the radius, and a relative 1e-12 past it by
    # more than rounding: a root can lie within rounding of the radius.
    ceiling = (_search_radius(beta, delta, l, f) + 1.0) * (1.0 + 1e-12)
    # A root has |i*omega + alpha||i*omega + delta| = |beta||1 - exp(-w)| >=
    # |beta||1 - exp(-delta*l/f)|, and the left side is below
    # (omega + max(alpha, |delta|))^2: no root lies below start.
    start = max(0.0, math.sqrt(beta * abs(math.expm1(-delta * l / f))) - max(alpha, abs(delta)))
    # The gap's narrow bumps sit at the turning points of cos(omega*l/f);
    # where those lie closer than the floats, the scan takes every float.
    turn = max(math.pi * f / l, math.ulp(ceiling))
    if (ceiling - start) / turn > _OMEGA_SCAN_BUDGET:
        raise SampleBudgetExceeded(f"axis scan needs {(ceiling - start) / turn:.3g} points")
    turns = np.arange(np.ceil(start / turn), ceiling / turn) * turn
    grid = np.union1d(np.linspace(0.0, ceiling, _OMEGA_SCAN_POINTS), turns)
    values = gap(grid)
    zero, left = _flips(values)
    rows = (np.zeros_like(zero), zero), (np.zeros_like(left), left)
    _, roots = _scan_roots(gap, grid, *rows)
    return roots.tolist()
