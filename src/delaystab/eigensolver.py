"""Zero location for the characteristic numerator by contour counting.

The winding number of char_num around a rectangle gives the exact number of
zeros inside; boxes are bisected until each cell isolates one zero, which
Newton then polishes.  Subdivision actually runs on the deflated numerator
(char_num with its permanent structural zero at -delta divided out), so the
structural zero never blocks isolation; totals are reconciled against the
char_num winding count at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristic import (
    _deflated,
    _deflated_prime,
    _deflated_with_scale,
    _num_with_scale,
    _quiet,
    char_fn,
    char_num,
)
from .errors import (
    BoundaryZero,
    MaxDepthExceeded,
    PoleAtMinusAlpha,
    QuadratureNonInteger,
    SolverConsistencyError,
)
from .params import SystemParams, eig_bound_radius

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_ON_ZERO_RTOL = 1e-13          # |value| <= rtol*scale counts as a boundary hit
_NUDGE_FACTOR = 1e-4
_MAX_NUDGES = 5
_MAX_DEPTH = 40
_NEWTON_MAXITER = 100
_MAX_BOUNDARY_SAMPLES = 2_000_000
_SPLIT_FRACTIONS = (0.5, 0.55, 0.45, 0.6, 0.4, 0.35, 0.65)

_BOTTOM, _RIGHT, _TOP, _LEFT = range(4)


@dataclass(frozen=True)
class ContourBox:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        values = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"box corners must be finite, got {values}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError(f"degenerate box {values}")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def contains(self, z: complex) -> bool:
        return self.re_min < z.real < self.re_max and self.im_min < z.imag < self.im_max


@dataclass(frozen=True)
class Root:
    """One polished zero, counted with multiplicity."""

    lam: complex
    residual: float
    newton_iters: int
    structural: bool
    multiplicity: int = 1


@dataclass(frozen=True)
class UnresolvedCell:
    """A counted cell whose zeros could not be polished."""

    box: ContourBox
    count: int


@dataclass(frozen=True)
class RootSet:
    """Roots found in a box; total_count is the winding-number total of
    char_num over the (possibly nudged) box and equals the sum of listed
    multiplicities plus unresolved cell counts."""

    roots: tuple[Root, ...]
    total_count: int
    box: ContourBox
    unresolved: tuple[UnresolvedCell, ...] = ()


@dataclass(frozen=True)
class BelowThreshold:
    """The search found no eigenvalue; the spectral bound is < threshold as
    far as the box reached."""

    threshold: float


class _BoundaryHit(Exception):
    """Internal: a boundary sample landed on (or too near) a zero."""

    def __init__(self, edges: frozenset[int]):
        super().__init__(f"zero on contour edges {sorted(edges)}")
        self.edges = edges


def _edge_of(box: ContourBox, z: complex) -> frozenset[int]:
    eps_w = 1e-12 * (1.0 + box.width)
    eps_h = 1e-12 * (1.0 + box.height)
    edges = set()
    if abs(z.imag - box.im_min) <= eps_h:
        edges.add(_BOTTOM)
    if abs(z.real - box.re_max) <= eps_w:
        edges.add(_RIGHT)
    if abs(z.imag - box.im_max) <= eps_h:
        edges.add(_TOP)
    if abs(z.real - box.re_min) <= eps_w:
        edges.add(_LEFT)
    return frozenset(edges or {_BOTTOM, _RIGHT, _TOP, _LEFT})


def _initial_path(box: ContourBox, tau: float) -> np.ndarray:
    # e^(-lambda*tau) winds fast along vertical edges; seed them densely
    # enough that adaptive refinement converges in a few rounds.
    n_h = 16
    n_v = 16 + min(4096, int(box.height * (tau + 1.0)))
    bottom = box.re_min + np.linspace(0.0, 1.0, n_h, endpoint=False) * box.width
    right = box.im_min + np.linspace(0.0, 1.0, n_v, endpoint=False) * box.height
    top = box.re_max - np.linspace(0.0, 1.0, n_h, endpoint=False) * box.width
    left = box.im_max - np.linspace(0.0, 1.0, n_v, endpoint=False) * box.height
    pts = np.concatenate(
        [
            bottom + 1j * box.im_min,
            box.re_max + 1j * right,
            top + 1j * box.im_max,
            box.re_min + 1j * left,
            [complex(box.re_min, box.im_min)],
        ]
    )
    return pts


def _check_hits(box: ContourBox, pts: np.ndarray, vals: np.ndarray, scales: np.ndarray):
    mask = np.abs(vals) <= _ON_ZERO_RTOL * scales
    if mask.any():
        edges: set[int] = set()
        for z in pts[mask]:
            edges |= _edge_of(box, complex(z))
        raise _BoundaryHit(frozenset(edges))


@_quiet
def _winding_count(pair_fn, box: ContourBox, tau: float) -> int:
    """Exact zero count inside box via adaptive phase tracking of pair_fn.

    pair_fn(points) must return (values, cancellation scales).  Raises
    _BoundaryHit if any sample sits on a zero and QuadratureNonInteger if
    the summed phase is not finite or fails to close on an integer multiple
    of 2*pi.
    """
    pts = _initial_path(box, tau)
    vals, scales = pair_fn(pts)
    _check_hits(box, pts, vals, scales)
    diffs = np.angle(vals[1:] / vals[:-1])
    for _ in range(64):
        bad = np.abs(diffs) >= _HALF_PI
        if not bad.any():
            break
        idx = np.flatnonzero(bad)
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        mvals, mscales = pair_fn(mids)
        _check_hits(box, mids, mvals, mscales)
        pts = np.insert(pts, idx + 1, mids)
        vals = np.insert(vals, idx + 1, mvals)
        diffs = np.angle(vals[1:] / vals[:-1])
        if pts.size > _MAX_BOUNDARY_SAMPLES:
            raise _BoundaryHit(frozenset({_BOTTOM, _RIGHT, _TOP, _LEFT}))
    else:
        raise _BoundaryHit(frozenset({_BOTTOM, _RIGHT, _TOP, _LEFT}))
    total = float(diffs.sum()) / _TWO_PI
    if not math.isfinite(total) or abs(total - round(total)) > 1e-3:
        raise QuadratureNonInteger(
            f"winding integral {total!r} over {box} is not an integer"
        )
    return round(total)


def _grow(box: ContourBox, edges: frozenset[int]) -> ContourBox:
    pad = _NUDGE_FACTOR * (1.0 + box.diameter)
    return ContourBox(
        re_min=box.re_min - (pad if _LEFT in edges else 0.0),
        re_max=box.re_max + (pad if _RIGHT in edges else 0.0),
        im_min=box.im_min - (pad if _BOTTOM in edges else 0.0),
        im_max=box.im_max + (pad if _TOP in edges else 0.0),
    )


def _num_pair(params: SystemParams):
    return lambda pts: _num_with_scale(params, pts)


def _deflated_pair(params: SystemParams):
    return lambda pts: _deflated_with_scale(params, pts)


def _nudged(attempt, box: ContourBox):
    """Run attempt on box, nudged off boundary zeros as count_zeros
    describes; return its result and the box it succeeded on."""
    for _ in range(_MAX_NUDGES + 1):
        try:
            return attempt(box), box
        except _BoundaryHit as hit:
            box = _grow(box, hit.edges)
    raise BoundaryZero(f"could not nudge {box} off a zero after {_MAX_NUDGES} tries")


def count_zeros(params: SystemParams, box: ContourBox) -> int:
    """Number of zeros of char_num inside box, counted with multiplicity.

    Zeros sitting on the boundary make the winding number undefined; the box
    is grown by 1e-4*(1 + diameter) toward the offending edge, up to five
    times, before BoundaryZero is raised.
    """
    pair = _num_pair(params)
    return _nudged(lambda b: _winding_count(pair, b, params.tau), box)[0]


def _newton(params: SystemParams, box: ContourBox, z0: complex, tol: float, mult: int = 1):
    """Newton (or multiplicity-m Newton) on the deflated numerator, confined
    to box: the start is given up as soon as an iterate leaves it (NaN and
    inf never lie inside) or the exponential overflows."""
    z = complex(z0)
    try:
        for it in range(1, _NEWTON_MAXITER + 1):
            fp = _deflated_prime(params, z)
            if fp == 0:
                return None
            delta = mult * _deflated(params, z) / fp
            z -= delta
            if not box.contains(z):
                return None
            if abs(delta) < tol:
                return z, it
    except OverflowError:
        return None
    return None


def _cell_starts(box: ContourBox, n: int) -> list[complex]:
    starts = [box.center]
    fracs = (np.arange(n) + 0.5) / n
    for fy in fracs:
        for fx in fracs:
            starts.append(
                complex(box.re_min + fx * box.width, box.im_min + fy * box.height)
            )
    return starts


def _polish(params: SystemParams, box: ContourBox, count: int, tol: float) -> Root | None:
    """Newton-polish the zero of multiplicity count isolated in box.

    Newton runs from a grid of starts in the cell (8x8 for a simple zero,
    4x4 for a cluster, after the center) and drops a start as soon as it
    leaves the cell: the argument principle has already isolated the zero
    there, and an escaped iterate would only find a neighboring cell's zero,
    silently dropping this cell's own while keeping the totals balanced.
    A cluster (count > 1) is accepted only if a probe box around the limit
    still winds count times.
    """
    for z0 in _cell_starts(box, 8 if count == 1 else 4):
        hit = _newton(params, box, z0, tol, mult=count)
        if hit is None:
            continue
        z, iters = hit
        if count > 1:
            r = max(0.6 * box.diameter, 1e3 * tol * (1.0 + abs(z)))
            probe = ContourBox(z.real - r, z.real + r, z.imag - r, z.imag + r)
            try:
                if _winding_count(_deflated_pair(params), probe, params.tau) != count:
                    continue
            except (_BoundaryHit, QuadratureNonInteger):
                continue
        return Root(
            lam=z,
            residual=abs(char_num(params, z)),
            newton_iters=iters,
            structural=False,
            multiplicity=count,
        )
    return None


def _split(box: ContourBox, frac: float) -> tuple[ContourBox, ContourBox]:
    if box.width >= box.height:
        mid = box.re_min + frac * box.width
        return (
            ContourBox(box.re_min, mid, box.im_min, box.im_max),
            ContourBox(mid, box.re_max, box.im_min, box.im_max),
        )
    mid = box.im_min + frac * box.height
    return (
        ContourBox(box.re_min, box.re_max, box.im_min, mid),
        ContourBox(box.re_min, box.re_max, mid, box.im_max),
    )


def _subdivide(
    params: SystemParams,
    box: ContourBox,
    count: int,
    depth: int,
    tol: float,
    roots: list[Root],
    unresolved: list[UnresolvedCell],
) -> None:
    if count == 0:
        return
    if count == 1:
        root = _polish(params, box, 1, tol)
        if root is not None:
            roots.append(root)
            return
        # Newton escaped the cell from every start; shrink the cell so a
        # start lands inside the zero's basin, recording only at the cap.
        if depth >= _MAX_DEPTH:
            unresolved.append(UnresolvedCell(box, count))
            return
    else:
        cluster_size = max(100.0 * tol, 1e-8) * (1.0 + abs(box.center))
        if box.diameter <= cluster_size or depth >= _MAX_DEPTH:
            root = _polish(params, box, count, tol)
            if root is not None:
                roots.append(root)
                return
            if depth >= _MAX_DEPTH:
                raise MaxDepthExceeded(
                    f"could not isolate {count} zeros in {box} within depth {_MAX_DEPTH}"
                )
            unresolved.append(UnresolvedCell(box, count))
            return
    pair = _deflated_pair(params)
    for frac in _SPLIT_FRACTIONS:
        lo, hi = _split(box, frac)
        try:
            c_lo = _winding_count(pair, lo, params.tau)
            c_hi = _winding_count(pair, hi, params.tau)
        except (_BoundaryHit, QuadratureNonInteger):
            continue
        if c_lo < 0 or c_hi < 0 or c_lo + c_hi != count:
            continue
        _subdivide(params, lo, c_lo, depth + 1, tol, roots, unresolved)
        _subdivide(params, hi, c_hi, depth + 1, tol, roots, unresolved)
        return
    raise _BoundaryHit(frozenset({_BOTTOM, _RIGHT, _TOP, _LEFT}))


def find_roots(params: SystemParams, box: ContourBox, tol: float = 1e-12) -> RootSet:
    """Locate every zero of char_num inside box.

    The box is nudged off boundary zeros, counted, recursively bisected
    (jittering split lines that land on zeros) and each isolated zero is
    Newton-polished to |step| < tol.  The structural zero at -delta is
    listed with structural=True; a genuine eigenvalue coinciding with it
    appears as a separate non-structural root.  Unpolishable cells are
    recorded on the result instead of raising.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    num_pair = _num_pair(params)
    minus_delta = complex(-params.delta, 0.0)

    def attempt(box: ContourBox):
        total = _winding_count(num_pair, box, params.tau)
        inside = box.contains(minus_delta)
        deflated_total = total - (1 if inside else 0)
        if deflated_total < 0:
            raise SolverConsistencyError(
                f"char_num count {total} misses the structural zero in {box}"
            )
        roots: list[Root] = []
        unresolved: list[UnresolvedCell] = []
        _subdivide(params, box, deflated_total, 0, tol, roots, unresolved)
        return total, inside, roots, unresolved

    (total, inside, roots, unresolved), box = _nudged(attempt, box)
    if inside:
        roots.append(
            Root(
                lam=minus_delta,
                residual=abs(char_num(params, minus_delta)),
                newton_iters=0,
                structural=True,
            )
        )
    found = sum(r.multiplicity for r in roots) + sum(c.count for c in unresolved)
    if found != total:
        raise SolverConsistencyError(
            f"subdivision found {found} zeros but the contour counted {total}"
        )
    roots.sort(key=lambda r: (r.lam.real, r.lam.imag))
    return RootSet(
        roots=tuple(roots),
        total_count=total,
        box=box,
        unresolved=tuple(unresolved),
    )


def _search_radius(params: SystemParams) -> float:
    """Radius enclosing every eigenvalue with Re lambda >= 0.

    For delta >= 0 this is the closed-form eig_bound_radius.  For delta < 0
    the |1 - exp(-(lambda+delta)l/f)| <= 2 step behind that formula fails,
    so the bound is re-derived with the exact exponential factor.
    """
    radius = eig_bound_radius(params.beta, params.delta)
    if params.delta < 0.0:
        b = abs(params.beta) * (1.0 + math.exp(-params.delta * params.l / params.f))
        radius = max(
            radius,
            0.5 * (abs(params.delta) + math.sqrt(params.delta**2 + 4.0 * b)),
        )
    return radius


def default_box(params: SystemParams, sigma: float) -> ContourBox:
    """Search box covering every eigenvalue with Re lambda >= -sigma."""
    radius = _search_radius(params)
    return ContourBox(
        re_min=-sigma,
        re_max=radius + 1.0,
        im_min=-(radius + sigma + 1.0),
        im_max=radius + sigma + 1.0,
    )


def spectrum(params: SystemParams, sigma: float, tol: float = 1e-12) -> RootSet:
    """All eigenvalues with Re lambda >= -sigma (structural zeros removed).

    For beta = 0 the spectrum is exactly {-alpha} and no contour machinery
    runs.  Otherwise find_roots is applied over ``default_box`` and every
    surviving root is verified to satisfy |char_fn| <= 1e-8.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if params.beta == 0.0:
        box = ContourBox(-max(sigma, 1e-6), params.alpha + 1.0, -1.0, 1.0)
        roots: tuple[Root, ...] = ()
        if -params.alpha >= -sigma:
            lam = complex(-params.alpha, 0.0)
            roots = (
                Root(
                    lam=lam,
                    residual=abs(char_num(params, lam)),
                    newton_iters=0,
                    structural=False,
                ),
            )
        return RootSet(roots=roots, total_count=len(roots), box=box)

    result = find_roots(params, default_box(params, sigma), tol=tol)
    genuine = tuple(r for r in result.roots if not r.structural)
    for root in genuine:
        try:
            g = abs(char_fn(params, root.lam))
        except PoleAtMinusAlpha as exc:  # pragma: no cover - structurally excluded
            raise SolverConsistencyError(
                f"root {root.lam} collided with the pole at -alpha"
            ) from exc
        if g > 1e-8:
            raise SolverConsistencyError(
                f"root {root.lam} fails the characteristic residual check: {g}"
            )
    return RootSet(
        roots=genuine,
        total_count=sum(r.multiplicity for r in genuine),
        box=result.box,
        unresolved=result.unresolved,
    )


def spectral_bound(params: SystemParams, sigma: float) -> float | BelowThreshold:
    """sup Re lambda over the spectrum, searched down to Re lambda = -sigma.

    Returns BelowThreshold(-sigma) when no eigenvalue lies in the searched
    half-plane strip.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    result = spectrum(params, sigma)
    if result.unresolved:
        raise SolverConsistencyError(
            f"{len(result.unresolved)} cells left unresolved; bound unreliable"
        )
    if not result.roots:
        return BelowThreshold(-sigma)
    return max(r.lam.real for r in result.roots)
