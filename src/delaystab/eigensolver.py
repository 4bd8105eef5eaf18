"""Eigenvalue location by contour counting, and spectrum's prediction.

The winding number of an entire function around a rectangle gives the exact
number of its zeros inside (the argument principle).  A rectangle's count is the sum of
the phase changes along its four edges, (bottom + right - top - left)/2pi.
Each edge is a straight segment sampled in increasing coordinate and
refined until no step turns by pi/2 or more.  A horizontal edge starts
from 16 steps and a vertical one from 16 + height*(tau + l/f + 1): along
Im lambda, exp(-lambda*tau) turns by tau per unit and exp(-w) by l/f.  A
box's starting samples are taken in one call and their turns in one pass;
only an edge with a steep step is refined further, on its own.

Boxes are bisected until each cell isolates one zero, which Newton then
polishes from one start: the cell's first contour moment, read off the edge
samples it already has (Delves & Lyness, 1967).  A start that leaves the
cell sends it back to be split; a cell that cannot be split further (more
than one zero at the cluster size, or any cell at depth 40) raises
MaxDepthExceeded, so a search lists every zero it counted or raises.  A
split samples only its cut: the two halves reuse the parent's edges and
share the cut, one running it forward and the other reversed, so their
counts add up to the parent's.  Each edge the cut crosses takes the cut's
end sample into its samples, is refined as any edge is (_refined), which
bisects only the two new steps next to that sample, and is parted there.
The function sampled is the deflated numerator, char_num with its
structural zero at -delta divided out: an entire function whose zeros are
exactly the eigenvalues (for beta != 0), so every count is a count of
eigenvalues.  Each count_zeros or find_roots call may take at most
1,000,000 contour samples, across its nudges, splits and probes; past that
it raises SampleBudgetExceeded.

Every coefficient is real, so f(conj z) = conj f(z): the zeros are real or
come in conjugate pairs.  A box symmetric about the real axis (im_min ==
-im_max, as every default_box is) is held as its upper half end to end:
its edges are the top and each side from the axis up, with no bottom, and
nothing below the axis is sampled or built.  Its count is
2*(right - top - left)/2pi and its moment start Im(right - top -
left)/(pi*count), exactly real.  _split chooses and makes every cut, on
a symmetric cell as on any other box: it cuts a cell held as its upper
half from the real axis itself.  A wide one is cut upright, by
a cut from the axis up, into two symmetric halves, so a symmetric cell
with one zero holds a real one; a tall one level at Im = h (h =
im_max/64, moved like a split on a zero), into the symmetric strip
(-h, h) and the upper part (h, im_max), whose counts add up as strip +
2*upper.  The upper part is subdivided alone and its finds are conjugated
once, where that cut is made.

spectrum predicts, then certifies.  It counts its box once; a count of
two or more is first checked against a prediction: the eigenvalues of a
Chebyshev collocation of the loop's infinitesimal generator (Breda, Maset
& Vermiglio, 2005), each polished by Newton in the box.  When the distinct
limits, a complex one counted with its conjugate, add up to the count,
they are the spectrum and nothing is split.  Otherwise the box is
subdivided from the edges already sampled, as find_roots does.  The first
collocation size follows the count as well as the box's height, so its
N + 1 eigenvalues can always add up to the count.  The parts of a size
that depend on N alone, the differentiation matrix among them, are built
once per N per process; each collocation's eigenvalues are solved anew.

spectrum keeps its last search, the one result this module remembers
between calls.  A later query on the same params object and tol whose box
lies inside that search's (a smaller sigma, as spectrum(p, 1e-6) after
classify(p) asks) is answered from it with no count, collocation, Newton
or residual call, unless a root of it lies so near the new box's boundary
that a fresh search could place it differently (_served).  A served root
is the kept search's, so it can differ from a fresh search's in its last
bits.

A search carries its polished zeros as bare limits (the zero, its Newton
iterations and its multiplicity) and lists them as Roots once, at its end:
every residual |char_num| comes from one array call over the listed roots,
and a conjugate is built with its partner's iterations.  spectrum's check
|char_fn| <= 1e-8 is read off those residuals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characteristic import (
    _POLE_TOL,
    _deflated,
    _deflated_prime,
    _deflated_with_scale,
    char_fn,
    char_num,
)
from .errors import (
    BoundaryZero,
    InvalidParameter,
    MaxDepthExceeded,
    QuadratureNonInteger,
    SampleBudgetExceeded,
    SolverConsistencyError,
)
from .params import SystemParams, _search_radius, _strip_radius

# No evaluator has this name, and char_fn is not called here; both stay
# bound because perfbench/tracing.py rebinds them in this module
# (functools.wraps accepts None).
_num_with_scale = None

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_ON_ZERO_RTOL = 1e-13          # |value| <= rtol*scale counts as a boundary hit
_NUDGE_FACTOR = 1e-4
_MAX_NUDGES = 5
_MAX_DEPTH = 40
_NEWTON_MAXITER = 100
_MIN_STEPS = 16                # initial steps of every edge
_REFINE_ROUNDS = 64
_SAMPLE_BUDGET = 1_000_000     # contour samples per count_zeros/find_roots call
# Contour samples may reach lambda where exp overflows; the winding count
# checks finiteness, so within a count_zeros or find_roots call the numpy
# warnings are noise.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
_SPLIT_FRACTIONS = (0.5, 0.55, 0.45, 0.6, 0.4, 0.35, 0.65)
# Collocation size of spectrum's prediction, for a box of half-height H
# holding count zeros: N = max(ceil(0.2*H*(tau + l/f)), ceil(1.5*count)) + 8,
# doubled once and capped at 256; a first size past 256 is not built.
_NODES_PER_SPAN = 0.2
_NODES_PER_ZERO = 1.5
_MIN_NODES = 8
_MAX_NODES = 256
# Two Newton limits closer than this, relative to 1 + |z|, are one root.
_SAME_ROOT = 1e-6

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
            raise InvalidParameter(f"box corners must be finite, got {values}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InvalidParameter(f"degenerate box {values}")

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
    """One polished eigenvalue, counted with multiplicity.

    structural is always False: every root the solver lists is an
    eigenvalue.  The field stays for its readers: acceptance criterion 3,
    the structural column of the eig CLI, and the benchmark tracer.
    residual is |char_num(lam)|, taken with every other root of the same
    search in one array call; it may differ in its last bit from a call on
    lam alone.
    """

    lam: complex
    residual: float
    newton_iters: int
    structural: bool
    multiplicity: int = 1


@dataclass(frozen=True)
class RootSet:
    """Eigenvalues found in a box; total_count is the winding count over the
    (possibly nudged) box and equals the sum of listed multiplicities.

    unresolved is always (): a search that cannot polish a counted cell
    raises MaxDepthExceeded.  The field stays for its readers: acceptance
    criterion 7 and the benchmark's checks.
    """

    roots: tuple[Root, ...]
    total_count: int
    box: ContourBox
    unresolved: tuple = ()


@dataclass(frozen=True)
class BelowThreshold:
    """The search found no eigenvalue; the spectral bound is < threshold as
    far as the box reached."""

    threshold: float


class _Limit(NamedTuple):
    """A polished zero before its residual: each search takes the residuals
    of all its limits from one char_num call when it lists them as Roots."""

    lam: complex
    newton_iters: int
    multiplicity: int


def _rooted(params: SystemParams, limits) -> tuple[Root, ...]:
    """limits as Roots, each residual |char_num| at its lam, all from one
    array call over the limits in their order."""
    if not limits:
        return ()
    residuals = np.abs(char_num(params, [limit.lam for limit in limits])).tolist()
    return tuple(
        Root(lam, residual, iters, False, mult)
        for (lam, iters, mult), residual in zip(limits, residuals)
    )


class _BoundaryHit(Exception):
    """Internal: a boundary sample landed on (or too near) a zero."""

    def __init__(self, edges: frozenset[int]):
        super().__init__(f"zero on contour edges {sorted(edges)}")
        self.edges = edges


class _Edge(NamedTuple):
    """One straight contour segment, sampled in increasing coordinate.

    turns[i] is the phase change from vals[i] to vals[i + 1]; refinement
    keeps every one of them below pi/2 in size.
    """

    pts: np.ndarray
    vals: np.ndarray
    turns: np.ndarray


class _Sampler:
    """Contour sampling for one public call: the parameter point, the sample
    density of vertical edges and the sample budget all its counts share.
    The samples themselves come from _deflated_with_scale, looked up as a
    module global on every call, so that rebinding it in this module (as a
    tracer does) reaches every count."""

    def __init__(self, params: SystemParams):
        self.params = params
        # Phase speed along Im lambda: exp(-lambda*tau) turns by tau per unit,
        # exp(-w) by l/f, and the rest by about one.
        self.rate = params.tau + params.l / params.f + 1.0
        self.left = _SAMPLE_BUDGET

    def charge(self, n: float) -> None:
        """Take n samples from the budget, before they are allocated."""
        if not n <= self.left:
            raise SampleBudgetExceeded(
                f"contour sampling for {self.params} needs more than "
                f"{_SAMPLE_BUDGET} samples"
            )
        self.left -= n


def _on_zero(vals: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Which samples count as zeros: |value| <= 1e-13 * cancellation scale."""
    return np.abs(vals) <= _ON_ZERO_RTOL * scales


def _turns(vals: np.ndarray) -> np.ndarray:
    """The phase change of each step, from vals[i] to vals[i + 1]."""
    return np.angle(vals[1:] / vals[:-1])


def _refined(
    sampler: _Sampler, pts: np.ndarray, vals: np.ndarray, turns: np.ndarray
) -> _Edge | None:
    """The segment through pts (values vals, step turns turns), its steps
    bisected until none turns by pi/2 or more.  None when a new sample lies
    on a zero or 64 rounds do not settle it."""
    for _ in range(_REFINE_ROUNDS):
        idx = np.flatnonzero(np.abs(turns) >= _HALF_PI)
        if idx.size == 0:
            return _Edge(pts, vals, turns)
        sampler.charge(idx.size)
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        mvals, mscales = _deflated_with_scale(sampler.params, mids)
        if _on_zero(mvals, mscales).any():
            return None
        pts, vals = _inserted(idx, (pts, mids), (vals, mvals))
        turns = _turns(vals)
    return None


def _inserted(idx: np.ndarray, *pairs) -> list[np.ndarray]:
    """Each pair (old, new) as one array with new[k] right after
    old[idx[k]], as np.insert(old, idx + 1, new) gives it, for sorted,
    distinct idx.  One index map serves every pair: new[k] lands at
    idx[k] + k + 1, and old fills the rest in order."""
    at = idx + np.arange(1, idx.size + 1)
    kept = np.ones(pairs[0][0].size + idx.size, dtype=bool)
    kept[at] = False
    merged = []
    for old, new in pairs:
        out = np.empty(kept.size, dtype=old.dtype)
        out[at] = new
        out[kept] = old
        merged.append(out)
    return merged


def _line(start: complex, stop: complex, n: int) -> np.ndarray:
    """np.linspace(start, stop, n) for n >= 2, bit for bit: the same step,
    products and end, without its wrapper's fixed cost.  A step that
    underflows to 0 is left to linspace, which then divides last."""
    step = np.complex128(stop - start) / (n - 1)
    if step == 0:
        return np.linspace(start, stop, n)
    pts = np.arange(n, dtype=complex) * step
    pts += start
    pts[-1] = stop
    return pts


def _edges(sampler: _Sampler, segments) -> list[_Edge | None]:
    """The refined edges along segments, (start, stop) pairs, with None for
    each edge where a sample lies on a zero.  A horizontal edge starts from
    16 steps, a vertical one from 16 + height*rate, enough for the phase
    speeds of the exponentials.  All starting samples are taken in one
    call, and their turns and steep steps found in one pass over it (the
    step across two edges' junction is never read); only an edge with a
    steep step is refined."""
    lines = []
    for start, stop in segments:
        steps = _MIN_STEPS
        if start.real == stop.real:
            steps += (stop.imag - start.imag) * sampler.rate
        sampler.charge(steps + 1)
        lines.append(_line(start, stop, int(steps) + 1))
    vals, scales = _deflated_with_scale(sampler.params, np.concatenate(lines))
    on_zero = _on_zero(vals, scales)
    turns = _turns(vals)
    steep = np.abs(turns) >= _HALF_PI
    edges: list[_Edge | None] = []
    end = 0
    for pts in lines:
        start, end = end, end + pts.size
        edge = None
        if not on_zero[start:end].any():
            edge = _Edge(pts, vals[start:end], turns[start : end - 1])
            if steep[start : end - 1].any():
                edge = _refined(sampler, *edge)
        edges.append(edge)
    return edges


def _box_edges(sampler: _Sampler, box: ContourBox) -> tuple[_Edge | None, ...]:
    """The bottom, right, top and left edges of box, each in increasing
    coordinate.  All four are sampled before _BoundaryHit is raised, so the
    hit names every side that touches a zero.  A box symmetric about the
    real axis is held as its upper half, (None, right, top, left): the top
    and each side from the axis up, and no bottom, which would be the top's
    mirror image; a hit on the top is one on the bottom."""
    symmetric = box.im_min == -box.im_max
    base = 0.0 if symmetric else box.im_min
    sw, se = complex(box.re_min, base), complex(box.re_max, base)
    nw, ne = complex(box.re_min, box.im_max), complex(box.re_max, box.im_max)
    segments = ((sw, se), (se, ne), (nw, ne), (sw, nw))
    if symmetric:
        edges = (None, *_edges(sampler, segments[1:]))
        # The top stands for the bottom in the hit check.
        checked = (edges[_TOP], *edges[1:])
    else:
        edges = checked = tuple(_edges(sampler, segments))
    hits = frozenset(side for side, edge in enumerate(checked) if edge is None)
    if hits:
        raise _BoundaryHit(hits)
    return edges


def _count(edges: tuple[_Edge | None, ...], box: ContourBox) -> int:
    """Zeros inside box from its edges, (bottom + right - top - left)/2pi.

    A symmetric box held as its upper half (no bottom) counts
    2*(right - top - left)/2pi: the mirrored bottom undoes the top's
    turning, and each whole side turns twice as much as its upper half.
    Raises QuadratureNonInteger when the total is not finite or not within
    1e-3 of an integer.
    """
    right, top, left = (float(edges[side].turns.sum()) for side in (_RIGHT, _TOP, _LEFT))
    if edges[_BOTTOM] is None:
        total = (right - top - left) / math.pi
    else:
        total = (float(edges[_BOTTOM].turns.sum()) + right - top - left) / _TWO_PI
    if not math.isfinite(total) or abs(total - round(total)) > 1e-3:
        raise QuadratureNonInteger(
            f"winding integral {total!r} over {box} is not an integer"
        )
    return round(total)


def _counted(sampler: _Sampler, box: ContourBox) -> tuple[tuple[_Edge, ...], int]:
    """box's edges and the eigenvalues inside it; a negative count raises
    SolverConsistencyError."""
    edges = _box_edges(sampler, box)
    count = _count(edges, box)
    if count < 0:
        raise SolverConsistencyError(f"winding count {count} over {box} is negative")
    return edges, count


def _cut(sampler: _Sampler, edge: _Edge, coords: np.ndarray, x: float, point, value):
    """edge split in two where its coordinate (coords) reaches x, at point:
    a sample of the cut edge, with value value, spliced in place of any
    sample at x.  The spliced edge is refined by _refined, which bisects only
    the two new steps next to point.  None when a new sample lies on a zero."""
    i = int(np.searchsorted(coords, x, "left"))
    j = int(np.searchsorted(coords, x, "right"))
    vals = np.concatenate((edge.vals[:i], [value], edge.vals[j:]))
    pts = np.concatenate((edge.pts[:i], [point], edge.pts[j:]))
    whole = _refined(sampler, pts, vals, _turns(vals))
    if whole is None:
        return None
    k = int(np.flatnonzero(whole.pts == point)[0])
    lo = _Edge(whole.pts[: k + 1], whole.vals[: k + 1], whole.turns[:k])
    return lo, _Edge(whole.pts[k:], whole.vals[k:], whole.turns[k:])


def _split(sampler: _Sampler, box: ContourBox, edges: tuple[_Edge | None, ...], frac: float):
    """box cut in two at frac across its longer side, as ((lo, lo_edges),
    (hi, hi_edges), paired), or None when a new sample lies on a zero.  box
    holds lo's count plus hi's, twice over when paired: hi then stands for
    its mirror image too.

    Only the cut is sampled anew, with its ends exactly on the split
    coordinate.  The halves reuse the parent's edges, cut at the cut's end
    samples, and share the cut: lo runs it forward, hi reversed, so their
    counts add up to the parent's.  A box held as its upper half (bottom
    None, the real axis) is cut from the axis itself, and its bottom stays
    None: an upright cut runs from the axis up, between two symmetric
    halves, and a level cut at h = frac*im_max/32 gives the symmetric strip
    lo = (-h, h) and the upper part hi = (h, im_max), paired.
    """
    symmetric = edges[_BOTTOM] is None
    base = 0.0 if symmetric else box.im_min
    upright = box.width >= box.height
    paired = symmetric and not upright
    if upright:
        # An upright cut: it crosses bottom and top and is lo's right side.
        mid = box.re_min + frac * box.width
        lo = ContourBox(box.re_min, mid, box.im_min, box.im_max)
        hi = ContourBox(mid, box.re_max, box.im_min, box.im_max)
        ends = (complex(mid, base), complex(mid, box.im_max))
        crossed, replaced, coord = ((_BOTTOM, 0), (_TOP, -1)), _RIGHT, np.real
    else:
        # A level cut: it crosses left and right and is lo's top side.
        mid = base + (frac / 32.0 if paired else frac) * (box.im_max - base)
        lo = ContourBox(box.re_min, box.re_max, -mid if symmetric else box.im_min, mid)
        hi = ContourBox(box.re_min, box.re_max, mid, box.im_max)
        ends = (complex(box.re_min, mid), complex(box.re_max, mid))
        crossed, replaced, coord = ((_LEFT, 0), (_RIGHT, -1)), _TOP, np.imag
    crossed = [(side, end) for side, end in crossed if edges[side] is not None]
    [cut] = _edges(sampler, [ends])
    if cut is None:
        return None
    parts = [
        _cut(sampler, edges[side], coord(edges[side].pts), mid, cut.pts[end], cut.vals[end])
        for side, end in crossed
    ]
    if None in parts:
        return None
    lo_edges, hi_edges = list(edges), list(edges)
    for (side, _), (lo_part, hi_part) in zip(crossed, parts):
        lo_edges[side], hi_edges[side] = lo_part, hi_part
    # The cut is lo's replaced side and hi's opposite one, two sides round.
    lo_edges[replaced] = hi_edges[(replaced + 2) % 4] = cut
    return (lo, tuple(lo_edges)), (hi, tuple(hi_edges)), paired


def _grow(box: ContourBox, edges: frozenset[int]) -> ContourBox:
    pad = _NUDGE_FACTOR * (1.0 + box.diameter)
    return ContourBox(
        re_min=box.re_min - (pad if _LEFT in edges else 0.0),
        re_max=box.re_max + (pad if _RIGHT in edges else 0.0),
        im_min=box.im_min - (pad if _BOTTOM in edges else 0.0),
        im_max=box.im_max + (pad if _TOP in edges else 0.0),
    )


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
    """Number of eigenvalues inside box, counted with multiplicity.

    The count is the winding count of the deflated numerator, char_num over
    lambda + delta, whose zeros are exactly the eigenvalues when beta != 0
    (-delta counts only when ``exclusions`` reports it an eigenvalue).  It
    is the argument principle over the box's four edges, sampled together
    (vertical edges from 16 + height*(tau + l/f + 1) steps) and each
    refined until no step turns by pi/2 or more.  Zeros sitting on the
    boundary make the count undefined; the box is grown by
    1e-4*(1 + diameter) toward every offending edge, up to five times,
    before BoundaryZero is raised.  The call, nudges included, may take at
    most 1,000,000 contour samples; past that it raises
    SampleBudgetExceeded.  A box symmetric about the real axis is sampled
    above it only, its top and each vertical edge from the axis up, and
    counted from that half as 2*(right - top - left)/2pi; a zero on the top
    grows top and bottom alike, so the box stays symmetric.
    """
    sampler = _Sampler(params)
    with np.errstate(**_QUIET):
        (_, count), _ = _nudged(lambda b: _counted(sampler, b), box)
    return count


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


def _moment_start(box: ContourBox, edges: tuple[_Edge | None, ...], count: int) -> complex:
    """Where Newton starts in box: the mean of its count zeros, read off its edges.

    The mean is the first contour moment over the count, (1/2pi i) of the
    integral of z f'/f dz around box (Delves & Lyness, 1967).  Each step
    adds its midpoint times its change of log f, ln|f| plus i times its
    turn; bottom and right run counterclockwise, top and left against.  A
    symmetric box held as its upper half gives
    Im(right - top - left)/(pi*count), which is real: the mirror image of
    each half edge, run the other way, adds minus the conjugate of its
    moment.
    """
    total = 0j
    for side, edge in enumerate(edges):
        if edge is None:
            continue
        mids = 0.5 * (edge.pts[:-1] + edge.pts[1:])
        moment = complex(np.dot(mids, np.log(edge.vals[1:] / edge.vals[:-1])))
        total += moment if side in (_BOTTOM, _RIGHT) else -moment
    if edges[_BOTTOM] is None:
        return complex(total.imag / (math.pi * count))
    return total / (2j * math.pi * count)


def _polish(
    sampler: _Sampler, box: ContourBox, edges: tuple[_Edge, ...], count: int, tol: float
) -> _Limit | None:
    """Newton-polish the zero of multiplicity count isolated in box.

    Newton runs once, from the mean of the cell's zeros that _moment_start
    reads off its edges, and gives up as soon as it leaves the cell: the
    argument principle has already isolated the zero there, and an escaped
    iterate would only find a neighboring cell's zero, silently dropping
    this cell's own while keeping the totals balanced.  None sends the
    cell back to be split.  A cluster (count > 1) is accepted only if a
    probe box around the limit still winds count times; the probe draws on
    the sampler's budget.
    """
    params = sampler.params
    hit = _newton(params, box, _moment_start(box, edges, count), tol, mult=count)
    if hit is None:
        return None
    z, iters = hit
    if box.contains(z.conjugate()):
        # Zeros come in conjugate pairs, so the zeros of a cell that holds
        # their conjugates too, polished as one, are real.
        z = complex(z.real, 0.0)
    if count > 1:
        r = max(0.6 * box.diameter, 1e3 * tol * (1.0 + abs(z)))
        probe = ContourBox(z.real - r, z.real + r, z.imag - r, z.imag + r)
        try:
            if _count(_box_edges(sampler, probe), probe) != count:
                return None
        except (_BoundaryHit, QuadratureNonInteger):
            return None
    return _Limit(z, iters, count)


def _subdivide(
    sampler: _Sampler,
    box: ContourBox,
    edges: tuple[_Edge, ...],
    count: int,
    depth: int,
    tol: float,
    roots: list[_Limit],
) -> None:
    """Isolate and polish the count zeros of the deflated numerator in box.

    edges are box's edges.  Each isolated cell gets one Newton
    start from _polish; a cell whose start escapes is split like any other,
    so every further start is paid for by a split the sample budget meters.
    A cell that cannot be split further, one with more than one zero at
    the cluster size or any cell at depth 40, raises MaxDepthExceeded when
    _polish fails on it.  Every cut is chosen and made by _split; the roots
    found in a paired part are listed once more, mirrored in the real axis.
    """
    if count == 0:
        return
    cluster_size = max(100.0 * tol, 1e-8) * (1.0 + abs(box.center))
    if count == 1 or box.diameter <= cluster_size or depth >= _MAX_DEPTH:
        found = _polish(sampler, box, edges, count, tol)
        if found is not None:
            roots.append(found)
            return
        if count > 1 or depth >= _MAX_DEPTH:
            raise MaxDepthExceeded(
                f"could not polish the {count} zeros counted in cell {box} at depth {depth}"
            )
        # Newton escaped this one-zero cell from its start; split the cell
        # so the halves' starts land nearer the zero.
    for frac in _SPLIT_FRACTIONS:
        parts = _split(sampler, box, edges, frac)
        if parts is None:
            continue
        (lo, lo_edges), (hi, hi_edges), paired = parts
        try:
            c_lo = _count(lo_edges, lo)
            c_hi = _count(hi_edges, hi)
        except QuadratureNonInteger:
            continue
        if c_lo < 0 or c_hi < 0 or c_lo + (1 + paired) * c_hi != count:
            continue
        _subdivide(sampler, lo, lo_edges, c_lo, depth + 1, tol, roots)
        n_roots = len(roots)
        _subdivide(sampler, hi, hi_edges, c_hi, depth + 1, tol, roots)
        if paired:
            roots.extend(_Limit(z.conjugate(), iters, m) for z, iters, m in roots[n_roots:])
        return
    raise _BoundaryHit(frozenset({_BOTTOM, _RIGHT, _TOP, _LEFT}))


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise InvalidParameter(f"tol must be finite and > 0, got {tol}")


@functools.cache
def _nodes(n: int):
    """The parts of an n-node collocation that depend on n alone, built on
    first use and then shared, read-only: the n + 1 Chebyshev points x, the
    barycentric signs c (ends doubled), the differentiation matrix on [-1, 1]
    (Trefethen, 2000), c_i/(c_j*(x_i - x_j)) off the diagonal and minus each
    row's sum on it, and the nodes and weights of the n-point Gauss-Legendre
    rule on [-1, 1], the eigenvalues of the Jacobi matrix and twice the
    squares of its eigenvectors' first components (Golub & Welsch, 1969).
    The matrix makes the cache O(n^2) floats per size: 0.29 MB for the 24
    sizes a point-queries pass of the benchmark builds, and about 45.5 MB
    if a process builds every size a search can (11 to _MAX_NODES = 256)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = (-1.0) ** np.arange(n + 1)
    c[[0, -1]] *= 2.0
    diff = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    diff -= np.diag(diff.sum(axis=1))
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    parts = (x, c, diff, nodes, 2.0 * vectors[0] ** 2)
    for part in parts:
        part.flags.writeable = False
    return parts


def _collocated(params: SystemParams, n: int) -> np.ndarray:
    """Eigenvalues of the (n+1)x(n+1) Chebyshev collocation of the loop's
    infinitesimal generator (Breda, Maset & Vermiglio, 2005).

    The loop is a'(t) = -alpha*a(t) + beta * int_0^{l/f} exp(-delta*s)
    a(t - tau - s) ds, whose characteristic function is the deflated
    numerator.  Its state lives on [-(tau + l/f), 0], here on the n + 1
    Chebyshev points, the first at 0.  Rows 1..n are the differentiation
    matrix (Trefethen, 2000); row 0 is the equation, its integral an
    n-point Gauss-Legendre rule weighted by exp(-delta*s) of barycentric
    interpolation rows at -tau - s.  The points, signs, differentiation
    matrix on [-1, 1] and rule come from _nodes; rows 1..n are that matrix
    scaled by 2/(tau + l/f).  Empty when the matrix is not finite (an
    overflowing weight, or a node that hits a Chebyshev point).
    """
    ratio = params.l / params.f
    span = params.tau + ratio
    x, c, diff, nodes, weights = _nodes(n)
    matrix = diff * (2.0 / span)
    s = 0.5 * ratio * (nodes + 1.0)
    rows = 1.0 / (c * ((-params.tau - s)[:, None] - 0.5 * span * (x - 1.0)))
    weights = weights * (0.5 * ratio * params.beta * np.exp(-params.delta * s))
    matrix[0] = weights @ (rows / rows.sum(axis=1)[:, None])
    matrix[0, 0] -= params.alpha
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError:
        return np.empty(0, dtype=complex)


def _predicted(params: SystemParams, box: ContourBox, count: int, tol: float):
    """The count eigenvalues in box, predicted by _collocated and polished
    by Newton, as _Limits, or None when the distinct limits do not add up
    to count.

    N = max(ceil(0.2*H*(tau + l/f)), ceil(1.5*count)) + 8 for a box of
    half-height H, then 2N, capped at _MAX_NODES; an N past the cap is not
    built.  The count term leaves room for the N + 1 eigenvalues to add up
    to count, a real limit counting once and a complex one twice, with
    spare ones to resolve the top of a dense cluster.  The parts of a size
    that depend on N alone are built once per process (_nodes).  Newton runs,
    confined to box, from each predicted eigenvalue with Im >= 0 and
    Re > re_min - 0.5.  A limit that _SAME_ROOT puts on the real axis is
    polished again from its real part and counts once, with imaginary part
    exactly 0; any other counts twice, listed with its exact conjugate right
    after it, both with its Newton iterations.  A limit within _SAME_ROOT of
    an earlier one with Im >= 0 is that one again and is dropped, so the
    limits are distinct and their number is the sum that must match count.
    """
    same = max(_SAME_ROOT, 1e3 * tol)    # relative to 1 + |z|
    n = _MIN_NODES + max(
        math.ceil(_NODES_PER_SPAN * box.im_max * (params.tau + params.l / params.f)),
        math.ceil(_NODES_PER_ZERO * count),
    )
    if n > _MAX_NODES:
        return None
    for size in sorted({n, min(2 * n, _MAX_NODES)}):
        guesses = _collocated(params, size)
        limits: list[_Limit] = []
        for z0 in guesses[(guesses.imag >= 0.0) & (guesses.real > box.re_min - 0.5)]:
            hit = _newton(params, box, complex(z0), tol)
            if hit is not None and abs(hit[0].imag) <= same * (1.0 + abs(hit[0])):
                # Newton stays on the real axis from a real start.
                hit = _newton(params, box, complex(hit[0].real, 0.0), tol)
            if hit is None:
                continue
            z = complex(hit[0].real, abs(hit[0].imag))
            # Only the limits with Im >= 0 are compared; each conjugate
            # follows its partner.
            upper = (other.lam for other in limits if other.lam.imag >= 0.0)
            if all(abs(z - other) > same * (1.0 + abs(z)) for other in upper):
                limits.append(_Limit(z, hit[1], 1))
                if z.imag:
                    limits.append(_Limit(z.conjugate(), hit[1], 1))
        if len(limits) == count:
            return limits
    return None


def _located(params: SystemParams, box: ContourBox, tol: float, predict: bool) -> RootSet:
    """find_roots, or with predict spectrum's search: a box with two or
    more zeros is first tried by _predicted, and subdivided from the same
    edges only when the prediction does not add up to its count.  A box
    with one zero is polished from its moment, which needs no split.

    Prediction and subdivision hand over the same record, a list of
    _Limits, whose multiplicities add up to the count by construction:
    _predicted returns only limits that do, and _subdivide lists exactly
    each cell's count, a paired part's finds once more, mirrored.  A nudged
    restart begins a fresh list.  So no sum is checked here; the tests
    check it."""
    sampler = _Sampler(params)

    def attempt(box: ContourBox):
        edges, count = _counted(sampler, box)
        roots = _predicted(params, box, count, tol) if predict and count > 1 else None
        if roots is None:
            roots = []
            _subdivide(sampler, box, edges, count, 0, tol, roots)
        return count, roots

    with np.errstate(**_QUIET):
        (total, roots), box = _nudged(attempt, box)
    roots.sort(key=lambda r: (r.lam.real, r.lam.imag))
    return RootSet(roots=_rooted(params, roots), total_count=total, box=box)


def find_roots(params: SystemParams, box: ContourBox, tol: float = 1e-12) -> RootSet:
    """Locate every eigenvalue inside box, the zeros that count_zeros counts.

    The box is nudged off boundary zeros, counted once, recursively bisected
    (jittering split lines that land on zeros) and each isolated zero is
    Newton-polished to |step| < tol.  Counts are argument-principle sums
    over edges sampled as count_zeros describes; a split samples only its
    cut and hands each half the parent's edges, cut where the cut meets
    them.  The whole call, nudges, splits and cluster probes included, may
    take at most 1,000,000 contour samples and raises SampleBudgetExceeded
    past that.  A root isolated in a cell that holds its conjugate is real
    and listed with imaginary part exactly 0.  Every zero counted is listed,
    or the call raises: a cell whose zeros cannot be polished and that
    cannot be split further, one holding more than one zero within the
    cluster size max(100*tol, 1e-8)*(1 + |center|) or any cell at depth
    40, raises MaxDepthExceeded naming the cell, its count and its depth.
    A tol that is not finite and > 0 raises InvalidParameter.

    A box symmetric about the real axis (im_min == -im_max) is searched in
    its upper half only: each symmetric cell is held, counted and cut as
    its upper half, and its Newton start, the cell's first contour moment,
    is real.  A tall symmetric cell, as the default box is, is cut at
    Im = im_max/64 into a symmetric strip and the upper part above it,
    which stands for its mirror image too; a wide one is cut upright into
    two symmetric halves.  Each root found in an upper part is listed with
    its exact conjugate, and a symmetric cell with one zero holds a real
    root.  The listed multiplicities add up to total_count, the count over
    the whole (possibly nudged) box, by construction.  Roots are sorted by
    real part, then imaginary part, so each pair lists -Im first.
    """
    _check_tol(tol)
    return _located(params, box, tol, predict=False)


def default_box(params: SystemParams, sigma: float) -> ContourBox:
    """Search box covering every eigenvalue with Re lambda >= -sigma.

    re_max is the search radius of Re lambda >= 0 plus 1.  The half-height
    is that radius plus sigma + 1, or the radius bounding |lambda| on
    Re lambda >= -sigma (params._strip_radius) where that is larger, as it
    can be once sigma*tau is of order one: there |exp(-lambda*tau)| reaches
    exp(sigma*tau).  A half-height that overflows raises
    SampleBudgetExceeded, as a box too tall to sample does.
    """
    radius = _search_radius(params.beta, params.delta, params.l, params.f)
    strip = _strip_radius(params.beta, params.delta, params.l, params.f, params.tau, sigma)
    half = max(radius + sigma + 1.0, strip)
    if half == math.inf:
        raise SampleBudgetExceeded(f"the search box for {params} at sigma={sigma!r} is unbounded")
    return ContourBox(re_min=-sigma, re_max=radius + 1.0, im_min=-half, im_max=half)


# The last search spectrum ran, as (params, tol, RootSet), the params object
# compared by identity (equal params can differ in the sign of a zero); None
# after a search that raised.
_kept = None


def _served(params: SystemParams, box: ContourBox, tol: float) -> RootSet | None:
    """The eigenvalues in box from the kept search, or None when spectrum
    must search afresh, as its docstring lists.

    A fresh search of box lists the same zeros as the kept one unless one
    of them lies so near box's boundary that the two could place it on
    different sides.  Two things move a zero's side.  The fresh search
    grows its box (_grow) only when a boundary sample counts as a zero,
    |f| <= 1e-13*scale (_on_zero), and Newton leaves each limit within
    about tol of its zero.  Near a zero z of multiplicity m, |f| grows like
    |f^(m)(z)|/m! * r^m with the distance r, and the cancellation scale
    over that derivative is about 1 + |z|, so the on-zero band around z
    reaches r ~ (1e-13)**(1/m)*(1 + |z|).  A root is therefore kept clear
    of the boundary by the pad (1e3*max(tol, 1e-13))**(1/m)*(1 + |z|), the
    factor 1e3 covering the loose constants: 1e-9*(1 + |z|) for a simple
    root at tol = 1e-12, and about 3.2e-5*(1 + |z|) for a double one.  A
    root's margin is its least distance (per coordinate) inside box,
    negative outside, so |margin| <= pad puts it within the pad of box's
    boundary.
    """
    if _kept is None:
        return None
    kept_params, kept_tol, kept = _kept
    outer = kept.box
    if (
        kept_params is not params
        or kept_tol != tol
        or not outer.re_min <= box.re_min < box.re_max <= outer.re_max
        or not outer.im_min <= box.im_min < box.im_max <= outer.im_max
    ):
        return None
    band = 1e3 * max(tol, _ON_ZERO_RTOL)
    roots = []
    for root in kept.roots:
        z = root.lam
        margin = min(z.real - box.re_min, box.re_max - z.real, z.imag - box.im_min, box.im_max - z.imag)
        if abs(margin) <= band ** (1.0 / root.multiplicity) * (1.0 + abs(z)):
            return None
        if margin > 0.0:
            roots.append(root)
    return RootSet(roots=tuple(roots), total_count=sum(r.multiplicity for r in roots), box=box)


def spectrum(params: SystemParams, sigma: float, tol: float = 1e-12) -> RootSet:
    """All eigenvalues with Re lambda >= -sigma.

    For beta = 0 the spectrum is exactly {-alpha} and no contour machinery
    runs.  Otherwise ``default_box``, which is symmetric about the real
    axis, is counted once (nudged off boundary zeros as count_zeros does).
    A count of two or more is checked against a prediction: the
    eigenvalues of an (N+1)x(N+1) Chebyshev collocation of the loop's
    generator, N = max(ceil(0.2*H*(tau + l/f)), ceil(1.5*count)) + 8 for
    the box's half-height H, each with Im >= 0 and Re > -sigma - 0.5
    polished by Newton confined to the box.  A limit on the real axis is
    polished again from its real part and counts once, with imaginary part
    exactly 0; any other counts twice and is listed with its exact
    conjugate.  When the distinct limits add up to the count they are the
    result, each root's newton_iters being those of the run that gave its
    limit.  Otherwise N is doubled once, capped at 256 (an N past 256 is
    not built), and then the box is searched as find_roots searches it,
    from the edges already sampled and in its upper half only; a double
    root or a missed one ends up there, and so does a box with one
    eigenvalue, which is polished without a split.  A cell that search
    cannot polish raises MaxDepthExceeded, as in find_roots: the result
    lists every eigenvalue counted.

    The last search spectrum ran is kept, with its params object and tol,
    and a query on the same object (compared by identity) and tol is
    answered from it when its box lies inside the kept one, as it does for
    any sigma no larger than the kept search's, and no kept root lies
    within its pad of the new box's boundary:
    (1e3*max(tol, 1e-13))**(1/m)*(1 + |lambda|) for a root of multiplicity
    m, 1e-9*(1 + |lambda|) for a simple one at the default tol (_served
    derives it).  The answer lists the kept roots
    strictly inside the new box, as they were listed (residuals and Newton
    iterations included), its total_count their multiplicities and its box
    the new default box; no count, collocation, Newton or residual call is
    made.  So classify or spectral_bound, then spectrum on the same object
    with a smaller sigma, searches once.  A served root can differ from a
    fresh search's in its last bits.  Any other query searches afresh,
    and only a fresh search replaces the kept one (a search that raises
    leaves none).

    Every root a fresh search lists is verified to
    satisfy |char_fn| <= 1e-8, read off its residual |char_num| (taken for
    all roots in one array call) as |char_num|/(|lambda + alpha|*|lambda +
    delta|); a root at -delta, where both are 0, passes.  The roots are
    checked in their listed order, and the first that fails raises
    SolverConsistencyError naming it.  An empty result is returned with no
    such call.  A root within char_fn's pole tolerance of -alpha, where
    char_fn raises, is verified by the deflated numerator instead, after
    the other roots: its |value| is at most 1e-13 times its cancellation
    scale, or SolverConsistencyError is raised.  The box grows
    with exp(sigma*tau), so a large sigma*tau can raise
    SampleBudgetExceeded.  A sigma that is not finite
    and >= 0, or a tol that is not finite and > 0, raises InvalidParameter.
    """
    if not 0.0 <= sigma < math.inf:
        raise InvalidParameter(f"sigma must be finite and >= 0, got {sigma}")
    _check_tol(tol)
    global _kept
    # Residuals silence an overflowing exp as find_roots's counts do.
    with np.errstate(**_QUIET):
        if params.beta == 0.0:
            box = ContourBox(-max(sigma, 1e-6), params.alpha + 1.0, -1.0, 1.0)
            limits = [_Limit(complex(-params.alpha, 0.0), 0, 1)] if -params.alpha >= -sigma else []
            roots = _rooted(params, limits)
            return RootSet(roots=roots, total_count=len(roots), box=box)

        box = default_box(params, sigma)
        result = _served(params, box, tol)
        if result is not None:
            return result
        _kept = None
        result = _located(params, box, tol, predict=True)
        near = []
        for root in result.roots:
            shifted = abs(root.lam + params.alpha)
            if shifted < _POLE_TOL * (1.0 + params.alpha):
                near.append(root.lam)
                continue
            # |char_fn| = |char_num|/(|lambda + alpha|*|lambda + delta|); at
            # -delta both sides of this test are 0, and the root passes.
            scale = shifted * abs(root.lam + params.delta)
            if root.residual > 1e-8 * scale:
                raise SolverConsistencyError(
                    f"root {root.lam} fails the characteristic residual check: |char_num| "
                    f"{root.residual} > 1e-8*|lambda + alpha|*|lambda + delta| = 1e-8*{scale}"
                )
        # char_fn refuses a root within its pole tolerance of -alpha: such a
        # root must zero the deflated numerator at rounding level, as _on_zero
        # reads a contour sample.
        if near and not _on_zero(*_deflated_with_scale(params, np.array(near))).all():
            raise SolverConsistencyError(
                f"a root within char_fn's pole tolerance of {-params.alpha} does not "
                "zero the deflated numerator"
            )
    _kept = (params, tol, result)
    return result


def spectral_bound(params: SystemParams, sigma: float) -> float | BelowThreshold:
    """sup Re lambda over the spectrum, searched down to Re lambda = -sigma.

    Returns BelowThreshold(-sigma) when no eigenvalue lies in the searched
    half-plane strip.  A sigma that is not finite and > 0 raises
    InvalidParameter.
    """
    if not 0.0 < sigma < math.inf:
        raise InvalidParameter(f"sigma must be finite and > 0, got {sigma}")
    result = spectrum(params, sigma)
    if not result.roots:
        return BelowThreshold(-sigma)
    return max(r.lam.real for r in result.roots)
