import dataclasses
import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import delaystab.eigensolver as es
from delaystab import (
    BelowThreshold,
    ContourBox,
    Evidence,
    SystemParams,
    char_fn,
    char_num,
    classify,
    count_zeros,
    default_box,
    eig_bound_radius,
    find_roots,
    spectral_bound,
    spectrum,
    threshold_gain,
)
from delaystab.characteristic import exclusions
from delaystab.errors import (
    BoundaryZero,
    DelayStabError,
    InvalidParameter,
    MaxDepthExceeded,
    QuadratureNonInteger,
    SampleBudgetExceeded,
    SolverConsistencyError,
)
from test_robustness import corpus, negative_delta

B0 = threshold_gain(1, 1, 1, 1)
BETA10_TAU50 = SystemParams(1, 10, 1, 1, 1, 50)
# The contour search over spectrum's box for it: 57 roots, found by
# subdivision (spectrum itself predicts them and makes no split).
BOX_BETA10_TAU50 = default_box(BETA10_TAU50, 1e-5)
# _deflated_with_scale samples of find_roots(BETA10_TAU50, BOX_BETA10_TAU50)
SAMPLES_BETA10_TAU50 = 5806
# 69 eigenvalues in spectrum's box, more than the box's height alone sizes
# a collocation for (N = 56): the count sizes its one collocation, N = 112.
COUNT69 = SystemParams(
    3.1176520950873146, 4.11593677105726, -0.8464677180674761,
    1.9512883749399508, 0.3343941848230898, 3.4034170806494646,
)
# The first 40 points of the robustness corpus; #18 of them, with delta < 0,
# exceeds the sample budget and is left out where a spectrum is needed.
CORPUS_HEAD = corpus()[:40]


def corpus_spectra():
    spectra = []
    for p in CORPUS_HEAD:
        try:
            spectra.append((p, spectrum(p, 1e-5)))
        except SampleBudgetExceeded:
            continue
    assert len(spectra) >= 39
    return spectra


def matched(got, want):
    """Largest relative distance of a root in want to its match in got."""
    pool = [r.lam for r in got]
    worst = 0.0
    for r in want:
        i = min(range(len(pool)), key=lambda k: abs(pool[k] - r.lam))
        worst = max(worst, abs(pool.pop(i) - r.lam) / max(1.0, abs(r.lam)))
    return worst


def random_params(rng, beta_range=(-4, 4), tau_max=2.0):
    return SystemParams(
        alpha=rng.uniform(0.2, 3.0),
        beta=rng.uniform(*beta_range),
        delta=rng.uniform(-1.5, 3.0),
        l=rng.uniform(0.3, 2.0),
        f=rng.uniform(0.3, 2.0),
        tau=rng.uniform(0.0, tau_max),
    )


def double_zero_params(alpha_shift=0.0, tau=0.0):
    """tau = 0, delta = l = f = 1: the deflated numerator is
    lambda + alpha - beta*phi(lambda + 1), and at alpha_shift = 0 these beta,
    alpha make both it and its derivative vanish at lambda = -3."""
    w = -2.0
    phi = -math.expm1(-w) / w
    beta = 1.0 / (((1.0 + w) * math.exp(-w) - 1.0) / (w * w))
    return SystemParams(beta * phi + 3.0 + alpha_shift, beta, 1.0, 1.0, 1.0, tau)


class TestContourBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ContourBox(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            ContourBox(0.0, 1.0, 2.0, -2.0)
        with pytest.raises(ValueError):
            ContourBox(0.0, math.nan, -1.0, 1.0)

    def test_geometry(self):
        box = ContourBox(-1.0, 3.0, -2.0, 2.0)
        assert box.width == 4.0 and box.height == 4.0
        assert box.center == 1.0 + 0j
        assert box.contains(0j) and not box.contains(5 + 0j)


class TestCountZeros:
    def test_polynomial_interior_zero(self):
        p = SystemParams(1, 0, 2, 1, 1, 1)
        assert count_zeros(p, ContourBox(-1.5, 1, -1, 1)) == 1

    def test_boundary_zero_nudges_outward(self):
        # beta = 0: the eigenvalue -alpha = -2 sits exactly on the requested
        # edge; growing the box to restore a well-defined winding number
        # pulls it inside
        p = SystemParams(2, 0, 1, 1, 1, 1)
        assert count_zeros(p, ContourBox(-2, 1, -1, 1)) == 1

    def test_nudges_give_up_with_boundary_zero(self):
        # an attempt that hits a zero on the top every time: each try grows
        # the top alone by 1e-4*(1 + diameter), and after the last one the
        # call raises, naming the box it would have grown to next
        tried = []

        def attempt(box):
            tried.append(box)
            raise es._BoundaryHit(frozenset({es._TOP}))

        box = ContourBox(-1.0, 2.0, -0.5, 3.0)
        with pytest.raises(es.BoundaryZero) as raised:
            es._nudged(attempt, box)
        expected = [box]
        for _ in range(es._MAX_NUDGES + 1):
            last = expected[-1]
            pad = es._NUDGE_FACTOR * (1.0 + last.diameter)
            expected.append(dataclasses.replace(last, im_max=last.im_max + pad))
        assert len(tried) == es._MAX_NUDGES + 1 and tried == expected[:-1]
        assert str(expected[-1]) in str(raised.value)

    def test_empty_right_half_plane(self):
        p = SystemParams(1, 0, 1, 1, 1, 1)
        assert count_zeros(p, ContourBox(0, 1, -1, 1)) == 0

    def test_zero_eigenvalue_counted(self):
        p = SystemParams(1, B0, 1, 1, 1, 1)
        assert count_zeros(p, ContourBox(-0.05, 0.05, -0.05, 0.05)) >= 1

    def test_additive_over_partitions(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 8:
            p = random_params(rng)
            cx, cy = rng.uniform(-2, 2, 2)
            w, h = rng.uniform(1.0, 3.0, 2)
            box = ContourBox(cx - w, cx + w, cy - h, cy + h)
            sx = rng.uniform(cx - 0.5 * w, cx + 0.5 * w)
            sy = rng.uniform(cy - 0.5 * h, cy + 0.5 * h)
            try:
                whole = count_zeros(p, box)
                parts = sum(
                    count_zeros(p, ContourBox(a, b, c, d))
                    for (a, b) in ((box.re_min, sx), (sx, box.re_max))
                    for (c, d) in ((box.im_min, sy), (sy, box.im_max))
                )
            except es.BoundaryZero:
                continue
            assert parts == whole
            done += 1

    def test_non_finite_phase_total_is_typed(self):
        # exp(-lambda*tau) overflows on this box, so every sample is NaN
        p = SystemParams(1, 1, 1, 1, 1, 1)
        with pytest.raises(QuadratureNonInteger):
            count_zeros(p, ContourBox(-800, -799, -1, 1))


class TestSharedEdges:
    def test_split_counts_add_up_and_match_fresh_counts(self):
        # Besides a general box, each draw splits a wide and a tall box
        # symmetric about the real axis.  A symmetric box is cut on its upper
        # half: a wide one upright into two symmetric halves, a tall one into
        # the symmetric strip (lo) and the upper part (hi), which is paired:
        # it stands for its mirror image too, so it counts twice.
        rng = np.random.default_rng(59)
        checked = {"general": 0, "upright": 0, "strip": 0}
        for _ in range(8):
            p = random_params(rng, tau_max=4.0)
            cx, cy = rng.uniform(-1.5, 1.5, 2)
            w, h = rng.uniform(0.5, 3.0, 2)
            boxes = (
                ContourBox(cx - w, cx + w, cy - h, cy + h),
                ContourBox(cx - w, cx + w, -h, h),
                ContourBox(cx - h, cx + h, -w, w),
            )
            for box in boxes:
                symmetric = box.im_min == -box.im_max
                sampler = es._Sampler(p)
                try:
                    edges = es._box_edges(sampler, box)
                except es._BoundaryHit:
                    continue
                count = es._count(edges, box)
                for frac in es._SPLIT_FRACTIONS:
                    parts = es._split(sampler, box, edges, frac)
                    if parts is None:
                        continue
                    (lo, lo_edges), (hi, hi_edges), paired = parts
                    c_lo, c_hi = es._count(lo_edges, lo), es._count(hi_edges, hi)
                    assert paired == (symmetric and box.height > box.width)
                    if paired:
                        assert lo.im_min == -lo.im_max and 0.0 < lo.im_max == hi.im_min
                        assert c_lo + 2 * c_hi == count
                    else:
                        assert c_lo + c_hi == count
                    if symmetric and not paired:
                        assert lo.im_min == -lo.im_max and hi.im_min == -hi.im_max
                    for child, c in ((lo, c_lo), (hi, c_hi)):
                        assert c == count_zeros(p, child)
                    kind = "strip" if paired else "upright" if symmetric else "general"
                    checked[kind] += 1
        assert min(checked.values()) >= 40


    def test_deflated_samples_of_a_large_delay_spectrum(self, monkeypatch):
        # Guards the sample count of the contour layer: splits sample only
        # their cut, so resampling whole child perimeters shows up here.
        samples = 0
        deflated = es._deflated_with_scale

        def counting(params, pts):
            nonlocal samples
            samples += len(pts)
            return deflated(params, pts)

        monkeypatch.setattr(es, "_deflated_with_scale", counting)
        assert len(find_roots(BETA10_TAU50, BOX_BETA10_TAU50).roots) == 57
        assert 0 < samples < 1.5 * SAMPLES_BETA10_TAU50

    @pytest.mark.parametrize("picked", [0, 1, 7, 39])
    def test_refinement_inserts_as_np_insert_does(self, picked):
        rng = np.random.default_rng(picked)
        pts = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        vals = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        idx = np.sort(rng.choice(39, picked, replace=False))
        mids, mvals = 0.5 * (pts[idx] + pts[idx + 1]), rng.uniform(-1, 1, picked) + 0j
        got = es._inserted(idx, (pts, mids), (vals, mvals))
        for out, old, new in zip(got, (pts, vals), (mids, mvals)):
            assert np.array_equal(out, np.insert(old, idx + 1, new))

    def test_no_box_is_sampled_twice(self, monkeypatch):
        # The search box is counted and split from the same edges, and no
        # edge or cut is sampled twice.
        boxes, segments = [], []
        box_edges, edges = es._box_edges, es._edges

        def box_spy(*args):
            boxes.append(args[-1])
            return box_edges(*args)

        def edge_spy(sampler, segs):
            segs = list(segs)
            segments.extend(segs)
            return edges(sampler, segs)

        monkeypatch.setattr(es, "_box_edges", box_spy)
        monkeypatch.setattr(es, "_edges", edge_spy)
        assert len(find_roots(BETA10_TAU50, BOX_BETA10_TAU50).roots) == 57
        assert boxes and len(set(boxes)) == len(boxes)
        assert segments and len(set(segments)) == len(segments)

    def test_nothing_below_the_axis_is_sampled(self, monkeypatch):
        # default_box is symmetric about the real axis: its lower half is
        # the mirror image of its upper half.
        lowest = []
        deflated = es._deflated_with_scale

        def spy(params, pts):
            lowest.append(pts.imag.min())
            return deflated(params, pts)

        monkeypatch.setattr(es, "_deflated_with_scale", spy)
        assert len(find_roots(BETA10_TAU50, BOX_BETA10_TAU50).roots) == 57
        assert lowest and min(lowest) >= 0.0

    def test_char_num_is_never_sampled(self, monkeypatch):
        # Contours sample the deflated numerator; char_num only gives the
        # residuals of a search's listed roots, all in one call.
        calls = []
        num = es.char_num

        def spy(params, lam):
            calls.append(list(lam))
            return num(params, lam)

        monkeypatch.setattr(es, "char_num", spy)
        p = SystemParams(2, 1, 1, 1, 1, 1)
        box = ContourBox(-2.0, 1.0, -2.0, 2.0)
        results = [
            find_roots(p, box),
            spectrum(p, 1e-6),
            spectrum(BETA10_TAU50, 1e-5),
            find_roots(BETA10_TAU50, BOX_BETA10_TAU50),
        ]
        assert results[0].total_count == count_zeros(p, box) == 1
        assert results[1].total_count == count_zeros(p, default_box(p, 1e-6))
        assert len(results[2].roots) == len(results[3].roots) == 57
        # A search with no root makes no call.
        assert calls == [[r.lam for r in result.roots] for result in results if result.roots]
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "box",
        [ContourBox(-1.0, 1.0, -2.0, 2.0), ContourBox(-1.5, -0.8, 0.0, 2.0)],
        ids=["left", "bottom"],
    )
    def test_minus_delta_on_an_edge_keeps_its_box(self, box):
        # -delta = -1 lies on one side of box but is no eigenvalue here, and
        # the deflated numerator is regular there, so nothing is nudged
        p = SystemParams(2, 1, 1, 1, 1, 1)
        result = find_roots(p, box)
        assert result.box == box
        assert not any(r.structural for r in result.roots)
        assert result.total_count == count_zeros(p, box) == len(result.roots)


def box_segments(box):
    """The (start, stop) pairs of box's bottom, right, top and left edges,
    as _box_edges lays out a box that is not held as its upper half."""
    sw, se = complex(box.re_min, box.im_min), complex(box.re_max, box.im_min)
    nw, ne = complex(box.re_min, box.im_max), complex(box.re_max, box.im_max)
    return ((sw, se), (se, ne), (nw, ne), (sw, nw))


def edges_one_by_one(sampler, segments):
    """_edges as a loop over its edges: each line from np.linspace, all
    first samples in one call, and every edge that touches no zero handed
    to _refined with its own turns.  Also returns how many edges refinement
    lengthened."""
    lines = []
    for start, stop in segments:
        steps = es._MIN_STEPS
        if start.real == stop.real:
            steps += (stop.imag - start.imag) * sampler.rate
        sampler.charge(steps + 1)
        lines.append(np.linspace(start, stop, int(steps) + 1))
    vals, scales = es._deflated_with_scale(sampler.params, np.concatenate(lines))
    on_zero = es._on_zero(vals, scales)
    edges, end, lengthened = [], 0, 0
    for pts in lines:
        start, end = end, end + pts.size
        edge = None
        if not on_zero[start:end].any():
            edge_vals = vals[start:end]
            edge = es._refined(sampler, pts, edge_vals, np.angle(edge_vals[1:] / edge_vals[:-1]))
            lengthened += edge is not None and edge.pts.size > pts.size
        edges.append(edge)
    return edges, lengthened


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestEdgeLayer:
    """_edges builds its lines without np.linspace and finds the first
    round's turns and steep steps over all its edges at once; every sample,
    turn, on-zero None and budget charge is that of a per-edge loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lines_are_linspace_to_the_bit(self, seed):
        rng = random.Random(seed)
        spans = [1e-300, 2.0**-52, 1e-3, 1.0, 37.5, 1e12, 1e300]
        for _ in range(40):
            fixed = rng.choice([-0.0, 0.0, rng.uniform(-50, 50), 10 ** rng.uniform(-300, 300)])
            lo = rng.choice([-0.0, rng.uniform(-100, 100), -rng.choice(spans)])
            hi = lo + rng.choice(spans) * rng.uniform(1, 2)
            n = rng.choice([2, 17, rng.randrange(2, 5000)])
            for start, stop in ((complex(fixed, lo), complex(fixed, hi)),
                                (complex(lo, fixed), complex(hi, fixed))):
                assert np.array_equal(bits(es._line(start, stop, n)),
                                      bits(np.linspace(start, stop, n)))

    @pytest.mark.parametrize(
        "start, stop",
        [
            (complex(-0.0, 0.0), complex(-0.0, 5e-324)),      # the step underflows
            (complex(1.0, -1e-320), complex(1.0, 1e-320)),
            (complex(-0.0, -1e307), complex(-0.0, 1e307)),
            (complex(-1e307, 3.0), complex(1e307, 3.0)),
        ],
        ids=["subnormal-span", "tiny-span", "huge-vertical", "huge-horizontal"],
    )
    def test_extreme_lines_are_linspace_to_the_bit(self, start, stop):
        for n in (2, 17, 1000):
            assert np.array_equal(bits(es._line(start, stop, n)), bits(np.linspace(start, stop, n)))

    def test_edges_match_the_per_edge_loop(self):
        # Symmetric search boxes (three segments) and the same boxes moved
        # off the axis (four); several of them have edges that refine.
        cases = []
        for p in CORPUS_HEAD[:17]:
            try:
                box = default_box(p, 1e-5)
            except SampleBudgetExceeded:
                continue
            upper = box_segments(ContourBox(box.re_min, box.re_max, 0.0, box.im_max))[1:]
            shifted = ContourBox(box.re_min, box.re_max, box.im_min * 0.9, box.im_max)
            cases += [(p, upper), (p, box_segments(shifted))]
        # The deflated numerator of beta = 0 is lambda + 1: the bottom
        # edge's fifth sample lies on its zero, and that edge is None.
        beta0 = SystemParams(1, 0, 2, 1, 1, 1)
        cases.append((beta0, box_segments(ContourBox(-1.5, 0.5, 0.0, 1.0))))
        lengthened, none_seen = 0, False
        for p, segments in cases:
            got_sampler, want_sampler = es._Sampler(p), es._Sampler(p)
            with np.errstate(**es._QUIET):
                got = es._edges(got_sampler, segments)
                want, grew = edges_one_by_one(want_sampler, segments)
            lengthened += grew
            assert got_sampler.left == want_sampler.left
            assert [edge is None for edge in got] == [edge is None for edge in want]
            none_seen |= None in got
            for g, w in zip(got, want):
                if g is not None:
                    for field in ("pts", "vals", "turns"):
                        assert np.array_equal(bits(getattr(g, field)), bits(getattr(w, field)))
        assert none_seen and lengthened >= 5

    @pytest.mark.parametrize("side", range(4))
    @pytest.mark.parametrize("step", [0, -1])
    def test_a_steep_end_step_is_refined(self, monkeypatch, side, step):
        # A zero just outside the unit box, next to the first or the last
        # step of one edge, turns that step alone by nearly pi.
        p = SystemParams(1, 0, 2, 1, 1, 0)
        segments = box_segments(ContourBox(0.0, 1.0, 0.0, 1.0))
        start, stop = segments[side]
        steps = es._MIN_STEPS + (stop.imag - start.imag) * es._Sampler(p).rate
        line = np.linspace(start, stop, int(steps) + 1)
        outward = (-1j, 1.0, 1j, -1.0)[side]
        zero = 0.5 * (line[step] + line[step - 1 if step else 1]) + 1e-3 * outward
        monkeypatch.setattr(
            es, "_deflated_with_scale", lambda params, pts: (pts - zero, np.abs(pts) + 1.0)
        )
        got_sampler, want_sampler = es._Sampler(p), es._Sampler(p)
        got = es._edges(got_sampler, segments)
        want, lengthened = edges_one_by_one(want_sampler, segments)
        assert lengthened == 1 and got_sampler.left == want_sampler.left
        for g, w in zip(got, want):
            for field in ("pts", "vals", "turns"):
                assert np.array_equal(bits(getattr(g, field)), bits(getattr(w, field)))


class TestFindRoots:
    def test_polynomial_roots_and_flags(self):
        # beta = 0: the only eigenvalue is -alpha = -1; -delta = -2 is none
        p = SystemParams(1, 0, 2, 1, 1, 1)
        result = find_roots(p, ContourBox(-3, 1, -1, 1))
        [root] = result.roots
        assert root.lam == pytest.approx(-1.0, abs=1e-12)
        assert not root.structural
        assert result.total_count == 1
        assert not result.unresolved

    def test_known_real_eigenvalue_polished(self):
        tau = math.log(2 * (1 - math.exp(-1)))
        p = SystemParams(1, 4, 0, 1, 1, tau)
        result = find_roots(p, ContourBox(0.5, 1.5, -0.5, 0.5))
        [root] = [r for r in result.roots if not r.structural]
        assert abs(root.lam - 1.0) <= 1e-8
        assert abs(char_fn(p, root.lam)) <= 1e-12

    def test_genuine_eigenvalue_at_minus_delta(self):
        # exclusions reports -delta = -1 an eigenvalue here; it is listed once
        p = SystemParams(2, 1, 1, 1, 1, 0)
        result = find_roots(p, ContourBox(-1.7, -0.3, -0.6, 0.6))
        [root] = result.roots
        assert abs(root.lam + 1) <= 1e-8 and not root.structural
        assert result.total_count == 1

    def test_residual_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_params(rng)
            box = ContourBox(-2.5, 2.5, -3.0, 3.0)
            result = find_roots(p, box)
            for r in result.roots:
                if not r.structural:
                    assert r.residual <= 1e-10 * (1 + abs(r.lam) ** 2)

    def test_newton_reconverges_from_perturbation(self):
        p = SystemParams(1, 3, 1, 1, 1, 1)
        box = ContourBox(-0.5, 1.0, -1.0, 1.0)
        result = find_roots(p, box, tol=1e-12)
        rng = np.random.default_rng(13)
        for r in result.roots:
            if r.structural:
                continue
            for _ in range(5):
                start = r.lam + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-12
                polished = es._newton(p, box, start, 1e-12)
                assert polished is not None
                assert abs(polished[0] - r.lam) <= 1e-9

    def test_newton_drops_start_that_leaves_box(self):
        p = SystemParams(1, 3, 1, 1, 1, 1)
        big = ContourBox(-0.5, 1.0, -1.0, 1.0)
        [root] = find_roots(p, big).roots
        start = root.lam + 0.05
        polished = es._newton(p, big, start, 1e-12)
        assert polished is not None and abs(polished[0] - root.lam) <= 1e-9
        # the first step heads for the root, 0.05 away, and leaves this box
        small = ContourBox(start.real - 1e-3, start.real + 1e-3, start.imag - 1e-3, start.imag + 1e-3)
        assert es._newton(p, small, start, 1e-12) is None

    def test_newton_overflow_is_a_failed_start(self):
        # exp(-lambda*tau) overflows near Re lambda = -800
        p = SystemParams(1, 3, 1, 1, 1, 1)
        box = ContourBox(-801.0, -799.0, -1.0, 1.0)
        assert es._newton(p, box, complex(-800.0, 0.5), 1e-12) is None

    def test_total_matches_count(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            p = random_params(rng)
            box = ContourBox(-2.0, 2.0, -2.5, 2.5)
            result = find_roots(p, box)
            assert sum(r.multiplicity for r in result.roots) == result.total_count
            assert result.unresolved == ()
            assert count_zeros(p, result.box) == result.total_count

    def test_double_zero_polished_as_cluster(self, monkeypatch):
        p = double_zero_params()
        counts = []
        polish = es._polish

        def spy(sampler, box, edges, count, tol):
            counts.append(count)
            return polish(sampler, box, edges, count, tol)

        monkeypatch.setattr(es, "_polish", spy)
        result = find_roots(p, ContourBox(-3.3, -2.6, -0.4, 0.45), tol=1e-8)
        [root] = result.roots
        assert root.multiplicity == 2 and not root.structural
        assert abs(root.lam + 3.0) <= 1e-7
        assert result.total_count == 2
        assert counts == [2]

    def test_an_unpolishable_cluster_raises(self):
        # 4.4e-13 below the double zero's alpha the zeros near -3 are simple,
        # 2.1e-6 apart: at tol = 1e-8 they share a cell within the cluster
        # size, 1e-6*(1 + |center|), that Newton cannot polish as a double
        # zero and that is not split further.
        p = SystemParams(1.4768116880880315, -0.4768116880884702, 1.0, 1.0, 1.0, 0.0)
        cell = r"the 2 zeros counted in cell ContourBox\(re_min=-3\.0.*\) at depth \d+$"
        with pytest.raises(MaxDepthExceeded, match=cell):
            find_roots(p, ContourBox(-3.3, -2.6, -0.4, 0.45), tol=1e-8)
        [a, b] = find_roots(p, ContourBox(-3.3, -2.6, -0.4, 0.45)).roots
        assert a.lam.real < -3.0 < b.lam.real

    def test_each_polish_makes_at_most_one_newton_start(self, monkeypatch):
        calls = []
        newton, polish = es._newton, es._polish

        def counting_newton(*args, **kwargs):
            calls[-1] += 1
            return newton(*args, **kwargs)

        def counting_polish(*args):
            calls.append(0)
            return polish(*args)

        monkeypatch.setattr(es, "_newton", counting_newton)
        monkeypatch.setattr(es, "_polish", counting_polish)
        result = find_roots(BETA10_TAU50, BOX_BETA10_TAU50)
        assert len(result.roots) == 57 and result.unresolved == ()
        # Each real root, and each conjugate pair, is polished at least once.
        lams = [r.lam for r in result.roots]
        real = sum(lam.imag == 0.0 for lam in lams)
        pairs = sum(lam.imag > 0.0 for lam in lams)
        assert real + 2 * pairs == 57
        assert len(calls) >= real + pairs
        assert max(calls) == 1

    def test_mirrored_search_matches_the_general_one(self):
        # Moving im_min by one part in 2**40 makes the box non-symmetric, so
        # it is searched in both halves; counts and roots must agree.
        points = [BETA10_TAU50, *(p for p, _ in corpus_spectra()[:12])]
        for p in points:
            box = default_box(p, 1e-5)
            shifted = ContourBox(box.re_min, box.re_max, box.im_min * (1 + 2**-40), box.im_max)
            mirrored, general = find_roots(p, box), find_roots(p, shifted)
            assert mirrored.total_count == general.total_count == count_zeros(p, box)
            assert len(mirrored.roots) == len(general.roots)
            assert matched(general.roots, mirrored.roots) <= 1e-12

    def test_root_on_the_strip_cut_moves_the_cut(self, monkeypatch):
        # The box's first strip cut, at Im = im_max/64, runs through a root;
        # the cut moves to the next fraction and every root is still found.
        p = BETA10_TAU50
        z = min((r.lam for r in spectrum(p, 1e-5).roots if r.lam.imag > 0), key=abs)
        box = ContourBox(z.real - 0.5, z.real + 0.5, -64.0 * z.imag, 64.0 * z.imag)
        cuts = []
        split = es._split

        def spy(*args):
            parts = split(*args)
            cuts.append((args[-1], parts is None))
            return parts

        monkeypatch.setattr(es, "_split", spy)
        result = find_roots(p, box)
        assert cuts[0] == (0.5, True) and cuts[1] == (0.55, False)
        shifted = ContourBox(box.re_min, box.re_max, box.im_min * (1 + 2**-40), box.im_max)
        general = find_roots(p, shifted)
        assert result.total_count == count_zeros(p, box) == general.total_count > 0
        assert len(result.roots) == result.total_count and result.unresolved == ()
        assert matched(general.roots, result.roots) <= 1e-12
        assert min(abs(r.lam - z) for r in result.roots) <= 1e-12

    def test_moment_start_lands_next_to_the_zero(self):
        # beta = 0: the deflated numerator is lambda + 1, zero at -1, which
        # this box holds off its center
        p = SystemParams(1, 0, 2, 1, 1, 1)
        box = ContourBox(-1.3, -0.6, -0.25, 0.4)
        sampler = es._Sampler(p)
        edges = es._box_edges(sampler, box)
        assert es._count(edges, box) == 1
        start = es._moment_start(box, edges, 1)
        assert box.contains(start)
        assert abs(start + 1.0) < 1e-3 < abs(box.center + 1.0)

    @pytest.mark.parametrize("beta, tau, sigma", [(2.0, 0.1, 1e-6), (3.0, 0.5, 0.5), (5.0, 0.1, 1.0)])
    def test_symmetric_one_zero_cell_starts_on_the_axis(self, beta, tau, sigma):
        # A symmetric cell with one zero holds a real one, and its moment
        # start is real to the last bit (a whole-box sum rounds off the axis).
        p = SystemParams(1, beta, 1, 1, 1, tau)
        box = default_box(p, sigma)
        edges = es._box_edges(es._Sampler(p), box)
        assert box.im_min == -box.im_max and es._count(edges, box) == 1
        start = es._moment_start(box, edges, 1)
        assert start.imag == 0.0
        [root] = spectrum(p, sigma).roots
        assert root.lam.imag == 0.0 and abs(start - root.lam) < 1e-3

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            find_roots(SystemParams(1, 1, 1, 1, 1, 1), ContourBox(-1, 1, -1, 1), tol=0)


class TestSpectrum:
    def test_zero_gain_exact_spectrum(self):
        p = SystemParams(1, 0, 1, 1, 1, 1)
        result = spectrum(p, 2.0)
        assert [r.lam for r in result.roots] == [-1 + 0j]
        assert spectrum(p, 0.5).roots == ()

    def test_zero_gain_skips_contour_machinery(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("contour machinery invoked for beta = 0")

        monkeypatch.setattr(es, "_box_edges", boom)
        result = spectrum(SystemParams(2, 0, 1, 1, 1, 1), 3.0)
        assert [r.lam for r in result.roots] == [-2 + 0j]

    def test_threshold_gain_zero_root(self):
        p = SystemParams(1, B0, 1, 1, 1, 0.5)
        result = spectrum(p, 0.5)
        assert any(abs(r.lam) <= 1e-8 for r in result.roots)

    def test_stable_point_empty_right_half_plane(self):
        p = SystemParams(1, 1, 1, 1, 1, 1)
        result = spectrum(p, 0.0)
        assert not any(r.lam.real >= 0 for r in result.roots)

    def test_structural_zeros_filtered(self):
        p = SystemParams(1, -3, -0.5, 1, 1, 1)
        result = spectrum(p, 1.0)
        assert all(not r.structural for r in result.roots)
        assert all(abs(char_fn(p, r.lam)) <= 1e-8 for r in result.roots)

    def test_real_roots_are_exactly_real(self):
        # Newton reaches the real root 0.38206819097433 from an off-axis
        # moment start, and its last iterate is off the axis by about 1e-45
        p = SystemParams(
            0.2325208963116215, 3.06687210204778, -0.7832343153676794,
            0.5808190927911019, 2.363262794248682, 0.6642864561929152,
        )
        lams = [r.lam for r in spectrum(p, 1e-6).roots]
        real = [lam for lam in lams if abs(lam.imag) <= 1e-9]
        assert any(abs(lam - 0.38206819097433) <= 1e-13 for lam in real)
        assert all(lam.imag == 0.0 for lam in real)

    def test_pairs_are_exact_conjugates_in_a_fixed_order(self):
        # Each root of the upper half is listed with its exact conjugate,
        # -Im first, and every real root has imaginary part exactly 0.
        spectra = [(BETA10_TAU50, spectrum(BETA10_TAU50, 1e-5)), *corpus_spectra()]
        assert len(spectra[0][1].roots) == 57
        pairs = 0
        for p, result in spectra:
            lams = [r.lam for r in result.roots]
            assert lams == sorted(lams, key=lambda lam: (lam.real, lam.imag))
            for i, lam in enumerate(lams):
                if abs(lam.imag) <= 1e-9 * (1.0 + abs(lam)):
                    assert lam.imag == 0.0
                elif lam.imag < 0.0:
                    assert lams[i + 1] == lam.conjugate()
                    pairs += 1
                else:
                    assert lams[i - 1] == lam.conjugate()
            assert [r.lam for r in spectrum(p, 1e-5).roots] == lams
        assert pairs > 100

    def test_conjugate_closure_of_output(self):
        p = SystemParams(1, -3, 1, 1, 1, 3)
        roots = [r.lam for r in spectrum(p, 1.0).roots]
        for lam in roots:
            if abs(lam.imag) > 1e-9:
                assert min(abs(lam.conjugate() - other) for other in roots) <= 1e-9

    def test_large_delay_polish(self):
        # beta = 10, tau = 50: 57 roots packed along the imaginary axis,
        # where most Newton starts leave their cell
        p = SystemParams(1, 10, 1, 1, 1, 50)
        result = spectrum(p, 1e-5)
        assert len(result.roots) == 57 and result.unresolved == ()
        lams = [r.lam for r in result.roots]
        assert all(abs(char_fn(p, lam)) <= 1e-8 for lam in lams)
        for lam in lams:
            if lam.imag != 0.0:
                assert min(abs(other - lam.conjugate()) for other in lams) <= 1e-9 * (1 + abs(lam))

    def test_an_empty_spectrum_is_not_checked(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("residual evaluated for an empty spectrum")

        monkeypatch.setattr(es, "char_fn", boom)
        monkeypatch.setattr(es, "char_num", boom)
        p = SystemParams(2, 1, 1, 1, 1, 1)
        assert spectrum(p, 1e-6).roots == () == spectrum(SystemParams(1, 0, 1, 1, 1, 1), 0.5).roots

    def test_bound_radius_respected_for_nonnegative_decay(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_params(rng, beta_range=(-3, 3))
            if p.delta < 0 or p.beta == 0:
                continue
            radius = eig_bound_radius(p.beta, p.delta)
            for r in spectrum(p, 0.0).roots:
                if r.lam.real >= 0:
                    assert abs(r.lam) <= radius + 1e-9


README_LIBRARY = SystemParams(1, 1, 1, 1, 1, 1)


class TestResiduals:
    # Every search takes its roots' residuals from one char_num call over
    # the listed roots, and a conjugate is listed with its partner's
    # residual and Newton iterations.
    @pytest.mark.parametrize(
        "params, search",
        [
            (README_LIBRARY, lambda p: spectrum(p, 2.0)),
            (SystemParams(1, 2, 1, 1, 1, 1), lambda p: spectrum(p, 1e-6)),
            (BETA10_TAU50, lambda p: spectrum(p, 1e-5)),
            (BETA10_TAU50, lambda p: find_roots(p, BOX_BETA10_TAU50)),
        ],
        ids=["readme-library", "readme-eig", "beta10-tau50", "find-roots-subdivided"],
    )
    def test_one_array_call_gives_every_residual(self, params, search):
        roots = search(params).roots
        lams = np.array([r.lam for r in roots])
        assert [r.residual for r in roots] == np.abs(char_num(params, lams)).tolist()
        by_lam = {r.lam: r for r in roots}
        for r in roots:
            partner = by_lam[r.lam.conjugate()]
            assert (partner.residual, partner.newton_iters) == (r.residual, r.newton_iters)

    def test_the_cases_hold_pairs_and_a_subdivision(self, monkeypatch):
        assert any(r.lam.imag for r in spectrum(README_LIBRARY, 2.0).roots)
        splits = []
        split = es._split

        def spy(*args):
            splits.append(args[1])
            return split(*args)

        monkeypatch.setattr(es, "_split", spy)
        roots = find_roots(BETA10_TAU50, BOX_BETA10_TAU50).roots
        assert splits and sum(r.lam.imag > 0 for r in roots) > 20


class TestResidualCheck:
    """spectrum verifies |char_fn| <= 1e-8 at each root from its residual,
    as |char_num|/(|lambda + alpha|*|lambda + delta|), with no second
    evaluation."""

    @pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
    def test_the_check_reads_the_residual(self, monkeypatch, factor, fails):
        # Each residual forced to factor * 1e-8 * |lambda + alpha|*|lambda + delta|.
        p = BETA10_TAU50

        def forced(params, lams):
            lams = np.asarray(lams)
            return factor * 1e-8 * np.abs(lams + params.alpha) * np.abs(lams + params.delta)

        monkeypatch.setattr(es, "char_num", forced)
        monkeypatch.setattr(es, "char_fn", None)
        if fails:
            with pytest.raises(SolverConsistencyError, match="fails the characteristic residual"):
                spectrum(p, 1e-5)
        else:
            assert len(spectrum(p, 1e-5).roots) == 57

    def test_a_root_at_minus_delta_passes(self):
        # exclusions reports -delta = -1 an eigenvalue: the condition
        # 1 - beta*l*exp(delta*tau)/(f*(alpha - delta)) is 0.
        p = SystemParams(2, math.exp(-0.5), 1, 1, 1, 0.5)
        assert exclusions(p).minus_delta_is_eigen
        roots = spectrum(p, 1.5).roots
        assert any(abs(r.lam + 1.0) <= 1e-12 for r in roots)

    def test_a_root_exactly_at_minus_delta_passes(self, monkeypatch):
        # char_num and lambda + delta are both 0 there.
        p = SystemParams(2, math.exp(-0.5), 1, 1, 1, 0.5)
        box = default_box(p, 1.5)
        listed = es.RootSet(es._rooted(p, [es._Limit(complex(-1.0, 0.0), 3, 1)]), 1, box)
        assert listed.roots[0].residual == 0.0
        monkeypatch.setattr(es, "_located", lambda *args, **kwargs: listed)
        assert spectrum(p, 1.5) is listed

    def test_the_first_root_that_fails_is_named(self, monkeypatch):
        # Roots are checked in their listed order, and the first that fails
        # the residual check raises at once, before the roots within char_fn's
        # pole tolerance of -alpha are checked: -1 + 1e-14 below does not
        # zero the deflated numerator either.
        p = SystemParams(1, 2, 1, 1, 1, 1)
        box = default_box(p, 1.5)
        limits = [es._Limit(complex(-1.0 + 1e-14, 0.0), 3, 1), es._Limit(0.5 + 0j, 3, 1),
                  es._Limit(0.75 + 0j, 3, 1)]
        listed = es.RootSet(es._rooted(p, limits), 3, box)
        monkeypatch.setattr(es, "_located", lambda *args, **kwargs: listed)
        with pytest.raises(SolverConsistencyError, match=r"^root \(0\.5\+0j\) fails"):
            spectrum(p, 1.5)


class TestPredictedSpectrum:
    """spectrum predicts the roots of a counted box by collocation, polishes
    them by Newton and lists them when they add up to the count; otherwise
    it subdivides, as find_roots does."""

    def test_agrees_with_the_contour_search(self, monkeypatch):
        # Points from the ranges of the benchmark's point queries, and two
        # many-root spectra: 57 roots at tau = 50, 51 at sigma = 1.
        rng = np.random.default_rng(67)
        points = [
            (
                SystemParams(
                    alpha=10.0 ** rng.uniform(-1, 1),
                    beta=rng.uniform(-10, 10),
                    delta=rng.uniform(-1, 3),
                    l=10.0 ** rng.uniform(-0.5, 0.5),
                    f=10.0 ** rng.uniform(-0.5, 0.5),
                    tau=rng.uniform(0, 20),
                ),
                1e-6,
            )
            for _ in range(30)
        ]
        points += [(BETA10_TAU50, 1e-5), (SystemParams(1, 5, 1, 1, 1, 5), 1.0)]
        contours = [find_roots(p, default_box(p, sigma)) for p, sigma in points]
        splits = []
        split = es._split
        monkeypatch.setattr(es, "_split", lambda *args: splits.append(args) or split(*args))
        unsplit = 0
        for (p, sigma), contour in zip(points, contours):
            before = len(splits)
            result = spectrum(p, sigma)
            unsplit += len(splits) == before
            assert result.total_count == contour.total_count == len(result.roots)
            assert len(contour.roots) == len(result.roots)
            assert matched(contour.roots, result.roots) <= 1e-12
        assert unsplit >= 28 and sum(len(c.roots) for c in contours) > 200

    @pytest.mark.parametrize(
        "p, n",
        [(SystemParams(1, 3, 1, 1, 1, 5), 24), (SystemParams(2, -4, 0.5, 2, 1, 1), 24),
         (BETA10_TAU50, 160)],
    )
    def test_collocation_is_spectrally_accurate(self, p, n):
        # The generator's eigenvalues converge to the roots, not merely
        # near enough for Newton to find them.
        guesses = es._collocated(p, n)
        for r in spectrum(p, 1e-5).roots:
            assert np.abs(guesses - r.lam).min() <= 1e-12 * max(1.0, abs(r.lam))

    @pytest.mark.parametrize("guess", ["nothing", "non-roots"])
    def test_a_failed_prediction_falls_back(self, monkeypatch, guess):
        # No prediction, or predictions that are not roots: the search falls
        # back or still reconciles, and lists the contour search's roots.
        collocated = es._collocated

        def predictor(params, n):
            if guess == "nothing":
                return np.empty(0, dtype=complex)
            return collocated(params, n) + 0.05

        monkeypatch.setattr(es, "_collocated", predictor)
        for p in (BETA10_TAU50, *(p for p, _ in corpus_spectra()[:6])):
            result = spectrum(p, 1e-5)
            contour = find_roots(p, default_box(p, 1e-5))
            assert result.total_count == contour.total_count == len(result.roots)
            assert matched(contour.roots, result.roots) <= 1e-12
            if guess == "nothing":
                assert result == contour

    def test_repeated_and_off_axis_starts_still_reconcile(self, monkeypatch):
        # Every prediction twice, real ones moved off the axis: each limit
        # counts once, and a real one is polished again on the axis.
        points = (BETA10_TAU50, SystemParams(1, 3, 1, 1, 1, 5))
        contours = [find_roots(p, default_box(p, 1e-5)).roots for p in points]
        collocated = es._collocated

        def predictor(params, n):
            guesses = collocated(params, n)
            return np.repeat(guesses + 1e-3j * (guesses.imag == 0.0), 2)

        def boom(*args):
            raise AssertionError("spectrum split a box")

        monkeypatch.setattr(es, "_collocated", predictor)
        monkeypatch.setattr(es, "_split", boom)
        for p, contour in zip(points, contours):
            roots = spectrum(p, 1e-5).roots
            assert len(roots) == len(contour) and any(r.lam.imag == 0.0 for r in roots)
            assert [r.lam.imag == 0.0 for r in roots] == [r.lam.imag == 0.0 for r in contour]
            assert matched(contour, roots) <= 1e-12

    def test_collocation_over_the_cap_is_not_built(self, monkeypatch):
        # Corpus point #85 (3,334 zeros) asks for N = 5009 nodes, past the cap
        # of 256; its height alone asks for more than 256 too.
        p = corpus()[85]
        box = default_box(p, 1e-5)
        assert es._NODES_PER_SPAN * box.im_max * (p.tau + p.l / p.f) > es._MAX_NODES

        def boom(*args):
            raise AssertionError("eigvals called past the node cap")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        result = spectrum(p, 1e-5)
        assert sum(r.multiplicity for r in result.roots) == result.total_count > 0

    def test_large_delay_spectrum_makes_no_split(self, monkeypatch):
        def boom(*args):
            raise AssertionError("spectrum split a box")

        monkeypatch.setattr(es, "_split", boom)
        result = spectrum(BETA10_TAU50, 1e-5)
        assert len(result.roots) == result.total_count == 57


def collocated_from_scratch(params, n):
    """_collocated with every part built anew, none shared across calls."""
    ratio = params.l / params.f
    span = params.tau + ratio
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = (-1.0) ** np.arange(n + 1)
    c[[0, -1]] *= 2.0
    matrix = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    matrix -= np.diag(matrix.sum(axis=1))
    matrix *= 2.0 / span
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    weights = 2.0 * vectors[0] ** 2
    s = 0.5 * ratio * (nodes + 1.0)
    rows = 1.0 / (c * ((-params.tau - s)[:, None] - 0.5 * span * (x - 1.0)))
    weights *= 0.5 * ratio * params.beta * np.exp(-params.delta * s)
    matrix[0] = weights @ (rows / rows.sum(axis=1)[:, None])
    matrix[0, 0] -= params.alpha
    return np.linalg.eigvals(matrix)


class TestCollocationSizes:
    """The parts of a collocation that depend on its size alone are built
    once per size and shared, and the first size holds the count."""

    @pytest.mark.parametrize("n", [16, 33, 128, 256])
    def test_shared_parts_give_the_same_bits(self, n):
        # Twice each, so the second call reads parts the first one used.
        for p in (BETA10_TAU50, COUNT69, SystemParams(2, -4, 0.5, 2, 1, 1)) * 2:
            assert np.array_equal(es._collocated(p, n), collocated_from_scratch(p, n))

    @pytest.mark.parametrize("n", [16, 33, 128, 256])
    def test_shared_parts_are_read_only(self, n):
        for part in es._nodes(n):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0.0

    @pytest.mark.parametrize("n", [11, 16, 33, 128, 256])
    def test_shared_matrix_is_the_inline_formula(self, n):
        x, c, diff, _, _ = es._nodes(n)
        matrix = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
        matrix -= np.diag(matrix.sum(axis=1))
        assert np.array_equal(diff, matrix) and not diff.flags.writeable

    def test_each_size_is_built_once(self, monkeypatch):
        # 57 eigenvalues: N = 8 + ceil(1.5*57) = 94, and no doubling.
        es._nodes.cache_clear()
        built, used = [], []
        eigh, collocated = np.linalg.eigh, es._collocated
        monkeypatch.setattr(np.linalg, "eigh", lambda a: built.append(len(a)) or eigh(a))
        monkeypatch.setattr(es, "_collocated", lambda p, n: used.append(n) or collocated(p, n))
        first = spectrum(BETA10_TAU50, 1e-5)
        # An equal but distinct object is searched afresh and collocated
        # again, from the parts the first search built.
        assert first == spectrum(dataclasses.replace(BETA10_TAU50), 1e-5)
        assert used == [94] * 2 and built == [94]

    def test_the_count_sizes_the_first_collocation(self, monkeypatch):
        p = COUNT69
        box = default_box(p, 1e-5)
        assert math.ceil(es._NODES_PER_SPAN * box.im_max * (p.tau + p.l / p.f)) + 8 == 56
        contour = find_roots(p, box)
        used, collocated = [], es._collocated
        monkeypatch.setattr(es, "_collocated", lambda q, n: used.append(n) or collocated(q, n))
        result = spectrum(p, 1e-5)
        assert used == [112]
        assert result.total_count == contour.total_count == len(result.roots) == 69
        assert matched(contour.roots, result.roots) <= 1e-12


def searched(monkeypatch):
    """The boxes of the searches spectrum runs afresh, by a spy on _located."""
    boxes, located = [], es._located

    def spy(params, box, *args, **kwargs):
        boxes.append(box)
        return located(params, box, *args, **kwargs)

    monkeypatch.setattr(es, "_located", spy)
    return boxes


def point_queries():
    """The 80 points of the benchmark's point-queries workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.point_queries_inputs(0)


def with_root(kept, box, inside, multiplicity):
    """kept with one more root of multiplicity, listed last: the real
    lambda that lies inside to the right of box's left edge."""
    root = es.Root(complex(box.re_min + inside, 0.0), 0.0, 1, False, multiplicity)
    return dataclasses.replace(
        kept, roots=(*kept.roots, root), total_count=kept.total_count + multiplicity
    )


class TestKeptSearch:
    """spectrum answers a query on the params object and tol of its last
    search, whose box lies inside that search's, from that search."""

    def test_classify_then_spectrum_searches_once(self, monkeypatch):
        boxes = searched(monkeypatch)
        assert classify(COUNT69).evidence is Evidence.SPECTRAL_SEARCH
        result = spectrum(COUNT69, 1e-6)
        assert boxes == [default_box(COUNT69, 1e-5)]
        assert result.box == default_box(COUNT69, 1e-6) and not result.unresolved
        assert result.total_count == len(result.roots) == 69
        # The same query again is served from the same search.
        assert spectrum(COUNT69, 1e-6) == result and len(boxes) == 1

    def test_a_narrower_box_lists_the_kept_roots_inside_it(self, monkeypatch):
        # 51 eigenvalues with Re lambda >= -1, 5 of them with Re lambda >= -1e-6.
        p = SystemParams(1, 5, 1, 1, 1, 5)
        assert spectrum(p, 1.0).total_count == 51
        boxes = searched(monkeypatch)
        served = spectrum(p, 1e-6)
        fresh = spectrum(dataclasses.replace(p), 1e-6)
        assert boxes == [default_box(p, 1e-6)]
        assert served.total_count == fresh.total_count == len(served.roots) == 5
        assert served.box == fresh.box
        assert matched(fresh.roots, served.roots) <= 1e-15

    @pytest.mark.parametrize(
        "case",
        ["equal-object", "other-tol", "larger-sigma", "root-in-pad", "double-root-in-pad"],
    )
    def test_a_fresh_search(self, monkeypatch, case):
        p, sigma, tol = COUNT69, 1e-6, 1e-12
        kept = spectrum(p, 1e-5)
        if case == "equal-object":
            p = dataclasses.replace(p)
        elif case == "other-tol":
            tol = 1e-11
        elif case == "larger-sigma":
            sigma = 1e-4
        else:
            # A simple root 1e-10 inside the box, within its pad of
            # 1e-9*(1 + |z|); a double one 1e-6 inside, past a simple
            # root's pad but within its own, (1e-9)**(1/2)*(1 + |z|) = 3.2e-5.
            inside, multiplicity = (1e-10, 1) if case == "root-in-pad" else (1e-6, 2)
            kept = with_root(kept, default_box(p, sigma), inside, multiplicity)
            monkeypatch.setattr(es, "_kept", (p, tol, kept))
        boxes = searched(monkeypatch)
        result = spectrum(p, sigma, tol)
        assert boxes == [default_box(p, sigma)]
        # Only a fresh search replaces the entry.
        assert es._kept == (p, tol, result)

    def test_a_root_outside_its_pad_is_served(self, monkeypatch):
        # A simple root 1e-4*(1 + diameter) inside the box, far past its
        # pad: a fixed pad of that size sent such queries to search again.
        p, sigma = COUNT69, 1e-6
        box = default_box(p, sigma)
        kept = with_root(spectrum(p, 1e-5), box, 1e-4 * (1.0 + box.diameter), 1)
        monkeypatch.setattr(es, "_kept", (p, 1e-12, kept))
        boxes = searched(monkeypatch)
        result = spectrum(p, sigma)
        assert boxes == [] and kept.roots[-1] in result.roots
        assert result.total_count == len(result.roots) == 70

    def test_a_search_that_raises_keeps_nothing(self, monkeypatch):
        spectrum(COUNT69, 1e-5)

        def boom(*args, **kwargs):
            raise SolverConsistencyError("boom")

        monkeypatch.setattr(es, "_located", boom)
        with pytest.raises(SolverConsistencyError):
            spectrum(dataclasses.replace(COUNT69), 1e-5)
        assert es._kept is None

    @pytest.mark.parametrize("points", ["point-queries", "negative-delta"])
    def test_a_served_spectrum_matches_a_fresh_one(self, monkeypatch, points):
        # The order of the benchmark and the label digest: classify, then
        # spectrum(p, 1e-6); the fresh search is of an equal object.
        boxes = searched(monkeypatch)
        searched_by_classify = served = 0
        for p in point_queries() if points == "point-queries" else negative_delta():
            try:
                classify(p)
            except DelayStabError:
                pass
            searched_by_classify += es._kept is not None and es._kept[0] is p
            searches = len(boxes)
            answers = []
            for q in (p, dataclasses.replace(p)):
                try:
                    answers.append(spectrum(q, 1e-6))
                except DelayStabError as exc:
                    answers.append(type(exc))
            got, fresh = answers
            served += len(boxes) == searches + 1
            if isinstance(fresh, type) or isinstance(got, type):
                assert got is fresh
                continue
            assert (got.total_count, got.box, got.unresolved) == (
                fresh.total_count, fresh.box, fresh.unresolved
            )
            assert [(r.multiplicity, r.newton_iters) for r in got.roots] == [
                (r.multiplicity, r.newton_iters) for r in fresh.roots
            ]
            for a, b in zip(got.roots, fresh.roots):
                assert abs(a.lam - b.lam) <= 1e-15 * max(1.0, abs(b.lam))
        # Every spectrum that follows a classify that searched is served.
        assert served == searched_by_classify == (62 if points == "point-queries" else 200)

    def test_the_entry_holds_one_search(self, monkeypatch):
        other = SystemParams(1, -4, 1, 1, 1, 4)
        for p in (COUNT69, other):
            assert classify(p).evidence is Evidence.SPECTRAL_SEARCH
        boxes = searched(monkeypatch)
        spectrum(COUNT69, 1e-6)
        assert boxes == [default_box(COUNT69, 1e-6)]
        assert es._kept[0] is COUNT69


class TestCountInvariant:
    """The multiplicities a search lists add up to its count by
    construction, with no check at run time: _predicted returns only limits
    that add up to the count, _subdivide lists exactly each cell's count (a
    paired part's finds once more, mirrored), and a nudged restart begins a
    fresh list.  On searches that subdivide and searches near a double
    eigenvalue, the sum, total_count and a fresh count_zeros over the
    result's box agree."""

    def test_subdivided_default_boxes(self, monkeypatch):
        # Every corpus and negative-delta point whose spectrum(p, 1e-5) calls
        # _split: corpus #83, #85, #99, #127, #140 and #248 (217 to 3,334
        # zeros, most past the collocation's cap) and negative-delta #60.
        splits = []
        split = es._split
        monkeypatch.setattr(es, "_split", lambda *args: splits.append(args) or split(*args))
        points = [corpus()[i] for i in (83, 85, 99, 127, 140, 248)] + [negative_delta()[60]]
        for p in points:
            before = len(splits)
            result = spectrum(p, 1e-5)
            assert len(splits) > before
            assert (
                sum(r.multiplicity for r in result.roots)
                == result.total_count
                == count_zeros(p, result.box)
                > 200
            )

    def test_near_a_double_eigenvalue(self):
        # The label digest's degenerate set: alpha0 +- 10**k, k = -16..-2,
        # at three delays.  Its 8 points within 1e-16 of alpha0 raise
        # BoundaryZero (ROADMAP item 17); the other 82 list their roots.
        listed = 0
        for tau in (0.0, 1e-3, 0.05):
            for k in range(-16, -1):
                for sign in (-1.0, 1.0):
                    p = double_zero_params(sign * 10.0**k, tau)
                    try:
                        result = spectrum(p, 3.5)
                    except BoundaryZero:
                        continue
                    listed += 1
                    total = sum(r.multiplicity for r in result.roots)
                    assert total == result.total_count == count_zeros(p, result.box) > 0
        assert listed == 82


class TestGiveUpBranches:
    """The branches where the search gives a start, a cluster, a prediction
    or a cut up, each forced on one call."""

    CELL = ContourBox(-3.3, -2.6, -0.4, 0.45)

    def double_zero_cell(self):
        p = double_zero_params()
        sampler = es._Sampler(p)
        edges = es._box_edges(sampler, self.CELL)
        assert es._count(edges, self.CELL) == 2
        return sampler, edges

    def test_a_cluster_is_polished_when_its_probe_agrees(self):
        sampler, edges = self.double_zero_cell()
        limit = es._polish(sampler, self.CELL, edges, 2, 1e-8)
        assert limit.multiplicity == 2 and abs(limit.lam + 3.0) <= 1e-7

    def test_a_cluster_whose_probe_counts_otherwise_is_refused(self, monkeypatch):
        sampler, edges = self.double_zero_cell()
        monkeypatch.setattr(es, "_count", lambda edges, box: 3)
        assert es._polish(sampler, self.CELL, edges, 2, 1e-8) is None

    @pytest.mark.parametrize("where", ["edges", "count"])
    def test_a_cluster_whose_probe_meets_a_zero_is_refused(self, monkeypatch, where):
        sampler, edges = self.double_zero_cell()

        def hit(*args):
            raise es._BoundaryHit(frozenset({es._TOP}))

        def non_integer(*args):
            raise QuadratureNonInteger("forced")

        if where == "edges":
            monkeypatch.setattr(es, "_box_edges", hit)
        else:
            monkeypatch.setattr(es, "_count", non_integer)
        assert es._polish(sampler, self.CELL, edges, 2, 1e-8) is None

    def test_newton_gives_up_where_the_derivative_vanishes(self, monkeypatch):
        values = []
        monkeypatch.setattr(es, "_deflated_prime", lambda params, z: 0j)
        monkeypatch.setattr(es, "_deflated", lambda params, z: values.append(z) or 1.0)
        box = ContourBox(-1.0, 1.0, -1.0, 1.0)
        assert es._newton(SystemParams(1, 1, 1, 1, 1, 1), box, 0.25 + 0.25j, 1e-12) is None
        assert values == []

    def test_newton_gives_up_after_its_last_iteration(self, monkeypatch):
        # Each step jumps between 0.25 and 0.45, inside the box and never
        # shorter than tol.
        steps = []
        monkeypatch.setattr(es, "_deflated_prime", lambda params, z: 1.0)
        monkeypatch.setattr(es, "_deflated", lambda params, z: steps.append(z) or 2.0 * (z - 0.35))
        box = ContourBox(-1.0, 1.0, -1.0, 1.0)
        assert es._newton(SystemParams(1, 1, 1, 1, 1, 1), box, 0.25 + 0j, 1e-12) is None
        assert len(steps) == es._NEWTON_MAXITER

    def test_a_collocation_whose_eigenvalues_fail_predicts_nothing(self, monkeypatch):
        p = SystemParams(1, 3, 1, 1, 1, 5)
        contour = find_roots(p, default_box(p, 1e-5))
        assert contour.total_count > 2

        def failing(matrix):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        empty = es._collocated(p, 16)
        assert empty.size == 0 and empty.dtype == complex
        # spectrum then subdivides, as find_roots does
        assert spectrum(p, 1e-5) == contour

    def test_a_cut_whose_crossed_edge_refines_onto_a_zero_fails(self, monkeypatch):
        # A made-up function of Re lambda alone, exp(i*g): g is 0 on the
        # edges' first samples but 3 at the upright cut, Re = 1.1 at frac
        # 0.55, so the cut's end sample makes two steep steps of the bottom
        # and top edges, and their refinement samples Re = 1.05, where the
        # function counts as a zero.
        def sampled(params, pts, zero_at=1.05):
            g = 3.0 * np.exp(-(((pts.real - 1.1) / 0.01) ** 2))
            scales = np.where(pts.real == zero_at, 1e14, 1.0)
            return np.exp(1j * g), scales

        monkeypatch.setattr(es, "_deflated_with_scale", sampled)
        p = SystemParams(1, 1, 1, 1, 1, 0)
        box = ContourBox(0.0, 2.0, -0.5, 0.7)
        sampler = es._Sampler(p)
        edges = es._box_edges(sampler, box)
        assert es._count(edges, box) == 0
        bottom = edges[es._BOTTOM]
        assert (bottom.pts.real == 1.0).any() and not (bottom.pts.real == 1.05).any()
        cut = es._edges(sampler, [(complex(1.1, -0.5), complex(1.1, 0.7))])[0]
        assert es._cut(sampler, bottom, bottom.pts.real, 1.1, cut.pts[0], cut.vals[0]) is None
        assert es._split(sampler, box, edges, 0.55) is None
        # With no zero there, the same cut parts both edges and the halves
        # count 0 each.
        monkeypatch.setattr(
            es, "_deflated_with_scale", lambda params, pts: sampled(params, pts, zero_at=None)
        )
        (lo, lo_edges), (hi, hi_edges), paired = es._split(sampler, box, edges, 0.55)
        assert not paired and lo.re_max == hi.re_min == 1.1
        assert es._count(lo_edges, lo) == es._count(hi_edges, hi) == 0


class TestStripBox:
    """default_box bounds every eigenvalue with Re lambda >= -sigma, also
    where sigma*tau is of order one and |exp(-lambda*tau)| reaches
    exp(sigma*tau)."""

    def test_sigma_of_order_one_lists_every_eigenvalue(self):
        p = SystemParams(1, 5, 1, 1, 1, 5)
        box = default_box(p, 1.0)
        assert sum(r.multiplicity for r in spectrum(p, 1.0).roots) == 51
        # nothing lies between the box and one twice its height
        above = ContourBox(box.re_min, box.re_max, box.im_max, 2.0 * box.im_max)
        assert count_zeros(p, above) == 0

    def test_small_sigma_keeps_the_box(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            p = random_params(rng, beta_range=(-10, 10), tau_max=20.0)
            radius = es._search_radius(p.beta, p.delta, p.l, p.f)
            assert default_box(p, 1e-5).im_max == radius + 1e-5 + 1.0

    def test_overflowing_box_is_typed(self):
        with pytest.raises(SampleBudgetExceeded, match="unbounded"):
            spectrum(SystemParams(1, 1, 1, 1, 1, 800), 1.0)


class TestSpectralBound:
    def test_zero_gain(self):
        assert spectral_bound(SystemParams(1, 0, 1, 1, 1, 1), 2.0) == pytest.approx(-1.0)
        shallow = spectral_bound(SystemParams(1, 0, 1, 1, 1, 1), 0.5)
        assert isinstance(shallow, BelowThreshold)
        assert shallow.threshold == -0.5

    def test_threshold_gain_gives_zero_bound(self):
        p = SystemParams(1, B0, 1, 1, 1, 1)
        assert abs(spectral_bound(p, 1e-5)) <= 1e-8

    def test_positive_bound_cross_checked_on_real_axis(self):
        p = SystemParams(1, 3, 1, 1, 1, 1)
        bound = spectral_bound(p, 1e-5)
        assert bound > 0
        real_root = brentq(
            lambda x: char_num(p, complex(x, 0)).real, 0.0, 2.0, xtol=1e-12
        )
        assert bound == pytest.approx(real_root, abs=1e-8)

    def test_below_the_threshold_gain_is_stable_for_every_delay(self):
        # |G(iw)| >= threshold_gain for every real w and delta, so no root
        # reaches the imaginary axis while |beta| < b0: the band is stable
        rng = random.Random(0)
        for _ in range(100):
            alpha, delta = 10 ** rng.uniform(-1, 1), rng.uniform(-1, 3)
            l, f, tau = 10 ** rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-0.5, 0.5), rng.uniform(0, 20)
            beta = rng.uniform(-0.999, 0.999) * threshold_gain(alpha, delta, l, f)
            bound = spectral_bound(SystemParams(alpha, beta, delta, l, f, tau), 0.1)
            assert isinstance(bound, BelowThreshold) or bound < 0.0, (alpha, beta, delta, l, f, tau)

    def test_default_box_geometry(self):
        p = SystemParams(1, 2, 1, 1, 1, 1)
        radius = eig_bound_radius(2, 1)
        box = default_box(p, 0.25)
        assert box.re_min == -0.25
        assert box.re_max == radius + 1
        assert box.im_max == radius + 0.25 + 1 == -box.im_min

    def test_negative_decay_widens_search(self):
        assert default_box(SystemParams(1, 2, -1, 1, 1, 1), 0.1).im_max > default_box(
            SystemParams(1, 2, 1, 1, 1, 1), 0.1
        ).im_max

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sigma_and_tol_are_typed(self, bad):
        p = SystemParams(1, 1, 1, 1, 1, 1)
        with pytest.raises(InvalidParameter, match="sigma"):
            spectrum(p, bad)
        with pytest.raises(InvalidParameter, match="sigma"):
            spectral_bound(p, bad)
        with pytest.raises(InvalidParameter, match="tol"):
            spectrum(p, 1e-6, tol=bad)
        with pytest.raises(InvalidParameter, match="tol"):
            find_roots(p, ContourBox(-1, 1, -1, 1), tol=bad)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            spectral_bound(SystemParams(1, 1, 1, 1, 1, 1), 0.0)
        with pytest.raises(ValueError):
            spectrum(SystemParams(1, 1, 1, 1, 1, 1), -1.0)
