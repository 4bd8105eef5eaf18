import math

import numpy as np
import pytest
from scipy.optimize import brentq

import delaystab.eigensolver as es
from delaystab import (
    BelowThreshold,
    ContourBox,
    SystemParams,
    char_fn,
    char_num,
    count_zeros,
    default_box,
    eig_bound_radius,
    find_roots,
    spectral_bound,
    spectrum,
    threshold_gain,
)
from delaystab.errors import InvalidParameter, QuadratureNonInteger

B0 = threshold_gain(1, 1, 1, 1)
# _deflated_with_scale samples of spectrum(SystemParams(1, 10, 1, 1, 1, 50), 1e-5)
SAMPLES_BETA10_TAU50 = 5806


def random_params(rng, beta_range=(-4, 4), tau_max=2.0):
    return SystemParams(
        alpha=rng.uniform(0.2, 3.0),
        beta=rng.uniform(*beta_range),
        delta=rng.uniform(-1.5, 3.0),
        l=rng.uniform(0.3, 2.0),
        f=rng.uniform(0.3, 2.0),
        tau=rng.uniform(0.0, tau_max),
    )


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
        # the zero at -2 sits exactly on the requested edge; growing the box
        # to restore a well-defined winding number pulls it inside
        p = SystemParams(1, 0, 2, 1, 1, 1)
        assert count_zeros(p, ContourBox(-2, 1, -1, 1)) == 2

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
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(8):
            p = random_params(rng, tau_max=4.0)
            cx, cy = rng.uniform(-1.5, 1.5, 2)
            w, h = rng.uniform(0.5, 3.0, 2)
            box = ContourBox(cx - w, cx + w, cy - h, cy + h)
            sampler = es._Sampler(p)
            try:
                edges = es._box_edges(sampler, box)
            except es._BoundaryHit:
                continue
            count = es._count(edges, box)
            for frac in es._SPLIT_FRACTIONS:
                halves = es._halves(sampler, box, edges, frac)
                if halves is None:
                    continue
                (lo, lo_edges), (hi, hi_edges) = halves
                c_lo, c_hi = es._count(lo_edges, lo), es._count(hi_edges, hi)
                assert c_lo + c_hi == count
                for child, c in ((lo, c_lo), (hi, c_hi)):
                    # count_zeros counts char_num, which adds the zero at -delta
                    structural = child.contains(complex(-p.delta, 0.0))
                    assert c == count_zeros(p, child) - structural
                checked += 1
        assert checked >= 40

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
        assert len(spectrum(SystemParams(1, 10, 1, 1, 1, 50), 1e-5).roots) == 57
        assert 0 < samples < 1.5 * SAMPLES_BETA10_TAU50

    def test_no_box_is_sampled_twice(self, monkeypatch):
        # The search box is counted and split from the same edges.
        boxes = []
        box_edges = es._box_edges

        def spy(*args):
            boxes.append(args[-1])
            return box_edges(*args)

        monkeypatch.setattr(es, "_box_edges", spy)
        assert len(spectrum(SystemParams(1, 10, 1, 1, 1, 50), 1e-5).roots) == 57
        assert boxes and len(set(boxes)) == len(boxes)

    def test_char_num_is_never_sampled(self, monkeypatch):
        def boom(*args):
            raise AssertionError("char_num sampled on a contour")

        monkeypatch.setattr(es, "_num_with_scale", boom)
        p = SystemParams(2, 1, 1, 1, 1, 1)
        box = ContourBox(-2.0, 1.0, -2.0, 2.0)
        assert find_roots(p, box).total_count == count_zeros(p, box) == 2
        assert spectrum(p, 1e-6).total_count == count_zeros(p, default_box(p, 1e-6))

    @pytest.mark.parametrize(
        "box, grown",
        [
            (ContourBox(-1.0, 1.0, -2.0, 2.0), "re_min"),
            (ContourBox(-2.0, 1.0, 0.0, 2.0), "im_min"),
        ],
        ids=["left", "bottom"],
    )
    def test_minus_delta_on_an_edge_is_nudged_inside(self, box, grown):
        # -delta = -1 lies on one side of box, which is grown past it
        p = SystemParams(2, 1, 1, 1, 1, 1)
        result = find_roots(p, box)
        for side in ("re_min", "re_max", "im_min", "im_max"):
            moved = getattr(result.box, side) != getattr(box, side)
            assert moved == (side == grown)
        [structural] = [r for r in result.roots if r.structural]
        assert structural.lam == -1
        assert result.total_count == count_zeros(p, result.box) == count_zeros(p, box) == 2


class TestFindRoots:
    def test_polynomial_roots_and_flags(self):
        p = SystemParams(1, 0, 2, 1, 1, 1)
        result = find_roots(p, ContourBox(-3, 1, -1, 1))
        lams = sorted(r.lam.real for r in result.roots)
        assert lams == pytest.approx([-2.0, -1.0], abs=1e-12)
        by_lam = {round(r.lam.real): r for r in result.roots}
        assert by_lam[-2].structural
        assert not by_lam[-1].structural
        assert result.total_count == 2
        assert not result.unresolved

    def test_known_real_eigenvalue_polished(self):
        tau = math.log(2 * (1 - math.exp(-1)))
        p = SystemParams(1, 4, 0, 1, 1, tau)
        result = find_roots(p, ContourBox(0.5, 1.5, -0.5, 0.5))
        [root] = [r for r in result.roots if not r.structural]
        assert abs(root.lam - 1.0) <= 1e-8
        assert abs(char_fn(p, root.lam)) <= 1e-12

    def test_genuine_eigenvalue_at_minus_delta(self):
        p = SystemParams(2, 1, 1, 1, 1, 0)
        result = find_roots(p, ContourBox(-1.7, -0.3, -0.6, 0.6))
        structural = [r for r in result.roots if r.structural]
        genuine = [r for r in result.roots if not r.structural]
        assert len(structural) == 1 and abs(structural[0].lam + 1) == 0.0
        assert len(genuine) == 1 and abs(genuine[0].lam + 1) <= 1e-8
        assert result.total_count == 2

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
            found = sum(r.multiplicity for r in result.roots)
            assert found + sum(c.count for c in result.unresolved) == result.total_count
            assert count_zeros(p, result.box) == result.total_count

    def test_double_zero_polished_as_cluster(self, monkeypatch):
        # tau = 0, delta = l = f = 1: the deflated numerator is
        # lambda + alpha - beta*phi(lambda + 1); these beta, alpha make both
        # it and its derivative vanish at lambda = -3
        w = -2.0
        phi = -math.expm1(-w) / w
        phi_prime = ((1.0 + w) * math.exp(-w) - 1.0) / (w * w)
        beta = 1.0 / phi_prime
        p = SystemParams(beta * phi + 3.0, beta, 1.0, 1.0, 1.0, 0.0)
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
        result = spectrum(SystemParams(1, 10, 1, 1, 1, 50), 1e-5)
        assert len(result.roots) == 57 and result.unresolved == ()
        assert len(calls) >= 57
        assert max(calls) == 1

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
