import cmath
import math

import numpy as np
import pytest

from delaystab import characteristic as ch
from delaystab import (
    ExclusionReport,
    SystemParams,
    char_fn,
    char_num,
    char_num_prime,
    exclusions,
    threshold_gain,
)
from delaystab.errors import PoleAtMinusAlpha


def random_params(rng, beta_range=(-4, 4), tau_max=3.0):
    return SystemParams(
        alpha=rng.uniform(0.2, 3.0),
        beta=rng.uniform(*beta_range),
        delta=rng.uniform(-2.0, 3.0),
        l=rng.uniform(0.3, 2.5),
        f=rng.uniform(0.3, 2.5),
        tau=rng.uniform(0.0, tau_max),
    )


def random_lambda(rng, p, scale=3.0):
    while True:
        lam = complex(rng.normal(0, scale), rng.normal(0, scale))
        if abs(lam + p.alpha) > 1e-3 and abs(lam + p.delta) > 1e-3:
            return lam


class TestCharFn:
    def test_identity_when_gain_is_zero(self):
        p = SystemParams(1.5, 0, 0.7, 1, 1, 2)
        for lam in (0j, 1 + 2j, -5 - 1j, 0.3j):
            assert char_fn(p, lam) == 1.0

    def test_zero_eigenvalue_at_threshold_gain(self):
        b0 = threshold_gain(1, 1, 1, 1)
        for tau in (0.0, 0.5, 1.0, 4.0):
            p = SystemParams(1, b0, 1, 1, 1, tau)
            assert abs(char_fn(p, 0j)) <= 1e-14

    def test_known_real_eigenvalue_without_decay(self):
        tau = math.log(2 * (1 - math.exp(-1)))
        p = SystemParams(1, 4, 0, 1, 1, tau)
        assert abs(char_fn(p, 1.0 + 0j)) <= 1e-12

    def test_pole_raises(self):
        p = SystemParams(1, 2, 0.5, 1, 1, 1)
        with pytest.raises(PoleAtMinusAlpha):
            char_fn(p, -1.0 + 0j)
        with pytest.raises(PoleAtMinusAlpha):
            char_fn(p, complex(-1.0 + 1e-14, 0))
        char_fn(p, -1.0 + 1e-6j)

    def test_removable_singularity_convention_value(self):
        p = SystemParams(2.0, 1.3, 0.8, 1.1, 0.9, 0.4)
        convention = 1 - p.beta * p.l * math.exp(p.delta * p.tau) / (
            p.f * (p.alpha - p.delta)
        )
        assert char_fn(p, complex(-p.delta, 0)) == pytest.approx(convention, rel=1e-13)

    def test_removable_singularity_circle_limit(self):
        p = SystemParams(2.0, 1.3, 0.8, 1.1, 0.9, 0.4)
        center = char_fn(p, complex(-p.delta, 0))
        for r in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            worst = max(
                abs(char_fn(p, -p.delta + r * cmath.exp(1j * t)) - center)
                for t in np.linspace(0, 2 * math.pi, 13)
            )
            assert worst <= 100 * r

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = random_params(rng)
            lam = random_lambda(rng, p)
            g = char_fn(p, lam)
            assert abs(char_fn(p, lam.conjugate()) - g.conjugate()) <= 1e-13 * (1 + abs(g))

    def test_array_evaluation_matches_scalars(self):
        p = SystemParams(1, 2, 0.5, 1, 1, 1)
        lams = np.array([0.1 + 1j, -0.2 - 3j, 2.0 + 0j])
        vals = char_fn(p, lams)
        for lam, val in zip(lams, vals):
            assert val == char_fn(p, complex(lam))


class TestCharNum:
    def test_structural_zero_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_params(rng)
            assert char_num(p, complex(-p.delta, 0)) == 0j

    def test_polynomial_case(self):
        p = SystemParams(1, 0, 2, 1, 1, 1)
        rng = np.random.default_rng(4)
        for _ in range(50):
            lam = complex(rng.normal(0, 3), rng.normal(0, 3))
            expected = (lam + 1) * (lam + 2)
            assert abs(char_num(p, lam) - expected) <= 1e-12 * (1 + abs(expected))

    def test_factorization_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_params(rng)
            lam = random_lambda(rng, p)
            g = char_fn(p, lam)
            ratio = char_num(p, lam) / ((lam + p.alpha) * (lam + p.delta))
            assert abs(ratio - g) <= 1e-12 * (1 + abs(g))

    def test_value_at_minus_alpha(self):
        p = SystemParams(1.2, 2.5, 0.4, 1.3, 0.8, 0.6)
        expected = -p.beta * math.exp(p.alpha * p.tau) * (
            1 - math.exp(-(p.delta - p.alpha) * p.l / p.f)
        )
        assert char_num(p, complex(-p.alpha, 0)) == pytest.approx(expected, rel=1e-12)
        same = SystemParams(1.2, 2.5, 1.2, 1.3, 0.8, 0.6)
        assert char_num(same, complex(-same.alpha, 0)) == 0j
        nogain = SystemParams(1.2, 0, 0.4, 1.3, 0.8, 0.6)
        assert abs(char_num(nogain, complex(-nogain.alpha, 0))) <= 1e-15

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_params(rng)
            lam = complex(rng.normal(0, 3), rng.normal(0, 3))
            h = char_num(p, lam)
            assert abs(char_num(p, lam.conjugate()) - h.conjugate()) <= 1e-13 * (1 + abs(h))


class TestCharNumPrime:
    def test_polynomial_derivative(self):
        p = SystemParams(1, 0, 2, 1, 1, 1)
        for lam in (0j, 1 + 1j, -3 + 0.5j):
            expected = 2 * lam + 3
            assert abs(char_num_prime(p, lam) - expected) <= 1e-12 * (1 + abs(expected))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_params(rng)
            lam = complex(rng.normal(0, 2), rng.normal(0, 2))
            h = 1e-6 * (1 + abs(lam))
            fd = (char_num(p, lam + h) - char_num(p, lam - h)) / (2 * h)
            exact = char_num_prime(p, lam)
            assert abs(fd - exact) <= 1e-5 * (1 + abs(exact))

    def test_no_delay_structure(self):
        p = SystemParams(1.1, 1.7, 0.6, 0.9, 1.2, 0.0)
        rng = np.random.default_rng(10)
        for _ in range(20):
            lam = complex(rng.normal(0, 2), rng.normal(0, 2))
            w = (lam + p.delta) * p.l / p.f
            expected = (
                2 * lam
                + p.alpha
                + p.delta
                - p.beta * (p.l / p.f) * cmath.exp(-w)
            )
            assert abs(char_num_prime(p, lam) - expected) <= 1e-11 * (1 + abs(expected))


class TestScalarEvaluators:
    # Newton's scalar _deflated/_deflated_prime against the array path
    @pytest.mark.parametrize(
        "p",
        [
            SystemParams(1, 3, 1, 1, 1, 1),
            SystemParams(0.5, -2, -0.7, 1, 1, 4),
            SystemParams(2, 10, 1.5, 1, 1, 0),
            SystemParams(1, 3, 1, 2, 0.5, 2),
        ],
    )
    def test_scalar_matches_array(self, p):
        # offsets from -delta put |w| = |lambda + delta|*l/f on both sides
        # of the series switch
        rng = np.random.default_rng(71)
        near = [1e-9 * (1 + 1j), 3e-7, 3e-7j, 3e-6, -3e-6, 3e-6j, 1e-5j]
        far = [complex(x, y) for x, y in zip(rng.uniform(-3, 3, 12), rng.uniform(-20, 20, 12))]
        ratio = p.l / p.f
        for lam in [-p.delta + d for d in near] + far:
            arr = np.array([lam])
            q = (char_num(p, arr) / (arr + p.delta))[0]
            w = (arr + p.delta) * ratio
            qp = (
                1.0
                - p.beta * np.exp(-arr * p.tau) * ratio
                * (ratio * ch._phi_prime(w) - p.tau * ch._phi(w))
            )[0]
            assert abs(ch._deflated(p, lam) - q) <= 1e-13 * abs(q)
            assert abs(ch._deflated_prime(p, lam) - qp) <= 1e-13 * abs(qp)

    def test_phi_prime_accurate_above_switch(self):
        # the five-term series is exact to ~|w|^5 here, so it is the reference
        w = 2e-6 * (1 + 1j)
        series = -0.5 + w / 3.0 - w**2 / 8.0 + w**3 / 30.0 - w**4 / 144.0
        assert abs(ch._phi_prime_scalar(w) - series) <= 1e-12

    def test_phi_prime_near_series_switch(self):
        # sixteen terms of sum_k k(-1)^k w^(k-1)/(k+1)! are exact to double
        # precision for |w| <= 0.1; both evaluators must keep ten digits on
        # either side of the |w| = 5e-3 switch
        rng = np.random.default_rng(72)
        radii = 10.0 ** rng.uniform(-8.0, -1.3, 400)
        ws = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 400))
        array_values = ch._phi_prime(ws)
        for w, from_array in zip(ws.tolist(), array_values.tolist()):
            ref = sum(
                k * (-1) ** k * w ** (k - 1) / math.factorial(k + 1) for k in range(16, 0, -1)
            )
            assert abs(ch._phi_prime_scalar(w) - ref) <= 1e-10 * abs(ref)
            assert abs(from_array - ref) <= 1e-10 * abs(ref)


class TestExclusions:
    def test_minus_delta_eigenvalue_condition_met(self):
        report = exclusions(SystemParams(2, 1, 1, 1, 1, 0))
        assert report == ExclusionReport(minus_delta_is_eigen=True, delta_equals_alpha=False)

    def test_equal_rates_flagged_and_excluded(self):
        report = exclusions(SystemParams(1, 2, 1, 1, 1, 0.5))
        assert report.delta_equals_alpha
        assert not report.minus_delta_is_eigen

    def test_zero_decay_instance_cross_checked(self):
        p = SystemParams(1, 1, 0, 1, 1, 1)
        report = exclusions(p)
        assert report.minus_delta_is_eigen
        # brute-force confirmation through the characteristic function itself
        assert abs(char_fn(p, complex(-p.delta, 0))) <= 1e-12

    def test_condition_not_met(self):
        report = exclusions(SystemParams(2, 0.5, 1, 1, 1, 0))
        assert not report.minus_delta_is_eigen

    def test_overflowing_growth_is_no_eigenvalue_and_no_warning(self):
        # exp(delta*tau) = exp(800) overflows; a RuntimeWarning fails the test
        report = exclusions(SystemParams(1, 1, 800, 1, 1, 1))
        assert not report.minus_delta_is_eigen

    def test_requires_nonzero_gain(self):
        with pytest.raises(ValueError):
            exclusions(SystemParams(1, 0, 1, 1, 1, 1))
