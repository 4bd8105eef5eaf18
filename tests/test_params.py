import math

import numpy as np
import pytest

from delaystab import (
    DecayCertificate,
    SystemParams,
    classify,
    decay_certificate,
    eig_bound_radius,
    spectrum,
    threshold_gain,
    trace_boundary,
)
from delaystab.errors import (
    InvalidParameter,
    NegativeTau,
    NonFiniteField,
    NonPositiveAlpha,
    NonPositiveF,
    NonPositiveL,
    QuadratureNonInteger,
)
from delaystab.params import _search_radius


class TestSystemParams:
    def test_all_ones_is_valid(self):
        p = SystemParams(1, 1, 1, 1, 1, 1)
        assert (p.alpha, p.beta, p.delta, p.l, p.f, p.tau) == (1, 1, 1, 1, 1, 1)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(NonPositiveAlpha):
            SystemParams(-1, 1, 1, 1, 1, 1)
        with pytest.raises(NonPositiveAlpha):
            SystemParams(0, 1, 1, 1, 1, 1)

    def test_zero_transport_speed_rejected(self):
        with pytest.raises(NonPositiveF):
            SystemParams(1, 1, 1, 1, 0, 1)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(NonPositiveL):
            SystemParams(1, 1, 1, 0, 1, 1)

    def test_negative_delay_rejected(self):
        with pytest.raises(NegativeTau):
            SystemParams(1, 1, 1, 1, 1, -0.5)

    def test_non_finite_fields_rejected(self):
        with pytest.raises(NonFiniteField):
            SystemParams(1, math.nan, 1, 1, 1, 1)
        with pytest.raises(NonFiniteField):
            SystemParams(1, 1, math.inf, 1, 1, 1)

    @pytest.mark.parametrize("field", range(6))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integers_past_the_float_range_are_not_finite(self, field, sign):
        # float() of such an int raises OverflowError; the field is typed as
        # inf is.
        values = [1, 0.5, 1, 1, 1, 0]
        values[field] = sign * 10**400
        name = ("alpha", "beta", "delta", "l", "f", "tau")[field]
        with pytest.raises(NonFiniteField, match=f"^{name} must be finite"):
            SystemParams(*values)

    def test_negative_delta_and_beta_allowed(self):
        SystemParams(1, -3, -0.5, 1, 1, 0)

    def test_frozen(self):
        p = SystemParams(1, 1, 1, 1, 1, 1)
        with pytest.raises(AttributeError):
            p.alpha = 2.0


class TestThresholdGain:
    def test_all_ones_value(self):
        value = threshold_gain(1, 1, 1, 1)
        assert value == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-15)
        assert value == pytest.approx(1.5819767069, abs=1e-9)

    def test_zero_delta_limit(self):
        assert threshold_gain(1, 0, 1, 1) == pytest.approx(1.0, rel=1e-15)
        assert threshold_gain(2, 0, 3, 1.5) == pytest.approx(2 * 1.5 / 3, rel=1e-14)

    def test_linear_in_alpha(self):
        assert threshold_gain(2, 1, 1, 1) == pytest.approx(
            2 * threshold_gain(1, 1, 1, 1), rel=1e-15
        )

    def test_continuous_across_delta_zero(self):
        for delta in (1e-8, -1e-8):
            assert threshold_gain(1.3, delta, 0.7, 1.1) == pytest.approx(
                1.3 * 1.1 / 0.7, rel=1e-6
            )

    @pytest.mark.parametrize("x", [1e-12, -1e-12, 1e-10, -1e-10, 9e-10, -9e-10])
    def test_small_delta_against_mpmath_and_axis_gain(self, x):
        # delta*l/f = x: close to, but not at, the delta -> 0 limit, which
        # is off by about x/2 in relative terms.
        mpmath = pytest.importorskip("mpmath")
        from delaystab.region import _axis_gain

        alpha, l, f = 1.3, 0.7, 1.1
        delta = x * f / l
        value = threshold_gain(alpha, delta, l, f)
        with mpmath.workdps(50):
            a, d = mpmath.mpf(alpha), mpmath.mpf(delta)
            exact = a * d / -mpmath.expm1(-d * mpmath.mpf(l) / mpmath.mpf(f))
        assert abs(value - float(exact)) <= 1e-15 * float(exact)
        # The axis gain at omega = 0 is the threshold gain for every delta.
        axis = complex(_axis_gain((alpha, delta, l, f), 0.0))
        assert axis.imag == 0.0 and axis.real == pytest.approx(value, rel=1e-15)

    def test_far_negative_decay_limit(self):
        # exp(-delta*l/f) overflows below delta*l/f of about -709.78; the
        # gain tends to 0 there
        assert 0.0 < threshold_gain(1, -700, 1, 1) < 1e-290
        assert threshold_gain(1, -710, 1, 1) == 0.0
        assert threshold_gain(1, -1000, 2, 1) == 0.0

    def test_preconditions(self):
        with pytest.raises(NonPositiveAlpha):
            threshold_gain(0, 1, 1, 1)
        with pytest.raises(NonPositiveF):
            threshold_gain(1, 1, 1, 0)


class TestEigBoundRadius:
    def test_known_values(self):
        assert eig_bound_radius(1, 1) == pytest.approx(2.0, rel=1e-15)
        assert eig_bound_radius(2, 0) == pytest.approx(2.0, rel=1e-15)

    def test_zero_gain_collapses_to_abs_delta(self):
        for delta in (-3.0, -0.1, 0.0, 0.4, 7.0):
            assert eig_bound_radius(0, delta) == pytest.approx(abs(delta), abs=1e-15)

    def test_monotone_in_gain_and_decay(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            b1, b2 = sorted(rng.uniform(0, 10, 2))
            d1, d2 = sorted(rng.uniform(0, 10, 2))
            sign_b = rng.choice([-1, 1])
            sign_d = rng.choice([-1, 1])
            assert eig_bound_radius(sign_b * b1, d1) <= eig_bound_radius(sign_b * b2, d1)
            assert eig_bound_radius(b1, sign_d * d1) <= eig_bound_radius(b1, sign_d * d2)


class TestSearchRadius:
    @staticmethod
    def closed_form(beta, delta, l, f):
        """The delta < 0 radius written out on its own: inf where it overflows."""
        try:
            b = abs(beta) * (1.0 + math.exp(-delta * l / f))
            return 0.5 * (abs(delta) + math.sqrt(delta**2 + 4.0 * b))
        except OverflowError:
            return math.inf

    def test_negative_delta_is_the_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(25)
        raised = 0
        for _ in range(20000):
            delta = -(10.0 ** rng.uniform(-8.0, 3.0))
            l, f = 10.0 ** rng.uniform(-2.0, 2.0, 2)
            beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, math.log10(5e7))
            beta, delta, l, f = map(float, (beta, delta, l, f))
            expected = self.closed_form(beta, delta, l, f)
            try:
                radius = _search_radius(beta, delta, l, f)
            except QuadratureNonInteger:
                assert expected == math.inf
                raised += 1
                continue
            assert radius == expected
        # both sides of the overflow are drawn
        assert 0 < raised < 20000 // 2


    def test_far_negative_delta_is_the_closed_form_raise_for_raise(self):
        # |delta| past about 1.3e154 squares past the float range, and a
        # small delta*l/f keeps the exponential finite: the square alone
        # overflows, and the radius raises as an overflowing exponential does.
        rng = np.random.default_rng(26)
        raised = 0
        for _ in range(20000):
            delta = -(10.0 ** rng.uniform(-8.0, 300.0))
            x = -rng.uniform(0.0, 700.0)
            while x == 0.0:
                x = -rng.uniform(0.0, 700.0)
            f = 10.0 ** rng.uniform(-2.0, 2.0)
            l = x / delta * f
            beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, math.log10(5e7))
            beta, delta, l, f = map(float, (beta, delta, l, f))
            expected = self.closed_form(beta, delta, l, f)
            try:
                radius = _search_radius(beta, delta, l, f)
            except QuadratureNonInteger:
                assert expected == math.inf
                raised += 1
                continue
            assert radius == expected
        # the squares of about half the deltas overflow
        assert 20000 // 4 < raised < 20000 * 3 // 4

    def test_far_negative_delta_raises_at_every_entry_point(self):
        params = SystemParams(1.0, 3.0, -1e200, 1e-200, 1.0, 1.0)
        for call in (
            lambda: classify(params),
            lambda: spectrum(params, 1e-5),
            lambda: trace_boundary((1.0, -1e200, 1e-200, 1.0), 10.0, 3),
        ):
            with pytest.raises(QuadratureNonInteger, match="search radius overflows"):
                call()


class TestDecayCertificate:
    def test_reference_point(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cert = decay_certificate(p)
        gamma = math.exp(-0.3)
        expected_rate = min(gamma / 2, 1 - 0.25 - 1 / (2 * gamma), 1 - 0.25)
        assert cert is not None
        assert cert.gamma == pytest.approx(gamma, rel=1e-15)
        assert cert.rate == pytest.approx(expected_rate, rel=1e-13)
        assert cert.rate == pytest.approx(0.0751, abs=1e-4)
        lo, hi = cert.gamma_interval
        assert lo == pytest.approx(1 / 1.5, rel=1e-15)
        assert hi == pytest.approx(gamma, rel=1e-15)

    def test_damping_condition_fails(self):
        assert decay_certificate(SystemParams(1, 1.5, 1, 1, 1, 0)) is None

    def test_decay_margin_condition_fails(self):
        assert decay_certificate(SystemParams(1, 0.5, 0.2, 1, 1, 0.3)) is None

    def test_nonpositive_gain_not_certifiable(self):
        assert decay_certificate(SystemParams(1, 0, 1, 1, 1, 0.1)) is None
        assert decay_certificate(SystemParams(1, -1, 1, 1, 1, 0.1)) is None

    def test_delay_condition_fails(self):
        # exp(tau) must stay below f*(2*alpha - beta) = 1.5
        assert decay_certificate(SystemParams(1, 0.5, 1, 1, 1, 0.5)) is None
        assert decay_certificate(SystemParams(1, 0.5, 1, 1, 1, 0.4)) is not None
        # exp(800) overflows a float: the condition fails without raising
        assert decay_certificate(SystemParams(1, 0.5, 1, 1, 1, 800)) is None

    def test_log_form_of_delay_condition_matches_exp_form(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = SystemParams(1, rng.uniform(0, 1), 1, 1, 1, rng.uniform(0, 0.8))
            damping = p.f * (2 * p.alpha - p.beta)
            assert (decay_certificate(p) is not None) == (math.exp(p.tau) < damping)

    def test_gamma_override(self):
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        cert = decay_certificate(p, gamma=0.7)
        assert cert.gamma == 0.7
        assert cert.rate == pytest.approx(min(0.35, 0.75 - 1 / 1.4, 0.75), rel=1e-14)
        with pytest.raises(InvalidParameter):
            decay_certificate(p, gamma=0.5)

    def test_rate_always_positive_when_applicable(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(500):
            p = SystemParams(
                rng.uniform(0.3, 3),
                rng.uniform(-1, 2),
                rng.uniform(0.1, 3),
                rng.uniform(0.3, 2),
                rng.uniform(0.3, 2),
                rng.uniform(0, 1),
            )
            cert = decay_certificate(p)
            if cert is not None:
                hits += 1
                assert cert.rate > 0
                lo, hi = cert.gamma_interval
                assert lo < cert.gamma <= hi
        assert hits > 20

    def test_certificate_invariant_enforced(self):
        with pytest.raises(InvalidParameter):
            DecayCertificate(gamma=1.0, rate=0.1, gamma_interval=(1.0, 2.0))
        with pytest.raises(InvalidParameter):
            DecayCertificate(gamma=1.5, rate=-0.1, gamma_interval=(1.0, 2.0))
