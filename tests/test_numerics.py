import math

import mpmath as mp
import numpy as np
import pytest

from ehcr import numerics
from ehcr.numerics import (
    IntegrationError,
    dbm_to_watts,
    digamma_integer,
    integrate_adaptive,
    upper_incomplete_gamma,
)

# high-precision reference, mpmath at 40 digits
UPPER_GAMMA_REF = 0.35373366042747796  # Gamma(0.5 + 2/2.4, 1.3)
PSI_20 = 2.970523992242149


class TestUpperIncompleteGamma:
    def test_exponential_special_case(self):
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_at_zero_equals_gamma(self):
        assert upper_incomplete_gamma(3.7, 0.0) == pytest.approx(
            math.exp(math.lgamma(3.7)), rel=1e-13
        )

    def test_noninteger_order_reference(self):
        assert upper_incomplete_gamma(0.5 + 2.0 / 2.4, 1.3) == pytest.approx(
            UPPER_GAMMA_REF, rel=1e-10
        )

    def test_against_mpmath_grid(self):
        mp.mp.dps = 30
        for s in [0.1, 0.83, 1.33, 2.5, 7.7, 19.8, 25.0]:
            for x in [0.0, 0.04, 0.9, 3.3, 12.0, 40.0]:
                ref = float(mp.gammainc(s, x, mp.inf))
                assert upper_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-10)

    def test_monotone_nonincreasing_in_x(self):
        xs = np.linspace(0.0, 30.0, 40)
        vals = [upper_incomplete_gamma(4.1, x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_identity_at_zero_over_grid(self):
        for s in np.arange(0.1, 25.0, 0.7):
            assert upper_incomplete_gamma(s, 0.0) == pytest.approx(
                math.exp(math.lgamma(s)), rel=1e-12
            )

    def test_recurrence(self):
        # Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}
        for s in [0.4, 1.3, 3.9, 9.2, 17.5]:
            for x in [0.1, 1.0, 4.7, 21.0]:
                lhs = upper_incomplete_gamma(s + 1.0, x)
                rhs = s * upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(2.0, -0.5)


class TestDigammaInteger:
    def test_anchor_values(self):
        assert digamma_integer(1) == pytest.approx(-0.5772156649015329, abs=1e-13)
        assert digamma_integer(2) == pytest.approx(1.0 - 0.5772156649015329, abs=1e-13)
        assert digamma_integer(20) == pytest.approx(PSI_20, abs=1e-12)

    def test_recurrence_exact(self):
        for n in range(1, 60):
            delta = digamma_integer(n + 1) - digamma_integer(n)
            assert delta == pytest.approx(1.0 / n, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma_integer(0)
        with pytest.raises(ValueError):
            digamma_integer(2.5)


class TestDbmToWatts:
    def test_anchor_values(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
        assert dbm_to_watts(33.0) == pytest.approx(1.9952623149688795, rel=1e-14)
        assert dbm_to_watts(-101.0) == pytest.approx(7.943282347242815e-14, rel=1e-14)

    def test_log_linearity(self):
        for x in np.linspace(-120.0, 120.0, 25):
            assert dbm_to_watts(x) * dbm_to_watts(60.0 - x) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dbm_to_watts(math.inf)


class TestIntegrateAdaptive:
    def test_constant(self):
        assert integrate_adaptive(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear(self):
        assert integrate_adaptive(lambda x: x, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval(self):
        assert integrate_adaptive(lambda x: x**2, 3.0, 3.0) == 0.0

    def test_nonconvergence_raises(self):
        with pytest.raises(IntegrationError):
            integrate_adaptive(lambda x: math.cos(997.0 * x) * x, 0.0, 10.0)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: 1.0, 1.0, 0.0)


def test_euler_mascheroni_constant():
    mp.mp.dps = 30
    assert numerics.EULER_MASCHERONI == pytest.approx(float(mp.euler), abs=1e-18)
