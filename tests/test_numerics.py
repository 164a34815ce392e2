import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from ehcr import analysis, cli, fading, numerics, validate
from ehcr.fading import FadingParams
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


def quad_reference(f, a, b):
    """``scipy.integrate.quad`` on [a, b] with `integrate_adaptive`'s targets.

    quad calls ``f`` on Python floats, which the integrands here take as well.
    """
    value, _ = integrate.quad(
        f, a, b,
        epsabs=1e-300, epsrel=numerics._QUAD_RELATIVE_TOLERANCE,
        limit=numerics._QUAD_SUBDIVISIONS,
    )
    return value


def recorded_integrals(monkeypatch, run):
    """The ``(f, a, b)`` of every `integrate_adaptive` call that ``run()`` makes."""
    calls = []
    real = numerics.integrate_adaptive

    def record(f, a, b):
        calls.append((f, a, b))
        return real(f, a, b)

    monkeypatch.setattr(numerics, "integrate_adaptive", record)
    run()
    monkeypatch.undo()
    return calls


def perfbench_setups():
    for antennas in (1, 16):
        for ideal in (True, False):
            yield analysis.SystemConfig(ideal=ideal, fading_pb_st=FadingParams(7.0, antennas, 20))


class TestIntegrateAdaptive:
    def test_constant(self):
        assert integrate_adaptive(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("constant", [2.5, np.float64(2.5), np.array(2.5), np.full(21, 2.5)],
                             ids=["float", "float64", "0-d", "one-row"])
    def test_constant_is_broadcast(self, constant):
        assert integrate_adaptive(lambda x: constant, 0.0, 4.0) == pytest.approx(10.0, rel=1e-14)

    def test_integrand_receives_float_arrays(self):
        seen = []

        def f(x):
            seen.append((type(x), x.dtype, x.ndim, x.shape[-1]))
            return np.exp(-x) * np.sin(3.0 * x)

        integrate_adaptive(f, 0.0, 40.0)
        assert len(seen) > 1  # the rule bisected at least once
        assert set(seen) == {(np.ndarray, np.dtype(float), 2, 21)}

    def test_linear(self):
        assert integrate_adaptive(lambda x: x, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval(self):
        assert integrate_adaptive(lambda x: x**2, 3.0, 3.0) == 0.0

    def test_nonconvergence_raises(self):
        with pytest.raises(IntegrationError):
            integrate_adaptive(lambda x: np.cos(997.0 * x) * x, 0.0, 10.0)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: 1.0, 1.0, 0.0)

    def test_repeated_call_is_bit_identical(self):
        link = FadingParams(7.0, 16, 20)
        cfg = analysis.SystemConfig(ideal=False, fading_pb_st=link).with_tau(0.3)
        for run in (lambda: integrate_adaptive(lambda x: fading.pdf(link, x), 0.0, 50.0),
                    lambda: analysis.phi1_quadrature(cfg),
                    lambda: analysis.phi2_quadrature(cfg)):
            assert run().hex() == run().hex()

    def test_pdf_mass_matches_scipy_quad(self):
        # criterion 1's 88 laws
        for k in (0.5, 7.0):
            for mu in (1, 2, 16):
                for m in range(mu, 21):
                    p = FadingParams(k, mu, m)
                    f = lambda x: fading.pdf(p, x)  # noqa: E731
                    ref = quad_reference(f, 0.0, 50.0)
                    assert integrate_adaptive(f, 0.0, 50.0) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_phi_integrand_matches_scipy_quad(self, monkeypatch):
        taus = [0.005 + 0.01 * i for i in range(100)]  # 0.005 to 0.995

        def run():
            for base in perfbench_setups():
                for tau in taus:
                    analysis.phi1_quadrature(base.with_tau(tau))
                    analysis.phi2_quadrature(base.with_tau(tau))

        calls = recorded_integrals(monkeypatch, run)
        assert len(calls) > len(taus) * 4
        for f, a, b in calls:
            ref = quad_reference(f, a, b)
            assert integrate_adaptive(f, a, b) == pytest.approx(ref, rel=1e-13, abs=0.0), (a, b)

    def test_steep_path_loss_matches_scipy_quad(self, monkeypatch):
        # the configuration of `TestValidate::test_steep_path_loss_passes`
        cfg = cli.build_config(cli.parse_config_text("alpha = 260\n"))
        calls = recorded_integrals(
            monkeypatch,
            lambda: (validate.fading_normalization(cfg), validate.phi_closed_vs_quadrature(cfg)),
        )
        assert len(calls) == 2 + 9 * 2
        for f, a, b in calls:
            ref = quad_reference(f, a, b)
            assert integrate_adaptive(f, a, b) == pytest.approx(ref, rel=1e-13, abs=0.0), (a, b)


def test_euler_mascheroni_constant():
    mp.mp.dps = 30
    assert numerics.EULER_MASCHERONI == pytest.approx(float(mp.euler), abs=1e-18)
