import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ehcr import analysis, fading
from ehcr.analysis import SystemConfig
from ehcr.fading import FadingParams

# mpmath references at the default setting (tau = 0.5, both links K=7, mu=1, m=20)
CAPACITY_LB_AT_D5 = 11.764635774507584
BENCHMARK_LB = 12.623128955417465
D_STAR_TAU_HALF = 3.0451579810112697


def default_config(**overrides) -> SystemConfig:
    return dataclasses.replace(SystemConfig(), **overrides)


class TestSystemConfig:
    def test_gamma_th_definition(self):
        assert default_config(rate=1.0).gamma_th == 1.0
        assert default_config(rate=3.0).gamma_th == 7.0

    def test_effective_power(self):
        cfg = default_config(ideal=True)
        assert cfg.p_st_eff == cfg.p_st
        cfg = default_config(ideal=False)
        assert cfg.p_st_eff == pytest.approx(cfg.rho * cfg.p_st + cfg.p_circuit)
        assert cfg.p_st_eff >= cfg.p_st

    def test_validation(self):
        with pytest.raises(ValueError):
            default_config(tau=1.0)
        with pytest.raises(ValueError):
            default_config(eta=1.5)
        with pytest.raises(ValueError):
            default_config(rho=0.5)
        with pytest.raises(ValueError):
            default_config(d_min=20.0)
        for name in ("rate", "t_frame", "alpha_pb_st", "alpha_st_sr", "d_max", "d_st_sr", "rho"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    default_config(**{name: bad})

    def test_rejects_tau_that_spends_nothing(self):
        # tau * p_st_eff underflows to 0 at the smallest subnormal tau
        with pytest.raises(ValueError, match="spends no energy"):
            default_config(tau=5e-324)
        assert default_config(tau=1e-310).tau == 1e-310

    @pytest.mark.parametrize("fields, refused", [
        ({"rate": 2000.0}, "2**rate overflows a float (rate = 2000.0)"),
        ({"d_max": 1e300}, "d_max**2 overflows a float (d_max = 1e+300)"),
        ({"alpha_st_sr": 400.0},
         "d_st_sr**alpha_st_sr overflows a float (d_st_sr = 30.0, alpha_st_sr = 400.0)"),
        ({"alpha_pb_st": 400.0},
         "d_max**alpha_pb_st overflows a float (d_max = 15.0, alpha_pb_st = 400.0)"),
        ({"d_st_sr": 1e-104}, "d_st_sr**alpha_st_sr * noise_power underflows to 0"),
        ({"d_min": 1e-300, "d_max": 1e-300}, "d_min**alpha_pb_st overflows, an infinite harvest"),
        ({"d_min": 1.2e-133, "d_max": 1.2e-133}, "overflows, an infinite harvest"),
        ({"d_min": 5e-324, "d_max": 1e-162, "alpha_pb_st": 1.0, "p_beacon": 1e-300},
         "d_min**2 is below the normal floats"),
        ({"p_st": 1e300, "t_frame": 1e300}, "p_st_eff * t_frame overflows a float"),
        ({"p_st": 1.7976931348623157e308, "ideal": False}, "p_st_eff * t_frame overflows a float"),
    ])
    def test_refuses_what_no_consumer_can_compute(self, fields, refused):
        # each of these once constructed, and then a sweep or a simulation raised
        # OverflowError or ZeroDivisionError, or numpy warned
        with pytest.raises(ValueError, match=re.escape(refused)) as info:
            default_config(**fields)
        name, value = next(iter(fields.items()))
        assert f"{name} = {value!r}" in str(info.value)


class TestCapacityBounds:
    def test_vanishing_efficiency(self):
        tiny = analysis.capacity_lower_bound(default_config(eta=1e-12), 5.0)
        assert tiny < 1e-4
        assert tiny < 1e-4 * analysis.capacity_lower_bound(default_config(), 5.0)

    def test_reference_value(self):
        assert analysis.capacity_lower_bound(default_config(), 5.0) == pytest.approx(
            CAPACITY_LB_AT_D5, rel=1e-12
        )

    def test_benchmark_reference_value(self):
        assert analysis.benchmark_capacity_lower_bound(default_config()) == pytest.approx(
            BENCHMARK_LB, rel=1e-12
        )

    def test_benchmark_vanishing_power(self):
        assert analysis.benchmark_capacity_lower_bound(default_config(p_st=1e-18)) < 1e-3

    def test_bounds_past_every_float(self):
        # at a noise power of five subnormal steps the SNRs pass every float
        # (each capacity is about 500 bits), and both bounds once read inf
        import mpmath

        cfg = default_config(noise_power=2.5e-323)
        mp = mpmath.mp.clone()
        mp.prec = 80
        e_p, e_s = (mp.exp(fading.log_moment(link)) for link in (cfg.fading_pb_st, cfg.fading_st_sr))
        loss = mp.mpf(cfg.noise_power) * mp.mpf(cfg.d_st_sr) ** cfg.alpha_st_sr
        harvest = (mp.mpf(cfg.eta) * cfg.p_beacon * (1 - mp.mpf(cfg.tau)) * e_p * e_s
                   / (cfg.tau * mp.mpf(5.0) ** cfg.alpha_pb_st * loss))
        for bound, snr in ((analysis.capacity_lower_bound(cfg, 5.0), harvest),
                           (analysis.benchmark_capacity_lower_bound(cfg), cfg.p_st * e_s / loss)):
            assert bound == pytest.approx(float(cfg.tau * mp.log(1 + snr, 2)), rel=1e-13)

    def test_jensen_bound_below_monte_carlo(self):
        cfg = default_config()
        gen = np.random.default_rng(31)
        n = 1_000_000
        gp = fading.sample(cfg.fading_pb_st, gen, size=n)
        gs = fading.sample(cfg.fading_st_sr, gen, size=n)
        snr = (
            cfg.eta * cfg.p_beacon * (1 - cfg.tau) * gp * gs
            / (cfg.tau * cfg.noise_power * 5.0**cfg.alpha_pb_st * cfg.d_st_sr**cfg.alpha_st_sr)
        )
        cap = cfg.tau * np.log2(1 + snr)
        assert analysis.capacity_lower_bound(cfg, 5.0) <= cap.mean() + 3 * cap.std() / math.sqrt(n)

        snr_b = cfg.p_st * gs / (cfg.noise_power * cfg.d_st_sr**cfg.alpha_st_sr)
        cap_b = cfg.tau * np.log2(1 + snr_b)
        assert analysis.benchmark_capacity_lower_bound(cfg) <= cap_b.mean() + 3 * cap_b.std() / math.sqrt(n)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            analysis.capacity_lower_bound(default_config(), 0.0)


def bisect_range(cfg, lo=1e-6, hi=1e6, iters=200):
    # independent root solve of capacity_lower_bound(d) = benchmark bound
    target = analysis.benchmark_capacity_lower_bound(cfg)
    f = lambda d: analysis.capacity_lower_bound(cfg, d) - target
    assert f(lo) > 0 > f(hi)
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestEffectiveRange:
    def test_reference_value(self):
        assert analysis.effective_range(default_config()) == pytest.approx(
            D_STAR_TAU_HALF, rel=1e-12
        )

    def test_matches_bisection(self):
        for tau in (0.1, 0.5, 0.9):
            cfg = default_config(tau=tau)
            assert analysis.effective_range(cfg) == pytest.approx(
                bisect_range(cfg), rel=1e-8
            )

    def test_monotone_in_efficiency(self):
        lo = analysis.effective_range(default_config(eta=0.1))
        hi = analysis.effective_range(default_config(eta=0.9))
        assert lo < hi

    def test_hardware_overhead_shrinks_range(self):
        ideal = analysis.effective_range(default_config(ideal=True))
        lossy = analysis.effective_range(default_config(ideal=False))
        assert lossy < ideal


class TestSnrOutageCdf:
    def test_vanishing_threshold(self):
        assert analysis.snr_outage_cdf(default_config(rate=1e-12)) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_rate(self):
        assert analysis.snr_outage_cdf(default_config(rate=3.0)) > analysis.snr_outage_cdf(
            default_config(rate=1.0)
        )

    def test_sample_counting_oracle(self):
        # weaken the data link so the outage CDF is moderate and countable
        cfg = default_config(p_st=2e-9, rate=1.0)
        p = analysis.snr_outage_cdf(cfg)
        assert 0.05 < p < 0.95
        gen = np.random.default_rng(17)
        gains = fading.sample(cfg.fading_st_sr, gen, size=1_000_000)
        snr = cfg.p_st * gains / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)
        frac = float(np.mean(snr <= cfg.gamma_th))
        assert abs(frac - p) < 3.5 * math.sqrt(p * (1 - p) / gains.size)

    def test_uses_radiated_power_not_buffer_threshold(self):
        ideal = analysis.snr_outage_cdf(default_config(ideal=True))
        lossy = analysis.snr_outage_cdf(default_config(ideal=False))
        assert ideal == lossy


class TestPhi:
    def test_phi1_zero_when_range_below_dmin(self):
        # large tau and weak beacon push the effective range under d_min
        cfg = default_config(tau=0.95, p_beacon=0.2)
        assert analysis.effective_range(cfg) < cfg.d_min
        assert analysis.phi1(cfg) == 0.0
        assert analysis.transmission_probability(cfg) == analysis.phi2(cfg)

    def test_phi2_zero_when_range_beyond_dmax(self):
        cfg = default_config(tau=0.05, p_st=1e-4)
        assert analysis.effective_range(cfg) > cfg.d_max
        assert analysis.phi2(cfg) == 0.0
        assert analysis.transmission_probability(cfg) == pytest.approx(analysis.phi1(cfg))

    @pytest.mark.parametrize("ideal", [True, False])
    @pytest.mark.parametrize("antennas", [1, 16])
    def test_closed_form_matches_quadrature(self, ideal, antennas):
        base = default_config(ideal=ideal, fading_pb_st=FadingParams(7.0, antennas, 20))
        for tau in (0.1, 0.5, 0.9):
            cfg = base.with_tau(tau)
            assert analysis.phi1(cfg) == pytest.approx(
                analysis.phi1_quadrature(cfg), rel=1e-7
            )
            assert analysis.phi2(cfg) == pytest.approx(
                analysis.phi2_quadrature(cfg), rel=1e-7
            )

    @pytest.mark.parametrize("antennas", [1, 16])
    def test_quadrature_finds_narrow_support_of_steep_path_loss(self, antennas):
        # at alpha = 260 the outside branch runs from about 1.01 to 15, but its
        # integrand is nonzero only below about 1.04; on the whole branch the
        # adaptive rule sampled none of that support and returned 0
        base = default_config(alpha_pb_st=260.0, fading_pb_st=FadingParams(7.0, antennas, 20))
        for tau in (0.1, 0.5, 0.9):
            cfg = base.with_tau(tau)
            assert analysis.phi2(cfg) > 0.0
            assert analysis.phi2_quadrature(cfg) == pytest.approx(analysis.phi2(cfg), rel=1e-7)

    def test_tau_near_one_leaves_only_full_slot_branch(self):
        # the effective range collapses below d_min, so only the full-slot
        # harvesting branch can refill the buffer
        cfg = default_config(tau=0.999)
        assert analysis.effective_range(cfg) < cfg.d_min
        assert analysis.phi1(cfg) == 0.0
        assert 0.0 < analysis.phi2(cfg) < analysis.phi2(default_config(tau=0.5))

    def test_sum_is_probability_across_grid(self):
        for tau in np.arange(0.1, 0.95, 0.1):
            cfg = default_config(tau=float(tau))
            total = analysis.phi1(cfg) + analysis.phi2(cfg)
            assert 0.0 <= total <= 1.0


class TestPointMass:
    """d_min = d_max: every placement sits at one distance d."""

    D = 5.0

    @pytest.mark.parametrize("antennas", [1, 16])
    @pytest.mark.parametrize("ideal", [True, False])
    def test_is_the_limit_of_a_closing_annulus(self, antennas, ideal):
        # both branch intervals are empty here, and the closed form once read p_tr = 0
        link = FadingParams(7.0, antennas, 20)
        cfg = default_config(d_min=self.D, d_max=self.D, ideal=ideal, fading_pb_st=link)
        near = default_config(d_min=self.D, d_max=self.D * (1.0 + 1e-9), ideal=ideal,
                              fading_pb_st=link)
        taus = np.linspace(0.05, 0.95, 19)
        point, limit = analysis.sweep_columns(cfg, taus), analysis.sweep_columns(near, taus)
        # the grid puts d inside the effective range at some taus and beyond it at others
        assert (point["d_star"] > self.D).any() and (point["d_star"] < self.D).any()
        assert (point["p_tr"] > 0.1).any()
        for name in ("phi1", "phi2", "p_tr", "p_out", "throughput"):
            np.testing.assert_allclose(point[name], limit[name], rtol=0.0, atol=1e-6)

    def test_branch_holds_the_distance(self):
        cfg = default_config(d_min=self.D, d_max=self.D)
        taus = np.array([0.1, 0.9])
        point = analysis.sweep_columns(cfg, taus)
        (inside, *_), (outside, *_) = analysis._branches(cfg, taus, point["d_star"])
        power = self.D**cfg.alpha_pb_st
        # d inside the effective range at tau 0.1, beyond it at tau 0.9
        survival = fading.survival(cfg.fading_pb_st, np.array([inside[0], outside[1]]) * power)
        assert point["phi1"][0] == pytest.approx(survival[0], rel=1e-14)
        assert point["phi2"][1] == pytest.approx(survival[1], rel=1e-14)
        assert point["phi2"][0] == point["phi1"][1] == 0.0

    def test_tie_goes_inside(self):
        # the simulator's slot-renewal mode counts d = d_star inside the range
        tau = 0.3
        d = analysis.effective_range(default_config(tau=tau))
        cfg = default_config(d_min=d, d_max=d, tau=tau)
        assert analysis.effective_range(cfg) == d
        assert analysis.phi1(cfg) > 0.0 and analysis.phi2(cfg) == 0.0

    def test_quadrature_oracle_agrees(self):
        for tau in (0.1, 0.5, 0.9):
            cfg = default_config(d_min=self.D, d_max=self.D, tau=tau)
            assert analysis.phi1_quadrature(cfg) == analysis.phi1(cfg)
            assert analysis.phi2_quadrature(cfg) == analysis.phi2(cfg)


class TestJCorrection:
    def test_zero_at_tiny_distance(self):
        assert analysis.j_correction(default_config(), 2, 1e-6) == pytest.approx(0.0, abs=1e-12)

    def test_magnitudes_at_default_setting(self):
        cfg = default_config()
        assert analysis.j_correction(cfg, 2, cfg.d_max) <= 1e-5
        assert analysis.j_correction(cfg, 3, cfg.d_max) <= 1e-7

    def test_nonnegative_and_decaying_in_l(self):
        cfg = default_config(tau=0.2)
        values = [analysis.j_correction(cfg, l, 8.0) for l in (2, 3, 4)]
        assert all(v >= 0.0 for v in values)
        assert values[0] >= values[-1]

    def test_domain_errors(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            analysis.j_correction(cfg, 1, 5.0)
        with pytest.raises(ValueError):
            analysis.j_correction(cfg, 21, 5.0)
        with pytest.raises(ValueError):
            analysis.j_correction(cfg, 2, 0.0)


class TestCompositeMetrics:
    def test_outage_composition(self):
        cfg = default_config()
        p_tr = analysis.transmission_probability(cfg)
        f_snr = analysis.snr_outage_cdf(cfg)
        assert analysis.outage_probability(cfg) == pytest.approx(
            p_tr * f_snr + (1 - p_tr), rel=1e-12
        )

    def test_outage_floor(self):
        for tau in (0.1, 0.4, 0.8):
            cfg = default_config(tau=tau)
            assert analysis.outage_probability(cfg) >= 1 - analysis.transmission_probability(cfg)

    def test_throughput_bounds(self):
        cfg = default_config(tau=0.8)
        value = analysis.average_throughput(cfg)
        assert 0.0 <= value <= cfg.tau * cfg.rate

    def test_transmission_monotone_in_st_power(self):
        values = [
            analysis.transmission_probability(default_config(p_st=p))
            for p in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sweep_matches_direct_evaluation(self):
        cfg = default_config()
        [point] = analysis.sweep(cfg, [0.5])
        assert point == analysis.evaluate(cfg)

    def test_sweep_outage_trends(self):
        grid = [i / 10 for i in range(1, 10)]
        ideal = [p.p_out for p in analysis.sweep(default_config(ideal=True), grid)]
        lossy = [p.p_out for p in analysis.sweep(default_config(ideal=False), grid)]
        assert all(a < b for a, b in zip(ideal, ideal[1:]))
        assert all(l >= i for l, i in zip(lossy, ideal))

    def test_metric_point_invariants(self):
        for point in analysis.sweep(default_config(), [0.2, 0.5, 0.8]):
            assert point.p_tr == pytest.approx(
                min(1.0, max(0.0, point.phi1 + point.phi2)), abs=1e-15
            )
            assert point.p_out >= 1 - point.p_tr - 1e-15
            assert point.throughput <= 0.8 * 1.0 + 1e-12


SETUPS = [(antennas, ideal) for antennas in (1, 16) for ideal in (True, False)]


@st.composite
def tau_grids(draw):
    # At every setup d_star exceeds d_max below tau = 0.0178 and falls under
    # d_min above tau = 0.943; each grid holds one tau of each kind.
    below = draw(st.floats(min_value=1e-300, max_value=0.015))
    above = draw(st.floats(min_value=0.95, max_value=1.0 - 1e-12))
    middle = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), max_size=6))
    return draw(st.permutations([below, above, *middle]))


class TestSweepEngine:
    @settings(max_examples=30, deadline=None)
    @given(setup=st.sampled_from(SETUPS), taus=tau_grids())
    def test_rows_are_one_tau_evaluations(self, setup, taus):
        antennas, ideal = setup
        cfg = default_config(ideal=ideal, fading_pb_st=FadingParams(7.0, antennas, 20))
        points = analysis.sweep(cfg, taus)
        d_star = [point.d_star for point in points]
        assert min(d_star) < cfg.d_min and max(d_star) > cfg.d_max
        for tau, point in zip(taus, points):
            one = cfg.with_tau(tau)
            assert point == analysis.evaluate(one)
            for closed, oracle in (
                (point.phi1, analysis.phi1_quadrature(one)),
                (point.phi2, analysis.phi2_quadrature(one)),
            ):
                assert abs(closed - oracle) <= 1e-7 * max(abs(oracle), 1e-12)
            values = (point.phi1, point.phi2, point.p_tr, point.p_out, point.throughput)
            assert all(math.isfinite(v) for v in values)
            # the two branches split the annulus, so their sum is a probability
            assert 0.0 <= point.phi1 + point.phi2 <= 1.0 + 1e-12

    def test_names_first_tau_with_nonfinite_closed_form(self):
        # at a 3000 dBm beacon the threshold coefficient of these taus
        # underflows to 0, and the closed form to NaN
        cfg = default_config(p_beacon=1e297)
        with pytest.raises(ValueError, match=r"tau = 1e-300$"):
            analysis.sweep(cfg, [0.5, 1e-300, 1e-301])

    def test_names_first_tau_with_infinite_branch(self):
        # at alpha = 1 the inside branch overflows to inf at this tau; the clip to
        # [0, 1] made p_tr 1.0, and the row was written with phi1 = inf
        cfg = default_config(alpha_pb_st=1.0)
        with pytest.raises(ValueError, match=r"tau = 1e-154$"):
            analysis.sweep(cfg, [0.5, 1e-154])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, math.nan, 5e-324])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_rejects_grid_with_invalid_tau(self, bad, position):
        cfg = default_config()
        taus = [0.1, 0.3, 0.5, 0.7]
        taus.insert(position, bad)
        with pytest.raises(ValueError) as from_config:
            cfg.with_tau(bad)
        with pytest.raises(ValueError, match=re.escape(str(from_config.value))):
            analysis.sweep(cfg, taus)


def _phi_four_arrays(cfg, threshold_coeff, lo, hi):
    # The closed form as first vectorised: all four incomplete-gamma arrays on
    # every cell, and np.where keeps one pair per cell.
    out = np.zeros(len(lo))
    live = hi > lo
    p = cfg.fading_pb_st
    alpha = cfg.alpha_pb_st
    c = threshold_coeff[live, None] / p.omega
    a = c * lo[live, None] ** alpha
    b = c * hi[live, None] ** alpha
    r = np.arange(p.m, dtype=float)
    s = r + 2.0 / alpha
    pb = special.gammainc(s, b)
    qa = special.gammaincc(s, a)
    upper = (pb > 0.5) & (qa <= 0.5)
    diff = np.where(upper, qa - special.gammaincc(s, b), pb - special.gammainc(s, a))
    terms = p._tail_weights * np.exp(special.gammaln(s) - special.gammaln(r + 1.0)) * diff
    norm = cfg.d_max**2 - cfg.d_min**2
    out[live] = 2.0 * c[:, 0] ** (-2.0 / alpha) * terms.sum(axis=1) / (alpha * norm)
    return out


class TestPhiClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(
        antennas=st.integers(min_value=1, max_value=20),
        ideal=st.booleans(),
        alpha=st.floats(min_value=0.5, max_value=10.0),
        d_min=st.floats(min_value=0.05, max_value=10.0),
        spread=st.floats(min_value=1.0, max_value=40.0),
        taus=tau_grids(),
    )
    def test_equals_four_array_formula(self, antennas, ideal, alpha, d_min, spread, taus):
        cfg = default_config(
            ideal=ideal,
            alpha_pb_st=alpha,
            d_min=d_min,
            d_max=d_min * spread,
            fading_pb_st=FadingParams(7.0, antennas, 20),
        )
        taus = np.array(taus)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for branch in analysis._branches(cfg, taus, analysis._d_star(cfg, taus)):
                got = analysis._phi_closed_form(cfg, *branch)
                assert np.array_equal(got, _phi_four_arrays(cfg, *branch), equal_nan=True)

    @pytest.mark.parametrize("antennas", [1, 16])
    def test_equals_four_array_formula_across_the_median(self, antennas):
        # the lower limits a = c * lo**alpha (here c = 1) run densely through the median
        # of every term's gamma law, where the choice of tail flips
        cfg = default_config(fading_pb_st=FadingParams(7.0, antennas, 20))
        a = np.linspace(0.0, 30.0, 20_001)
        coeff = np.full_like(a, cfg.fading_pb_st.omega)
        lo = a ** (1.0 / cfg.alpha_pb_st)
        hi = (2.0 * a + 1.0) ** (1.0 / cfg.alpha_pb_st)
        got = analysis._phi_closed_form(cfg, coeff, lo, hi)
        assert np.array_equal(got, _phi_four_arrays(cfg, coeff, lo, hi))
