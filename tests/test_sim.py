import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from ehcr import analysis, sim
from ehcr.analysis import SystemConfig
from ehcr.sim import EnergyBuffer, SimConfigurationError


def default_config(**overrides) -> SystemConfig:
    return dataclasses.replace(SystemConfig(), **overrides)


class FixedUniform:
    """Minimal generator stand-in yielding a prescribed uniform."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestSampleDistance:
    def test_degenerate_annulus(self):
        cfg = default_config(d_min=5.0, d_max=5.0)
        gen = np.random.default_rng(0)
        assert sim.sample_distance(cfg, gen) == 5.0

    def test_inverse_cdf_midpoint(self):
        cfg = default_config(d_min=1.0, d_max=15.0)
        assert sim.sample_distance(cfg, FixedUniform(0.5)) == pytest.approx(
            10.630145812734649, rel=1e-12
        )

    def test_kolmogorov_smirnov(self):
        cfg = default_config()
        gen = np.random.default_rng(23)
        draws = np.array([sim.sample_distance(cfg, gen) for _ in range(100_000)])
        analytic = lambda x: (x**2 - cfg.d_min**2) / (cfg.d_max**2 - cfg.d_min**2)
        assert stats.kstest(draws, analytic).pvalue > 0.01

    def test_within_bounds(self):
        cfg = default_config()
        gen = np.random.default_rng(1)
        for _ in range(1000):
            d = sim.sample_distance(cfg, gen)
            assert cfg.d_min <= d <= cfg.d_max


class TestStepSlot:
    def test_full_buffer_transmits_without_outage_on_strong_link(self):
        cfg = default_config()
        buffer = sim.fresh_buffer(cfg)
        out = sim.step_slot(buffer, cfg, d=5.0, gain_p=1.0, gain_s=1e9)
        assert out.transmitted and not out.outage
        harvest = cfg.eta * (1 - cfg.tau) * cfg.p_beacon * 1.0 / 5.0**cfg.alpha_pb_st
        expected = buffer.capacity - cfg.tau * cfg.p_st_eff + harvest
        assert out.buffer.stored == pytest.approx(min(buffer.capacity, expected), rel=1e-15)

    def test_empty_buffer_stays_empty_without_harvest(self):
        cfg = default_config()
        out = sim.step_slot(EnergyBuffer(0.0, cfg.p_st_eff), cfg, 5.0, 0.0, 1e9)
        assert not out.transmitted and out.outage
        assert out.buffer.stored == 0.0

    def test_capacity_cap_binds(self):
        cfg = default_config()
        buffer = sim.fresh_buffer(cfg)
        out = sim.step_slot(buffer, cfg, 1.0, gain_p=1e9, gain_s=1e9)
        assert out.buffer.stored == buffer.capacity

    def test_energy_conservation_per_slot(self):
        cfg = default_config()
        gen = np.random.default_rng(3)
        buffer = sim.fresh_buffer(cfg)
        consumption = cfg.tau * cfg.p_st_eff * cfg.t_frame
        for _ in range(300):
            gp, gs = gen.gamma(2.0, 0.2), gen.gamma(2.0, 0.2)
            was_full = buffer.full
            out = sim.step_slot(buffer, cfg, 6.0, gp, gs)
            scale = (1 - cfg.tau) if was_full else 1.0
            harvest = cfg.eta * scale * cfg.t_frame * cfg.p_beacon * gp / 6.0**cfg.alpha_pb_st
            expected = min(
                buffer.capacity, buffer.stored - (consumption if was_full else 0.0) + harvest
            )
            assert out.buffer.stored == expected
            assert 0.0 <= out.buffer.stored <= out.buffer.capacity
            buffer = out.buffer

    def test_strict_harvest_cap(self):
        cfg = default_config()
        out = sim.step_slot(
            EnergyBuffer(0.0, cfg.p_st_eff), cfg, 1.0, 1e9, 1.0, strict_harvest_cap=True
        )
        assert out.buffer.stored == pytest.approx(cfg.tau * cfg.p_st_eff)

    def test_non_transmission_counts_as_outage(self):
        cfg = default_config()
        out = sim.step_slot(EnergyBuffer(0.0, cfg.p_st_eff), cfg, 5.0, 1.0, 1e9)
        assert out.outage


class TestEnergyBuffer:
    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            EnergyBuffer(2.0, 1.0)
        with pytest.raises(ValueError):
            EnergyBuffer(-0.1, 1.0)


class TestRun:
    def test_deterministic_for_fixed_seed(self):
        cfg = default_config()
        a = sim.run(cfg, 40, 150, seed=9)
        b = sim.run(cfg, 40, 150, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        cfg = default_config()
        assert sim.run(cfg, 40, 150, seed=9) != sim.run(cfg, 40, 150, seed=10)

    def test_saturated_harvesting(self):
        cfg = default_config(p_beacon=default_config().p_beacon * 1e6, d_max=2.0)
        est = sim.run(cfg, 100, 500, seed=2)
        assert est.p_tr_hat >= 0.999

    def test_rejects_zero_counts(self):
        cfg = default_config()
        with pytest.raises(SimConfigurationError):
            sim.run(cfg, 0, 100, seed=1)
        with pytest.raises(SimConfigurationError):
            sim.run(cfg, 100, 0, seed=1)
        with pytest.raises(SimConfigurationError):
            sim.run(cfg, 10, 10, seed=1, mode="bogus")

    def test_matches_scalar_reference_loop(self):
        # replay the exact per-placement streams through step_slot
        cfg = default_config()
        n_placements, n_slots, seed = 25, 60, 77
        warmup = sim.warmup_slots(n_slots)
        n_total = warmup + n_slots
        distances, gains_p, gains_s = sim.placement_streams(cfg, n_placements, n_total, seed)
        tx = outage = 0
        for i in range(n_placements):
            buffer = sim.fresh_buffer(cfg)
            for n in range(n_total):
                out = sim.step_slot(buffer, cfg, distances[i], gains_p[i, n], gains_s[i, n])
                if n >= warmup:
                    tx += out.transmitted
                    outage += out.outage
                buffer = out.buffer
        est = sim.run(cfg, n_placements, n_slots, seed)
        total = n_placements * n_slots
        assert est.p_tr_hat == tx / total
        assert est.p_out_hat == outage / total

    def test_throughput_identity(self):
        cfg = default_config()
        est = sim.run(cfg, 60, 200, seed=4)
        assert est.throughput_hat == pytest.approx(
            cfg.tau * cfg.rate * (1.0 - est.p_out_hat), abs=1e-12
        )

    def test_monotone_in_beacon_power(self):
        cfg = default_config()
        estimates = [
            sim.run(dataclasses.replace(cfg, p_beacon=cfg.p_beacon * 10 ** (gain / 10)),
                    400, 400, seed=6)
            for gain in (0.0, 3.0, 6.0)
        ]
        for weaker, stronger in zip(estimates, estimates[1:]):
            noise = weaker.ci99_p_tr + stronger.ci99_p_tr
            assert stronger.p_tr_hat >= weaker.p_tr_hat - noise

    def test_renewal_mode_reproduces_closed_form(self):
        cfg = default_config()
        point = analysis.evaluate(cfg)
        est = sim.run(cfg, 800, 500, seed=13, mode="slot-renewal")
        assert abs(est.p_out_hat - point.p_out) <= max(2 * est.ci99_p_out, 0.02)

    def test_buffer_mode_accumulation_surplus(self):
        # multi-slot accumulation, absent from the closed form, adds
        # transmissions: the buffer-mode estimate exceeds the closed form
        cfg = default_config()
        point = analysis.evaluate(cfg)
        est = sim.run(cfg, 800, 500, seed=13)
        assert est.p_tr_hat > point.p_tr + 2 * est.ci99_p_tr

    def test_estimates_are_probabilities(self):
        est = sim.run(default_config(), 50, 120, seed=21)
        for value in (est.p_tr_hat, est.p_out_hat):
            assert 0.0 <= value <= 1.0
