import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize, stats

from ehcr import analysis, fading, sim, validate
from ehcr.analysis import SystemConfig
from ehcr.fading import FadingParams
from ehcr.sim import SimConfigurationError
from test_fuzz import floats as fuzz_floats


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


def stratum(i, n):
    """First placement and size of placement i's stratum: pairs, a last triple for odd n."""
    k = min(i // 2, n // 2 - 1)
    return 2 * k, (n - 2 * k if k == n // 2 - 1 else 2)


def eager_gains(p, gen, n):
    """``n`` gains drawn as numpy's own mixture draw would: choice, then gamma."""
    j = gen.choice(p.n_mix + 1, p=np.asarray(p.weights), size=n)
    return gen.gamma(shape=np.asarray(p.shapes)[j], scale=p.omega)


def reference_streams(cfg, n_placements, n_total, seed):
    """Each placement's eager draw: (distance, harvest gains, ST-SR link gains)."""
    for i in range(n_placements):
        gen = np.random.default_rng(np.random.SeedSequence([seed, i]))
        start, size = stratum(i, n_placements)
        u = (start + size * gen.random()) / n_placements
        d = math.sqrt(cfg.d_min**2 + u * (cfg.d_max**2 - cfg.d_min**2))
        gains_p = eager_gains(cfg.fading_pb_st, gen, n_total)
        yield d, gains_p, eager_gains(cfg.fading_st_sr, gen, n_total)


def snr_scale(cfg):
    return cfg.p_st / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)


def link_limited_config(**overrides):
    """A config whose ST-SR link fails about half the time.

    The rate is raised until the SNR threshold sits at the link gain's median.
    """
    cfg = default_config(**overrides)
    median = optimize.brentq(lambda x: fading.survival(cfg.fading_st_sr, x) - 0.5, 1e-6, 10.0)
    return dataclasses.replace(cfg, rate=math.log2(1.0 + median * snr_scale(cfg)))


def stratified_ci99(counts, n_slots):
    """99% half-width from the within-stratum spread of per-placement fractions, by hand."""
    f = counts / n_slots
    n = len(f)
    var = 0.0
    for start in range(0, 2 * (n // 2), 2):
        size = stratum(start, n)[1]
        group = f[start:start + size]
        # (n_k/n)^2 * s_k^2 / n_k
        var += (size / n) ** 2 * np.var(group, ddof=1) / size
    return sim._Z99 * math.sqrt(var)


def buffer_terms(cfg, d):
    """Capacity, consumption and both harvest scales of a placement at distance d."""
    capacity = cfg.p_st_eff * cfg.t_frame
    path_gain = cfg.eta * cfg.t_frame * cfg.p_beacon / d**cfg.alpha_pb_st
    return capacity, cfg.tau * capacity, path_gain, (1.0 - cfg.tau) * path_gain


def snr_ok(cfg, gain_s):
    return snr_scale(cfg) * gain_s > cfg.gamma_th


def renewal_threshold(cfg, d):
    """Harvest gain at and above which the slot-renewal model transmits at distance d."""
    taus = np.array([cfg.tau])
    d_star = analysis._d_star(cfg, taus)
    (inside, *_), (outside, *_) = analysis._branches(cfg, taus, d_star)
    return float((inside if d <= d_star[0] else outside)[0]) * d**cfg.alpha_pb_st


def advance(stored, capacity, consumption, path_gain, tx_gain, gain_p):
    """The buffer rule on one scalar buffer, in plain Python: (transmitted, level after).

    A full buffer transmits, spends ``consumption`` and harvests ``tx_gain``
    per unit gain; any other buffer harvests ``path_gain``; the level is
    capped at ``capacity``.
    """
    if stored >= capacity:
        return True, min(capacity, capacity - consumption + tx_gain * gain_p)
    return False, min(capacity, stored + path_gain * gain_p)


def sim_advance(stored, capacity, consumption, path_gain, tx_gain, gain_p):
    """One `sim._step_slot` on the one-element ``stored``; return whether it transmitted."""
    idle, after_tx, level = np.empty(1), np.empty(1), np.empty(1)
    silent = np.empty(1, dtype=bool)
    sim._slot_terms(capacity, consumption, path_gain, tx_gain, gain_p, idle, after_tx)
    sim._step_slot(stored, capacity, idle, after_tx, silent, level)
    return not silent[0]


def step(cfg, stored, d, gain_p, gain_s):
    """One simulator slot on a one-element buffer: (transmitted, outage, stored after)."""
    buffer = np.array([stored])
    transmitted = sim_advance(buffer, *buffer_terms(cfg, d), gain_p)
    return transmitted, not (transmitted and snr_ok(cfg, gain_s)), float(buffer[0])


def masked_copy_step(stored, capacity, idle, after_tx):
    """The update as a masked copy: (level after, which buffers were full)."""
    full = stored >= capacity
    stored = np.minimum(stored + idle, capacity)
    np.copyto(stored, after_tx, where=full)
    return stored, full


# a share of the capacity, with the ends themselves drawn often
SHARES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def slot_arrays(draw):
    """(stored, capacity, idle, after_tx) of one slot, one element or (taus, placements)."""
    n_taus, n_placements = draw(st.sampled_from([(None, 1), (1, 1), (3, 7), (9, 40)]))
    shape = (n_placements,) if n_taus is None else (n_taus, n_placements)
    idle_shape = (n_placements,) if n_taus is None else (1, n_placements)
    capacity = draw(st.floats(1e-12, 1e6))
    stored = draw(hnp.arrays(np.float64, shape, elements=SHARES)) * capacity
    after_tx = draw(hnp.arrays(np.float64, shape, elements=SHARES)) * capacity
    idle = draw(hnp.arrays(np.float64, idle_shape,
                           elements=st.one_of(st.just(0.0), st.floats(0.0, 1e3))))
    return stored, capacity, idle * capacity, after_tx


class TestStepSlot:
    def test_full_buffer_transmits_without_outage_on_strong_link(self):
        cfg = default_config()
        capacity = cfg.p_st_eff * cfg.t_frame
        transmitted, outage, stored = step(cfg, capacity, d=5.0, gain_p=1.0, gain_s=1e9)
        assert transmitted and not outage
        harvest = cfg.eta * (1 - cfg.tau) * cfg.p_beacon * 1.0 / 5.0**cfg.alpha_pb_st
        expected = capacity - cfg.tau * cfg.p_st_eff + harvest
        assert stored == pytest.approx(min(capacity, expected), rel=1e-15)

    def test_empty_buffer_stays_empty_without_harvest(self):
        cfg = default_config()
        transmitted, outage, stored = step(cfg, 0.0, 5.0, 0.0, 1e9)
        assert not transmitted and outage
        assert stored == 0.0

    def test_capacity_cap_binds(self):
        cfg = default_config()
        capacity = cfg.p_st_eff * cfg.t_frame
        _, _, stored = step(cfg, capacity, 1.0, gain_p=1e9, gain_s=1e9)
        assert stored == capacity

    def test_energy_conservation_per_slot(self):
        cfg = default_config()
        gen = np.random.default_rng(3)
        capacity, consumption, path_gain, tx_gain = buffer_terms(cfg, 6.0)
        stored = np.array([capacity])
        for _ in range(300):
            gp = gen.gamma(2.0, 0.2)
            was_full = stored[0] >= capacity
            scale = (1 - cfg.tau) if was_full else 1.0
            expected = min(
                capacity, stored[0] - (consumption if was_full else 0.0) + scale * path_gain * gp
            )
            assert sim_advance(stored, capacity, consumption, path_gain, tx_gain, gp) == was_full
            assert stored[0] == expected
            assert 0.0 <= stored[0] <= capacity

    def test_non_transmission_counts_as_outage(self):
        cfg = default_config()
        _, outage, _ = step(cfg, 0.0, 5.0, 1.0, 1e9)
        assert outage

    @settings(max_examples=200, deadline=None)
    @given(slot_arrays())
    def test_branch_free_update_equals_masked_copy(self, arrays):
        stored, capacity, idle, after_tx = arrays
        expected, full = masked_copy_step(stored, capacity, idle, after_tx)
        silent = np.empty(stored.shape, dtype=bool)
        level = np.empty_like(stored)
        sim._step_slot(stored, capacity, idle, after_tx, silent, level)
        # bit for bit, signed zeros included
        assert np.array_equal(stored.view(np.int64), expected.view(np.int64))
        assert np.array_equal(silent, ~full)


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

    @pytest.mark.parametrize("chunk", [sim._CHUNK, 64], ids=["default", "64"])
    def test_matches_scalar_reference_loop(self, monkeypatch, chunk):
        # replay each placement one slot at a time from its eager reference
        # draws: the j-th measured transmission takes the j-th link gain. The
        # link fails about half the time, so a slot given the wrong link gain
        # changes the outage count. Chunks of 64 slots end the 100-slot
        # warm-up inside a block of the second chunk, and the last is short.
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        cfg = link_limited_config()
        n_placements, n_slots, seed = 25, 60, 77
        warmup = sim.warmup_slots(n_slots)
        n_total = warmup + n_slots
        for mode in sim.MODES:
            tx = np.zeros(n_placements, dtype=int)
            outage = np.zeros(n_placements, dtype=int)
            streams = reference_streams(cfg, n_placements, n_total, seed)
            for i, (d, gains_p, gains_s) in enumerate(streams):
                terms = buffer_terms(cfg, d)
                stored = terms[0]
                for n in range(n_total):
                    if mode == "buffer":
                        transmitted, stored = advance(stored, *terms, gains_p[n])
                    else:
                        transmitted = gains_p[n] >= renewal_threshold(cfg, d)
                    if n >= warmup:
                        outage[i] += not (transmitted and snr_ok(cfg, gains_s[tx[i]]))
                        tx[i] += transmitted
            est = sim.run(cfg, n_placements, n_slots, seed, mode=mode)
            total = n_placements * n_slots
            assert 0 < outage.sum() - (total - tx.sum()) < tx.sum()
            assert est.p_tr_hat == tx.sum() / total
            assert est.p_out_hat == outage.sum() / total
            # placement-level half-widths from the spread inside each stratum
            assert est.ci99_p_tr == pytest.approx(stratified_ci99(tx, n_slots), rel=1e-12)
            assert est.ci99_p_out == pytest.approx(stratified_ci99(outage, n_slots), rel=1e-12)
            assert est.ci99_throughput == cfg.tau * cfg.rate * est.ci99_p_out

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
        assert abs(est.p_out_hat - point["p_out"]) <= max(2 * est.ci99_p_out, 0.02)

    def test_buffer_mode_accumulation_surplus(self):
        # multi-slot accumulation, absent from the closed form, adds
        # transmissions: the buffer-mode estimate exceeds the closed form
        cfg = default_config()
        point = analysis.evaluate(cfg)
        est = sim.run(cfg, 800, 500, seed=13)
        assert est.p_tr_hat > point["p_tr"] + 2 * est.ci99_p_tr

    def test_estimates_are_probabilities(self):
        est = sim.run(default_config(), 50, 120, seed=21)
        for value in (est.p_tr_hat, est.p_out_hat):
            assert 0.0 <= value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(0.05, 0.95),
        mode=st.sampled_from(sim.MODES),
    )
    def test_silent_slots_are_outages(self, seed, tau, mode):
        # only a transmitting slot can succeed, so every silent slot is an
        # outage and throughput is at most tau * R per transmission; the
        # estimates are rounded quotients, hence the ulp-sized slack
        cfg = default_config(tau=tau)
        est = sim.run(cfg, 3, 40, seed=seed, mode=mode)
        slack = 1e-12
        assert est.p_out_hat >= 1.0 - est.p_tr_hat - slack
        assert est.throughput_hat <= tau * cfg.rate * est.p_tr_hat + slack
        assert min(est.ci99_p_tr, est.ci99_p_out, est.ci99_throughput) >= 0.0


class TestRunSweep:
    TAUS = [0.1 * i for i in range(1, 10)]

    @pytest.mark.parametrize("mode", sim.MODES)
    def test_equals_per_tau_runs(self, mode):
        cfg = default_config(ideal=False)
        sweep = sim.run_sweep(cfg, self.TAUS, 30, 120, seed=8, mode=mode)
        assert len(sweep) == len(self.TAUS)
        for tau, est in zip(self.TAUS, sweep):
            single = sim.run(cfg.with_tau(tau), 30, 120, seed=8, mode=mode)
            assert est == single  # every field, exactly

    @pytest.mark.parametrize("mode", sim.MODES)
    def test_equals_per_tau_runs_link_limited(self, mode):
        # each tau draws only as many link gains as its own transmissions,
        # and gets the same ones as inside the grid
        cfg = link_limited_config()
        sweep = sim.run_sweep(cfg, self.TAUS, 30, 120, seed=8, mode=mode)
        for tau, est in zip(self.TAUS, sweep):
            assert est == sim.run(cfg.with_tau(tau), 30, 120, seed=8, mode=mode)

    def test_run_is_the_one_tau_sweep(self):
        cfg = default_config(tau=0.3)
        assert sim.run(cfg, 20, 90, seed=4) == sim.run_sweep(cfg, [cfg.tau], 20, 90, seed=4)[0]

    def test_rejects_single_placement(self):
        cfg = default_config()
        with pytest.raises(SimConfigurationError):
            sim.run_sweep(cfg, self.TAUS, 1, 100, seed=1)
        with pytest.raises(SimConfigurationError):
            sim.run_sweep(cfg, [], 10, 100, seed=1)


class TestSweepModes:
    @pytest.mark.parametrize("n_placements, n_slots, seed, taus, link_limited", [
        (3, 13, 8, TestRunSweep.TAUS, True),
        # crosses the chunk edge
        (5, 5_000, 8, TestRunSweep.TAUS, True),
        # the sim-model-agreement suite's budget
        (500, 500, 11, [0.5], False),
    ])
    def test_equals_one_run_sweep_per_mode(self, n_placements, n_slots, seed, taus, link_limited):
        cfg = link_limited_config(ideal=False) if link_limited else default_config()
        both = sim._sweep_modes(cfg, taus, n_placements, n_slots, seed, sim.MODES)
        assert set(both) == set(sim.MODES)
        for mode in sim.MODES:
            # every field, exactly
            assert both[mode] == sim.run_sweep(cfg, taus, n_placements, n_slots, seed, mode=mode)

    def test_rejects_bad_modes(self):
        cfg = default_config()
        for modes in ((), ("buffer", "slot_renewal")):
            with pytest.raises(SimConfigurationError):
                sim._sweep_modes(cfg, [0.5], 4, 10, 1, modes)

    @pytest.mark.parametrize("ideal", [True, False])
    def test_agreement_suite_notes_unchanged(self, ideal):
        # the suite as it read with one `sim.run` per mode
        cfg = default_config(ideal=ideal)
        expected = []
        point = analysis.evaluate(cfg)
        renewal = sim.run(cfg, 500, 500, seed=11, mode="slot-renewal")
        tol = max(2.0 * renewal.ci99_p_out, 0.02)
        if abs(renewal.p_out_hat - point["p_out"]) > tol:
            expected.append(
                f"slot-renewal p_out {renewal.p_out_hat:.4f} vs analytic {point['p_out']:.4f}"
            )
        buffered = sim.run(cfg, 500, 500, seed=11, mode="buffer")
        gap = buffered.p_tr_hat - point["p_tr"]
        expected.append(
            f"INFO buffer-mode accumulation surplus: p_tr {buffered.p_tr_hat:.4f}"
            f" vs closed form {point['p_tr']:.4f} (gap {gap:+.4f})"
        )
        assert validate.sim_model_agreement(cfg) == expected


# (antennas, split, placements); the three-placement cases keep their
# two-part ids
JOIN_CASES = [
    pytest.param(antennas, split, n, id=f"{antennas}-{split}" + ("" if n == 3 else f"-{n}"))
    for n in (3, 19) for antennas in (1, 16) for split in (1024, 1, 7, None)
]


class TestGainStream:
    @pytest.mark.parametrize("antennas, split, n_placements", JOIN_CASES)
    def test_chunks_join_into_the_eager_draw(self, antennas, split, n_placements):
        # L = 1 has 20 mixture components, L = 16 has 5. With 19 placements
        # the chunks of 1 024 and 1 100 slots, and the link reads, span
        # several groups, the last one short.
        fading_params = FadingParams(7.0, antennas, 20)
        # the link fails about half the time, so a wrong link gain shows
        cfg = link_limited_config(fading_pb_st=fading_params, fading_st_sr=fading_params)
        n_total, seed = 1_100, 41
        edges = [*range(0, n_total, split or n_total), n_total]
        distances, readers, gens = sim.placement_streams(cfg, n_placements, n_total, seed)
        chunks = sim._gain_chunks(cfg.fading_pb_st, readers, gens, edges)
        joined = np.concatenate([gains.copy() for _, gains in chunks])
        # the generators now stand at the link streams; read a different
        # prefix of each
        most = np.array([0, 1, n_total, *(n_total - 7 * i for i in range(n_placements - 3))])
        if n_placements > 3:
            assert most.sum() > sim._GROUP_DOUBLES
        links = sim._link_successes(cfg, gens, n_total, most)
        streams = reference_streams(cfg, n_placements, n_total, seed)
        for i, (successes, (d, gains_p, gains_s)) in enumerate(zip(links, streams)):
            assert distances[i] == d
            assert np.array_equal(joined[:, i], gains_p)
            assert len(successes) > most[i]
            expected = np.cumsum(snr_ok(cfg, gains_s[:len(successes) - 1]))
            assert np.array_equal(successes, np.concatenate([[0], expected]))

    def test_link_draw_is_prefix_stable(self):
        cfg = link_limited_config()

        def successes(n_placements, n_total, most):
            _, readers, gens = sim.placement_streams(cfg, n_placements, n_total, seed=5)
            for _ in sim._gain_chunks(cfg.fading_pb_st, readers, gens, [0, n_total]):
                pass
            return list(sim._link_successes(cfg, gens, n_total, np.array(most)))

        # at 19 x 2 000 the full-length reads come in groups of four, the last
        # of three
        for n_placements, n_total in ((4, 300), (19, 2_000)):
            longest = successes(n_placements, n_total, [n_total] * n_placements)
            shorter = [0, 3, n_total // 2, n_total - 1, 1, n_total]
            shorter = [shorter[i % len(shorter)] for i in range(n_placements)]
            for most, short, long in zip(shorter, successes(n_placements, n_total, shorter),
                                         longest):
                assert most < len(short) <= len(long)
                assert np.array_equal(short, long[:len(short)])

    @pytest.mark.parametrize("mode", sim.MODES)
    @pytest.mark.parametrize(
        "n_taus, n_placements, n_slots", [(1, 50, 20_000), (19, 50, 2_000), (9, 500, 1_000)]
    )
    def test_traced_peak_memory(self, mode, n_taus, n_placements, n_slots):
        # an eager draw of both gain streams holds two float64 per placement-slot
        eager = 16 * n_placements * (sim.warmup_slots(n_slots) + n_slots)
        taus = [0.05 * (k + 1) for k in range(n_taus)]
        tracemalloc.start()
        try:
            sim.run_sweep(default_config(), taus, n_placements, n_slots, seed=2, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < eager
        if n_slots == 20_000:
            assert peak < eager / 4


class TestStrata:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 11])
    def test_distances_lie_in_their_strata(self, n):
        cfg = default_config()
        distances, _, _ = sim.placement_streams(cfg, n, 10, seed=3)
        u = (distances**2 - cfg.d_min**2) / (cfg.d_max**2 - cfg.d_min**2)
        for i, u_i in enumerate(u):
            start, size = stratum(i, n)
            assert start / n - 1e-12 <= u_i <= (start + size) / n + 1e-12

    @pytest.mark.parametrize(
        "n, widths", [(2, [1.0]), (3, [1.0]), (5, [0.4, 0.6]), (8, [0.25] * 4)]
    )
    def test_stratum_widths(self, n, widths):
        # stratum k spans n_k/n of the annulus CDF, its share of the placements,
        # and the strata tile the placements in order
        strata = sorted({sim._stratum(i, n) for i in range(n)})
        assert [size / n for _, size in strata] == pytest.approx(widths)
        assert [start for start, _ in strata] == [0, *np.cumsum([s for _, s in strata])[:-1]]
        for i in range(n):
            start, size = sim._stratum(i, n)
            assert start <= i < start + size

    def test_pair_difference_se(self):
        # pairs (0.1, 0.3), (0.5, 0.4): var = ((0.1 - 0.3)^2 + (0.5 - 0.4)^2) / 4^2
        assert sim._ci99(np.array([0.1, 0.3, 0.5, 0.4])) == pytest.approx(
            sim._Z99 * math.sqrt(0.04 + 0.01) / 4, rel=1e-12
        )
        # a pair and a triple: the triple adds n_k * s_k^2 = 3 * 0.13 to n^2 var
        assert sim._ci99(np.array([0.1, 0.3, 0.2, 0.4, 0.9])) == pytest.approx(
            sim._Z99 * math.sqrt(0.04 + 3 * 0.13) / 5, rel=1e-12
        )

    def test_se_is_honest_across_seeds(self):
        # the spread of p_out_hat over seeds fixed in advance, against the
        # median reported standard error. With few pairs that error is
        # right-skewed (a pair that straddles the transmit threshold's
        # distance dominates it), so the median falls below its rms; fifty
        # pairs keep the median near the rms.
        cfg = default_config()
        estimates = [sim.run(cfg, 100, 200, seed=seed) for seed in range(60)]
        spread = np.std([est.p_out_hat for est in estimates], ddof=1)
        reported = np.median([est.ci99_p_out for est in estimates]) / sim._Z99
        assert 0.7 <= spread / reported <= 1.4

    @pytest.mark.parametrize("mode", sim.MODES)
    def test_link_success_rate_matches_survival(self, mode):
        cfg = link_limited_config()
        q = fading.survival(cfg.fading_st_sr, cfg.gamma_th / snr_scale(cfg))
        est = sim.run(cfg, 200, 500, seed=12, mode=mode)
        total = 200 * 500
        tx = round(est.p_tr_hat * total)
        ok = round((1.0 - est.p_out_hat) * total)
        assert abs(ok / tx - q) <= 4.0 * math.sqrt(q * (1.0 - q) / tx)


class TestEnergyBalance:
    @settings(max_examples=40, deadline=None)
    @given(
        antennas=st.sampled_from([1, 16]),
        ideal=st.booleans(),
        n_placements=st.integers(2, 12),
        n_slots=st.integers(1, 2_500),
        seed=st.integers(0, 2**64),
        taus=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5),
    )
    def test_spending_is_bounded_by_start_and_harvest(
        self, antennas, ideal, n_placements, n_slots, seed, taus
    ):
        # over the measured slots a buffer starts at most full and never goes
        # below 0, so for every (tau, placement) it spends no more than
        # C + path_gain * (sum of measured harvest gains), whatever it wastes
        # at the cap and however little it harvests while transmitting
        cfg = default_config(fading_pb_st=FadingParams(7.0, antennas, 20), ideal=ideal)
        taus = np.array(taus)
        warmup = sim.warmup_slots(n_slots)
        n_total = warmup + n_slots
        distances, readers, gens = sim.placement_streams(cfg, n_placements, n_total, seed)
        harvest = np.zeros(n_placements)

        def summed(chunks):
            for lo, gains in chunks:
                harvest[:] += gains[max(warmup - lo, 0):].sum(axis=0)
                yield lo, gains

        edges = [*range(0, n_total, sim._CHUNK), n_total]
        chunks = summed(sim._gain_chunks(cfg.fading_pb_st, readers, gens, edges))
        tx = np.zeros((len(taus), n_placements), dtype=np.int64)
        sim._buffer_counts(cfg, taus, distances, chunks, warmup, tx)
        capacity = cfg.p_st_eff * cfg.t_frame
        path_gain = cfg.eta * cfg.t_frame * cfg.p_beacon / distances**cfg.alpha_pb_st
        spent = taus[:, None] * capacity * tx
        assert np.all(spent <= (capacity + path_gain * harvest) * (1.0 + 1e-9))


# seeds whose words numpy splits differently: one word, the largest one word,
# the smallest two words, three words
SPLIT_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5]


class TestSeed:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.sampled_from(SPLIT_SEEDS), st.integers(0, 2**200)),
           i=st.integers(0, 2**80))
    @example(seed=0, i=0)
    @example(seed=2**32 - 1, i=2**32 - 1)
    @example(seed=2**32, i=2**32)
    @example(seed=2**64 + 5, i=7)
    def test_seed_words_give_the_seed_list_pool(self, seed, i):
        words = np.array(sim._uint32_words(seed) + sim._uint32_words(i), dtype=np.uint32)
        assert np.array_equal(np.random.SeedSequence(words).generate_state(4, np.uint64),
                              np.random.SeedSequence([seed, i]).generate_state(4, np.uint64))

    def test_rejects_negative_seed(self):
        with pytest.raises(SimConfigurationError):
            sim.run(default_config(), 4, 10, seed=-1)

    def test_seeds_are_not_reduced(self):
        # seeds that agree modulo 2**63 (or 2**64) draw different placements
        cfg = default_config()
        base = sim.placement_streams(cfg, 4, 1, seed=2**63 - 1)[0]
        for other in (2**64 + 2**63 - 1, 2**127 + 2**63 - 1):
            assert not np.array_equal(base, sim.placement_streams(cfg, 4, 1, seed=other)[0])


class TestBudget:
    def test_cell_cap(self):
        # the default 19-point grid at the placement cap fits; one cell over the cap does not
        sim.check_budget(19, sim._MAX_PLACEMENTS, 1, 1)
        sim.check_budget(sim._MAX_CELLS // 1000, 1000, 1, 1)
        with pytest.raises(SimConfigurationError, match=r"len\(taus\) \* n_placements"):
            sim.check_budget(sim._MAX_CELLS // 1000 + 1, 1000, 1, 1)

    def test_refused_before_any_stream(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("placement streams built for an oversized budget")

        monkeypatch.setattr(sim, "placement_streams", unreachable)
        taus = np.linspace(0.01, 0.99, sim._MAX_CELLS // 1000 + 1)
        with pytest.raises(SimConfigurationError, match=r"len\(taus\) \* n_placements"):
            sim.run_sweep(default_config(), taus, 1000, 1, 1)


LIBRARY_FLOATS = [f.name for f in dataclasses.fields(SystemConfig) if f.type == "float"]
# the fuzz's floats, as magnitudes: most negative values are refused for their sign alone
magnitudes = fuzz_floats.map(abs)
links = st.none() | st.tuples(magnitudes, st.integers(1, 6), st.integers(1, 6))


# a drawn `SystemConfig`'s fields and links, for `_drawn_config`
drawn_configs = dict(fields=st.dictionaries(st.sampled_from(LIBRARY_FLOATS), magnitudes, max_size=4),
                     ideal=st.booleans(), pb_st=links, st_sr=links)


def _drawn_config(fields, ideal, pb_st, st_sr):
    """The `SystemConfig` of the drawn values, or None where it refuses them."""
    links = {"fading_pb_st": pb_st, "fading_st_sr": st_sr}
    try:
        links = {name: FadingParams(*link) for name, link in links.items() if link is not None}
        return SystemConfig(ideal=ideal, **fields, **links)
    except ValueError:
        return None


class TestLibraryContract:
    """Every `SystemConfig` that constructs can be swept, simulated and validated.

    Fields are drawn as the CLI fuzz draws config values (log-uniform across
    the whole float range, or edge values), with small links, and the taus
    from the same values in (0, 1). A sweep or a simulation either gives
    finite values or raises `ValueError`; `validate.run` gives its nine
    verdicts or raises `validate.Refused`; nothing else escapes and no numpy
    warning is raised.
    """

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(**drawn_configs,
           taus=st.lists(magnitudes.filter(lambda t: 0.0 < t < 1.0), min_size=1, max_size=3))
    def test_constructed_config_computes(self, fields, ideal, pb_st, st_sr, taus):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = _drawn_config(fields, ideal, pb_st, st_sr)
            if cfg is None:
                return
            try:
                columns = analysis.sweep_columns(cfg, taus)
            except ValueError:
                pass
            else:
                d_star = columns.pop("d_star")
                assert (d_star >= 0.0).all()
                assert all(np.isfinite(column).all() for column in columns.values()), columns
            try:
                estimates = sim.run_sweep(cfg, taus, 2, 2, 1)
            except ValueError:
                return
            for estimate in estimates:
                assert all(math.isfinite(v) for v in dataclasses.astuple(estimate)), estimate

    # one validate job takes about 0.3 s; 5 of these 20 drawn configs construct
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**drawn_configs)
    # an SNR past every float (N0 = -3062 dBm), and a closed form that is not finite
    @example(fields={"noise_power": 6.3e-310, "d_st_sr": 1.0}, ideal=True, pb_st=None, st_sr=None)
    @example(fields={"alpha_pb_st": 0.01}, ideal=True, pb_st=None, st_sr=None)
    def test_constructed_config_validates(self, fields, ideal, pb_st, st_sr):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = _drawn_config(fields, ideal, pb_st, st_sr)
            if cfg is None:
                return
            try:
                code, text = validate.run(cfg)
            except validate.Refused as exc:
                assert "at tau = " in str(exc)
                return
        verdicts = text.splitlines()
        assert [v.split()[1] for v in verdicts] == [name for name, _ in validate.SUITES]
        assert code == (1 if any(v.startswith("FAIL") for v in verdicts) else 0), text
