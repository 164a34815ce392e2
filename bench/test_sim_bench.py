"""Layer benchmarks of the simulator, run with pytest-benchmark.

    python -m pytest bench --benchmark-json=BENCH_<n>.json

The directory sits outside ``testpaths``, so the tier-1 suite does not run
it. The slot-loop cases replace the stream set-up, the harvest chunks and
the ST-SR link draw with values drawn once beforehand, so they time the slot
loop and the reduction alone. Sizes:

- streams: 500 placements x 1 100 slots (one mc-sweep setup's draw), read
  chunk by chunk;
- long harvest read: the harvest chunks of 200 placements x 27 500 slots
  (the mc-long budget), each dropped once read;
- link draw: the ST-SR link gains of 200 placements at the transmit counts
  of the mc-long budget (tau = 0.5, 25 000 slots);
- 1-tau loop: 200 x 27 500 (the mc-long budget: 25 000 slots + warm-up);
- 9-tau loop: 9 taus x 500 x 1 100 (one mc-sweep setup);
- ``run_sweep`` end to end at 9 taus x 500 x 1 000;
- ``ehcr simulate`` end to end through ``cli.main`` at 9 taus x 500 x 1 000.
"""

import numpy as np
import pytest

SWEEP_TAUS = [0.1 * i for i in range(1, 10)]
SEED = 1

# single rounds of these cases spread widely; fifteen give a stable median
ROUNDS = 15
pytestmark = pytest.mark.benchmark(min_rounds=ROUNDS)


def _chunk_edges(sim, n_total):
    return [*range(0, n_total, sim._CHUNK), n_total]


def _streams(ehcr, n_placements, n_total):
    """Distances, every harvest chunk, and the generators standing at the link streams."""
    sim, cfg = ehcr.sim, ehcr.analysis.SystemConfig()
    distances, readers, gens = sim.placement_streams(cfg, n_placements, n_total, SEED)
    chunks = [
        (lo, gains.copy())
        for lo, gains in sim._gain_chunks(cfg.fading_pb_st, readers, gens,
                                          _chunk_edges(sim, n_total))
    ]
    return distances, chunks, gens


def _draw(ehcr, taus, n_placements, n_slots):
    """One buffer-mode run's stream draw: distances, harvest chunks, link successes."""
    sim, cfg = ehcr.sim, ehcr.analysis.SystemConfig()
    warmup = sim.warmup_slots(n_slots)
    n_total = warmup + n_slots
    distances, chunks, gens = _streams(ehcr, n_placements, n_total)
    tx = np.zeros((len(taus), n_placements), dtype=np.int64)
    sim._buffer_counts(cfg, np.asarray(taus), distances, chunks, warmup, tx)
    successes = list(sim._link_successes(cfg, gens, n_total, tx.max(axis=0)))
    return distances, chunks, successes


def _predrawn(ehcr, monkeypatch, taus, n_placements, n_slots):
    distances, chunks, successes = _draw(ehcr, taus, n_placements, n_slots)
    monkeypatch.setattr(ehcr.sim, "placement_streams", lambda *args: (distances, None, None))
    monkeypatch.setattr(ehcr.sim, "_gain_chunks", lambda *args: iter(chunks))
    monkeypatch.setattr(ehcr.sim, "_link_successes", lambda *args: iter(successes))


def test_placement_streams(benchmark, ehcr):
    distances, chunks, gens = benchmark(_streams, ehcr, 500, 1_100)
    assert len(distances) == len(gens) == 500
    assert sum(len(gains) for _, gains in chunks) == 1_100


def test_harvest_read_long(benchmark, ehcr):
    sim, cfg = ehcr.sim, ehcr.analysis.SystemConfig()
    n_total = sim.warmup_slots(25_000) + 25_000

    def fresh_streams():
        _, readers, gens = sim.placement_streams(cfg, 200, n_total, SEED)
        return (cfg.fading_pb_st, readers, gens, _chunk_edges(sim, n_total)), {}

    def read(*args):
        return sum(len(gains) for _, gains in sim._gain_chunks(*args))

    assert benchmark.pedantic(read, setup=fresh_streams, rounds=ROUNDS) == n_total


def test_link_draw(benchmark, ehcr):
    sim, cfg = ehcr.sim, ehcr.analysis.SystemConfig()
    n_slots = 25_000
    n_total = sim.warmup_slots(n_slots) + n_slots
    _, _, successes = _draw(ehcr, [cfg.tau], 200, n_slots)
    most = np.array([len(s) - 1 for s in successes])

    def fresh_generators():
        # the link draw's cost does not depend on where a generator stands
        gens = [np.random.default_rng(np.random.SeedSequence([SEED, i])) for i in range(200)]
        return (cfg, gens, n_total, most), {}

    def draw(*args):
        return [s[-1] for s in sim._link_successes(*args)]

    totals = benchmark.pedantic(draw, setup=fresh_generators, rounds=ROUNDS)
    assert 0 < sum(totals) <= most.sum()


def test_slot_loop_one_tau(benchmark, ehcr, monkeypatch):
    cfg = ehcr.analysis.SystemConfig()
    _predrawn(ehcr, monkeypatch, [cfg.tau], 200, 25_000)
    est = benchmark(ehcr.sim.run, cfg, 200, 25_000, SEED)
    assert 0.0 < est.p_tr_hat < 1.0


def test_slot_loop_nine_taus(benchmark, ehcr, monkeypatch):
    _predrawn(ehcr, monkeypatch, SWEEP_TAUS, 500, 1_000)
    estimates = benchmark(ehcr.sim.run_sweep, ehcr.analysis.SystemConfig(), SWEEP_TAUS, 500,
                          1_000, SEED)
    assert len(estimates) == len(SWEEP_TAUS)


def test_run_sweep_end_to_end(benchmark, ehcr):
    estimates = benchmark(ehcr.sim.run_sweep, ehcr.analysis.SystemConfig(), SWEEP_TAUS, 500,
                          1_000, SEED)
    assert len(estimates) == len(SWEEP_TAUS)


def test_cli_simulate_end_to_end(benchmark, ehcr, capsys):
    def job():
        code = ehcr.cli.main(["simulate", "--tau-grid", "0.1:0.9:0.1", "--placements", "500",
                         "--slots", "1000", "--seed", str(SEED)])
        capsys.readouterr()
        return code

    assert benchmark(job) == 0
