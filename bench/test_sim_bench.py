"""Layer benchmarks of the simulator, run with pytest-benchmark.

    python -m pytest bench --benchmark-json=BENCH_<n>.json

The directory sits outside ``testpaths``, so the tier-1 suite does not run
it. The slot-loop cases replace the stream set-up, the harvest chunks and
the ST-SR link bits with values drawn once beforehand, so they time the slot
loop and the reduction alone. Sizes:

- streams: 500 placements x 1 100 slots (one mc-sweep setup's draw), read
  chunk by chunk, then the ST-SR link bits;
- 1-tau loop: 200 x 27 500 (the mc-long budget: 25 000 slots + warm-up);
- 9-tau loop: 9 taus x 500 x 1 100 (one mc-sweep setup);
- ``run_sweep`` end to end at 9 taus x 500 x 1 000.
"""

import pytest

from ehcr import sim
from ehcr.analysis import SystemConfig

CFG = SystemConfig()
SWEEP_TAUS = [0.1 * i for i in range(1, 10)]
SEED = 1

# single rounds of these cases spread widely; fifteen give a stable median
pytestmark = pytest.mark.benchmark(min_rounds=15)


def _draw(n_placements, n_slots):
    """Distances, every harvest chunk and the ST-SR link bits of one stream draw."""
    warmup = sim.warmup_slots(n_slots)
    n_total = warmup + n_slots
    distances, uniform_states, gens = sim.placement_streams(CFG, n_placements, n_total, SEED)
    edges, _ = sim._slot_edges(n_total, warmup)
    chunks = [
        (lo, gains.copy())
        for lo, gains in sim._gain_chunks(CFG.fading_pb_st, uniform_states, gens, edges)
    ]
    return distances, chunks, sim._link_bits(CFG, gens, warmup, n_total)


def _predrawn(monkeypatch, n_placements, n_slots):
    distances, chunks, link = _draw(n_placements, n_slots)
    monkeypatch.setattr(sim, "placement_streams", lambda *args: (distances, None, None))
    monkeypatch.setattr(sim, "_gain_chunks", lambda *args: iter(chunks))
    monkeypatch.setattr(sim, "_link_bits", lambda *args: link)


def test_placement_streams(benchmark):
    distances, chunks, link = benchmark(_draw, 500, 1_000)
    assert sum(len(gains) for _, gains in chunks) == 1_100
    assert link.shape == (125, 500)


def test_slot_loop_one_tau(benchmark, monkeypatch):
    _predrawn(monkeypatch, 200, 25_000)
    est = benchmark(sim.run, CFG, 200, 25_000, SEED)
    assert 0.0 < est.p_tr_hat < 1.0


def test_slot_loop_nine_taus(benchmark, monkeypatch):
    _predrawn(monkeypatch, 500, 1_000)
    estimates = benchmark(sim.run_sweep, CFG, SWEEP_TAUS, 500, 1_000, SEED)
    assert len(estimates) == len(SWEEP_TAUS)


def test_run_sweep_end_to_end(benchmark):
    estimates = benchmark(sim.run_sweep, CFG, SWEEP_TAUS, 500, 1_000, SEED)
    assert len(estimates) == len(SWEEP_TAUS)
