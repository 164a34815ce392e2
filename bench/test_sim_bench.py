"""Layer benchmarks of the simulator, run with pytest-benchmark.

    python -m pytest bench --benchmark-json=BENCH_<n>.json

The directory sits outside ``testpaths``, so the tier-1 suite does not run
it. The slot-loop cases replace ``sim.placement_streams`` with streams drawn
once beforehand, so they time the slot loop and the reduction alone, the
same way on any version that keeps ``run``'s signature. Sizes:

- streams: 500 placements x 1 100 slots (one mc-sweep setup's draw);
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


def _predrawn(monkeypatch, n_placements, n_slots):
    streams = sim.placement_streams(CFG, n_placements, sim.warmup_slots(n_slots) + n_slots, SEED)
    monkeypatch.setattr(sim, "placement_streams", lambda *args: streams)


def test_placement_streams(benchmark):
    distances, gains_p, gains_s = benchmark(sim.placement_streams, CFG, 500, 1_100, SEED)
    assert gains_p.shape == gains_s.shape == (500, 1_100)


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
