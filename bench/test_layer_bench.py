"""Layer benchmarks of the fading law and the closed forms, run with pytest-benchmark.

Sizes:

- ``fading.sample``: 1e6 draws of the default harvest link (20 components);
- ``fading.component_index``: 2 048 fresh uniforms a call, drawing them
  included, the simulator's chunk of harvest slots, at L = 1 (20
  components) and L = 16 (5 components);
- ``fading.survival``: 1e5 points on [0, 10], and one scalar;
- ``fading.pdf``: one scalar (as quadrature calls it), and 3 072 points;
- ``analysis.evaluate``: one point at the default configuration;
- ``analysis.sweep``: 19 taus, 0.05 to 0.95, and the 999 taus of
  perfbench's analytic-grid workload at seed 1;
- ``ehcr analyze`` through ``cli.main`` on those 999 taus, CSV to stdout;
- ``ehcr validate`` through ``cli.main`` at the default configuration;
- validate's ``sim-model-agreement`` suite (both simulator modes at
  500 placements × 500 slots) and ``jensen-bounds`` suite (1e6 samples of
  each link) at the default configuration;
- ``import ehcr.cli`` in a fresh interpreter, start-up of the interpreter
  included, once per round.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ehcr import analysis, cli, fading
from ehcr.analysis import SystemConfig
from ehcr.fading import FadingParams

CFG = SystemConfig()
SWEEP_TAUS = [0.05 * i for i in range(1, 20)]
# perfbench's analytic-grid at seed 1: 999 taus, 0.001 apart
ANALYTIC_GRID = "0.000501:0.998501:0.001"


def test_fading_sample(benchmark):
    draws = benchmark(lambda: fading.sample(CFG.fading_pb_st, np.random.default_rng(1), 1_000_000))
    assert draws.shape == (1_000_000,)


@pytest.mark.parametrize("antennas", [1, 16])
def test_component_index(benchmark, antennas):
    # fresh uniforms every call, as the chunk reader has them: on one reused
    # array the branch predictor learns searchsorted's path and hides its cost
    p = FadingParams(7.0, antennas, 20)
    gen = np.random.default_rng(1)
    j = benchmark(lambda: fading.component_index(p, gen.random(2048)))
    assert j.shape == (2048,)
    u = gen.random(2048)
    assert np.array_equal(fading.component_index(p, u), p._weight_cdf.searchsorted(u, side="right"))


def test_fading_survival(benchmark):
    points = np.linspace(0.0, 10.0, 100_000)
    sf = benchmark(fading.survival, CFG.fading_pb_st, points)
    assert sf[0] == 1.0 and sf[-1] < 1e-6


def test_fading_survival_scalar(benchmark):
    sf = benchmark(fading.survival, CFG.fading_pb_st, 1.3)
    assert 0.0 < sf < 1.0


def test_fading_pdf_scalar(benchmark):
    density = benchmark(fading.pdf, CFG.fading_pb_st, 1.3)
    assert density > 0.0


def test_fading_pdf_array(benchmark):
    points = np.linspace(0.0, 10.0, 3072)
    density = benchmark(fading.pdf, CFG.fading_pb_st, points)
    assert density.shape == (3072,) and density[-1] < 1e-6


def test_evaluate(benchmark):
    point = benchmark(analysis.evaluate, CFG)
    assert 0.0 < point.p_out < 1.0


def test_sweep_nineteen_taus(benchmark):
    points = benchmark(analysis.sweep, CFG, SWEEP_TAUS)
    assert len(points) == len(SWEEP_TAUS)


def test_sweep_analytic_grid(benchmark):
    taus = cli.parse_tau_grid(ANALYTIC_GRID)
    points = benchmark(analysis.sweep, CFG, taus)
    assert len(points) == 999


def test_cli_analyze_end_to_end(benchmark, capsys):
    def job():
        code = cli.main(["analyze", "--tau-grid", ANALYTIC_GRID])
        capsys.readouterr()
        return code

    assert benchmark(job) == 0


def test_cli_validate_end_to_end(benchmark, capsys):
    def job():
        code = cli.main(["validate"])
        capsys.readouterr()
        return code

    assert benchmark(job) == 0


def test_cold_import_cli(benchmark):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}

    def job():
        return subprocess.run([sys.executable, "-c", "import ehcr.cli"], env=env).returncode

    assert benchmark(job) == 0


def test_suite_sim_model_agreement(benchmark):
    notes = benchmark(cli._suite_sim_model_agreement, CFG, 1.0)
    assert len(notes) == 1 and notes[0].startswith("INFO")


def test_suite_jensen_bounds(benchmark):
    assert benchmark(cli._suite_jensen_bounds, CFG, 1.0) == []
