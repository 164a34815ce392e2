"""Layer benchmarks of the fading law and the closed forms, run with pytest-benchmark.

Sizes:

- ``fading.sample``: 1e6 draws of the default harvest link (20 components);
- ``fading.component_index``: 2 048 fresh uniforms a call, drawing them
  included, the simulator's chunk of harvest slots, at L = 1 (20
  components) and L = 16 (5 components);
- ``fading.survival``: 1e5 points on [0, 10], and one scalar;
- ``fading.pdf``: one scalar, and 3 072 points;
- ``numerics.integrate_adaptive``: the mass of the L = 16 harvest law's
  density on [0, 50], as validate's ``fading-normalization`` suite takes it;
- ``analysis.evaluate``: one point at the default configuration;
- ``analysis.sweep_columns``: 19 taus, 0.05 to 0.95, and the 999 taus of
  perfbench's analytic-grid workload at seed 1;
- ``cli.build_config`` of the config keys at L = 16, non-ideal, the rest
  left to the library's defaults;
- ``ehcr analyze`` through ``cli.main`` on those 999 taus, CSV to stdout;
- ``RunReport.to_csv`` of the 999-row ``ehcr analyze`` report on that grid;
- ``ehcr validate`` through ``cli.main`` at the default configuration;
- validate's ``fading-normalization`` suite (the pdf mass of each link),
  ``sim-model-agreement`` suite (both simulator modes at
  500 placements × 500 slots), ``sim-conservation`` suite (500 slots of
  one buffer against the rule, and two runs of 50 placements × 200
  slots), ``jensen-bounds`` suite (1e6 samples of
  each link, each from its own stream, drawn in step with both capacities
  in chunks of 65 536), ``fading-sampler-ks`` suite (a KS test
  of 1e5 draws of each link) and ``phi-closed-vs-quadrature`` suite (phi1
  and phi2 at nine taus, closed form and quadrature) at the default
  configuration;
- ``import ehcr.cli`` in a fresh interpreter, start-up of the interpreter
  included, once per round.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SWEEP_TAUS = [0.05 * i for i in range(1, 20)]
# perfbench's analytic-grid at seed 1: 999 taus, 0.001 apart
ANALYTIC_GRID = "0.000501:0.998501:0.001"


def test_fading_sample(benchmark, ehcr):
    p = ehcr.analysis.SystemConfig().fading_pb_st
    draws = benchmark(lambda: ehcr.fading.sample(p, np.random.default_rng(1), 1_000_000))
    assert draws.shape == (1_000_000,)


@pytest.mark.parametrize("antennas", [1, 16])
def test_component_index(benchmark, ehcr, antennas):
    # fresh uniforms every call, as the chunk reader has them: on one reused
    # array the branch predictor learns searchsorted's path and hides its cost
    p = ehcr.fading.FadingParams(7.0, antennas, 20)
    gen = np.random.default_rng(1)
    j = benchmark(lambda: ehcr.fading.component_index(p, gen.random(2048)))
    assert j.shape == (2048,)
    u = gen.random(2048)
    expected = p._weight_cdf.searchsorted(u, side="right")
    assert np.array_equal(ehcr.fading.component_index(p, u), expected)


def test_fading_survival(benchmark, ehcr):
    points = np.linspace(0.0, 10.0, 100_000)
    sf = benchmark(ehcr.fading.survival, ehcr.analysis.SystemConfig().fading_pb_st, points)
    assert sf[0] == 1.0 and sf[-1] < 1e-6


def test_fading_survival_scalar(benchmark, ehcr):
    sf = benchmark(ehcr.fading.survival, ehcr.analysis.SystemConfig().fading_pb_st, 1.3)
    assert 0.0 < sf < 1.0


def test_fading_pdf_scalar(benchmark, ehcr):
    density = benchmark(ehcr.fading.pdf, ehcr.analysis.SystemConfig().fading_pb_st, 1.3)
    assert density > 0.0


def test_fading_pdf_array(benchmark, ehcr):
    points = np.linspace(0.0, 10.0, 3072)
    density = benchmark(ehcr.fading.pdf, ehcr.analysis.SystemConfig().fading_pb_st, points)
    assert density.shape == (3072,) and density[-1] < 1e-6


def test_integrate_adaptive_pdf_mass(benchmark, ehcr):
    p = ehcr.fading.FadingParams(7.0, 16, 20)
    mass = benchmark(ehcr.numerics.integrate_adaptive, lambda x: ehcr.fading.pdf(p, x), 0.0, 50.0)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_evaluate(benchmark, ehcr):
    # `bench/ab.py` also runs this case on a base whose `evaluate` returned
    # another type, so the check reads a float that both sides give
    cfg = ehcr.analysis.SystemConfig()
    benchmark(ehcr.analysis.evaluate, cfg)
    assert 0.0 < ehcr.analysis.outage_probability(cfg) < 1.0


def test_sweep_nineteen_taus(benchmark, ehcr):
    columns = benchmark(ehcr.analysis.sweep_columns, ehcr.analysis.SystemConfig(), SWEEP_TAUS)
    assert len(columns["p_out"]) == len(SWEEP_TAUS)


def test_sweep_analytic_grid(benchmark, ehcr):
    taus = ehcr.cli.parse_tau_grid(ANALYTIC_GRID)
    columns = benchmark(ehcr.analysis.sweep_columns, ehcr.analysis.SystemConfig(), taus)
    assert len(columns["p_out"]) == 999


def test_build_config(benchmark, ehcr):
    values = {**ehcr.cli.CONFIG_DEFAULTS, "L": 16, "ideal": False}
    cfg = benchmark(ehcr.cli.build_config, values)
    assert cfg == ehcr.analysis.SystemConfig(
        ideal=False, fading_pb_st=ehcr.fading.FadingParams(7.0, 16, 20))


def test_cli_analyze_end_to_end(benchmark, ehcr, capsys):
    def job():
        code = ehcr.cli.main(["analyze", "--tau-grid", ANALYTIC_GRID])
        capsys.readouterr()
        return code

    assert benchmark(job) == 0


def test_to_csv_analytic_grid(benchmark, ehcr):
    taus = ehcr.cli.parse_tau_grid(ANALYTIC_GRID)
    report = ehcr.cli.cmd_analyze(ehcr.analysis.SystemConfig(), taus)
    text = benchmark(report.to_csv)
    assert text.count("\n") == 1000


def test_cli_validate_end_to_end(benchmark, ehcr, capsys):
    def job():
        code = ehcr.cli.main(["validate"])
        capsys.readouterr()
        return code

    assert benchmark(job) == 0


def test_cold_import_cli(benchmark, ehcr):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ehcr.cli.__file__).resolve().parents[1])}

    def job():
        return subprocess.run([sys.executable, "-c", "import ehcr.cli"], env=env).returncode

    assert benchmark(job) == 0


def test_suite_fading_normalization(benchmark, ehcr):
    assert benchmark(ehcr.validate.fading_normalization, ehcr.analysis.SystemConfig()) == []


def test_suite_sim_model_agreement(benchmark, ehcr):
    notes = benchmark(ehcr.validate.sim_model_agreement, ehcr.analysis.SystemConfig())
    assert len(notes) == 1 and notes[0].startswith("INFO")


def test_suite_sim_conservation(benchmark, ehcr):
    assert benchmark(ehcr.validate.sim_conservation, ehcr.analysis.SystemConfig()) == []


def test_suite_jensen_bounds(benchmark, ehcr):
    assert benchmark(ehcr.validate.jensen_bounds, ehcr.analysis.SystemConfig()) == []


def test_suite_fading_sampler_ks(benchmark, ehcr):
    assert benchmark(ehcr.validate.fading_sampler, ehcr.analysis.SystemConfig()) == []


def test_suite_phi_closed_vs_quadrature(benchmark, ehcr):
    assert benchmark(ehcr.validate.phi_closed_vs_quadrature, ehcr.analysis.SystemConfig()) == []
