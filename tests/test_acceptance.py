"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.
"""

import dataclasses
import math
import time

import numpy as np

from ehcr import analysis, cli, sim, validate
from ehcr.analysis import SystemConfig
from ehcr.fading import FadingParams

TAU_GRID = [i / 10 for i in range(1, 10)]
KS_MASTER_SEED = 8  # fixed so the 88-combo sampler check is reproducible


def default_config(**overrides) -> SystemConfig:
    return dataclasses.replace(SystemConfig(), **overrides)


def four_setups():
    for antennas in (1, 16):
        for ideal in (True, False):
            yield antennas, ideal, default_config(
                ideal=ideal, fading_pb_st=FadingParams(7.0, antennas, 20)
            )


def verdict(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_criterion_1_distribution_correctness():
    started = time.perf_counter()
    failures = []
    for k in (0.5, 7.0):
        for mu in (1, 2, 16):
            for m in range(mu, 21):
                law, name = FadingParams(k, mu, m), f"({k},{mu},{m})"
                gen = np.random.default_rng([KS_MASTER_SEED, int(k * 10), mu, m])
                failures += validate.law_weights(name, law) + validate.law_mass(name, law)
                failures += validate.law_sample(name, law, gen)
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    ok = verdict("1 distribution correctness", not failures,
                 f"88 combos, {elapsed:.1f}s")
    assert ok, failures


def test_criterion_2_closed_form_vs_quadrature():
    started = time.perf_counter()
    failures = [
        f"L={antennas} ideal={ideal} {note}"
        for antennas, ideal, base in four_setups()
        for note in validate.phi_closed_vs_quadrature(base)
    ]
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    ok = verdict("2 closed form vs quadrature oracle", not failures,
                 f"36 settings x 2 integrals, {elapsed:.1f}s")
    assert ok, failures


def test_criterion_3_effective_range_consistency():
    started = time.perf_counter()
    failures = []
    for tau in TAU_GRID:
        cfg = default_config(tau=tau)
        closed = analysis.effective_range(cfg)
        target = analysis.benchmark_capacity_lower_bound(cfg)
        lo, hi = 1e-6, 1e6
        for _ in range(120):
            mid = math.sqrt(lo * hi)
            if analysis.capacity_lower_bound(cfg, mid) > target:
                lo = mid
            else:
                hi = mid
        bisected = math.sqrt(lo * hi)
        if abs(closed - bisected) > 1e-8 * closed:
            failures.append(f"tau={tau}: {closed!r} vs {bisected!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    ok = verdict("3 effective range consistency", not failures, f"{elapsed:.2f}s")
    assert ok, failures


def test_criterion_4_analysis_simulation_agreement():
    # Faithful statement of the criterion against the energy-buffer ground
    # truth. It fails: multi-slot accumulation (neglected by the closed form,
    # whose correction term is evaluated under a unit-mean combined-gain law)
    # raises the simulated transmission probability well beyond the stated
    # tolerance at every grid point. The gap is reported per point.
    started = time.perf_counter()
    failures = []
    for antennas, ideal, base in four_setups():
        estimates = sim.run_sweep(base, TAU_GRID, 2000, 2000, seed=20260824)
        for tau, est in zip(TAU_GRID, estimates):
            p_out = analysis.outage_probability(base.with_tau(tau))
            gap = abs(est.p_out_hat - p_out)
            tol = max(2.0 * est.ci99_p_out, 0.02)
            if gap > tol:
                failures.append(
                    f"L={antennas} ideal={ideal} tau={tau:.1f}: analytic "
                    f"{p_out:.4f} vs simulated {est.p_out_hat:.4f} (gap {gap:.4f})"
                )
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    ok = verdict(
        "4 analysis-simulation agreement", not failures,
        f"{len(failures)} of 36 points out of tolerance, {elapsed:.0f}s",
    )
    assert ok, failures


def test_criterion_5_outage_trends():
    failures = []
    sweeps = {}
    for antennas, ideal, base in four_setups():
        sweeps[(antennas, ideal)] = [p.p_out for p in analysis.sweep(base, TAU_GRID)]
    for key, curve in sweeps.items():
        if not all(a < b for a, b in zip(curve, curve[1:])):
            failures.append(f"p_out not strictly increasing for {key}")
    for ideal in (True, False):
        if not all(
            m <= s for m, s in zip(sweeps[(16, ideal)], sweeps[(1, ideal)])
        ):
            failures.append(f"L=16 not pointwise better (ideal={ideal})")
    for antennas in (1, 16):
        if not all(
            n >= i for n, i in zip(sweeps[(antennas, False)], sweeps[(antennas, True)])
        ):
            failures.append(f"non-ideal not pointwise worse (L={antennas})")
    ok = verdict("5 outage trend reproduction", not failures)
    assert ok, failures


def test_criterion_6_throughput_trends():
    failures = []
    for rate in (1.0, 2.0, 3.0):
        curve = [
            p.throughput
            for p in analysis.sweep(default_config(rate=rate), TAU_GRID)
        ]
        if not all(a < b for a, b in zip(curve, curve[1:])):
            failures.append(f"throughput not increasing for rate={rate}")
    ok = verdict("6 throughput trend reproduction", not failures)
    assert ok, failures


def test_criterion_7_correction_term_magnitude():
    # J(2) <= 1e-5 and J(3) <= 1e-7 at d_max; a skipped J would be an INFO note
    notes = validate.j_magnitude(default_config())
    ok = verdict("7 correction-term magnitude", not notes, "; ".join(notes))
    assert ok, notes


def test_criterion_8_hardware_overhead_constant(tmp_path):
    path = tmp_path / "lossy.cfg"
    path.write_text("rho = 1.2\nP_c_dbm = -30\nM_dbm = 20\nT = 1e-3\nideal = false\n")
    cfg = cli.load_config(str(path))
    joules = cfg.p_st_eff * cfg.t_frame
    ok = verdict("8 hardware-overhead buffer size",
                 0.118e-3 <= joules <= 0.122e-3, f"{joules * 1e3:.6f} mJ")
    assert ok


def test_criterion_9_simulation_determinism(tmp_path):
    grid = [0.3, 0.6]
    cfg = default_config()
    a = cli.cmd_simulate(cfg, grid, 50, 120, seed=99).to_csv().encode()
    b = cli.cmd_simulate(cfg, grid, 50, 120, seed=99).to_csv().encode()
    ok = verdict("9 simulation determinism", a == b, f"{len(a)} bytes")
    assert ok
