"""Command-line front end: config ingestion, sweeps, simulation, validation.

Config files are flat ``key = value`` lines with ``#`` comments. Powers are
given in dBm (key suffix ``_dbm``), distances in meters, the frame duration
in seconds and the rate in bps/Hz; all internal computation is in SI units.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
import time

import numpy as np

from . import analysis, fading, numerics, sim
from .analysis import SystemConfig
from .fading import FadingParams
from .numerics import AccuracySpec

SIM_COLUMNS = ("p_tr_mc", "p_out_mc", "thr_mc", "ci99_ptr", "ci99_pout")
# the `sim.SimEstimate` field behind each of SIM_COLUMNS
_ESTIMATE_FIELDS = ("p_tr_hat", "p_out_hat", "throughput_hat", "ci99_p_tr", "ci99_p_out")

CONFIG_DEFAULTS = {
    "P_b_dbm": 33.0,
    "M_dbm": 20.0,
    "N0_dbm": -101.0,
    "P_c_dbm": -30.0,
    "eta": 0.85,
    "tau": 0.5,
    "T": 1.0,
    "R": 1.0,
    "alpha": 2.4,
    "alpha_s": 3.0,
    "d_min": 1.0,
    "d_max": 15.0,
    "d_stsr": 30.0,
    "rho": 1.2,
    "L": 1,
    "K": 7.0,
    "m": 20,
    "K_s": None,  # ST-SR link overrides; default to K and m
    "m_s": None,
    "ideal": True,
}

_INT_KEYS = {"L", "m", "m_s"}
_BOOL_KEYS = {"ideal"}

DEFAULT_TAU_GRID = "0.05:0.95:0.05"
_CSV_BLOCK_ROWS = 128


class ConfigError(Exception):
    """Malformed or inconsistent configuration input."""


@dataclasses.dataclass
class RunReport:
    """Sweep output plus provenance: config echo, columns, verdicts, timing.

    ``columns`` maps each output column, in CSV order, to a float array with
    one entry per row, as `analysis.sweep_columns` returns them; ``rows`` is
    the per-row view of the same values.
    """

    config: dict
    columns: dict
    validation: list
    duration_s: float

    @property
    def rows(self) -> list:
        names = list(self.columns)
        return [dict(zip(names, row)) for row in zip(*(c.tolist() for c in self.columns.values()))]

    def to_csv(self) -> str:
        table = np.column_stack(list(self.columns.values()))
        if not len(table):
            return ""
        line = ",".join(["%.17e"] * table.shape[1]) + "\n"
        out = io.StringIO()
        out.write(",".join(self.columns) + "\n")
        # one `%` per block of rows, so only one block's float objects are alive at a time
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            out.write(line * len(block) % tuple(block.ravel().tolist()))
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "rows": self.rows,
                "validation": self.validation,
                "duration_s": self.duration_s,
            },
            indent=2,
            allow_nan=False,
        )


def rows_from_csv(text: str) -> list:
    """Inverse of RunReport.to_csv; exact float round trip."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    columns = lines[0].split(",")
    return [
        {c: float(v) for c, v in zip(columns, ln.split(","))} for ln in lines[1:]
    ]


def _parse_value(key: str, raw: str, lineno: int):
    if key in _BOOL_KEYS:
        low = raw.strip().lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"line {lineno}: boolean expected for {key}, got {raw!r}")
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    values = dict(CONFIG_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    return values


def build_config(values: dict) -> SystemConfig:
    k_s = values["K_s"] if values["K_s"] is not None else values["K"]
    m_s = values["m_s"] if values["m_s"] is not None else values["m"]
    try:
        link_pb_st = FadingParams(rician_k=values["K"], mu=values["L"], m=values["m"])
        link_st_sr = FadingParams(rician_k=k_s, mu=1, m=m_s)
        return SystemConfig(
            p_beacon=numerics.dbm_to_watts(values["P_b_dbm"]),
            p_st=numerics.dbm_to_watts(values["M_dbm"]),
            eta=values["eta"],
            tau=values["tau"],
            t_frame=values["T"],
            noise_power=numerics.dbm_to_watts(values["N0_dbm"]),
            rate=values["R"],
            alpha_pb_st=values["alpha"],
            alpha_st_sr=values["alpha_s"],
            d_min=values["d_min"],
            d_max=values["d_max"],
            d_st_sr=values["d_stsr"],
            rho=values["rho"],
            p_circuit=numerics.dbm_to_watts(values["P_c_dbm"]),
            ideal=values["ideal"],
            fading_pb_st=link_pb_st,
            fading_st_sr=link_st_sr,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _read_config_values(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def load_config(path: str) -> SystemConfig:
    """Read a key=value file; missing keys take the built-in defaults."""
    return build_config(_read_config_values(path))


def config_echo(cfg: SystemConfig) -> dict:
    echo = {
        "p_beacon_w": cfg.p_beacon,
        "p_st_w": cfg.p_st,
        "eta": cfg.eta,
        "t_frame_s": cfg.t_frame,
        "noise_w": cfg.noise_power,
        "rate_bps_hz": cfg.rate,
        "alpha_pb_st": cfg.alpha_pb_st,
        "alpha_st_sr": cfg.alpha_st_sr,
        "d_min_m": cfg.d_min,
        "d_max_m": cfg.d_max,
        "d_st_sr_m": cfg.d_st_sr,
        "rho": cfg.rho,
        "p_circuit_w": cfg.p_circuit,
        "ideal": cfg.ideal,
        "pb_st_link": {
            "rician_k": cfg.fading_pb_st.rician_k,
            "mu": cfg.fading_pb_st.mu,
            "m": cfg.fading_pb_st.m,
        },
        "st_sr_link": {
            "rician_k": cfg.fading_st_sr.rician_k,
            "mu": cfg.fading_st_sr.mu,
            "m": cfg.fading_st_sr.m,
        },
    }
    return echo


def parse_tau_grid(spec: str) -> list:
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(f"bad tau grid {spec!r}; expected a:b:step") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"bad tau grid {spec!r}; a, b and step must be finite")
    if step <= 0.0 or stop < start:
        raise ConfigError(f"bad tau grid {spec!r}; need step > 0 and b >= a")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    grid = [start + i * step for i in range(n)]
    for t in grid:
        if not 0.0 < t < 1.0:
            raise ConfigError(f"tau grid value {t} outside (0, 1)")
    return grid


def cmd_analyze(cfg: SystemConfig, tau_grid) -> RunReport:
    """Analytic sweep; one CSV row per switching-time value."""
    started = time.perf_counter()
    try:
        columns = analysis.sweep_columns(cfg, tau_grid)
    except ValueError as exc:
        raise ConfigError(f"invalid tau grid: {exc}") from exc
    return RunReport(
        config=config_echo(cfg),
        columns=columns,
        validation=[],
        duration_s=time.perf_counter() - started,
    )


def cmd_simulate(
    cfg: SystemConfig,
    tau_grid,
    n_placements: int,
    n_slots: int,
    seed: int,
) -> RunReport:
    """Analytic sweep plus Monte Carlo columns, deterministic in the seed."""
    report = cmd_analyze(cfg, tau_grid)
    started = time.perf_counter()
    estimates = sim.run_sweep(cfg, tau_grid, n_placements, n_slots, seed)
    for name, field in zip(SIM_COLUMNS, _ESTIMATE_FIELDS):
        report.columns[name] = np.array([getattr(e, field) for e in estimates], dtype=float)
    report.duration_s += time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# validation suites


def _suite_numerics_reference(cfg, _fault):
    problems = []
    for s in [0.1 * i for i in range(1, 251, 10)]:
        ref = math.exp(numerics.log_gamma(s))
        val = numerics.upper_incomplete_gamma(s, 0.0)
        if abs(val - ref) > 1e-12 * ref:
            problems.append(f"Gamma(s,0) mismatch at s={s}")
        x = 0.5 + s
        lhs = numerics.upper_incomplete_gamma(s + 1.0, x)
        rhs = s * numerics.upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), 1e-300):
            problems.append(f"recurrence mismatch at s={s}")
    for n in range(1, 40):
        if abs(numerics.digamma_integer(n + 1) - numerics.digamma_integer(n) - 1.0 / n) > 1e-12:
            problems.append(f"digamma recurrence fails at n={n}")
    for x in (-20.0, 0.0, 13.0, 60.0):
        prod = numerics.dbm_to_watts(x) * numerics.dbm_to_watts(60.0 - x)
        if abs(prod - 1.0) > 1e-12:
            problems.append(f"dBm log-linearity fails at {x}")
    return problems


def _suite_fading_weights(cfg, fault):
    problems = []
    for name, link in (("pb_st", cfg.fading_pb_st), ("st_sr", cfg.fading_st_sr)):
        link = link._with_scaled_omega(fault)
        if abs(math.fsum(link.weights) - 1.0) > 1e-12:
            problems.append(f"{name}: mixture weights do not sum to 1")
        mean = math.fsum(
            w * mj * link.omega for w, mj in zip(link.weights, link.shapes)
        )
        if abs(mean - 1.0) > 1e-12:
            problems.append(f"{name}: unit-mean identity violated (mean={mean:.6g})")
    return problems


def _suite_fading_normalization(cfg, fault):
    problems = []
    acc = AccuracySpec(1e-10, 200)
    for name, link in (("pb_st", cfg.fading_pb_st), ("st_sr", cfg.fading_st_sr)):
        link = link._with_scaled_omega(fault)
        mass = numerics.integrate_adaptive(lambda x: fading.pdf(link, x), 0.0, 50.0, acc)
        if abs(mass - 1.0) > 1e-9:
            problems.append(f"{name}: pdf mass {mass:.12g} != 1")
    return problems


def _suite_fading_sampler(cfg, _fault):
    # imported here, so that analyze, simulate and range load no scipy.stats
    from scipy import stats

    problems = []
    gen = np.random.default_rng(20260824)
    for name, link in (("pb_st", cfg.fading_pb_st), ("st_sr", cfg.fading_st_sr)):
        draws = fading.sample(link, gen, size=100_000)
        result = stats.kstest(draws, lambda x: fading.cdf(link, x))
        if result.pvalue <= 0.01:
            problems.append(f"{name}: KS p-value {result.pvalue:.4g} <= 0.01")
    return problems


def _suite_phi_closed_vs_quadrature(cfg, _fault):
    problems = []
    for tau in [0.1 * i for i in range(1, 10)]:
        c = cfg.with_tau(tau)
        for label, closed, oracle in (
            ("phi1", analysis.phi1(c), analysis.phi1_quadrature(c)),
            ("phi2", analysis.phi2(c), analysis.phi2_quadrature(c)),
        ):
            tol = 1e-7 * max(abs(oracle), 1e-12)
            if abs(closed - oracle) > tol:
                problems.append(
                    f"{label} at tau={tau:.1f}: closed {closed:.12g} vs quad {oracle:.12g}"
                )
    return problems


def _suite_jensen_bounds(cfg, _fault):
    problems = []
    gen = np.random.default_rng(7_031)
    n = 1_000_000
    gp = fading.sample(cfg.fading_pb_st, gen, size=n)
    gs = fading.sample(cfg.fading_st_sr, gen, size=n)
    d_mid = 0.5 * (cfg.d_min + cfg.d_max)

    def exceeds(bound, snr):
        # the capacity tau * log2(1 + snr), in place in the snr samples
        snr += 1.0
        np.log2(snr, out=snr)
        snr *= cfg.tau
        return bound > snr.mean() + 3.0 * snr.std() / math.sqrt(n)

    # eta P_b (1 - tau) gp gs / (tau N0 d_mid^a d_stsr^a_s), in gp's buffer
    snr = gp
    snr *= cfg.eta * cfg.p_beacon * (1.0 - cfg.tau)
    snr *= gs
    snr /= cfg.tau * cfg.noise_power * d_mid**cfg.alpha_pb_st * cfg.d_st_sr**cfg.alpha_st_sr
    if exceeds(analysis.capacity_lower_bound(cfg, d_mid), snr):
        problems.append("harvested-power Jensen bound exceeds Monte Carlo mean")
    np.multiply(cfg.p_st, gs, out=snr)
    snr /= cfg.noise_power * cfg.d_st_sr**cfg.alpha_st_sr
    if exceeds(analysis.benchmark_capacity_lower_bound(cfg), snr):
        problems.append("benchmark Jensen bound exceeds Monte Carlo mean")
    return problems


def _suite_j_magnitude(cfg, _fault):
    problems = []
    j2 = analysis.j_correction(cfg, 2, cfg.d_max)
    j3 = analysis.j_correction(cfg, 3, cfg.d_max)
    if j2 > 1e-5:
        problems.append(f"J(2, d_max) = {j2:.3g} > 1e-5")
    if j3 > 1e-7:
        problems.append(f"J(3, d_max) = {j3:.3g} > 1e-7")
    return problems


def _suite_sim_conservation(cfg, _fault):
    problems = []
    gen = np.random.default_rng(99)
    capacity = cfg.p_st_eff * cfg.t_frame
    consumption = cfg.tau * capacity
    d = sim.sample_distance(cfg, gen)
    path_gain = cfg.eta * cfg.t_frame * cfg.p_beacon / d**cfg.alpha_pb_st
    stored = np.array([capacity])
    idle, after_tx, level = np.empty(1), np.empty(1), np.empty(1)
    silent = np.empty(1, dtype=bool)
    for _ in range(500):
        gp = fading.sample(cfg.fading_pb_st, gen)
        was_full = stored[0] >= capacity
        harvest_scale = (1.0 - cfg.tau) if was_full else 1.0
        expected = min(
            capacity,
            stored[0] - (consumption if was_full else 0.0) + harvest_scale * path_gain * gp,
        )
        sim._slot_terms(
            capacity, consumption, path_gain, (1.0 - cfg.tau) * path_gain, gp, idle, after_tx
        )
        sim._step_slot(stored, capacity, idle, after_tx, silent, level)
        if stored[0] != expected:
            problems.append("per-slot energy bookkeeping mismatch")
            break
        if not 0.0 <= stored[0] <= capacity:
            problems.append("buffer bounds violated")
            break
    a = sim.run(cfg, 50, 200, seed=5)
    b = sim.run(cfg, 50, 200, seed=5)
    if a != b:
        problems.append("simulator is not deterministic for a fixed seed")
    return problems


def _suite_sim_model_agreement(cfg, _fault):
    # The renewal-mode simulator integrates exactly the closed-form model,
    # so it must reproduce the analytic probabilities; the buffer-mode gap
    # (multi-slot accumulation) is reported but not gated here. Both modes
    # run on one draw of the placements and fades.
    problems = []
    point = analysis.evaluate(cfg)
    estimates = sim._sweep_modes(cfg, [cfg.tau], 500, 500, 11, sim.MODES)
    [renewal], [buffered] = estimates["slot-renewal"], estimates["buffer"]
    tol = max(2.0 * renewal.ci99_p_out, 0.02)
    if abs(renewal.p_out_hat - point.p_out) > tol:
        problems.append(
            f"slot-renewal p_out {renewal.p_out_hat:.4f} vs analytic {point.p_out:.4f}"
        )
    gap = buffered.p_tr_hat - point.p_tr
    problems.append(
        f"INFO buffer-mode accumulation surplus: p_tr {buffered.p_tr_hat:.4f}"
        f" vs closed form {point.p_tr:.4f} (gap {gap:+.4f})"
    )
    return problems


_SUITES = (
    ("numerics-reference", _suite_numerics_reference),
    ("fading-weights", _suite_fading_weights),
    ("fading-normalization", _suite_fading_normalization),
    ("fading-sampler-ks", _suite_fading_sampler),
    ("phi-closed-vs-quadrature", _suite_phi_closed_vs_quadrature),
    ("jensen-bounds", _suite_jensen_bounds),
    ("j-magnitude", _suite_j_magnitude),
    ("sim-conservation", _suite_sim_conservation),
    ("sim-model-agreement", _suite_sim_model_agreement),
)


def run_validation(cfg: SystemConfig, omega_fault_scale: float = 1.0, stream=None):
    """Run all invariant suites; returns (verdicts, exit_code)."""
    stream = stream if stream is not None else sys.stdout
    verdicts = []
    for name, suite in _SUITES:
        notes = suite(cfg, omega_fault_scale)
        infos = [n for n in notes if n.startswith("INFO")]
        failures = [n for n in notes if not n.startswith("INFO")]
        passed = not failures
        detail = "; ".join(failures + infos)
        verdicts.append({"name": name, "passed": passed, "detail": detail})
        line = f"{'PASS' if passed else 'FAIL'}  {name}"
        if detail:
            line += f"  [{detail}]"
        print(line, file=stream)
    return verdicts, (0 if all(v["passed"] for v in verdicts) else 1)


def cmd_validate(cfg: SystemConfig, omega_fault_scale: float = 1.0, stream=None) -> int:
    """Exit 0 iff every invariant suite passes."""
    _, code = run_validation(cfg, omega_fault_scale, stream)
    return code


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _add_common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--tau-grid", default=DEFAULT_TAU_GRID, metavar="A:B:STEP")
    parser.add_argument("--L", type=int, default=None, help="beacon antenna count")
    ideal = parser.add_mutually_exclusive_group()
    ideal.add_argument("--ideal", dest="ideal", action="store_true", default=None)
    ideal.add_argument("--non-ideal", dest="ideal", action="store_false")
    parser.add_argument("--rate", type=float, default=None, help="target rate, bps/Hz")
    parser.add_argument("--tau", type=float, default=None, help="switching time")
    parser.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehcr",
        description="Closed-form metrics and Monte Carlo validation for an "
        "energy-harvesting interweave secondary link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "analytic sweep over the switching-time grid"),
        ("simulate", "analytic sweep plus Monte Carlo estimates"),
        ("validate", "run all invariant suites"),
        ("range", "print the effective harvesting range in meters"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_options(p)
        if name == "simulate":
            p.add_argument("--placements", type=int, default=2000)
            p.add_argument("--slots", type=int, default=2000)
            p.add_argument("--seed", type=int, default=1)
    return parser


def _config_from_args(args) -> SystemConfig:
    values = _read_config_values(args.config) if args.config else dict(CONFIG_DEFAULTS)
    if args.L is not None:
        values["L"] = args.L
    if args.ideal is not None:
        values["ideal"] = args.ideal
    if args.rate is not None:
        values["R"] = args.rate
    if args.tau is not None:
        values["tau"] = args.tau
    return build_config(values)


def _write(text: str, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("range", "validate") and args.format == "json":
            raise ConfigError(f"{args.command} has no JSON form; use --format csv")
        cfg = _config_from_args(args)
        if args.command == "range":
            _write(format(analysis.effective_range(cfg), ".12g") + "\n", args)
            return 0
        if args.command == "validate":
            if not args.out:
                return cmd_validate(cfg)
            with open(args.out, "w", encoding="utf-8") as fh:
                return cmd_validate(cfg, stream=fh)
        tau_grid = parse_tau_grid(args.tau_grid)
        if args.command == "analyze":
            report = cmd_analyze(cfg, tau_grid)
        else:
            report = cmd_simulate(cfg, tau_grid, args.placements, args.slots, args.seed)
        if args.format == "csv":
            _write(report.to_csv(), args)
            return 0
        try:
            text = report.to_json()
        except ValueError as exc:  # JSON has no inf or NaN
            raise ConfigError(f"cannot write JSON: {exc}; use --format csv") from exc
        _write(text, args)
        return 0
    except (ConfigError, OSError, sim.SimConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
