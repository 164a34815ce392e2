"""Command-line front end: config ingestion, sweeps and simulation. A command's
text is written once it is whole, so a failed command writes only ``error:``.

Config files are flat UTF-8 ``key = value`` lines with ``#`` comments. Powers
are given in dBm (key suffix ``_dbm``), distances in meters, the frame duration
in seconds and the rate in bps/Hz; all internal computation is in SI units. A
key left unset takes `SystemConfig`'s default. ``_FIELDS`` names each key's
field, and ``_ECHO_NAMES`` each field's JSON ``config`` name where it differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import analysis, numerics, sim, validate
from .analysis import SystemConfig
from .fading import FadingParams

# the `sim.SimEstimate` field behind each Monte Carlo column of `ehcr simulate`
SIM_COLUMNS = {"p_tr_mc": "p_tr_hat", "p_out_mc": "p_out_hat", "thr_mc": "throughput_hat",
               "ci99_ptr": "ci99_p_tr", "ci99_pout": "ci99_p_out"}

# every config key; None, or a key left out, takes `SystemConfig`'s default
CONFIG_DEFAULTS = dict.fromkeys([
    "P_b_dbm", "M_dbm", "N0_dbm", "P_c_dbm", "eta", "tau", "T", "R", "alpha", "alpha_s",
    "d_min", "d_max", "d_stsr", "rho", "L", "K", "m", "K_s", "m_s", "ideal",
])

# the `SystemConfig` field each key but the links' K, L, m, K_s and m_s sets;
# a `_dbm` key's value is converted to watts
_FIELDS = {
    "P_b_dbm": "p_beacon", "M_dbm": "p_st", "eta": "eta", "tau": "tau", "T": "t_frame",
    "N0_dbm": "noise_power", "R": "rate", "alpha": "alpha_pb_st", "alpha_s": "alpha_st_sr",
    "d_min": "d_min", "d_max": "d_max", "d_stsr": "d_st_sr", "rho": "rho",
    "P_c_dbm": "p_circuit", "ideal": "ideal",
}
# the JSON `config` name of each field whose own name lacks its unit, and of each link
_ECHO_NAMES = {
    "p_beacon": "p_beacon_w", "p_st": "p_st_w", "t_frame": "t_frame_s", "noise_power": "noise_w",
    "rate": "rate_bps_hz", "d_min": "d_min_m", "d_max": "d_max_m", "d_st_sr": "d_st_sr_m",
    "p_circuit": "p_circuit_w", "fading_pb_st": "pb_st_link", "fading_st_sr": "st_sr_link",
}

# K, L and m default to `SystemConfig`'s beacon link, K_s and m_s to the
# effective K and m; the ST-SR link's mu is always `SystemConfig`'s
_PB_ST, _ST_SR = SystemConfig().fading_pb_st, SystemConfig().fading_st_sr
_LINK_DEFAULTS = {"K": _PB_ST.rician_k, "L": _PB_ST.mu, "m": _PB_ST.m}
_INT_KEYS = {"L", "m", "m_s"}
_BOOL_KEYS = {"ideal"}

DEFAULT_TAU_GRID = "0.05:0.95:0.05"
# most points a tau grid may hold; a larger one is refused before it is built
_MAX_TAU_POINTS = 100_000
_CSV_BLOCK_ROWS = 128


class ConfigError(Exception):
    """Malformed or inconsistent configuration input."""


@dataclasses.dataclass
class RunReport:
    """Sweep output plus provenance: config echo, columns, timing.

    ``columns`` maps each output column, in CSV order, to a float array with
    one entry per row, as `analysis.sweep_columns` returns them; ``rows`` is
    the per-row view of the same values.
    """

    config: dict
    columns: dict
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


def _keyed(values: dict, make, *keys):
    """``make`` of the values of ``keys``; a ValueError names the keys."""
    try:
        return make(*(values[key] for key in keys))
    except ValueError as exc:
        named = ", ".join(f"{key} = {values[key]!r}" for key in keys)
        raise ConfigError(f"invalid configuration: {exc} ({named})") from exc


def build_config(values: dict) -> SystemConfig:
    """The `SystemConfig` of config ``values``; a key None or missing takes its default."""
    values = {**_LINK_DEFAULTS, **{key: v for key, v in values.items() if v is not None}}
    k_s = "K_s" if "K_s" in values else "K"
    m_s = "m_s" if "m_s" in values else "m"
    links = {"fading_pb_st": _keyed(values, FadingParams, "K", "L", "m"),
             "fading_st_sr": _keyed(values, lambda k, m: FadingParams(k, _ST_SR.mu, m), k_s, m_s)}
    fields = {field: _keyed(values, numerics.dbm_to_watts, key) if key.endswith("_dbm")
              else values[key] for key, field in _FIELDS.items() if key in values}
    try:
        return SystemConfig(**fields, **links)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _read_config_values(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def load_config(path: str) -> SystemConfig:
    """Read a key=value file; missing keys take `SystemConfig`'s defaults."""
    return build_config(_read_config_values(path))


def config_echo(cfg: SystemConfig) -> dict:
    """Each field of ``cfg`` but ``tau``, which every row carries, under its JSON
    name; a link is echoed as the arguments it was made from."""
    def echoed(value):
        if isinstance(value, FadingParams):
            return {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
        return value

    return {_ECHO_NAMES.get(f.name, f.name): echoed(getattr(cfg, f.name))
            for f in dataclasses.fields(cfg) if f.name != "tau"}


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
    # the grid holds floor(steps) + 1 points; an infinite quotient fails the test too
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_TAU_POINTS:
        raise ConfigError(f"bad tau grid {spec!r}; more than {_MAX_TAU_POINTS} points")
    return [start + i * step for i in range(int(steps) + 1)]


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
    # the budget first, so that a refused one costs no analytic work
    sim.check_budget(len(tau_grid), n_placements, n_slots, seed)
    report = cmd_analyze(cfg, tau_grid)
    started = time.perf_counter()
    estimates = sim.run_sweep(cfg, tau_grid, n_placements, n_slots, seed)
    for name, field in SIM_COLUMNS.items():
        report.columns[name] = np.array([getattr(e, field) for e in estimates], dtype=float)
    report.duration_s += time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it refuses an argument it does not take itself.

    argparse leaves a command's unknown arguments to the top-level parser,
    whose error shows the top-level usage line; refusing them here shows the
    command's own usage, with the options it does take.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehcr",
        description="Closed-form metrics and Monte Carlo validation for an "
        "energy-harvesting interweave secondary link.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, help_text in (
        ("analyze", "analytic sweep over the switching-time grid"),
        ("simulate", "analytic sweep plus Monte Carlo estimates"),
        ("validate", "run all invariant suites"),
        ("range", "print the effective harvesting range in meters"),
    ):
        # each command takes only the options it reads; a config flag's dest is
        # its CONFIG_DEFAULTS key, which is how `_config_from_args` finds it
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--L", type=int, help="beacon antenna count")
        ideal = p.add_mutually_exclusive_group()
        ideal.add_argument("--ideal", action="store_true", default=None)
        ideal.add_argument("--non-ideal", dest="ideal", action="store_false")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        if name in ("analyze", "simulate", "validate"):
            p.add_argument("--rate", dest="R", type=float, help="target rate, bps/Hz")
        if name in ("range", "validate"):
            p.add_argument("--tau", type=float, help="switching time")
        if name in ("analyze", "simulate"):
            p.add_argument("--tau-grid", default=DEFAULT_TAU_GRID, metavar="A:B:STEP")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "simulate":
            p.add_argument("--placements", type=int, default=2000)
            p.add_argument("--slots", type=int, default=2000)
            p.add_argument("--seed", type=int, default=1)
    return parser


def _config_from_args(args) -> SystemConfig:
    values = _read_config_values(args.config) if args.config else dict(CONFIG_DEFAULTS)
    values.update(
        (key, value) for key, value in vars(args).items()
        if key in CONFIG_DEFAULTS and value is not None
    )
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
        cfg = _config_from_args(args)
        code = 0
        if args.command == "range":
            text = format(analysis.effective_range(cfg), ".12g") + "\n"
        elif args.command == "validate":
            code, text = validate.run(cfg)
        else:
            tau_grid = parse_tau_grid(args.tau_grid)
            if args.command == "analyze":
                report = cmd_analyze(cfg, tau_grid)
            else:
                report = cmd_simulate(cfg, tau_grid, args.placements, args.slots, args.seed)
            if args.format == "csv":
                text = report.to_csv()
            else:
                try:
                    text = report.to_json()
                except ValueError as exc:  # JSON has no inf or NaN
                    raise ConfigError(f"cannot write JSON: {exc}; use --format csv") from exc
        _write(text, args)
        return code
    except (ConfigError, OSError, sim.SimConfigurationError, validate.Refused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
