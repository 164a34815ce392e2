import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from ehcr import analysis, cli, sim
from ehcr.cli import (
    ConfigError,
    build_config,
    cmd_analyze,
    cmd_simulate,
    cmd_validate,
    load_config,
    parse_config_text,
    parse_tau_grid,
    rows_from_csv,
)


class TestLoadConfig:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(str(path))
        assert cfg.p_beacon == pytest.approx(1.9952623149688795)
        assert cfg.p_st == pytest.approx(0.1)
        assert cfg.noise_power == pytest.approx(7.943282347242815e-14)
        assert cfg.alpha_pb_st == 2.4
        assert cfg.alpha_st_sr == 3.0
        assert cfg.eta == 0.85
        assert (cfg.d_min, cfg.d_max, cfg.d_st_sr) == (1.0, 15.0, 30.0)
        assert cfg.fading_pb_st.rician_k == 7.0
        assert cfg.fading_pb_st.mu == 1
        assert cfg.fading_pb_st.m == 20
        assert cfg.rho == 1.2
        assert cfg.ideal is True

    def test_millijoule_buffer_with_hardware_overhead(self, tmp_path):
        path = tmp_path / "lossy.cfg"
        path.write_text("rho = 1.2\nP_c_dbm = -30\nT = 1e-3\nideal = false\n")
        cfg = load_config(str(path))
        buffer_joules = cfg.p_st_eff * cfg.t_frame
        assert 0.118e-3 <= buffer_joules <= 0.122e-3

    def test_invalid_fading_order_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 5\nL = 16\n")
        with pytest.raises(ConfigError, match="m must be"):
            load_config(str(path))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("eta = 0.8\neta ~ 0.9\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("frobnicate = 1\n")

    def test_comments_and_blank_lines(self):
        values = parse_config_text("# comment\n\neta = 0.5  # trailing\n")
        assert values["eta"] == 0.5

    def test_antenna_count_feeds_fading(self):
        values = parse_config_text("L = 16\n")
        cfg = build_config(values)
        assert cfg.fading_pb_st.mu == 16
        assert cfg.fading_st_sr.mu == 1

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")


class TestTauGrid:
    def test_parse(self):
        assert parse_tau_grid("0.1:0.9:0.2") == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_tau_grid("0.0:0.9:0.1")
        with pytest.raises(ConfigError):
            parse_tau_grid("0.5:0.4:0.1")
        with pytest.raises(ConfigError):
            parse_tau_grid("nonsense")


class TestAnalyze:
    def test_single_point(self):
        cfg = analysis.SystemConfig()
        report = cmd_analyze(cfg, [0.5])
        assert len(report.rows) == 1
        point = analysis.evaluate(cfg)
        assert report.rows[0]["p_out"] == point.p_out
        assert report.rows[0]["tau"] == 0.5

    def test_csv_header(self):
        report = cmd_analyze(analysis.SystemConfig(), [0.3, 0.6])
        header = report.to_csv().splitlines()[0]
        assert header == "tau,d_star,phi1,phi2,p_tr,f_snr,p_out,throughput"

    def test_csv_round_trip(self):
        report = cmd_analyze(analysis.SystemConfig(), [0.2, 0.5, 0.8])
        assert rows_from_csv(report.to_csv()) == report.rows

    def test_rows_sorted_by_tau(self):
        report = cmd_analyze(analysis.SystemConfig(), [0.1, 0.5, 0.9])
        taus = [row["tau"] for row in report.rows]
        assert taus == sorted(taus)

    def test_json_round_trip(self):
        report = cmd_analyze(analysis.SystemConfig(), [0.4])
        data = json.loads(report.to_json())
        assert data["rows"] == report.rows
        assert data["config"]["eta"] == 0.85


class TestSimulate:
    def test_byte_identical_for_fixed_seed(self):
        cfg = analysis.SystemConfig()
        grid = [0.4, 0.6]
        a = cmd_simulate(cfg, grid, 30, 80, seed=5).to_csv()
        b = cmd_simulate(cfg, grid, 30, 80, seed=5).to_csv()
        assert a.encode() == b.encode()

    def test_extends_analytic_columns(self):
        report = cmd_simulate(analysis.SystemConfig(), [0.5], 30, 80, seed=5)
        header = report.to_csv().splitlines()[0]
        assert header == (
            "tau,d_star,phi1,phi2,p_tr,f_snr,p_out,throughput,"
            "p_tr_mc,p_out_mc,thr_mc,ci99_ptr,ci99_pout"
        )

    def test_mc_columns_equal_per_tau_runs(self):
        cfg = analysis.SystemConfig()
        grid = [0.2, 0.5, 0.8]
        report = cmd_simulate(cfg, grid, 30, 80, seed=5)
        for tau, row in zip(grid, report.rows):
            est = sim.run(cfg.with_tau(tau), 30, 80, seed=5)
            assert [row[c] for c in cli.SIM_COLUMNS] == [
                est.p_tr_hat, est.p_out_hat, est.throughput_hat, est.ci99_p_tr, est.ci99_p_out
            ]

    def test_rejects_zero_budget(self):
        with pytest.raises(sim.SimConfigurationError):
            cmd_simulate(analysis.SystemConfig(), [0.5], 10, 0, seed=1)


class TestValidate:
    def test_default_configuration_passes(self):
        stream = io.StringIO()
        code = cmd_validate(analysis.SystemConfig(), stream=stream)
        output = stream.getvalue()
        assert code == 0, output
        assert output.count("PASS") == 9
        assert "FAIL" not in output

    def test_corrupted_omega_detected(self):
        # scaling omega keeps a valid density but breaks the unit-mean identity
        stream = io.StringIO()
        code = cmd_validate(analysis.SystemConfig(), omega_fault_scale=1.1, stream=stream)
        output = stream.getvalue()
        assert code == 1
        assert "FAIL  fading-weights" in output

    @pytest.mark.parametrize("name, problem", [
        ("capacity_lower_bound", "harvested-power Jensen bound exceeds Monte Carlo mean"),
        ("benchmark_capacity_lower_bound", "benchmark Jensen bound exceeds Monte Carlo mean"),
    ])
    def test_jensen_suite_gates_each_bound(self, monkeypatch, name, problem):
        monkeypatch.setattr(analysis, name, lambda *args: math.inf)
        assert cli._suite_jensen_bounds(analysis.SystemConfig(), 1.0) == [problem]


class TestMain:
    def test_range_prints_single_number(self, capsys):
        assert cli.main(["range"]) == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) == pytest.approx(3.0451579810112697, rel=1e-9)

    def test_range_to_file(self, tmp_path, capsys):
        out = tmp_path / "range.txt"
        assert cli.main(["range", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert float(out.read_text()) == pytest.approx(3.0451579810112697, rel=1e-9)

    def test_validate_to_file(self, tmp_path, capsys):
        out = tmp_path / "validate.txt"
        assert cli.main(["validate", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 9 and all(line.startswith("PASS  ") for line in lines)

    @pytest.mark.parametrize("command", ["range", "validate"])
    def test_json_format_is_usage_error_without_json_form(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert cli.main([command, "--format", "json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "JSON" in captured.err
        assert not out.exists()

    def test_analyze_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["analyze", "--tau-grid", "0.2:0.8:0.3", "--out", str(out)])
        assert code == 0
        rows = rows_from_csv(out.read_text())
        assert len(rows) == 3

    def test_json_format(self, tmp_path, capsys):
        code = cli.main(["analyze", "--tau-grid", "0.5:0.5:0.1", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"config", "rows", "validation", "duration_s"}

    def test_multi_antenna_improves_outage(self, tmp_path):
        out1 = tmp_path / "l1.csv"
        out16 = tmp_path / "l16.csv"
        grid = ["--tau-grid", "0.1:0.9:0.1"]
        assert cli.main(["analyze", *grid, "--L", "1", "--out", str(out1)]) == 0
        assert cli.main(["analyze", *grid, "--L", "16", "--out", str(out16)]) == 0
        rows1 = rows_from_csv(out1.read_text())
        rows16 = rows_from_csv(out16.read_text())
        assert all(b["p_out"] <= a["p_out"] for a, b in zip(rows1, rows16))

    def test_throughput_rises_with_tau_for_each_rate(self, tmp_path):
        for rate in ("1", "2", "3"):
            out = tmp_path / f"r{rate}.csv"
            assert cli.main([
                "analyze", "--tau-grid", "0.1:0.9:0.1", "--rate", rate, "--out", str(out)
            ]) == 0
            thr = [row["throughput"] for row in rows_from_csv(out.read_text())]
            assert all(a < b for a, b in zip(thr, thr[1:]))

    def test_zero_slots_is_usage_error(self):
        assert cli.main(["simulate", "--slots", "0"]) == 2

    def test_single_placement_is_usage_error(self, capsys):
        argv = ["simulate", "--tau-grid", "0.5:0.5:0.1", "--placements", "1", "--slots", "10"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed_is_usage_error(self, capsys):
        # refused, not reduced modulo 2**63, which would give -1 the stream of 2**63 - 1
        argv = ["simulate", "--tau-grid", "0.5:0.5:0.1", "--placements", "4", "--slots", "10",
                "--seed", "-1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out

    def test_bad_config_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 3\nL = 7\n")
        assert cli.main(["analyze", "--config", str(path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["R", "T", "alpha", "alpha_s", "d_max", "d_stsr", "rho"])
    def test_nonfinite_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "nonfinite.cfg"
        path.write_text(f"{key} = {value}\n")
        assert cli.main(["analyze", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field", range(3))
    def test_nonfinite_tau_grid_is_usage_error(self, capsys, field, value):
        parts = ["0.1", "0.5", "0.1"]
        parts[field] = value
        assert cli.main(["analyze", "--tau-grid", ":".join(parts)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--tau-grid", "5e-324:5e-324:1"],
        ["range", "--tau", "5e-324"],
        ["simulate", "--tau-grid", "5e-324:5e-324:1", "--placements", "4", "--slots", "10"],
    ])
    def test_tau_with_no_spend_is_usage_error(self, capsys, argv):
        # tau * p_st_eff underflows to 0, so the effective range would divide by 0
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_tiny_tau_gives_finite_row(self, capsys):
        assert cli.main(["analyze", "--tau-grid", "1e-310:1e-310:1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [row] = rows_from_csv(captured.out)
        for column in ("phi1", "phi2", "p_tr", "p_out", "throughput"):
            assert math.isfinite(row[column])

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert cli.main(["analyze", "--config", str(missing)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_simulate_csv_deterministic_end_to_end(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["simulate", "--tau-grid", "0.5:0.5:0.1", "--placements", "25",
                "--slots", "60", "--seed", "3"]
        assert cli.main([*argv, "--out", str(out_a)]) == 0
        assert cli.main([*argv, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


COLD_START_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return {name: name in sys.modules for name in ("scipy.stats", "scipy.integrate")}

from ehcr import analysis, cli, numerics
result = {"after_import": loaded(), "exit_codes": {}}
for name, argv in (
    ("range", ["range"]),
    ("analyze", ["analyze", "--tau-grid", "0.2:0.8:0.3"]),
    ("simulate", ["simulate", "--tau-grid", "0.2:0.8:0.3", "--placements", "4", "--slots", "10"]),
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result["exit_codes"][name] = cli.main(argv)
    result[name] = out.getvalue()
result["after_commands"] = loaded()
result["integral"] = numerics.integrate_adaptive(lambda x: x * x, 0.0, 3.0)
result["after_integrate"] = loaded()
result["sampler_problems"] = cli._suite_fading_sampler(analysis.SystemConfig(), 1.0)
result["after_sampler"] = loaded()
print(json.dumps(result))
"""


class TestColdStart:
    """analyze, simulate and range load neither scipy.stats nor scipy.integrate;
    the validation code that needs them imports them on first use."""

    @pytest.fixture(scope="class")
    def result(self):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_import_loads_neither(self, result):
        assert result["after_import"] == {"scipy.stats": False, "scipy.integrate": False}

    def test_commands_load_neither(self, result):
        assert result["exit_codes"] == {"range": 0, "analyze": 0, "simulate": 0}
        assert float(result["range"]) == pytest.approx(3.0451579810112697, rel=1e-9)
        assert len(rows_from_csv(result["analyze"])) == 3
        assert len(rows_from_csv(result["simulate"])) == 3
        assert result["after_commands"] == {"scipy.stats": False, "scipy.integrate": False}

    def test_quadrature_loads_integrate(self, result):
        assert result["integral"] == pytest.approx(9.0, rel=1e-12)
        assert result["after_integrate"] == {"scipy.stats": False, "scipy.integrate": True}

    def test_sampler_suite_loads_stats(self, result):
        assert result["sampler_problems"] == []
        assert result["after_sampler"]["scipy.stats"] is True
