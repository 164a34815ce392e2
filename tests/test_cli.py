import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ehcr import analysis, cli, fading, sim, validate
from ehcr.cli import (
    ConfigError,
    build_config,
    cmd_analyze,
    cmd_simulate,
    load_config,
    parse_config_text,
    parse_tau_grid,
    rows_from_csv,
)
from ehcr.fading import FadingParams


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
        assert cfg == analysis.SystemConfig()

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

    def test_link_error_names_effective_values(self, tmp_path, capsys):
        # K is unset, so the line names the library's default beside the keys
        path = tmp_path / "bad.cfg"
        path.write_text("m = 5\nL = 16\n")
        assert cli.main(["analyze", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid configuration: m must be an integer with m >= mu, "
            "got m=5, mu=16 (K = 7.0, L = 16, m = 5)\n")

    def test_st_sr_link_falls_back_to_k_and_m(self, tmp_path):
        path = tmp_path / "link.cfg"
        path.write_text("K = 3\nm = 12\n")
        link = load_config(str(path)).fading_st_sr
        assert (link.rician_k, link.mu, link.m) == (3.0, 1, 12)

    def test_antenna_count_feeds_fading(self):
        values = parse_config_text("L = 16\n")
        cfg = build_config(values)
        assert cfg.fading_pb_st.mu == 16
        assert cfg.fading_st_sr.mu == 1

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        # a byte that is not UTF-8 once ended in a UnicodeDecodeError traceback
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"eta = 0.5\xff\n")
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(path))
        for command in ("analyze", "simulate", "validate", "range"):
            assert cli.main([command, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(f"error: cannot read config file {path}: 'utf-8' codec")


class TestConfigTables:
    def test_echo_of_defaults(self):
        # every field but tau, in field order; JSON text tells 1 from 1.0 and True
        echo = {
            "p_beacon_w": 1.9952623149688795, "p_st_w": 0.1, "eta": 0.85, "t_frame_s": 1.0,
            "noise_w": 7.943282347242822e-14, "rate_bps_hz": 1.0, "alpha_pb_st": 2.4,
            "alpha_st_sr": 3.0, "d_min_m": 1.0, "d_max_m": 15.0, "d_st_sr_m": 30.0, "rho": 1.2,
            "p_circuit_w": 1e-06, "ideal": True,
            "pb_st_link": {"rician_k": 7.0, "mu": 1, "m": 20},
            "st_sr_link": {"rician_k": 7.0, "mu": 1, "m": 20},
        }
        for cfg in (analysis.SystemConfig(), build_config(cli.CONFIG_DEFAULTS)):
            assert json.dumps(cli.config_echo(cfg)) == json.dumps(echo)

    def test_library_states_every_default(self):
        assert set(cli.CONFIG_DEFAULTS.values()) == {None}

    def test_missing_key_takes_its_default(self):
        values = {"L": 16, "ideal": False}
        assert build_config(values) == build_config({**cli.CONFIG_DEFAULTS, **values})

    def test_keys_and_links_make_every_field(self):
        made = [*cli._FIELDS.values(), "fading_pb_st", "fading_st_sr"]
        assert sorted(made) == sorted(f.name for f in dataclasses.fields(analysis.SystemConfig))
        assert set(cli._FIELDS) < set(cli.CONFIG_DEFAULTS)

    # each key with a value other than its default, and the field it must set
    @pytest.mark.parametrize("key, value, field, expected", [
        ("P_b_dbm", 30.0, "p_beacon", 1.0),
        ("M_dbm", 10.0, "p_st", 0.01),
        ("eta", 0.7, "eta", 0.7),
        ("tau", 0.3, "tau", 0.3),
        ("T", 2.0, "t_frame", 2.0),
        ("N0_dbm", -90.0, "noise_power", 1e-12),
        ("R", 1.5, "rate", 1.5),
        ("alpha", 2.7, "alpha_pb_st", 2.7),
        ("alpha_s", 3.2, "alpha_st_sr", 3.2),
        ("d_min", 2.0, "d_min", 2.0),
        ("d_max", 12.0, "d_max", 12.0),
        ("d_stsr", 25.0, "d_st_sr", 25.0),
        ("rho", 1.3, "rho", 1.3),
        ("P_c_dbm", -20.0, "p_circuit", 1e-05),
        ("ideal", False, "ideal", False),
    ])
    def test_key_sets_its_own_field(self, key, value, field, expected):
        cfg = build_config({**cli.CONFIG_DEFAULTS, key: value})
        assert getattr(cfg, field) == pytest.approx(expected, rel=1e-15)
        # and no other field
        assert cfg == dataclasses.replace(analysis.SystemConfig(), **{field: getattr(cfg, field)})


class TestTauGrid:
    def test_parse(self):
        assert parse_tau_grid("0.1:0.9:0.2") == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])
        # a step of 2**-17 keeps the point count exact
        step = 2.0**-17
        assert len(parse_tau_grid(f"{step}:{100_000 * step}:{step}")) == 100_000

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError, match="more than 100000 points"):
            parse_tau_grid(f"{2.0**-17}:{100_001 * 2.0**-17}:{2.0**-17}")
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
        # the same keys, in the CSV header's order, with equal floats
        assert list(point) == list(report.rows[0]) == report.to_csv().splitlines()[0].split(",")
        assert point == report.rows[0]
        assert point["tau"] == 0.5

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

    def test_json_refuses_nan(self):
        report = cmd_analyze(analysis.SystemConfig(), [0.4, 0.6])
        report.columns["p_out"][1] = math.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json()


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
    # m = 1 and m = 2 leave J(3), and at m = 1 J(2), undefined; the suite skips them
    @pytest.mark.parametrize("values", [{}, {"m": 1}, {"m": 2}], ids=["default", "m1", "m2"])
    def test_default_configuration_passes(self, values):
        code, output = validate.run(build_config({**cli.CONFIG_DEFAULTS, **values}))
        assert code == 0, output
        assert output.count("PASS") == 9
        assert "FAIL" not in output

    def test_steep_path_loss_passes(self, tmp_path, capsys):
        # at alpha = 260 the quadrature oracle missed phi2's narrow support
        # and read 0 against the closed form at every tau
        path = tmp_path / "steep.cfg"
        path.write_text("alpha = 260\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.count("PASS") == 9

    def test_corrupted_omega_detected(self):
        # scaling omega keeps a valid density but breaks the unit-mean identity
        link = FadingParams(7.0, 1, 20)
        object.__setattr__(link, "omega", 1.1 * link.omega)
        code, output = validate.run(analysis.SystemConfig(fading_pb_st=link, fading_st_sr=link))
        assert code == 1
        assert "FAIL  fading-weights" in output

    @pytest.mark.parametrize("name, problem", [
        ("capacity_lower_bound", "harvested-power Jensen bound exceeds Monte Carlo mean"),
        ("benchmark_capacity_lower_bound", "benchmark Jensen bound exceeds Monte Carlo mean"),
    ])
    def test_jensen_suite_gates_each_bound(self, monkeypatch, name, problem):
        monkeypatch.setattr(analysis, name, lambda *args: math.inf)
        assert validate.jensen_bounds(analysis.SystemConfig()) == [problem]

    @pytest.mark.parametrize("values", [{}, {"L": 16, "ideal": False}], ids=["L1-ideal", "L16-nonideal"])
    @pytest.mark.parametrize("index, name, problem", [
        (0, "capacity_lower_bound", "harvested-power Jensen bound exceeds Monte Carlo mean"),
        (1, "benchmark_capacity_lower_bound", "benchmark Jensen bound exceeds Monte Carlo mean"),
    ])
    def test_jensen_gate_sits_at_whole_array_statistic(self, monkeypatch, values, index, name, problem):
        # a bound just under the whole-array statistic passes and one just over
        # it fails, so the chunked moments keep every sample and merge right
        cfg = build_config({**cli.CONFIG_DEFAULTS, **values})
        statistic = _jensen_statistics(cfg)[index]
        monkeypatch.setattr(analysis, name, lambda *args: statistic * (1.0 - 1e-9))
        assert validate.jensen_bounds(cfg) == []
        monkeypatch.setattr(analysis, name, lambda *args: statistic * (1.0 + 1e-9))
        assert validate.jensen_bounds(cfg) == [problem]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jensen_snr_past_every_float(self, tmp_path, capsys, monkeypatch):
        # at N0 = -3062 dBm each capacity is about 510 bits, but the SNR before
        # the log passed every float: the statistics were NaN, with numpy's
        # warnings, and the suite passed on them
        path = tmp_path / "quiet.cfg"
        path.write_text("N0_dbm = -3062\nd_stsr = 1\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("PASS") == 9
        # both statistics are finite and lie between 500 and 520 bits
        cfg = cli.load_config(str(path))
        for name in ("capacity_lower_bound", "benchmark_capacity_lower_bound"):
            monkeypatch.setattr(analysis, name, lambda *args: 500.0)
        assert validate.jensen_bounds(cfg) == []
        for name in ("capacity_lower_bound", "benchmark_capacity_lower_bound"):
            monkeypatch.setattr(analysis, name, lambda *args: 520.0)
        assert len(validate.jensen_bounds(cfg)) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jensen_tiny_tau(self):
        # at tau = 1e-300 the capacities are about 1e-297 and the squares of
        # their deviations underflowed, so the spread that covers the Monte
        # Carlo error read 0
        link = FadingParams(1.0, 1, 1)
        cfg = analysis.SystemConfig(tau=1e-300, ideal=False, fading_pb_st=link, fading_st_sr=link)
        assert validate.jensen_bounds(cfg) == []

    def test_closed_form_gap_is_relative_at_any_magnitude(self, monkeypatch):
        # a gap of 1e-20 on values near 1e-15 is 1e-5 relative; a floor of
        # 1e-12 under the oracle's magnitude once let it pass
        sweep_columns = analysis.sweep_columns

        def faked(cfg, taus):
            columns = sweep_columns(cfg, taus)
            columns["phi1"] = np.full_like(columns["phi1"], 1e-15)
            return columns

        monkeypatch.setattr(analysis, "sweep_columns", faked)
        monkeypatch.setattr(analysis, "phi1_quadrature", lambda cfg: 1e-15 + 1e-20)
        notes = validate.phi_closed_vs_quadrature(analysis.SystemConfig())
        assert [note.split(":")[0] for note in notes] == [f"phi1 at tau={i / 10:.1f}" for i in range(1, 10)]

    def test_jensen_traced_peak_memory(self):
        # whole-array draws and capacities held 30.5 MB, and a whole harvest
        # stream 8 MB; one chunk of both links' draws is about 3 MB
        tracemalloc.start()
        try:
            validate.jensen_bounds(analysis.SystemConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _uniform_sample_at(nd2, n=100_000):
    """Sorted CDF values of ``n`` points whose KS distance from Uniform(0, 1) puts ``n D²`` at about ``nd2``.

    The midpoints ``(i + 1/2) / n`` shifted up by ``s`` lie ``1/(2n) + s``
    above the empirical CDF's lower step and ``1/(2n) - s`` below its upper.
    """
    shift = math.sqrt(nd2 / n) - 0.5 / n
    return np.clip((np.arange(n) + 0.5) / n + shift, 0.0, 1.0)


class TestKolmogorovSmirnov:
    """`validate._ks_test` against `scipy.stats.kstest`, at the suite's n = 100 000."""

    @pytest.mark.parametrize("values", [
        {}, {"ideal": False}, {"L": 16}, {"L": 16, "ideal": False},
    ], ids=["L1-ideal", "L1-nonideal", "L16-ideal", "L16-nonideal"])
    def test_statistic_on_the_suite_draws(self, values):
        from scipy import stats

        cfg = build_config({**cli.CONFIG_DEFAULTS, **values})
        gen = np.random.default_rng(20260824)
        for link in (cfg.fading_pb_st, cfg.fading_st_sr):
            draws = fading.sample(link, gen, size=100_000)
            draws.sort()
            statistic, pvalue = validate._ks_test(fading.cdf(link, draws))
            expected = stats.kstest(draws, lambda x: fading.cdf(link, x))
            assert statistic == expected.statistic
            assert (pvalue <= 0.01) == (expected.pvalue <= 0.01)

    @pytest.mark.parametrize("nd2", [2.2, 2.65, 5.0, 50.0, 369.0, 371.0])
    def test_pvalue_is_scipys_from_2_2_on(self, nd2):
        from scipy import stats

        values = _uniform_sample_at(nd2)
        statistic, pvalue = validate._ks_test(values)
        expected = stats.kstest(values, lambda x: x)
        n = len(values)
        assert nd2 <= n * statistic * statistic == pytest.approx(nd2, rel=1e-12)
        assert statistic == expected.statistic
        assert pvalue == expected.pvalue

    def test_verdict_is_scipys_below_2_2(self):
        from scipy import stats

        for nd2 in np.linspace(0.0, 2.2, 45)[1:-1]:
            values = _uniform_sample_at(nd2)
            statistic, pvalue = validate._ks_test(values)
            expected = stats.kstest(values, lambda x: x)
            assert statistic == expected.statistic
            assert pvalue > 0.01 and expected.pvalue > 0.01

    def test_refuses_small_samples(self):
        with pytest.raises(AssertionError):
            validate._ks_test(_uniform_sample_at(1.0, n=140))


def _jensen_statistics(cfg):
    """``mean + 3 sd / sqrt(n)`` of the Jensen suite's two capacities, from whole arrays.

    Each link is drawn as the suite draws it, in steps of ``validate._CHUNK``
    from its own stream, and the steps are joined before any statistic.
    """
    n = 1_000_000
    gen_p, gen_s = (np.random.default_rng(s) for s in np.random.SeedSequence(7_031).spawn(2))
    sizes = np.diff([*range(0, n, validate._CHUNK), n])
    gp = np.concatenate([fading.sample(cfg.fading_pb_st, gen_p, size=k) for k in sizes])
    gs = np.concatenate([fading.sample(cfg.fading_st_sr, gen_s, size=k) for k in sizes])
    d_mid = 0.5 * (cfg.d_min + cfg.d_max)
    harvest = (
        cfg.eta * cfg.p_beacon * (1.0 - cfg.tau) * gp * gs
        / (cfg.tau * cfg.noise_power * d_mid**cfg.alpha_pb_st * cfg.d_st_sr**cfg.alpha_st_sr)
    )
    benchmark = cfg.p_st * gs / (cfg.noise_power * cfg.d_st_sr**cfg.alpha_st_sr)
    statistics = []
    for snr in (harvest, benchmark):
        capacity = cfg.tau * np.log2(1.0 + snr)
        statistics.append(capacity.mean() + 3.0 * capacity.std() / math.sqrt(n))
    return statistics


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

    def test_validate_prints_suites_in_order(self, capsys):
        assert cli.main(["validate"]) == 0
        names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert names == [
            "numerics-reference", "fading-weights", "fading-normalization",
            "fading-sampler-ks", "phi-closed-vs-quadrature", "jensen-bounds",
            "j-magnitude", "sim-conservation", "sim-model-agreement",
        ]

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_validate_error_writes_no_verdicts(self, tmp_path, capsys, monkeypatch, to_file):
        # the verdicts of the suites before the failing one are not written either
        def refuse(cfg):
            raise sim.SimConfigurationError("refused")

        passing = ("passing", lambda cfg: [])
        monkeypatch.setattr(validate, "SUITES", (passing, passing, ("refusing", refuse)))
        out = tmp_path / "validate.txt"
        assert cli.main(["validate", *(["--out", str(out)] if to_file else [])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: refused\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--placements", sim._MAX_PLACEMENTS + 1),
        ("--placements", 10**9),
        ("--slots", sim._MAX_SLOTS + 1),
        ("--slots", 10**15),
    ])
    def test_oversized_budget_is_usage_error(self, capsys, monkeypatch, option, value):
        # refused before a single stream is set up; the huge values must never allocate
        def unreachable(*args):
            raise AssertionError("placement streams built for an oversized budget")

        monkeypatch.setattr(sim, "placement_streams", unreachable)
        argv = ["simulate", "--tau-grid", "0.5:0.5:0.1", "--placements", "4", "--slots", "10"]
        assert cli.main([*argv, option, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: n_{option[2:]} must be at most ")
        assert captured.err.rstrip().endswith(f"got {value}")

    @pytest.mark.parametrize("option, value, refused", [
        pytest.param("--placements", "20000", "len(taus) * n_placements", id="cells"),
        pytest.param("--slots", "1000000000000000", "n_slots", id="slots"),
    ])
    def test_oversized_sweep_is_refused_before_any_work(self, capsys, monkeypatch, option, value,
                                                         refused):
        # 99 999 taus: the budget is refused before the analytic sweep and the streams
        def unreachable(*args):
            raise AssertionError("work started for an oversized budget")

        monkeypatch.setattr(analysis, "sweep_columns", unreachable)
        monkeypatch.setattr(sim, "placement_streams", unreachable)
        argv = ["simulate", "--tau-grid", "0.00001:0.99999:0.00001", option, value]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {refused} must be at most ")

    def test_cached_parser_keeps_no_options(self, capsys):
        # one parser serves every call, so a call's options must not outlive it
        assert cli.build_parser() is cli.build_parser()
        for command, options in (
            (["analyze"], ["--rate", "2", "--L", "4", "--non-ideal", "--tau-grid", "0.2:0.4:0.1"]),
            (["simulate", "--slots", "20", "--placements", "4"],
             ["--rate", "2", "--ideal", "--seed", "9", "--tau-grid", "0.3:0.3:0.1"]),
            (["range"], ["--tau", "0.2", "--L", "2", "--non-ideal"]),
        ):
            outputs = []
            for argv in (command, [*command, *options], command):
                assert cli.main(argv) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[2] == outputs[0] != outputs[1]

    @pytest.mark.parametrize("command, argv", [
        # options that exist on other commands, which this one does not read
        pytest.param("range", ["--tau-grid", "nonsense"], id="range-tau-grid"),
        pytest.param("validate", ["--tau-grid", "nonsense"], id="validate-tau-grid"),
        pytest.param("analyze", ["--tau", "0.3"], id="analyze-tau"),
        pytest.param("simulate", ["--tau", "0.3"], id="simulate-tau"),
        pytest.param("range", ["--rate", "2"], id="range-rate"),
        pytest.param("range", ["--format", "csv"], id="range-format"),
        pytest.param("validate", ["--format", "json"], id="validate-format"),
        # abbreviations are refused, so these are not --tau-grid and --placements
        pytest.param("analyze", ["--tau-g", "0.1:0.9:0.1"], id="analyze-abbrev"),
        pytest.param("simulate", ["--place", "5"], id="simulate-abbrev"),
    ])
    def test_unread_option_is_usage_error(self, tmp_path, capsys, command, argv):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *argv, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the command's own usage line, not the top-level one
        assert captured.err.startswith(f"usage: ehcr {command} ")
        assert f"ehcr {command}: error: unrecognized arguments: {' '.join(argv)}" in captured.err
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
        assert set(data) == {"config", "rows", "duration_s"}

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
        # tau * p_st_eff underflows to 0, so the effective range would divide by 0
        ["analyze", "--tau-grid", "5e-324:5e-324:1"],
        ["range", "--tau", "5e-324"],
        ["simulate", "--tau-grid", "5e-324:5e-324:1", "--placements", "4", "--slots", "10"],
        # steps too small for a grid, refused before any point is built: the
        # point count overflows a float, or would fill memory
        ["analyze", "--tau-grid", "0.1:0.9:5e-324"],
        ["analyze", "--tau-grid", "0.1:0.9:1e-300"],
        # grid points outside (0, 1)
        ["analyze", "--tau-grid", "0.0:0.9:0.1"],
        ["simulate", "--tau-grid", "0.5:1.5:0.5", "--placements", "4", "--slots", "10"],
    ])
    def test_tau_with_no_spend_is_usage_error(self, capsys, argv):
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

    def test_infinite_value_is_usage_error_in_json(self, tmp_path, capsys):
        # at alpha = 0.25 the effective range, about 4e404 m at this tau, passes every
        # float, while the point mass at d = 5 stays finite; JSON has no inf, so
        # nothing is written
        path = tmp_path / "far.cfg"
        path.write_text("alpha = 0.25\nd_min = 5\nd_max = 5\n")
        argv = ["analyze", "--config", str(path), "--tau-grid", "1e-100:1e-100:1"]
        assert cli.main(argv) == 0
        assert ",inf," in capsys.readouterr().out
        assert cli.main([*argv, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write JSON")

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["analyze", "--format", "json"],
        ["simulate", "--placements", "4", "--slots", "10"],
    ])
    def test_nonfinite_closed_form_is_usage_error(self, tmp_path, capsys, argv):
        # at this beacon power and tau the threshold coefficient underflows to
        # 0, and the closed form would give a NaN row
        path = tmp_path / "loud.cfg"
        path.write_text("P_b_dbm = 3000\n")
        assert cli.main([*argv, "--config", str(path), "--tau-grid", "1e-300:1e-300:0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "tau = 1e-300" in captured.err

    # the ids name the config keys; the errors name the `SystemConfig` fields
    @pytest.mark.parametrize("key, value, power, field", [
        pytest.param("R", "2000", "2**rate", "rate", id="R-2000-2**R"),
        pytest.param("d_max", "1e300", "d_max**2", "d_max", id="d_max-1e300-d_max**2"),
        pytest.param("alpha_s", "400", "d_st_sr**alpha_st_sr", "alpha_st_sr",
                     id="alpha_s-400-d_stsr**alpha_s"),
        pytest.param("d_stsr", "1e300", "d_st_sr**alpha_st_sr", "d_st_sr",
                     id="d_stsr-1e300-d_stsr**alpha_s"),
        pytest.param("alpha", "400", "d_max**alpha_pb_st", "alpha_pb_st",
                     id="alpha-400-d_max**alpha"),
    ])
    def test_overflowing_power_is_usage_error(self, tmp_path, capsys, key, value, power, field):
        # each of these once ended in an OverflowError traceback
        path = tmp_path / "huge.cfg"
        path.write_text(f"{key} = {value}\n")
        for argv in (["analyze"], ["simulate", "--placements", "5", "--slots", "200"], ["validate"]):
            assert cli.main([*argv, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(f"error: invalid configuration: {power} overflows a float")
            assert f"{field} = {float(value)!r}" in line

    @pytest.mark.parametrize("key, value", [("m", 1100), ("m_s", 3000)])
    def test_overflowing_mixture_weights_are_usage_error(self, tmp_path, capsys, key, value):
        # from m - mu = 1030 a binomial coefficient of the weights exceeds every
        # float; this once ended in an OverflowError traceback
        path = tmp_path / "huge.cfg"
        path.write_text(f"{key} = {value}\n")
        for argv in (["analyze"], ["range"]):
            assert cli.main([*argv, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(f"error: invalid configuration: m - mu = {value - 1} is too large")
            assert f"{key} = {value}" in line

    def test_overflowing_dbm_is_usage_error(self, tmp_path, capsys):
        # 10 ** ((P - 30) / 10) once ended in an OverflowError traceback
        path = tmp_path / "loud.cfg"
        path.write_text("P_b_dbm = 10000\n")
        assert cli.main(["analyze", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: invalid configuration: dBm value must be finite and at most")
        assert line.endswith("(P_b_dbm = 10000.0)")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_harvest_is_silent(self, tmp_path, capsys):
        # the threshold coefficient overflows to +inf, its exact limit, and once
        # printed numpy's overflow warnings
        path = tmp_path / "faint.cfg"
        path.write_text("eta = 1e-320\n")
        assert cli.main(["analyze", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for row in rows_from_csv(captured.out):
            assert row["phi1"] == row["phi2"] == 0.0 and row["p_out"] == 1.0

    def test_underflowing_link_noise_is_usage_error(self, tmp_path, capsys):
        # simulate once divided by d_stsr**alpha_s * N0 = 0 and ended in a
        # ZeroDivisionError traceback; validate warned, then did the same
        path = tmp_path / "near.cfg"
        path.write_text("d_stsr = 1e-104\n")
        for argv in (["analyze"], ["simulate", "--placements", "2", "--slots", "1"], ["validate"]):
            assert cli.main([*argv, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(
                "error: invalid configuration: d_st_sr**alpha_st_sr * noise_power underflows")
            assert "d_st_sr = 1e-104" in line

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanishing_harvest_distance_is_usage_error(self, tmp_path, capsys):
        # d_min**alpha underflows to 0, and simulate divided the harvest by it,
        # with numpy's divide warning
        path = tmp_path / "close.cfg"
        path.write_text("d_min = 1e-300\nd_max = 1e-300\n")
        for argv in (["analyze"], ["simulate", "--placements", "2", "--slots", "1"], ["validate"]):
            assert cli.main([*argv, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("error: invalid configuration: eta * t_frame * p_beacon"
                                   " / d_min**alpha_pb_st overflows, an infinite harvest")
            assert "d_min = 1e-300" in line

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_harvest_validates_silently(self, tmp_path, capsys):
        # the quadrature oracle's threshold coefficient divided by a harvest
        # that underflows to 0, with numpy's divide warning
        path = tmp_path / "faint.cfg"
        path.write_text("eta = 5e-324\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("PASS") == 9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanishing_path_loss_exponent_is_usage_error(self, tmp_path, capsys):
        # alpha = 1e-300 overflows the closed form's terms; the error names the
        # tau, and numpy's overflow warnings once came before it
        path = tmp_path / "flat.cfg"
        path.write_text("alpha = 1e-300\n")
        assert cli.main(["analyze", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error:") and "tau = 0.05" in line

    def test_nonfinite_closed_form_refuses_validate(self, tmp_path, capsys):
        # at alpha = 0.01 the closed form is not finite at validate's taus;
        # validate once ended in a ValueError traceback where analyze exits 2
        path = tmp_path / "flat.cfg"
        path.write_text("alpha = 0.01\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error:") and "tau = 0.1" in line

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

from ehcr import analysis, cli, numerics, validate
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
result["sampler_problems"] = validate.fading_sampler(analysis.SystemConfig())
result["after_sampler"] = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    result["validate_exit_code"] = cli.main(["validate"])
result["validate"] = out.getvalue()
result["after_validate"] = loaded()
print(json.dumps(result))
"""


class TestColdStart:
    """No command loads scipy.stats or scipy.integrate: the quadrature is numpy's
    and the KS p-value comes from scipy.special."""

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

    def test_quadrature_loads_no_integrate(self, result):
        assert result["integral"] == pytest.approx(9.0, rel=1e-12)
        assert result["after_integrate"] == {"scipy.stats": False, "scipy.integrate": False}

    def test_sampler_suite_loads_no_stats(self, result):
        assert result["sampler_problems"] == []
        assert result["after_sampler"]["scipy.stats"] is False

    def test_validate_loads_no_stats(self, result):
        assert result["validate_exit_code"] == 0
        assert result["validate"].count("PASS") == 9
        assert result["after_validate"] == {"scipy.stats": False, "scipy.integrate": False}
