import os

import pytest

from uavsec import cli
from uavsec.chart import render_chart
from uavsec.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    ExperimentConfig,
    ValidationReport,
    ValidationRow,
    validate_suite,
)

TINY_CFG = """
[experiment]
mode = analyze
name = tiny
metrics = pc, pso, cs

[network]
lambda_u = 1e-3
lambda_e = 1e-3
h = 10
theta_c = 45 deg

[code]
rt = 5
re = 1

[sweep]
variable = lambda_e
values = 1e-4, 1e-3

[sim]
n_realizations = 500
seed = 1
"""

REPO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class TestConfigParsing:
    def test_parse_and_fields(self):
        cfg = ExperimentConfig.from_text(TINY_CFG, name="x")
        assert cfg.name == "tiny"
        assert cfg.mode == "analyze"
        assert cfg.sweep_variable == "lambda_e"
        assert cfg.sweep_values == (1e-4, 1e-3)
        assert cfg.rt == 5.0 and cfg.re == 1.0
        assert cfg.network.theta_c == pytest.approx(0.7853981633974483)

    def test_roundtrip(self):
        cfg = ExperimentConfig.from_text(TINY_CFG, name="x")
        again = ExperimentConfig.from_text(cfg.to_text(), name="y")
        assert again == cfg

    def test_bundled_configs_roundtrip(self):
        names = [f for f in os.listdir(REPO_CONFIGS) if f.endswith(".cfg")]
        assert len(names) >= 6
        for name in names:
            cfg = ExperimentConfig.from_file(os.path.join(REPO_CONFIGS, name))
            again = ExperimentConfig.from_text(cfg.to_text(), name=cfg.name)
            assert again == cfg, name

    def test_range_sweep(self):
        text = TINY_CFG.replace("values = 1e-4, 1e-3",
                                "start = 10\nstop = 12\nstep = 1")
        cfg = ExperimentConfig.from_text(text)
        assert cfg.sweep_values == (10.0, 11.0, 12.0)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(TINY_CFG.replace(
                "values = 1e-4, 1e-3", "values ="))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(TINY_CFG.replace(
                "mode = analyze", "mode = frobnicate"))

    def test_unknown_sweep_variable_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(TINY_CFG.replace(
                "variable = lambda_e", "variable = bogus"))

    @pytest.mark.parametrize("old,new", [
        ("lambda_u = 1e-3", "lambda_u = nan"),
        ("lambda_e = 1e-3", "lambda_e = inf"),
        ("h = 10", "h = nan"),
        ("theta_c = 45 deg", "theta_c = nan"),
        ("re = 1", "re = -inf"),
        ("values = 1e-4, 1e-3", "values = 1e-4, nan"),
        ("seed = 1", "seed = 1\n[zone]\nd = inf"),
        ("seed = 1", "seed = 1\n[optimize]\nepsilon = nan"),
    ])
    def test_non_finite_values_rejected(self, old, new):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(TINY_CFG.replace(old, new))

    def test_degree_parsing(self):
        cfg = ExperimentConfig.from_text(
            TINY_CFG.replace("theta_c = 45 deg", "theta_c = 0.9"))
        assert cfg.network.theta_c == 0.9


class TestRun:
    def test_run_writes_csv(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CFG)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        csv = (tmp_path / "tiny.csv").read_text()
        header = csv.splitlines()[0].split(",")
        assert header[0] == "lambda_e"
        assert "pc_approx" in header and "pso_approx" in header \
            and "cs" in header
        assert len(csv.splitlines()) == 3

    def test_csv_deterministic(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CFG)
        cli.run(str(cfg_path), str(tmp_path / "a"))
        cli.run(str(cfg_path), str(tmp_path / "b"))
        assert (tmp_path / "a" / "tiny.csv").read_bytes() == \
            (tmp_path / "b" / "tiny.csv").read_bytes()

    def test_simulate_mode(self, tmp_path):
        text = TINY_CFG.replace("mode = analyze", "mode = simulate")
        cfg_path = tmp_path / "sim.cfg"
        cfg_path.write_text(text)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        header = (tmp_path / "tiny.csv").read_text().splitlines()[0]
        assert "pc_mc" in header and "pc_mc_hw" in header

    def test_optimize_mode(self, tmp_path):
        text = TINY_CFG.replace("mode = analyze", "mode = optimize")
        cfg_path = tmp_path / "opt.cfg"
        cfg_path.write_text(text)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        header = (tmp_path / "tiny.csv").read_text().splitlines()[0].split(",")
        for col in ("cs_no_zone", "cs_zone", "d_zone", "pso_zone"):
            assert col in header

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[network]\nlambda_u = oops\n")
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_CONFIG

    def test_nan_config_exits_without_csv(self, tmp_path):
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(TINY_CFG.replace("lambda_u = 1e-3",
                                             "lambda_u = nan"))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.run(str(tmp_path / "nope.cfg"), str(tmp_path)) == \
            EXIT_CONFIG

    def test_charts_emitted(self, tmp_path):
        text = TINY_CFG + "\n[output]\ncharts = true\n"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        svg = (tmp_path / "tiny.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UAVSEC_OUTDIR", str(tmp_path / "env_out"))
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CFG)
        assert cli.run(str(cfg_path)) == EXIT_OK
        assert (tmp_path / "env_out" / "tiny.csv").exists()


class TestEntryPoint:
    def test_version(self, capsys):
        assert cli.main(["version"]) == EXIT_OK
        from uavsec import __version__
        assert capsys.readouterr().out.strip() == __version__

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CFG)
        assert cli.main(["run", str(cfg_path),
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        # one summary line per sweep point
        assert out.count("tiny: lambda_e=") == 2


    def test_validate_exit_code_follows_verdict(self, monkeypatch, capsys):
        for passed, code in ((False, EXIT_VALIDATION), (True, EXIT_OK)):
            report = ValidationReport([ValidationRow("check", 0.0, 1.0,
                                                     passed)])
            monkeypatch.setattr(cli, "validate_suite",
                                lambda *args, r=report: r)
            assert cli.main(["validate", "--fast"]) == code
            assert capsys.readouterr().out.endswith(
                "overall: " + ("PASS" if passed else "FAIL") + "\n")


class TestValidateSuite:
    def test_fast_suite_passes(self):
        report = validate_suite(n_realizations=20_000, seed=42)
        assert report.passed, report.format()

    def test_corrupted_gain_ratio_flags_mismatch(self):
        # killing the 20 dB LoS advantage shifts the closed forms well past
        # the simulator's confidence width
        report = validate_suite(n_realizations=20_000, seed=42,
                                corrupt_eta=100.0)
        assert not report.passed
        failing = [r.name for r in report.rows if not r.passed]
        assert any("pc" in name for name in failing)

    def test_seed_stability_of_verdicts(self):
        a = validate_suite(n_realizations=20_000, seed=42)
        b = validate_suite(n_realizations=20_000, seed=1234)
        assert [r.passed for r in a.rows] == [r.passed for r in b.rows]


def test_chart_rendering_smoke():
    svg = render_chart([1.0, 2.0, 3.0], {"a": [0.1, 0.2, 0.3]}, "x",
                       title="t", log_x=False, log_y=False)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    svg_log = render_chart([1e-4, 1e-3], {"a": [0.5, 0.1]}, "x", log_x=True,
                           log_y=True)
    assert "polyline" in svg_log
