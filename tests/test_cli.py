import os
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from uavsec import analytic, cli
from uavsec.chart import render_chart
from uavsec.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
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
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


class TestConfigParsing:
    def test_parse_and_fields(self):
        cfg = ExperimentConfig.from_text(TINY_CFG, name="x")
        assert cfg.name == "tiny"
        assert cfg.mode == "analyze"
        assert cfg.sweep_variable == "lambda_e"
        assert cfg.sweep_values == (1e-4, 1e-3)
        assert cfg.rt == 5.0 and cfg.re == 1.0
        assert cfg.network.theta_c == pytest.approx(0.7853981633974483)

    def test_bundled_configs_parse(self):
        names = [f for f in os.listdir(REPO_CONFIGS) if f.endswith(".cfg")]
        assert len(names) >= 6
        for name in names:
            ExperimentConfig.from_file(os.path.join(REPO_CONFIGS, name))

    def test_range_sweep(self):
        text = TINY_CFG.replace("values = 1e-4, 1e-3",
                                "start = 10\nstop = 12\nstep = 1")
        cfg = ExperimentConfig.from_text(text)
        assert cfg.sweep_values == (10.0, 11.0, 12.0)

    def test_secrecy_rate_sets_rate_gap(self):
        cfg = ExperimentConfig.from_text(
            TINY_CFG.replace("re = 1", "rs = 4"))
        assert (cfg.rt, cfg.re) == (5.0, 1.0)

    @pytest.mark.parametrize("variable, value", [
        ("h", 60.0), ("h", 5.0), ("h", 20.0), ("d", 12.0), ("rt", 6.0),
        ("re", 2.5), ("epsilon", 0.05)])
    def test_point_sets_the_swept_variable(self, variable, value):
        base = ExperimentConfig.from_text(TINY_CFG)
        net, rt, re, zone, eps = replace(
            base, sweep_variable=variable).at(value)
        got = {"h": net.h, "d": zone.d if zone is not None else None,
               "rt": rt, "re": re, "epsilon": eps}
        want = {"h": 10.0, "d": None, "rt": 5.0, "re": 1.0, "epsilon": 0.01}
        want[variable] = value
        assert got == want
        # an altitude sweep widens [h_min, h_max] = [10, 50] to cover it
        assert (net.h_min, net.h_max) == (
            (min(10.0, value), max(50.0, value)) if variable == "h"
            else (10.0, 50.0))
        assert replace(net, h=10.0, h_min=10.0, h_max=50.0) == base.network

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(TINY_CFG.replace(
                "values = 1e-4, 1e-3", "values ="))

    @pytest.mark.parametrize("change", [
        {"n_realizations": 0}, {"sweep_values": ()}, {"mode": "bogus"}])
    def test_replace_is_checked(self, change):
        with pytest.raises(ValueError):
            replace(ExperimentConfig.from_text(TINY_CFG), **change)

    def test_readme_config_reference_names_every_key(self):
        # the README's INI block parses, and each section of it names
        # (as `key =`, in an option or a comment) every key the parser reads
        with open(README, encoding="utf-8") as fh:
            block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
        ExperimentConfig.from_text(block)
        sections = dict(re.findall(r"^\[(\w+)\](.*?)(?=^\[|\Z)", block,
                                   re.S | re.M))
        assert set(sections) == set(cli._KEYS)
        for section, keys in cli._KEYS.items():
            for key in keys:
                assert re.search(rf"\b{key} =", sections[section]), \
                    f"[{section}] {key}"

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

    def test_whole_float_counts_and_flag_case(self):
        cfg = ExperimentConfig.from_text(
            TINY_CFG.replace("n_realizations = 500", "n_realizations = 1e5")
            + "\n[output]\ncharts = TRUE\nlog_x = False\n")
        assert cfg.n_realizations == 100_000
        assert type(cfg.n_realizations) is int
        assert cfg.charts and not cfg.log_x and not cfg.log_y

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

    def test_zero_capacity_optimum_exits_infeasible(self, tmp_path):
        # every altitude's connection probability underflows to 0 at its
        # optimal rates (tests/test_optimizer.py, zero-capacity grid)
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text(
            "[experiment]\nmode = optimize\n\n"
            "[network]\nlambda_u = 0.0921\nlambda_e = 1.1223e-3\n"
            "h = 49.6\nh_min = 49\nh_max = 50\ntheta_c = 0.579\n\n"
            "[sweep]\nvariable = lambda_e\nvalues = 1.1223e-3\n\n"
            "[optimize]\nepsilon = 0.01\n")
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == \
            EXIT_INFEASIBLE
        assert not (tmp_path / "out" / "zero.csv").exists()

    @pytest.mark.parametrize("old,new", [
        ("h = 10", "h = 10\neta_nlso = 0.5"),
        ("h = 10", "h = 10\np_t = 7"),
        ("seed = 1", "seed = 1\nbatch_size = 10"),
        ("[sweep]", "[sweeep]\nvariable = h\n\n[sweep]"),
    ])
    def test_unknown_key_exits_without_csv(self, tmp_path, old, new):
        cfg_path = tmp_path / "typo.cfg"
        cfg_path.write_text(TINY_CFG.replace(old, new))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new", [
        ("n_realizations = 500", "n_realizations = 1000.7"),
        ("n_realizations = 500", "n_realizations = 0"),
        ("seed = 1", "seed = -3"),
        ("seed = 1", "seed = 1\n[output]\ncharts = yes"),
        ("seed = 1", "seed = 1\n[output]\nlog_x = ture"),
        ("seed = 1", "seed = 1\n[output]\nlog_y = 1"),
        ("lambda_u = 1e-3\n", ""),
        ("lambda_e = 1e-3\n", ""),
        ("seed = 1", "seed = 1\nwindow_radius = 0"),
        ("seed = 1", "seed = 1\nwindow_radius = -5"),
        ("seed = 1", "seed = 1\n[optimize]\nepsilon = 1.5"),
        # only the highest sweep value is out of domain
        ("variable = lambda_e\nvalues = 1e-4, 1e-3",
         "variable = theta_c\nvalues = 0.5, 2.0"),
    ])
    def test_out_of_domain_value_exits_without_csv(self, tmp_path, capsys,
                                                   old, new):
        for mode in ("analyze", "simulate", "optimize"):
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(TINY_CFG.replace(old, new).replace(
                "mode = analyze", f"mode = {mode}"))
            assert cli.run(str(cfg_path), str(tmp_path / "out")) == \
                EXIT_CONFIG
            assert not (tmp_path / "out").exists()
            out, err = capsys.readouterr()
            assert "tiny:" not in out        # no sweep point was computed
            if not new:                      # a missing density is named
                assert f"[network] {old.split()[0]} is required" in err

    # 2^2000 overflows a float; a negative rate gap is a negative threshold
    # (the last only at the highest sweep value)
    @pytest.mark.parametrize("old,new", [
        ("rt = 5", "rt = 2000"),
        ("re = 1", "re = -3"),
        ("variable = lambda_e\nvalues = 1e-4, 1e-3",
         "variable = rt\nvalues = 4, 5, 2000")])
    @pytest.mark.parametrize("mode", ["analyze", "simulate"])
    def test_out_of_range_rate_exits_without_csv(self, tmp_path, capsys, old,
                                                 new, mode):
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text(TINY_CFG.replace(old, new).replace(
            "mode = analyze", f"mode = {mode}"))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out" / "tiny.csv").exists()
        assert "tiny:" not in capsys.readouterr().out

    @pytest.mark.parametrize("code, variable", [
        ("rs = 4", "rt"),                     # no rt: re would stay unset
        ("rt = 5\nre = 1\nrs = 4", "lambda_e"),  # re given as well
        ("rt = 5\nrs = 4", "re"),             # the re sweep would replace it
        ("rt = 5\nrs = 4", "rt"),             # rs would hold at rt = 5 only
    ])
    def test_unused_secrecy_rate_exits_without_csv(self, tmp_path, code,
                                                   variable):
        cfg_path = tmp_path / "rs.cfg"
        cfg_path.write_text(TINY_CFG.replace("rt = 5\nre = 1", code).replace(
            "variable = lambda_e", f"variable = {variable}"))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out" / "tiny.csv").exists()

    def test_saturated_outage_writes_csv(self, tmp_path):
        # pi lambda_u H^2 = 711.5 is past exp's float range in the outage
        # form's LoS-disk term: the outage saturates at 1
        text = (TINY_CFG.replace("lambda_u = 1e-3", "lambda_u = 0.09206")
                .replace("h = 10", "h = 49.598\nh_max = 50")
                .replace("theta_c = 45 deg", "theta_c = 0.5790 rad")
                .replace("re = 1", "re = 0.1947174628935997")
                .replace("values = 1e-4, 1e-3", "values = 1.1223e-3"))
        cfg_path = tmp_path / "sat.cfg"
        cfg_path.write_text(text)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        header, row = (tmp_path / "tiny.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["pso_approx"] \
            == "1"

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


# `validate_suite(20_000, 42).format()`, recorded before the suite read its
# numbers from the validate-mode sweep points.
FAST_SUITE_TABLE = "\n".join([
    "check                                  observed  tolerance verdict",
    "pc rayleigh-model within halfwidth      0.00000    1.00000 PASS  "
    "misses over 10 grid points",
    "pc exact-model absolute deviation       0.02166    0.03000 PASS  ",
    "pso small-regime deviation (no zone)      0.01853    0.02000 PASS  "
    "2 points in regime",
    "pso small-regime deviation (d=10)       0.00561    0.02000 PASS  "
    "3 points in regime",
    "pso small-regime deviation (d=20)       0.00312    0.02000 PASS  "
    "3 points in regime",
])


class TestValidateSuite:
    def test_fast_suite_passes(self):
        report = validate_suite(n_realizations=20_000, seed=42)
        assert report.passed, report.format()
        assert report.format() == FAST_SUITE_TABLE

    def test_corrupted_gain_ratio_flags_mismatch(self, monkeypatch):
        # killing the 20 dB LoS advantage in the closed forms that the
        # suite reads (not in the simulators or their window policies)
        # shifts them well past the simulator's confidence width
        def corrupted(form):
            def wrapped(p, *args):
                return form(replace(p, eta_nlos=min(p.eta_nlos * 100.0,
                                                    p.eta_los)), *args)
            return wrapped

        forms = SimpleNamespace(**vars(analytic))
        for name in ("pc_approx", "pso_approx", "pso_zone_approx"):
            setattr(forms, name, corrupted(getattr(analytic, name)))
        monkeypatch.setattr(cli, "analytic", forms)
        report = validate_suite(n_realizations=20_000, seed=42)
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
