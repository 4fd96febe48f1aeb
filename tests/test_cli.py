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


def in_mode(text, mode):
    """A TINY_CFG-based config in `mode`; simulate has no cs estimate, so
    there it asks for pc and pso only, and optimize chooses the rates, so
    there they are not set."""
    text = text.replace("mode = analyze", f"mode = {mode}")
    if mode == "simulate":
        text = text.replace("metrics = pc, pso, cs", "metrics = pc, pso")
    if mode == "optimize":
        text = text.replace("rt = 5\nre = 1\n", "")
    return text


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

    @pytest.mark.parametrize("variable, value", [
        ("h", 60.0), ("h", 5.0), ("h", 20.0), ("d", 12.0), ("rt", 6.0),
        ("re", 2.5), ("epsilon", 0.05)])
    def test_point_sets_the_swept_variable(self, variable, value):
        base = ExperimentConfig.from_text(TINY_CFG)
        # only optimize reads epsilon, and it takes no rates
        rates = {"rt": None, "re": None} if variable == "epsilon" \
            else {"rt": 5.0, "re": 1.0}
        mode = "optimize" if variable == "epsilon" else base.mode
        net, rt, re, zone, eps = replace(
            base, mode=mode, sweep_variable=variable,
            sweep_values=(value,), **rates).at(value)
        got = {"h": net.h, "d": zone.d if zone is not None else None,
               "rt": rt, "re": re, "epsilon": eps}
        want = {"h": 10.0, "d": None, **rates, "epsilon": 0.01}
        want[variable] = value
        assert got == want
        # [h_min, h_max] = [10, 50] is the optimizer's range, whatever h is
        assert (net.h_min, net.h_max) == (10.0, 50.0)
        assert replace(net, h=10.0) == base.network

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text(TINY_CFG.replace(
                "values = 1e-4, 1e-3", "values ="))

    @pytest.mark.parametrize("change", [
        {"n_realizations": 0}, {"n_realizations": 100.5},
        {"sweep_values": ()}, {"mode": "bogus"}])
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

    def test_readme_library_quick_start_runs(self, capsys):
        # the README's Python block runs as written, so a public name it
        # uses cannot go stale
        with open(README, encoding="utf-8") as fh:
            block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                              fh.read(), re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})
        assert len(capsys.readouterr().out.split()) == 4

    @pytest.mark.parametrize("new, message", [
        ("model = Rayleigh",
         "unknown fading model 'Rayleigh' (one of exact, rayleigh)"),
        ("model = 1", "unknown fading model '1' (one of exact, rayleigh)"),
        ("seed = -1", "seed must be nonnegative, got -1"),
    ])
    def test_sim_rules_are_simconfig_rules(self, new, message):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_text(TINY_CFG.replace("seed = 1", new))
        assert str(exc.value) == message
        cfg = ExperimentConfig.from_text(TINY_CFG + "model = rayleigh\n")
        assert cfg.model == "rayleigh"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text(TINY_CFG.replace(
                "mode = analyze", "mode = frobnicate"))

    def test_unknown_sweep_variable_rejected(self):
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
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
        text = in_mode(TINY_CFG, "simulate")
        cfg_path = tmp_path / "sim.cfg"
        cfg_path.write_text(text)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        header = (tmp_path / "tiny.csv").read_text().splitlines()[0]
        assert "pc_mc" in header and "pc_mc_hw" in header

    def test_optimize_mode(self, tmp_path):
        text = in_mode(TINY_CFG, "optimize")
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
        assert not (tmp_path / "out").exists()

    # typos, and the spellings the parser no longer reads (a sweep range,
    # a secrecy rate in place of re, an output directory in the file)
    @pytest.mark.parametrize("old,new", [
        ("h = 10", "h = 10\neta_nlso = 0.5"),
        ("h = 10", "h = 10\np_t = 7"),
        ("seed = 1", "seed = 1\nbatch_size = 10"),
        ("[sweep]", "[sweeep]\nvariable = h\n\n[sweep]"),
        pytest.param("values = 1e-4, 1e-3",
                     "start = 1e-4\nstop = 1e-3\nstep = 9e-4",
                     id="sweep-range"),
        pytest.param("re = 1", "rs = 4", id="secrecy-rate"),
        pytest.param("seed = 1", "seed = 1\n[output]\ndirectory = elsewhere",
                     id="output-directory"),
    ])
    def test_unknown_key_exits_without_csv(self, tmp_path, monkeypatch,
                                           capsys, old, new):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "typo.cfg"
        cfg_path.write_text(TINY_CFG.replace(old, new))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert sorted(os.listdir(tmp_path)) == ["typo.cfg"]
        err = capsys.readouterr().err
        for key in re.findall(r"^(\w+) =", new, re.M):
            if f"{key} =" not in TINY_CFG:       # each unknown key is named
                assert re.search(rf"\]: .*\b{key}\b", err), key

    @pytest.mark.parametrize("old, key", [
        ("variable = lambda_e\n", "[sweep] variable"),
        ("values = 1e-4, 1e-3\n", "[sweep] values"),
        ("[sweep]\nvariable = lambda_e\nvalues = 1e-4, 1e-3\n",
         "[sweep] variable"),
    ])
    def test_missing_sweep_key_exits_without_csv(self, tmp_path, capsys, old,
                                                 key):
        cfg_path = tmp_path / "nosweep.cfg"
        cfg_path.write_text(TINY_CFG.replace(old, ""))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == f"error: {key} is required\n"

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
        # a name that is not a plain file name
        ("name = tiny", "name = sub/tiny"),
        ("name = tiny", "name = .."),
        # only the highest sweep value is out of domain
        ("variable = lambda_e\nvalues = 1e-4, 1e-3",
         "variable = theta_c\nvalues = 0.5, 2.0"),
    ])
    def test_out_of_domain_value_exits_without_csv(self, tmp_path, capsys,
                                                   old, new):
        for mode in ("analyze", "simulate", "optimize"):
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(in_mode(TINY_CFG.replace(old, new), mode))
            assert cli.run(str(cfg_path), str(tmp_path / "out")) == \
                EXIT_CONFIG
            assert not (tmp_path / "out").exists()
            out, err = capsys.readouterr()
            assert "tiny:" not in out        # no sweep point was computed
            if not new:                      # a missing density is named
                assert f"[network] {old.split()[0]} is required" in err

    @pytest.mark.parametrize("mode", ["simulate", "validate"])
    def test_window_inside_a_later_los_radius_exits_without_csv(
            self, tmp_path, capsys, mode):
        # K = h at theta_c = 45 deg: the 30 m window is inside it at h = 40
        text = TINY_CFG.replace(
            "variable = lambda_e\nvalues = 1e-4, 1e-3",
            "variable = h\nvalues = 10, 20, 40").replace(
            "seed = 1", "seed = 1\nwindow_radius = 30")
        cfg_path = tmp_path / "window.cfg"
        cfg_path.write_text(in_mode(text, mode))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        out, err = capsys.readouterr()
        assert "tiny:" not in out        # no sweep point was computed
        assert ("window_radius = 30 must exceed the LoS radius 40 m at "
                "h = 40 m") in err
        # the modes that do not simulate ignore the window: analyze, and
        # optimize (which never reads h) over theta_c, where K = 49 m at
        # theta_c = 0.2
        ExperimentConfig.from_text(text)
        text = text.replace("variable = h\nvalues = 10, 20, 40",
                            "variable = theta_c\nvalues = 0.785, 0.2")
        with pytest.raises(ValueError, match="LoS radius 49.3315 m"):
            ExperimentConfig.from_text(in_mode(text, mode))
        ExperimentConfig.from_text(in_mode(text, "optimize"))

    # each closed form's domain (the cs case breaks it only at the second
    # sweep point); validate computes the same closed forms, and optimize
    # reads the exponents too
    @pytest.mark.parametrize("old, new, modes, rule", [
        pytest.param("re = 1", "re = 0", ("analyze", "validate"),
                     "pso_zone_approx: beta_e = 0.0 must be finite and "
                     "positive", id="re0-pso"),
        pytest.param("rt = 5\nre = 1\n\n[sweep]\nvariable = lambda_e\n"
                     "values = 1e-4, 1e-3",
                     "rt = 1.5\n\n[sweep]\nvariable = re\nvalues = 1, 2",
                     ("analyze", "validate"),
                     "stc: rs = -0.5 must be finite and nonnegative",
                     id="cs-re-sweep-past-rt"),
        pytest.param("theta_c = 45 deg", "theta_c = 45 deg\nalpha_los = 3",
                     ("analyze", "validate", "optimize"),
                     "closed forms require alpha_los = 2 and alpha_nlos = 4",
                     id="alpha_los3"),
    ])
    def test_closed_form_domain_exits_without_csv(self, tmp_path, capsys, old,
                                                  new, modes, rule):
        text = TINY_CFG.replace(old, new)
        assert text != TINY_CFG
        for mode in modes:
            cfg_path = tmp_path / "domain.cfg"
            cfg_path.write_text(in_mode(text, mode))
            assert cli.run(str(cfg_path), str(tmp_path / "out")) == \
                EXIT_CONFIG
            assert not (tmp_path / "out").exists()
            out, err = capsys.readouterr()
            assert "tiny:" not in out        # no sweep point was computed
            assert rule in err
        if "alpha_los" in new:               # the simulators take any exponent
            ExperimentConfig.from_text(in_mode(text, "simulate"))

    def test_altitude_outside_the_optimizer_range_writes_csv(self, tmp_path):
        cfg_path = tmp_path / "high.cfg"
        cfg_path.write_text(TINY_CFG.replace("h = 10", "h = 60"))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_OK
        assert len((tmp_path / "out" / "tiny.csv").read_text()
                   .splitlines()) == 3

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
        cfg_path.write_text(in_mode(TINY_CFG.replace(old, new), mode))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out" / "tiny.csv").exists()
        assert "tiny:" not in capsys.readouterr().out

    # a sweep over a variable the mode never reads: every row would be the
    # same (the searches choose h, d, rt and re; only they read epsilon)
    @pytest.mark.parametrize("mode, variable, values", [
        ("analyze", "epsilon", "0.01, 0.05"),
        ("simulate", "epsilon", "0.01, 0.05"),
        ("validate", "epsilon", "0.01, 0.05"),
        ("optimize", "rt", "3, 5, 7"),
        ("optimize", "re", "1, 2"),
        ("optimize", "h", "10, 20"),
        ("optimize", "d", "5, 10"),
    ], ids=["analyze", "simulate", "validate", "optimize-rt", "optimize-re",
            "optimize-h", "optimize-d"])
    def test_sweep_the_mode_never_reads_exits_without_csv(
            self, tmp_path, capsys, mode, variable, values):
        cfg_path = tmp_path / "unread.cfg"
        cfg_path.write_text(in_mode(TINY_CFG.replace(
            "variable = lambda_e\nvalues = 1e-4, 1e-3",
            f"variable = {variable}\nvalues = {values}"), mode))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == (
            f"error: {mode} mode never reads {variable}: every row would be "
            f"the same\n")

    # optimize chooses the rates and the zone: a fixed one is never read
    @pytest.mark.parametrize("old, new, key", [
        ("[code]\n", "[code]\nrt = 5\n", "[code] rt"),
        ("[code]\n", "[code]\nre = 1\n", "[code] re"),
        ("[sim]\n", "[zone]\nd = 10\n\n[sim]\n", "[zone] d"),
    ], ids=["rt", "re", "d"])
    def test_optimize_with_a_fixed_rate_or_zone_exits_without_csv(
            self, tmp_path, capsys, old, new, key):
        cfg_path = tmp_path / "fixed.cfg"
        cfg_path.write_text(in_mode(TINY_CFG, "optimize").replace(old, new))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == (
            f"error: optimize mode never reads {key}: the searches choose "
            f"it\n")

    # a sweep over a variable that no requested metric reads: pc reads
    # neither lambda_e, d nor re, pso not rt
    @pytest.mark.parametrize("metrics, variable, values", [
        ("pc", "d", "5, 10, 20"),
        ("pc", "re", "1, 2"),
        ("pc", "lambda_e", "1e-4, 1e-3"),
        ("pso", "rt", "4, 5"),
    ], ids=["pc-d", "pc-re", "pc-lambda_e", "pso-rt"])
    @pytest.mark.parametrize("mode", ["analyze", "simulate", "validate"])
    def test_sweep_no_requested_metric_reads_exits_without_csv(
            self, tmp_path, capsys, mode, metrics, variable, values):
        cfg_path = tmp_path / "unread.cfg"
        cfg_path.write_text(in_mode(TINY_CFG.replace(
            "metrics = pc, pso, cs", f"metrics = {metrics}").replace(
            "variable = lambda_e\nvalues = 1e-4, 1e-3",
            f"variable = {variable}\nvalues = {values}"), mode))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == (
            f"error: no requested metric reads {variable} (metrics = "
            f"{metrics}): every row would be the same\n")

    # pc needs rt, pso needs re, cs needs both and is never simulated
    @pytest.mark.parametrize("mode, metrics, rates, message", [
        ("simulate", "metrics = cs\n", "rt = 5\nre = 1\n",
         "simulate mode has no cs estimate"),
        ("analyze", "metrics = pso\n", "rt = 5\n",
         "metric pso needs [code] re"),
        ("validate", "metrics = pc\n", "re = 1\n",
         "metric pc needs [code] rt"),
        ("validate", "metrics = cs\n", "", "metric cs needs [code] rt and re"),
        ("analyze", "", "",
         "no metric to compute: set [code] rt for pc, re for pso, or both "
         "for cs"),
    ], ids=["simulate-cs", "analyze-pso-no-re", "validate-pc-no-rt",
            "validate-cs-no-rates", "analyze-no-rates"])
    def test_metric_the_mode_cannot_compute_exits_without_csv(
            self, tmp_path, capsys, mode, metrics, rates, message):
        cfg_path = tmp_path / "metric.cfg"
        cfg_path.write_text(in_mode(TINY_CFG.replace(
            "metrics = pc, pso, cs\n", metrics).replace(
            "rt = 5\nre = 1\n", rates), mode))
        assert cli.run(str(cfg_path), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("rates, sweep, metrics", [
        ("rt = 5\nre = 1\n", "lambda_e", ("pc", "pso")),
        ("rt = 5\n", "lambda_u", ("pc",)),
        ("re = 1\n", "lambda_e", ("pso",)),
        ("rt = 5\n", "re", ("pc", "pso")),
        ("", "rt", ("pc",)),
    ], ids=["both", "rt", "re", "rt-re-swept", "rt-swept"])
    def test_default_metrics_are_what_the_rates_allow(self, rates, sweep,
                                                      metrics):
        text = TINY_CFG.replace("metrics = pc, pso, cs\n", "").replace(
            "rt = 5\nre = 1\n", rates).replace(
            "variable = lambda_e\nvalues = 1e-4, 1e-3",
            f"variable = {sweep}\nvalues = 2, 3")
        assert ExperimentConfig.from_text(text).metrics == metrics

    def test_optimize_ignores_metrics(self):
        # so it needs neither rate
        text = TINY_CFG.replace("mode = analyze", "mode = optimize").replace(
            "rt = 5\nre = 1\n", "")
        assert ExperimentConfig.from_text(text).metrics == ("pc", "pso", "cs")
        assert ExperimentConfig.from_text(text.replace(
            "metrics = pc, pso, cs\n", "")).metrics == ()

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

    def test_huge_rate_gap_writes_csv(self, tmp_path):
        # re = 900 bps/Hz: the outage form saturates to 0, not a traceback
        text = (TINY_CFG.replace("metrics = pc, pso, cs", "metrics = pso")
                .replace("re = 1", "re = 900")
                .replace("values = 1e-4, 1e-3", "values = 1e-3"))
        cfg_path = tmp_path / "gap.cfg"
        cfg_path.write_text(text)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        header, row = (tmp_path / "tiny.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["pso_approx"] \
            == "0"

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.run(str(tmp_path / "nope.cfg"), str(tmp_path)) == \
            EXIT_CONFIG

    @pytest.mark.parametrize("charts", ["false", "true"])
    def test_unwritable_out_dir_exits_config(self, tmp_path, capsys, charts):
        # an output directory that is an existing file: the points are
        # computed, then the write fails as one error line
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CFG + f"\n[output]\ncharts = {charts}\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        assert cli.run(str(cfg_path), str(afile)) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out.count("tiny: lambda_e=") == 2 and "wrote" not in out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(afile) in err and afile.read_text() == ""

    def test_charts_emitted(self, tmp_path):
        text = TINY_CFG + "\n[output]\ncharts = true\n"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        assert cli.run(str(cfg_path), str(tmp_path)) == EXIT_OK
        svg = (tmp_path / "tiny.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.cfg").write_text(TINY_CFG)
        assert cli.run("tiny.cfg") == EXIT_OK
        assert len((tmp_path / "out" / "tiny.csv").read_text()
                   .splitlines()) == 3


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


    def test_validate_bad_seed_exits_config(self, capsys):
        # the suite's first config rejects the seed before any simulation
        assert cli.main(["validate", "--fast", "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: seed must be nonnegative, got -1\n"

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
