"""Load every script under scripts/, run the window audit, the fast
figure set and the reach trace, and install and exercise the benchmark's
tracer, so a renamed library name or parameter they use, a bundled config
the checks reject, or library code that only tests call, fails here
rather than in a user's run or a benchmark pass."""

import glob
import os
import runpy
import subprocess
import sys

import pytest

from uavsec import NetworkParams, analytic, cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_scripts_load():
    paths = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    assert paths
    for path in paths:
        assert callable(runpy.run_path(path, run_name="smoke")["main"])


def test_bench_pairs_counts_source_lines():
    script = runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"),
                            run_name="smoke")
    counts = script["line_counts"](ROOT)
    path = os.path.join(ROOT, "src", "uavsec", "model.py")
    with open(path, encoding="utf-8") as fh:
        assert counts["files"]["model.py"] == len(fh.readlines())
    assert counts["total"] == sum(counts["files"].values())


def test_compare_outputs_lists_moved_cells(tmp_path):
    # Only the Monte Carlo cells that moved are listed, each with its gap
    # in combined half-widths (here 0.003 / hypot(0.003, 0.004) = 0.6).
    script = runpy.run_path(
        os.path.join(ROOT, "scripts", "compare_outputs.py"), run_name="smoke")
    head = "lambda_e,pso_approx,pso_mc_exact,pso_mc_exact_hw\n"
    paths = [tmp_path / "parent.csv", tmp_path / "change.csv"]
    paths[0].write_text(head + "0.001,0.5,0.42,0.003\n0.003,0.8,0.75,0.01\n")
    paths[1].write_text(head + "0.001,0.6,0.423,0.004\n0.003,0.8,0.75,0.01\n")
    assert script["moved_cells"](paths) == [
        "    pso_mc_exact at lambda_e = 0.001: 0.42 -> 0.423 "
        "(0.60 combined half-widths)"]


def test_outage_window_audit_runs(monkeypatch, capsys):
    # the one script that reaches the simulator through a private name
    monkeypatch.setattr("sys.argv", ["outage_window_audit.py", "200"])
    script = runpy.run_path(
        os.path.join(ROOT, "scripts", "outage_window_audit.py"),
        run_name="smoke")
    assert script["main"]() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[1].startswith("lambda_e=3e-05")


def test_reproduce_figures_fast_runs(monkeypatch, tmp_path):
    # every bundled config passes its checks and writes its CSV and chart
    monkeypatch.setattr("sys.argv", ["reproduce_figures.py", str(tmp_path),
                                     "--fast"])
    script = runpy.run_path(
        os.path.join(ROOT, "scripts", "reproduce_figures.py"),
        run_name="smoke")
    assert script["main"]() == 0
    configs = glob.glob(os.path.join(ROOT, "configs", "*.cfg"))
    assert len(configs) == 8
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(c)[:-4] + ext for c in configs
        for ext in (".csv", ".svg"))


@pytest.mark.parametrize("flags", [["--fast"], []],
                         ids=["fast", "full"])
def test_reproduce_figures_goes_past_a_rejected_config(monkeypatch, capsys,
                                                       tmp_path, flags):
    # the closed forms reject alpha_los = 3 at parse time, with and without
    # the budget cut; the next config still runs
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    text = ("[experiment]\nname = {}\n\n[network]\nlambda_u = 1e-3\n"
            "lambda_e = 1e-3\n{}\n[code]\nrt = 5\nre = 1\n\n[sweep]\n"
            "variable = lambda_e\nvalues = 1e-4, 1e-3\n\n[output]\n"
            "charts = true\n")
    (configs / "a_bad.cfg").write_text(text.format("bad", "alpha_los = 3"))
    (configs / "b_good.cfg").write_text(text.format("good", ""))
    monkeypatch.setattr("sys.argv", ["reproduce_figures.py", str(out),
                                     *flags])
    main = runpy.run_path(
        os.path.join(ROOT, "scripts", "reproduce_figures.py"),
        run_name="smoke")["main"]
    monkeypatch.setitem(main.__globals__, "CONFIGS", str(configs))
    assert main() == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: closed forms require")
    assert sorted(os.listdir(out)) == ["good.csv", "good.svg"]


# What `scripts/reach.py` finds that no run reaches, and why each stays.
UNREACHED = {
    "analytic.effective_density": "only analyze-mode cs reaches it, and no "
                                  "bundled config or workload runs that",
    "analytic.stc": "only analyze-mode cs reaches it, as above",
    "mathkit.AccuracyError.__init__": "an error path",
    "mathkit.lambert_w0": "the benchmark tracer binds it (ROADMAP item 1)",
    "mathkit.bisect_root": "the benchmark tracer binds it (ROADMAP item 1)",
    "optimizer.InfeasibleError.__init__": "an error path",
    "optimizer.solve_re": "the benchmark tracer binds it (ROADMAP item 1)",
    "optimizer._solve_re_cells": "the body of `solve_re`, as above",
}


def test_reach_finds_no_code_that_only_tests_call():
    # a fresh process: the trace imports the benchmark's workloads
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"),
                      os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "reach.py")],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.splitlines()) == sorted(UNREACHED)


def test_benchmark_tracer_binds_every_traced_function(monkeypatch):
    # `install` looks up each traced function by module and name, so a
    # rename such as `integrate_radial` or `_hypoexp_cdf_mp` fails here.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "uavbench"))
    import tracer

    t = tracer.Tracer("t")
    try:
        t.install()
    finally:
        assert t.uninstall()


def test_benchmark_tracer_observers_read_their_arguments(monkeypatch,
                                                         tmp_path):
    # the observers bind call arguments by parameter name and the outage
    # observer calls `montecarlo._outage_windows`, so a rename there fails
    # here rather than only in a traced benchmark pass
    monkeypatch.syspath_prepend(os.path.join(ROOT, "uavbench"))
    import tracer

    base = ("[network]\nlambda_u = 1e-3\nlambda_e = 1e-4\n\n"
            "[sweep]\nvariable = lambda_e\nvalues = 1e-4\n\n")
    texts = {"val": "[experiment]\nmode = validate\nmetrics = pc, pso\n\n"
                    + base + "[code]\nrt = 5\nre = 1\n\n[zone]\nd = 5\n\n"
                    "[sim]\nn_realizations = 200\n",
             "opt": "[experiment]\nmode = optimize\n\n" + base}
    net = NetworkParams(lambda_u=1e-3, lambda_e=1e-4)
    t = tracer.Tracer("t")
    try:
        t.install()
        for name, text in texts.items():
            (tmp_path / f"{name}.cfg").write_text(text)
            assert cli.run(str(tmp_path / f"{name}.cfg"),
                           str(tmp_path / "out")) == cli.EXIT_OK
        analytic.pc_exact(net, 31.0, n_realizations=3)
        analytic.pso_exact(net, 1.0, n_realizations=2, tol=1e-2)
    finally:
        assert t.uninstall()
    metrics = t.layer_metrics()
    for key in ("montecarlo.sim_outage.pairs_computed", "optimizer.cells",
                "model.connection_window_radius.m",
                "model.outage_window_radius.m", "cli.write_csv.bytes",
                "analytic.pc_exact.s_per_realization",
                "analytic.pso_exact.s_per_realization"):
        assert metrics[key] > 0, key
