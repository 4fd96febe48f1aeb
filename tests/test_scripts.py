"""Load every script under scripts/, run the window audit and the fast
figure set, and install the benchmark's tracer, so a renamed library name
they use, or a bundled config the checks reject, fails here rather than in
a user's run or a benchmark pass."""

import glob
import os
import runpy

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
