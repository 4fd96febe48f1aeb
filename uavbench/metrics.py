"""Names, units and kinds of the benchmark's metrics (shared by run.py, which
prints them, and tracer.py, which computes the per-layer ones)."""

# End-to-end metric -> unit; every one is lower-is-better.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "time_to_hw_s": "s",
}

# Per-layer metric -> (unit, kind). "exact" metrics are counts or values
# derived from counts and inputs, which must repeat exactly between two
# traced passes on one seed; "time" metrics are medians over them.
LAYER_METRICS = {
    "montecarlo.sim_outage.calls": ("count", "exact"),
    "montecarlo.sim_outage.s": ("s", "time"),
    "montecarlo.sim_outage.s_per_1e5": ("s", "time"),
    "montecarlo.sim_outage.pairs_computed": ("count", "exact"),
    "montecarlo.sim_outage.pairs_per_s": ("1/s", "time"),
    "model.outage_window_radius.m": ("m", "exact"),
    "montecarlo.sim_connection.calls": ("count", "exact"),
    "montecarlo.sim_connection.s": ("s", "time"),
    "montecarlo.sim_connection.s_per_1e5": ("s", "time"),
    "model.connection_window_radius.m": ("m", "exact"),
    "analytic.pso_exact.calls": ("count", "exact"),
    "analytic.pso_exact.s": ("s", "time"),
    "analytic.pso_exact.s_per_realization": ("s", "time"),
    "analytic.pc_exact.s_per_realization": ("s", "time"),
    "mathkit.integrate_radial.calls": ("count", "exact"),
    "mathkit.integrate_radial.s": ("s", "time"),
    "mathkit.integrate_radial.panels": ("count", "exact"),
    "mathkit.integrate_radial.panels_per_call": ("count", "exact"),
    "mathkit.hypoexp_cdf.calls": ("count", "exact"),
    "mathkit.hypoexp_cdf.s": ("s", "time"),
    "mathkit.hypoexp_cdf.mp_fallback_share": ("ratio", "exact"),
    "model.sample_ppp.calls": ("count", "exact"),
    "model.sample_ppp.s": ("s", "time"),
    "model.sample_ppp.points": ("count", "exact"),
    "optimizer.optimize_zone.calls": ("count", "exact"),
    "optimizer.optimize_zone.s": ("s", "time"),
    "optimizer.optimize_no_zone.calls": ("count", "exact"),
    "optimizer.optimize_no_zone.s": ("s", "time"),
    "optimizer.solve_re.calls": ("count", "exact"),
    "optimizer.solve_re.s": ("s", "time"),
    "optimizer.cells": ("count", "exact"),
    "optimizer.outage_evals_per_cell": ("count", "exact"),
    "analytic.closed_form.calls": ("count", "exact"),
    "analytic.closed_form.us_per_call": ("us", "time"),
    "mathkit.bisect_root.calls": ("count", "exact"),
    "mathkit.bisect_root.f_evals_per_call": ("count", "exact"),
    "mathkit.lambert_w0.calls": ("count", "exact"),
    "cli.run.calls": ("count", "exact"),
    "cli.run.s": ("s", "time"),
    "cli.parse.s": ("s", "time"),
    "cli.write_csv.s": ("s", "time"),
    "cli.write_csv.bytes": ("bytes", "exact"),
}
# Computed by run.py from a traced and an untraced pass.
OVERHEAD = ("trace.overhead_s", "s")
