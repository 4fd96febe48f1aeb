"""Per-layer tracing of uavsec from outside the package.

`Tracer.install()` replaces each traced public function with a timing
wrapper at every attribute of every loaded `uavsec` module that holds it,
so a caller that imported the name (`cli` imports `sim_outage`, `analytic`
imports `sample_ppp`) is traced as well as one that goes through the
module. `uninstall()` puts the originals back. Spans (id, name, start, end,
parent) stay in memory until `write_spans()`. Functions called thousands
of times per pass are timed and counted but keep no span.

A layer's `.s` metric is self time: its calls' durations minus the time
spent in traced calls beneath them.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import sys
import time

from uavsec import analytic, cli, mathkit, model, montecarlo, optimizer

from metrics import LAYER_METRICS

# Layer name -> (module, function, keep a span per call).
_TIMED = {
    "cli.run": (cli, "run", True),
    "cli.write_csv": (cli, "write_csv", True),
    "montecarlo.sim_connection": (montecarlo, "sim_connection", True),
    "montecarlo.sim_outage": (montecarlo, "sim_outage", True),
    "model.connection_window_radius": (model, "connection_window_radius",
                                       True),
    "model.outage_window_radius": (model, "outage_window_radius", True),
    "analytic.pc_exact": (analytic, "pc_exact", True),
    "analytic.pso_exact": (analytic, "pso_exact", True),
    "mathkit.integrate_radial": (mathkit, "integrate_radial", True),
    "optimizer.optimize_no_zone": (optimizer, "optimize_no_zone", True),
    "optimizer.optimize_zone": (optimizer, "optimize_zone", True),
    "optimizer.solve_re": (optimizer, "solve_re", False),
    "mathkit.bisect_root": (mathkit, "bisect_root", False),
    "mathkit.hypoexp_cdf": (mathkit, "hypoexp_cdf", False),
    "model.sample_ppp": (model, "sample_ppp", False),
}
# The three closed forms share one layer.
_CLOSED_FORMS = ("pc_approx", "pso_approx", "pso_zone_approx")
# Counted only (no timing): counter name -> (module, function).
_COUNTED = {
    "mathkit.hypoexp_cdf_mp": (mathkit, "_hypoexp_cdf_mp"),
    "mathkit.lambert_w0": (mathkit, "lambert_w0"),
}
_OPTIMIZERS = ("optimizer.optimize_no_zone", "optimizer.optimize_zone")


def _uavsec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "uavsec"
                                  or name.startswith("uavsec."))]


def patch_everywhere(target, replacement) -> list:
    """Point every uavsec module attribute holding `target` at
    `replacement`; returns the undo list for `restore`."""
    undo = []
    for mod in _uavsec_modules():
        for attr, val in list(vars(mod).items()):
            if val is target:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, target))
    return undo


def restore(undo: list) -> bool:
    """Undo patches (last first); True if every attribute holds its
    original again. A class attribute is compared as stored, so a
    classmethod compares as its descriptor."""
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    return all(vars(owner)[attr] is orig for owner, attr, orig in undo)


def _binder(fn):
    """Maps a call's (args, kwargs) to fn's parameters, defaults filled."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Timing wrappers around uavsec's public functions for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}     # layer -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self.radii: dict[str, list] = {"model.connection_window_radius": [],
                                       "model.outage_window_radius": []}
        self._stack: list[list] = []         # [child time, span id, layer]
        self._ids = itertools.count(1)
        self._on = [False]
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _timed(self, layer, fn, keep_span, prepare=None, observe=None):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack, spans, on, ids = self._stack, self.spans, self._on, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(ids) if keep_span else parent, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep_span:
                    spans.append((frame[1], layer, t0, t1, parent))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _counted(self, key, fn):
        on, add = self._on, self._add

        def counted(*args, **kwargs):
            if on[0]:
                add(key)
            return fn(*args, **kwargs)

        return counted

    # -- observers ----------------------------------------------------------

    def _observers(self):
        bind = {name: _binder(getattr(mod, fn))
                for name, (mod, fn, _) in _TIMED.items()}

        def realizations(layer, arg):
            def observe(args, kwargs, result):
                a = bind[layer](args, kwargs)
                n = a[arg].n_realizations if arg == "cfg" else a[arg]
                self._add(layer + ".realizations", n)
            return observe

        def sim_outage(args, kwargs, result):
            a = bind["montecarlo.sim_outage"](args, kwargs)
            self._add("montecarlo.sim_outage.realizations",
                      a["cfg"].n_realizations)
            self._on[0] = False       # the window policy is traced too
            try:
                pairs = _expected_pairs(a["params"], a["beta_e"], a["zone"],
                                        a["cfg"])
            finally:
                self._on[0] = True
            self._add("montecarlo.sim_outage.pairs_computed", pairs)

        def radius(layer):
            return lambda args, kwargs, result: self.radii[layer].append(
                float(result))

        def cells(args, kwargs, result):
            d = result.diagnostics
            self._add("optimizer.cells",
                      d.get("h_grid_size", 0) * d.get("d_grid_size", 1))

        def csv_bytes(args, kwargs, result):
            path = bind["cli.write_csv"](args, kwargs)["path"]
            self._add("cli.write_csv.bytes", os.path.getsize(path))

        def points(args, kwargs, result):
            self._add("model.sample_ppp.points", len(result))

        def count_calls_of_f(key):
            def prepare(args, kwargs):
                if args:
                    args = (self._counted(key, args[0]),) + args[1:]
                else:
                    kwargs = dict(kwargs, f=self._counted(
                        key, kwargs["f"]))
                return args, kwargs
            return prepare

        return {
            "montecarlo.sim_connection": (None, realizations(
                "montecarlo.sim_connection", "cfg")),
            "montecarlo.sim_outage": (None, sim_outage),
            "model.connection_window_radius": (None, radius(
                "model.connection_window_radius")),
            "model.outage_window_radius": (None, radius(
                "model.outage_window_radius")),
            "analytic.pc_exact": (None, realizations(
                "analytic.pc_exact", "n_realizations")),
            "analytic.pso_exact": (None, realizations(
                "analytic.pso_exact", "n_realizations")),
            "mathkit.integrate_radial": (count_calls_of_f(
                "mathkit.integrate_radial.panels"), None),
            "mathkit.bisect_root": (count_calls_of_f(
                "mathkit.bisect_root.f_evals"), None),
            "optimizer.optimize_no_zone": (None, cells),
            "optimizer.optimize_zone": (None, cells),
            "cli.write_csv": (None, csv_bytes),
            "model.sample_ppp": (None, points),
        }

    def _outage_eval(self, args, kwargs, result):
        """Count outage closed-form calls made inside the optimizer."""
        if any(frame[2] in _OPTIMIZERS for frame in self._stack):
            self._add("optimizer.outage_evals")

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        observers = self._observers()
        for layer, (mod, name, keep) in _TIMED.items():
            prepare, observe = observers.get(layer, (None, None))
            orig = getattr(mod, name)
            self._undo += patch_everywhere(
                orig, self._timed(layer, orig, keep, prepare, observe))
        for name in _CLOSED_FORMS:
            orig = getattr(analytic, name)
            observe = self._outage_eval if name != "pc_approx" else None
            self._undo += patch_everywhere(orig, self._timed(
                "analytic.closed_form", orig, False, None, observe))
        for key, (mod, name) in _COUNTED.items():
            orig = getattr(mod, name)
            self._undo += patch_everywhere(orig, self._counted(key, orig))
        # `run` parses through the classmethod; wrap it on the class.
        cls = cli.ExperimentConfig
        descriptor = vars(cls)["from_file"]
        setattr(cls, "from_file", staticmethod(self._timed(
            "cli.parse", cls.from_file, True)))
        self._undo.append((cls, "from_file", descriptor))
        self._on[0] = True

    def uninstall(self) -> bool:
        """Restore every original; True if all were restored."""
        self._on[0] = False
        ok = restore(self._undo)
        self._undo = []
        return ok

    # -- results ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric of LAYER_METRICS except the parent's
        `trace.overhead_s`; layers a workload never calls read 0."""
        st = {k: self.stats.get(k, [0, 0.0, 0.0]) for k in
              list(_TIMED) + ["analytic.closed_form", "cli.parse"]}
        c = self.counts.get
        out = {}
        for layer in ("montecarlo.sim_outage", "montecarlo.sim_connection",
                      "analytic.pso_exact", "mathkit.integrate_radial",
                      "mathkit.hypoexp_cdf", "model.sample_ppp",
                      "optimizer.optimize_zone", "optimizer.optimize_no_zone",
                      "optimizer.solve_re", "cli.run"):
            out[layer + ".calls"] = st[layer][0]
            out[layer + ".s"] = st[layer][2]
        for layer in ("montecarlo.sim_outage", "montecarlo.sim_connection"):
            out[layer + ".s_per_1e5"] = _ratio(
                st[layer][1], c(layer + ".realizations", 0.0) / 1e5)
        for layer in ("analytic.pso_exact", "analytic.pc_exact"):
            out[layer + ".s_per_realization"] = _ratio(
                st[layer][1], c(layer + ".realizations", 0.0))
        pairs = c("montecarlo.sim_outage.pairs_computed", 0.0)
        out["montecarlo.sim_outage.pairs_computed"] = pairs
        out["montecarlo.sim_outage.pairs_per_s"] = _ratio(
            pairs, st["montecarlo.sim_outage"][1])
        for layer, radii in self.radii.items():
            out[layer + ".m"] = math.fsum(radii) / len(radii) if radii else 0.0
        panels = c("mathkit.integrate_radial.panels", 0.0)
        out["mathkit.integrate_radial.panels"] = panels
        out["mathkit.integrate_radial.panels_per_call"] = _ratio(
            panels, st["mathkit.integrate_radial"][0])
        out["mathkit.hypoexp_cdf.mp_fallback_share"] = _ratio(
            c("mathkit.hypoexp_cdf_mp", 0.0), st["mathkit.hypoexp_cdf"][0])
        out["model.sample_ppp.points"] = c("model.sample_ppp.points", 0.0)
        cells = c("optimizer.cells", 0.0)
        out["optimizer.cells"] = cells
        out["optimizer.outage_evals_per_cell"] = _ratio(
            c("optimizer.outage_evals", 0.0), cells)
        cf = st["analytic.closed_form"]
        out["analytic.closed_form.calls"] = cf[0]
        out["analytic.closed_form.us_per_call"] = _ratio(cf[1] * 1e6, cf[0])
        out["mathkit.bisect_root.calls"] = st["mathkit.bisect_root"][0]
        out["mathkit.bisect_root.f_evals_per_call"] = _ratio(
            c("mathkit.bisect_root.f_evals", 0.0),
            st["mathkit.bisect_root"][0])
        out["mathkit.lambert_w0.calls"] = c("mathkit.lambert_w0", 0.0)
        out["cli.parse.s"] = st["cli.parse"][2]
        out["cli.write_csv.s"] = st["cli.write_csv"][2]
        out["cli.write_csv.bytes"] = c("cli.write_csv.bytes", 0.0)
        if set(out) != set(LAYER_METRICS):
            raise RuntimeError(f"layer metrics out of step: "
                               f"{sorted(set(out) ^ set(LAYER_METRICS))}")
        return out


def _expected_pairs(params, beta_e, zone, cfg) -> float:
    """Expected eavesdropper-interferer pairs of one `sim_outage` call,
    from the windows its policy picks (mirrors the zone adjustment in
    `sim_outage`): n * E[#eavesdroppers] * E[#interferers]."""
    d0 = zone.d if zone is not None else 0.0
    e_win, u_win = montecarlo._outage_windows(params, beta_e, cfg)
    if d0 >= e_win:
        e_win = d0 + max(50.0, params.los_radius)
        u_win = max(u_win, e_win + 100.0)
    u_mean = params.lambda_u * math.pi * u_win ** 2
    e_mean = params.lambda_e * math.pi * (e_win ** 2 - d0 ** 2)
    return cfg.n_realizations * u_mean * e_mean


__all__ = ["Tracer", "patch_everywhere", "restore"]
