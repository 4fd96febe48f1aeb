"""The benchmark's two workloads: inputs made from a seed, the fixed work
of one pass, and the check of its outputs.

- `mc_validate`: the three ways uavsec evaluates a probability, checked
  against each other. First `cli.run` on generated validate-mode configs
  (closed forms against the simulator: connection over a lambda_u sweep
  with both fading models; outage over a lambda_e sweep without and with a
  20 m guard zone, the zone-free sweep split in two configs so its cheap
  small-outage points get more realizations). Then the semi-analytic
  evaluators `analytic.pc_exact` and `analytic.pso_exact` at three spots
  (no zone at H = 10; d = 15 < K at H = 20; d = 20 >= K at H = 10), window
  200. The seed sets every simulation and realization seed.
- `optimize_grid`: `cli.run` on generated optimize-mode configs (a lambda_e
  sweep and a lambda_u sweep on the default altitude/zone grid). The seed
  jitters each swept density by at most 2%.

Every sweep point or estimate is one attempted point; `check` lists why
each failed point failed. The program receives only the generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time

import numpy as np

from uavsec import GuardZone, NetworkParams, analytic, cli, optimizer

from tracer import patch_everywhere, restore

HW_TARGET = 0.005           # half-width that time_to_hw_s projects to
BETA_T = 2.0 ** 5 - 1.0     # codeword rate 5 bps/Hz
BETA_E = 2.0 ** 1 - 1.0     # rate gap 1 bps/Hz
LAMBDA_U_SWEEP = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
LAMBDA_E_SWEEP = (3e-5, 1e-4, 3e-4, 1e-3, 3e-3)
OPT_SWEEP = (3e-4, 1e-3, 3e-3, 1e-2)
EPSILON = 0.01

# Sizes of one pass.
N_CONNECTION = 100_000      # fig3 realizations per point and model
N_OUTAGE = 4_000            # fig4 / fig6_d20 realizations per point
# fig4's two sparsest points sit in the small-outage regime, where the
# closed form is 0.016 above the simulation at lambda_e = 1e-4 (0.02
# allowed); they are cheap, and this many realizations keeps that gap
# five standard deviations inside the tolerance.
N_OUTAGE_SPARSE = 100_000
N_PC_EXACT = 500            # pc_exact realizations per spot
N_PSO_EXACT = 100           # pso_exact realizations per spot
# pso_exact's default tol=1e-4 costs 0.05 to 3.6 s a realization, far too
# heavy-tailed to time steadily; at 1e-2 a realization costs about 20 ms
# and the estimate moves far less than its half-width.
PSO_TOL = 1e-2
WINDOW = 200.0

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def derived_seeds(seed: int, n: int, stream: int) -> list[int]:
    """`n` 32-bit seeds from the benchmark seed, independent per stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return [int(s) for s in ss.generate_state(n)]


def projected_time(estimates) -> float:
    """Sum of t * (hw / HW_TARGET)^2 over (seconds, half-width) estimates:
    the projected time for every estimate to reach the target half-width.
    An exact output (hw == 0) already meets it and counts its time once."""
    return math.fsum(t * (hw / HW_TARGET) ** 2 if hw > 0.0 else t
                     for t, hw in estimates)


def _ini(sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def _values(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _bad_range(row: dict, columns) -> list[str]:
    return [f"{c}={row[c]!r} outside [0, 1]" for c in columns
            if not 0.0 <= row[c] <= 1.0]


class CliWorkload:
    """Writes config files, runs each through `cli.run`, checks the CSVs."""

    columns: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.paths: dict[str, str] = {}
        self.configs: dict[str, cli.ExperimentConfig] = {}
        self.status: dict[str, int] = {}

    def config_texts(self) -> dict[str, str]:
        raise NotImplementedError

    def row_failures(self, name: str, cfg, value: float,
                     row: dict) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        for name, text in self.config_texts().items():
            path = os.path.join(self.out_dir, name + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[name] = path
            self.configs[name] = cli.ExperimentConfig.from_file(path)

    def run(self) -> list[tuple[float, float]]:
        """Run every config; returns (seconds, 0.0) per `cli.run` call."""
        estimates = []
        for name, path in self.paths.items():
            t0 = time.perf_counter()
            try:
                self.status[name] = cli.run(path, self.out_dir)
            except Exception as exc:      # a raising point is a failed point
                self.status[name] = f"raised {exc!r}"
            estimates.append((time.perf_counter() - t0, 0.0))
        return estimates

    def check(self):
        """(attempted, failure messages by point, sha256 by CSV name)."""
        attempted, failures, digests = 0, [], {}
        for name, cfg in self.configs.items():
            values = sorted(cfg.sweep_values)
            attempted += len(values)
            path = os.path.join(self.out_dir, name + ".csv")
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                failures += [f"{name}: no CSV ({exc})"] * len(values)
                continue
            digests[name] = hashlib.sha256(data).hexdigest()
            rows = list(csv.reader(data.decode("utf-8").splitlines()))
            expected = [cfg.sweep_variable, *self.columns[name]]
            if (self.status.get(name) != cli.EXIT_OK or not rows
                    or rows[0] != expected or len(rows) != len(values) + 1):
                failures += [f"{name}: exit {self.status.get(name)}, "
                             f"header {rows[:1]}, {len(rows) - 1} rows"
                             ] * len(values)
                continue
            for value, raw in zip(values, rows[1:]):
                row = dict(zip(expected, map(float, raw)))
                problems = [f"{c}={v!r}" for c, v in row.items()
                            if not math.isfinite(v)]
                if raw[0] != f"{value:.10g}":
                    problems.append(f"sweep value {raw[0]} != {value:.10g}")
                if not problems:
                    problems = self.row_failures(name, cfg, value, row)
                failures += [f"{name} @ {value:.10g}: {'; '.join(problems)}"
                             ] if problems else []
        return attempted, failures, digests


class McValidate(CliWorkload):
    columns = {
        "fig3": ("pc_approx", "pc_mc_rayleigh", "pc_mc_rayleigh_hw",
                 "pc_mc_exact", "pc_mc_exact_hw"),
        "fig4_sparse": ("pso_approx", "pso_mc_exact", "pso_mc_exact_hw"),
        "fig4": ("pso_approx", "pso_mc_exact", "pso_mc_exact_hw"),
        "fig6_d20": ("pso_approx", "pso_mc_exact", "pso_mc_exact_hw"),
    }
    # Acceptance-suite tolerances against the closed forms.
    PC_EXACT_TOL = 0.03
    PSO_TOL = 0.02
    PSO_REGIME = 0.1

    def config_texts(self) -> dict[str, str]:
        seeds = derived_seeds(self.seed, 4, 0)
        network = {"lambda_u": 1e-3, "lambda_e": 1e-3, "h": 10,
                   "theta_c": "45 deg"}
        output = {"charts": "false"}
        fig3 = _ini({
            "experiment": {"mode": "validate", "name": "fig3",
                           "metrics": "pc"},
            "network": network, "code": {"rt": 5},
            "sweep": {"variable": "lambda_u",
                      "values": _values(LAMBDA_U_SWEEP)},
            "sim": {"n_realizations": N_CONNECTION, "seed": seeds[0]},
            "output": output})
        texts = {"fig3": fig3}
        outage = (("fig4_sparse", None, LAMBDA_E_SWEEP[:2], N_OUTAGE_SPARSE),
                  ("fig4", None, LAMBDA_E_SWEEP[2:], N_OUTAGE),
                  ("fig6_d20", 20, LAMBDA_E_SWEEP, N_OUTAGE))
        for (name, zone, sweep, n), seed in zip(outage, seeds[1:]):
            sections = {
                "experiment": {"mode": "validate", "name": name,
                               "metrics": "pso"},
                "network": network, "code": {"rt": 5, "re": 1},
                "sweep": {"variable": "lambda_e", "values": _values(sweep)},
                "sim": {"n_realizations": n, "seed": seed},
                "output": output}
            if zone is not None:
                sections["zone"] = {"d": zone}
            texts[name] = _ini(sections)
        return texts

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.semi = SemiAnalytic(seed, out_dir)

    def setup(self) -> None:
        super().setup()
        self.semi.setup()

    def run(self) -> list[tuple[float, float]]:
        """Run every config, then the semi-analytic estimates; returns
        (seconds, half-width) per simulator call, timed at the attributes
        `cli` resolves. The semi-analytic estimates are left out: at the
        realizations a pass affords, their variance estimates, and with
        them their projected time, scatter by tens of percent."""
        estimates = []
        undo = []
        for attr in ("sim_connection", "sim_outage"):
            undo += patch_everywhere(getattr(cli, attr),
                                     _stopwatch(getattr(cli, attr),
                                                estimates))
        try:
            super().run()
        finally:
            if not restore(undo):
                raise RuntimeError("simulator stopwatch not restored")
        self.semi.run()
        return estimates

    def check(self):
        attempted, failures, digests = super().check()
        semi_attempted, semi_failures, semi_digests = self.semi.check()
        return (attempted + semi_attempted, failures + semi_failures,
                {**digests, **semi_digests})

    def row_failures(self, name, cfg, value, row) -> list[str]:
        problems = _bad_range(row, self.columns[name])
        if name == "fig3":
            gap = abs(row["pc_mc_exact"] - row["pc_approx"])
            if gap > self.PC_EXACT_TOL:
                problems.append(f"|pc_mc_exact - pc_approx| = {gap:.4g}")
        elif row["pso_mc_exact"] <= self.PSO_REGIME:
            gap = abs(row["pso_mc_exact"] - row["pso_approx"])
            if gap > self.PSO_TOL:
                problems.append(f"|pso_mc_exact - pso_approx| = {gap:.4g}")
        return problems


def _stopwatch(fn, estimates: list):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        est = fn(*args, **kwargs)
        estimates.append((time.perf_counter() - t0, est.half_width))
        return est
    return timed


class OptimizeGrid(CliWorkload):
    _cols = ("cs_no_zone", "rt_no_zone", "rs_no_zone", "re_no_zone",
             "h_no_zone", "cs_zone", "rt_zone", "rs_zone", "re_zone",
             "h_zone", "d_zone", "pso_zone")
    columns = {"fig7": _cols, "fig8": _cols}
    CONSTRAINT_TOL = 1e-6

    def config_texts(self) -> dict[str, str]:
        rng = np.random.default_rng(derived_seeds(self.seed, 1, 1)[0])
        texts = {}
        for name, variable in (("fig7", "lambda_e"), ("fig8", "lambda_u")):
            jitter = 10.0 ** rng.uniform(-0.0086, 0.0086, len(OPT_SWEEP))
            texts[name] = _ini({
                "experiment": {"mode": "optimize", "name": name},
                "network": {"lambda_u": 1e-3, "lambda_e": 1e-3, "h": 10,
                            "theta_c": "45 deg"},
                "sweep": {"variable": variable,
                          "values": _values(np.array(OPT_SWEEP) * jitter)},
                "optimize": {"epsilon": EPSILON},
                "output": {"charts": "false"}})
        return texts

    def row_failures(self, name, cfg, value, row) -> list[str]:
        problems = _bad_range(row, ("cs_no_zone", "cs_zone", "pso_zone"))
        problems += [f"{c}={row[c]!r} negative" for c in self._cols
                     if row[c] < 0.0]
        if row["cs_zone"] < row["cs_no_zone"]:
            problems.append("cs_zone < cs_no_zone")
        net, _, _, _, eps = cfg.at(value)
        if row["re_zone"] > optimizer.RE_FLOOR and abs(
                row["pso_zone"] - eps) > self.CONSTRAINT_TOL:
            problems.append(f"active zone constraint: pso_zone = "
                            f"{row['pso_zone']!r}")
        if row["re_no_zone"] > optimizer.RE_FLOOR:
            pso = analytic.pso_approx(net.with_altitude(row["h_no_zone"]),
                                      2.0 ** row["re_no_zone"] - 1.0)
            if abs(pso - eps) > self.CONSTRAINT_TOL:
                problems.append(f"active no-zone constraint: pso = {pso!r}")
        return problems


class SemiAnalytic:
    """pc_exact and pso_exact at the three spots (acceptance criterion 5);
    six estimates a pass, run as the last part of `mc_validate`."""

    SPOTS = (("no_zone_h10", 10.0, None),
             ("d15_h20", 20.0, 15.0),
             ("d20_h10", 10.0, 20.0))
    # A gap beyond WIDEN combined 95% half-widths is a failure. With six
    # roughly normal gaps a pass that changes nothing fails with
    # probability about 6 * P(|Z| > 1.96 * WIDEN) < 1e-5 (< 1e-3 required).
    WIDEN = 2.5

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.results: list[tuple[str, float, float]] = []
        self.errors: dict[str, str] = {}

    def settings(self) -> dict:
        """What reference.json must have been made with to apply."""
        return {"window": WINDOW, "beta_t": BETA_T, "beta_e": BETA_E,
                "pso_tol": PSO_TOL}

    def make_calls(self) -> list[tuple[str, str, tuple, dict]]:
        """(estimate name, analytic function, args, kwargs) per estimate."""
        seeds = derived_seeds(self.seed, 2 * len(self.SPOTS), 2)
        calls = []
        for i, (name, h, d) in enumerate(self.SPOTS):
            p = NetworkParams(lambda_u=1e-3, lambda_e=1e-3, h=h,
                              theta_c=math.pi / 4)
            zone = GuardZone(d) if d is not None else None
            calls.append((name + ".pc", "pc_exact", (p, BETA_T),
                          {"n_realizations": N_PC_EXACT, "window": WINDOW,
                           "seed": seeds[2 * i]}))
            calls.append((name + ".pso", "pso_exact", (p, BETA_E, zone),
                          {"n_realizations": N_PSO_EXACT, "window": WINDOW,
                           "seed": seeds[2 * i + 1], "tol": PSO_TOL}))
        return calls

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.calls = self.make_calls()
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def run(self) -> None:
        for key, fn, args, kwargs in self.calls:
            try:
                est = getattr(analytic, fn)(*args, **kwargs)
            except Exception as exc:      # a raising point is a failed point
                self.errors[key] = repr(exc)
                continue
            self.results.append((key, est.value, est.half_width))

    def check(self):
        failures = []
        path = os.path.join(self.out_dir, "semi_analytic.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("estimate,value,half_width\n")
            for key, value, hw in self.results:
                fh.write(f"{key},{value!r},{hw!r}\n")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        stale = self.reference.get("settings") != self.settings()
        for key, value, hw in self.results:
            ref_value, ref_hw = self.reference["estimates"][key]
            limit = self.WIDEN * math.hypot(hw, ref_hw)
            if not (math.isfinite(value) and math.isfinite(hw)
                    and 0.0 <= value <= 1.0 and hw >= 0.0):
                failures.append(f"{key}: value {value!r}, hw {hw!r}")
            elif stale:
                failures.append(f"{key}: reference.json made with other "
                                f"settings")
            elif abs(value - ref_value) > limit:
                failures.append(f"{key}: {value:.5f} vs reference "
                                f"{ref_value:.5f} (limit {limit:.5f})")
        failures += [f"{key}: raised {err}" for key, err in
                     self.errors.items()]
        return len(self.calls), failures, {"semi_analytic": digest}


WORKLOADS = {"mc_validate": McValidate, "optimize_grid": OptimizeGrid}
