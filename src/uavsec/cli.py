"""Experiment runner: parses a flat key=value config with bracketed section
headers, executes analytic / simulation / validation / optimization sweeps,
and emits one deterministic CSV per experiment (plus an optional SVG chart).

CSV schema: the first column is the swept variable, one column per computed
metric, half-width columns suffixed `_hw`. Rows are ordered by sweep value;
identical config + seed gives byte-identical output.

Exit codes: 0 success, 2 config parse/validation error, 3 infeasible
optimization, 4 quadrature accuracy failure, 5 validation suite failed.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
from dataclasses import dataclass, field, replace


from . import __version__, analytic, mathkit, optimizer
from .chart import render_chart
from .model import (
    AllRayleigh,
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
    connection_window_radius,
)
from .montecarlo import SimConfig, sim_connection, sim_outage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ACCURACY = 4
EXIT_VALIDATION = 5

_SWEEPABLE = ("lambda_u", "lambda_e", "h", "theta_c", "d", "rt", "re",
              "epsilon")
_MODES = ("analyze", "simulate", "validate", "optimize")
_MODELS = {"exact": ExactLoSNLoS, "rayleigh": AllRayleigh}


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


def _number(text: str) -> float:
    """A finite float; NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value {text.strip()!r}")
    return value


def _parse_angle(text: str) -> float:
    text = text.strip()
    if text.endswith("deg"):
        return math.radians(float(text[:-3].strip()))
    if text.endswith("rad"):
        return float(text[:-3].strip())
    return float(text)


def _parse_values(section) -> tuple[float, ...]:
    if "values" in section:
        vals = tuple(_number(v)
                     for v in section["values"].replace(",", " ").split())
    else:
        try:
            start = _number(section["start"])
            stop = _number(section["stop"])
            step = _number(section["step"])
        except KeyError as exc:
            raise ConfigError(f"sweep needs `values` or start/stop/step "
                              f"(missing {exc})") from exc
        if step <= 0 or stop < start:
            raise ConfigError("sweep range needs step > 0 and stop >= start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        vals = tuple(start + i * step for i in range(n))
    if not vals:
        raise ConfigError("empty sweep list")
    return vals


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a base network, one swept variable, and a mode."""

    name: str
    mode: str
    network: NetworkParams
    sweep_variable: str
    sweep_values: tuple[float, ...]
    metrics: tuple[str, ...] = ("pc",)
    rt: float | None = None
    re: float | None = None
    epsilon: float = 0.01
    zone_d: float | None = None
    n_realizations: int = 20000
    seed: int = 0
    window_radius: float | None = None
    model_name: str = "exact"
    out_dir: str = ""
    charts: bool = False
    log_x: bool = False
    log_y: bool = False

    @classmethod
    def from_text(cls, text: str, name: str = "experiment") -> "ExperimentConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        try:
            return cls._build(cp, name)
        except (ValueError, KeyError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"config validation error: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        return cls.from_text(text, name=stem)

    @classmethod
    def _build(cls, cp, default_name):
        exp = cp["experiment"] if cp.has_section("experiment") else {}
        mode = exp.get("mode", "analyze").strip()
        if mode not in _MODES:
            raise ConfigError(f"unknown mode {mode!r} (one of {_MODES})")
        if not cp.has_section("network"):
            raise ConfigError("missing [network] section")
        net = cp["network"]
        kwargs = {
            "lambda_u": _number(net["lambda_u"]),
            "lambda_e": _number(net["lambda_e"]),
        }
        for key in ("h", "h_min", "h_max", "eta_los", "eta_nlos",
                    "alpha_los", "alpha_nlos", "p_t"):
            if key in net:
                kwargs[key] = _number(net[key])
        if "theta_c" in net:
            kwargs["theta_c"] = _parse_angle(net["theta_c"])
        network = NetworkParams(**kwargs)

        if not cp.has_section("sweep"):
            raise ConfigError("missing [sweep] section")
        sweep = cp["sweep"]
        variable = sweep.get("variable", "").strip()
        if variable not in _SWEEPABLE:
            raise ConfigError(
                f"unknown sweep variable {variable!r} (one of {_SWEEPABLE})")
        values = _parse_values(sweep)

        rt = re = None
        if cp.has_section("code"):
            code = cp["code"]
            rt = _number(code["rt"]) if "rt" in code else None
            if "re" in code:
                re = _number(code["re"])
            elif "rs" in code and rt is not None:
                re = rt - _number(code["rs"])
        zone_d = None
        if cp.has_section("zone") and "d" in cp["zone"]:
            zone_d = _number(cp["zone"]["d"])
        sim = cp["sim"] if cp.has_section("sim") else {}
        model_name = sim.get("model", "exact").strip()
        if model_name not in _MODELS:
            raise ConfigError(f"unknown fading model {model_name!r}")
        opt = cp["optimize"] if cp.has_section("optimize") else {}
        out = cp["output"] if cp.has_section("output") else {}
        metrics_raw = exp.get("metrics", "")
        if metrics_raw:
            metrics = tuple(m.strip() for m in metrics_raw.split(",") if m.strip())
        else:
            metrics = ("pc",) if network.lambda_e == 0 or re is None \
                else ("pc", "pso")
        for m in metrics:
            if m not in ("pc", "pso", "cs"):
                raise ConfigError(f"unknown metric {m!r}")
        return cls(
            name=exp.get("name", default_name).strip() or default_name,
            mode=mode,
            network=network,
            sweep_variable=variable,
            sweep_values=values,
            metrics=metrics,
            rt=rt,
            re=re,
            epsilon=_number(opt.get("epsilon", "0.01")),
            zone_d=zone_d,
            n_realizations=int(_number(sim.get("n_realizations", "20000"))),
            seed=int(sim.get("seed", 0)),
            window_radius=_number(sim["window_radius"])
            if "window_radius" in sim else None,
            model_name=model_name,
            out_dir=out.get("directory", ""),
            charts=out.get("charts", "false").strip().lower() == "true",
            log_x=out.get("log_x", "false").strip().lower() == "true",
            log_y=out.get("log_y", "false").strip().lower() == "true",
        )

    def to_text(self) -> str:
        """Serialize so that from_text(to_text()) == self."""
        net = self.network
        buf = io.StringIO()
        w = buf.write
        w("[experiment]\n")
        w(f"mode = {self.mode}\n")
        w(f"name = {self.name}\n")
        w(f"metrics = {', '.join(self.metrics)}\n\n")
        w("[network]\n")
        for key in ("lambda_u", "lambda_e", "h", "theta_c", "h_min", "h_max",
                    "eta_los", "eta_nlos", "alpha_los", "alpha_nlos", "p_t"):
            w(f"{key} = {getattr(net, key)!r}\n")
        w("\n[sweep]\n")
        w(f"variable = {self.sweep_variable}\n")
        w(f"values = {', '.join(repr(v) for v in self.sweep_values)}\n")
        if self.rt is not None or self.re is not None:
            w("\n[code]\n")
            if self.rt is not None:
                w(f"rt = {self.rt!r}\n")
            if self.re is not None:
                w(f"re = {self.re!r}\n")
        if self.zone_d is not None:
            w("\n[zone]\n")
            w(f"d = {self.zone_d!r}\n")
        w("\n[sim]\n")
        w(f"n_realizations = {self.n_realizations}\n")
        w(f"seed = {self.seed}\n")
        if self.window_radius is not None:
            w(f"window_radius = {self.window_radius!r}\n")
        w(f"model = {self.model_name}\n")
        w("\n[optimize]\n")
        w(f"epsilon = {self.epsilon!r}\n")
        w("\n[output]\n")
        w(f"directory = {self.out_dir}\n")
        w(f"charts = {str(self.charts).lower()}\n")
        w(f"log_x = {str(self.log_x).lower()}\n")
        w(f"log_y = {str(self.log_y).lower()}\n")
        return buf.getvalue()

    def at(self, value: float):
        """Network/code/zone/epsilon with the swept variable set to `value`."""
        net, rt, re, zone_d, eps = (self.network, self.rt, self.re,
                                    self.zone_d, self.epsilon)
        if self.sweep_variable in ("lambda_u", "lambda_e", "theta_c"):
            net = replace(net, **{self.sweep_variable: value})
        elif self.sweep_variable == "h":
            net = replace(net, h=value, h_min=min(net.h_min, value),
                          h_max=max(net.h_max, value))
        elif self.sweep_variable == "d":
            zone_d = value
        elif self.sweep_variable == "rt":
            rt = value
        elif self.sweep_variable == "re":
            re = value
        elif self.sweep_variable == "epsilon":
            eps = value
        zone = GuardZone(zone_d) if zone_d is not None else None
        return net, rt, re, zone, eps


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_csv(path: str, columns: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _beta(rate: float) -> float:
    return 2.0 ** rate - 1.0


def _point_metrics(cfg: ExperimentConfig, value: float) -> dict:
    """Metric columns at one sweep point, per the experiment mode."""
    net, rt, re, zone, eps = cfg.at(value)
    out: dict[str, float] = {}
    model = _MODELS[cfg.model_name]
    density = analytic.effective_density(net.lambda_u, net.lambda_e, zone)

    if cfg.mode in ("analyze", "validate"):
        if "pc" in cfg.metrics and rt is not None:
            out["pc_approx"] = analytic.pc_approx(net, _beta(rt))
        if "pso" in cfg.metrics and re is not None:
            out["pso_approx"] = (
                analytic.pso_zone_approx(net, _beta(re), zone)
                if zone is not None else analytic.pso_approx(net, _beta(re)))
        if "cs" in cfg.metrics and rt is not None and re is not None:
            out["cs"] = analytic.stc(rt - re, out.get(
                "pc_approx", analytic.pc_approx(net, _beta(rt))), density)

    if cfg.mode == "simulate":
        sim = SimConfig(cfg.n_realizations, cfg.window_radius, cfg.seed, model)
        if "pc" in cfg.metrics and rt is not None:
            est = sim_connection(net, _beta(rt), sim)
            out["pc_mc"] = est.value
            out["pc_mc_hw"] = est.half_width
        if "pso" in cfg.metrics and re is not None:
            est = sim_outage(net, _beta(re), zone, sim)
            out["pso_mc"] = est.value
            out["pso_mc_hw"] = est.half_width

    if cfg.mode == "validate":
        if "pc" in cfg.metrics and rt is not None:
            bt = _beta(rt)
            w = cfg.window_radius if cfg.window_radius is not None else \
                connection_window_radius(net, bt, cfg.n_realizations)
            for label, model_cls in (("rayleigh", AllRayleigh),
                                     ("exact", ExactLoSNLoS)):
                est = sim_connection(net, bt, SimConfig(
                    cfg.n_realizations, w, cfg.seed, model_cls))
                out[f"pc_mc_{label}"] = est.value
                out[f"pc_mc_{label}_hw"] = est.half_width
        if "pso" in cfg.metrics and re is not None:
            est = sim_outage(net, _beta(re), zone, SimConfig(
                cfg.n_realizations, cfg.window_radius, cfg.seed,
                ExactLoSNLoS))
            out["pso_mc_exact"] = est.value
            out["pso_mc_exact_hw"] = est.half_width

    if cfg.mode == "optimize":
        no_zone = optimizer.optimize_no_zone(net, eps)
        out["cs_no_zone"] = no_zone.cs
        out["rt_no_zone"] = no_zone.rt
        out["rs_no_zone"] = no_zone.rs
        out["re_no_zone"] = no_zone.re
        out["h_no_zone"] = no_zone.h
        zoned = optimizer.optimize_zone(net, eps)
        out["cs_zone"] = zoned.cs
        out["rt_zone"] = zoned.rt
        out["rs_zone"] = zoned.rs
        out["re_zone"] = zoned.re
        out["h_zone"] = zoned.h
        out["d_zone"] = zoned.d
        out["pso_zone"] = zoned.pso
    return out


def run(config_path: str, out_dir: str | None = None) -> int:
    """Execute one experiment config; returns a process exit status."""
    try:
        cfg = ExperimentConfig.from_file(config_path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    directory = (out_dir or cfg.out_dir
                 or os.environ.get("UAVSEC_OUTDIR", "out"))
    os.makedirs(directory, exist_ok=True)
    columns: list[str] = [cfg.sweep_variable]
    rows = []
    try:
        for value in sorted(cfg.sweep_values):
            metrics = _point_metrics(cfg, value)
            for key in metrics:
                if key not in columns:
                    columns.append(key)
            rows.append([value] + [metrics.get(c, float("nan"))
                                   for c in columns[1:]])
            summary = " ".join(f"{k}={_fmt(v)}" for k, v in metrics.items())
            print(f"{cfg.name}: {cfg.sweep_variable}={_fmt(value)} {summary}")
    except optimizer.InfeasibleError as exc:
        print(f"error: infeasible optimization: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except mathkit.AccuracyError as exc:
        print(f"error: quadrature accuracy: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    csv_path = os.path.join(directory, f"{cfg.name}.csv")
    write_csv(csv_path, columns, rows)
    print(f"wrote {csv_path}")
    if cfg.charts:
        series = {c: [r[columns.index(c)] for r in rows]
                  for c in columns[1:] if not c.endswith("_hw")}
        svg = render_chart([r[0] for r in rows], series, cfg.sweep_variable,
                           title=cfg.name, log_x=cfg.log_x, log_y=cfg.log_y)
        svg_path = os.path.join(directory, f"{cfg.name}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in validation suite (closed forms vs Monte Carlo)
# ---------------------------------------------------------------------------

@dataclass
class ValidationRow:
    name: str
    observed: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def format(self) -> str:
        lines = [f"{'check':34s} {'observed':>12s} {'tolerance':>10s} verdict"]
        for r in self.rows:
            lines.append(f"{r.name:34s} {r.observed:12.5f} "
                         f"{r.tolerance:10.5f} "
                         f"{'PASS' if r.passed else 'FAIL'}  {r.detail}")
        return "\n".join(lines)


def validate_suite(n_realizations: int = 100_000, seed: int = 42,
                   corrupt_eta: float = 1.0) -> ValidationReport:
    """Closed-form vs Monte Carlo agreement at the bundled configurations.

    `corrupt_eta` multiplies eta_nlos in the closed forms only; anything
    other than 1.0 is a deliberate negative control that should flag the
    connection-probability checks.
    """
    report = ValidationReport()
    bt, be = _beta(5.0), _beta(1.0)

    def analytic_params(p: NetworkParams) -> NetworkParams:
        if corrupt_eta == 1.0:
            return p
        return replace(p, eta_nlos=min(p.eta_nlos * corrupt_eta, p.eta_los))

    # Connection probability, both fading models, Fig.-3-style grid.
    misses = 0
    worst_exact = 0.0
    points = 0
    for h in (10.0, 20.0):
        for lu in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2):
            p = NetworkParams(lambda_u=lu, lambda_e=1e-3, h=h)
            cf = analytic.pc_approx(analytic_params(p), bt)
            w = connection_window_radius(p, bt, n_realizations)
            ray = sim_connection(p, bt, SimConfig(n_realizations, w, seed,
                                                  AllRayleigh))
            exact = sim_connection(p, bt, SimConfig(n_realizations, w, seed,
                                                    ExactLoSNLoS))
            misses += abs(ray.value - cf) > ray.half_width
            worst_exact = max(worst_exact, abs(exact.value - cf))
            points += 1
    report.rows.append(ValidationRow(
        "pc rayleigh-model within halfwidth", float(misses), 1.0,
        misses <= 1, f"misses over {points} grid points"))
    report.rows.append(ValidationRow(
        "pc exact-model absolute deviation", worst_exact, 0.03,
        worst_exact <= 0.03))

    # Outage probability in the small-outage regime, Fig.-4/6-style.
    for zone in (None, GuardZone(10.0), GuardZone(20.0)):
        worst = 0.0
        used = 0
        for le in (3e-5, 1e-4, 3e-4):
            p = NetworkParams(lambda_u=1e-3, lambda_e=le, h=10.0)
            cf = (analytic.pso_zone_approx(analytic_params(p), be, zone)
                  if zone else analytic.pso_approx(analytic_params(p), be))
            est = sim_outage(p, be, zone, SimConfig(n_realizations, None,
                                                    seed, ExactLoSNLoS))
            if est.value <= 0.1:
                worst = max(worst, abs(est.value - cf))
                used += 1
        tag = f"d={zone.d:g}" if zone else "no zone"
        report.rows.append(ValidationRow(
            f"pso small-regime deviation ({tag})", worst, 0.02,
            worst <= 0.02 and used > 0, f"{used} points in regime"))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uavsec",
        description="Secrecy-performance experiments for UAV-to-ground "
                    "networks over Poisson fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None)
    p_val = sub.add_parser("validate",
                           help="closed-form vs Monte Carlo agreement suite")
    p_val.add_argument("--fast", action="store_true",
                       help="reduced realization count (quick smoke run)")
    p_val.add_argument("--seed", type=int, default=42)
    p_val.add_argument("--corrupt-eta", type=float, default=1.0,
                       help="negative control: scale eta_nlos in the "
                            "closed forms only")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return EXIT_OK
    if args.command == "run":
        return run(args.config, args.out_dir)
    if args.command == "validate":
        n = 20_000 if args.fast else 100_000
        report = validate_suite(n, args.seed, args.corrupt_eta)
        print(report.format())
        print("overall:", "PASS" if report.passed else "FAIL")
        return EXIT_OK if report.passed else EXIT_VALIDATION
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
