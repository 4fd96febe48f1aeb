"""Experiment runner: parses a flat key=value config with bracketed section
headers, executes analytic / simulation / validation / optimization sweeps,
and emits one deterministic CSV per experiment (plus an optional SVG chart).

CSV schema: the first column is the swept variable, one column per computed
metric, half-width columns suffixed `_hw`. Rows are ordered by sweep value;
identical config + seed gives byte-identical output.

`run` parses a config file and hands it to `run_experiment`, which writes
one row per sweep point; `_point_metrics` is the one place where a sweep
point becomes numbers, and the built-in `validate_suite` reads its checks
from the same function on five validate-mode sweeps.

Exit codes: 0 success, 2 config parse/validation error, 3 infeasible
optimization, 5 validation suite failed.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, replace


from . import __version__, analytic, optimizer
from .chart import render_chart
from .model import (
    AllRayleigh,
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
)
from .montecarlo import SimConfig, sim_connection, sim_outage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 5

_SWEEPABLE = ("lambda_u", "lambda_e", "h", "theta_c", "d", "rt", "re",
              "epsilon")
_MODES = ("analyze", "simulate", "validate", "optimize")
_MODELS = {"exact": ExactLoSNLoS, "rayleigh": AllRayleigh}
_METRICS = ("pc", "pso", "cs")
_NETWORK_KEYS = ("lambda_u", "lambda_e", "h", "theta_c", "h_min", "h_max",
                 "eta_los", "eta_nlos", "alpha_los", "alpha_nlos")


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


def _number(text: str) -> float:
    """A finite float; NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value {text.strip()!r}")
    return value


def _count(text: str) -> int:
    """A whole number: a float form such as 1e5 is valid, a fraction is an
    error, not truncated."""
    value = _number(text)
    if not value.is_integer():
        raise ConfigError(f"must be a whole number, got {value!r}")
    return int(value)


def _flag(text: str) -> bool:
    """`true` or `false` (any case); anything else is an error."""
    word = text.strip().lower()
    if word not in ("true", "false"):
        raise ConfigError(f"must be true or false, got {text.strip()!r}")
    return word == "true"


def _names(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _parse_angle(text: str) -> float:
    text = text.strip()
    if text.endswith("deg"):
        return math.radians(_number(text[:-3]))
    return _number(text.removesuffix("rad"))


# `[section] key` -> (ExperimentConfig field, parser). A key the file
# leaves out keeps the field's default. Seeds parse as exact integers
# (they may exceed 2^53).
_FIELDS = {
    "experiment": {"mode": ("mode", str.strip), "name": ("name", str.strip),
                   "metrics": ("metrics", _names)},
    "code": {"rt": ("rt", _number), "re": ("re", _number)},
    "zone": {"d": ("zone_d", _number)},
    "sim": {"n_realizations": ("n_realizations", _count),
            "seed": ("seed", int),
            "window_radius": ("window_radius", _number),
            "model": ("model_name", str.strip)},
    "optimize": {"epsilon": ("epsilon", _number)},
    "output": {"directory": ("out_dir", str.strip),
               "charts": ("charts", _flag), "log_x": ("log_x", _flag),
               "log_y": ("log_y", _flag)},
}
# Every section and key the parser reads; anything else is an error.
_KEYS = {section: tuple(table) for section, table in _FIELDS.items()}
_KEYS.update(network=_NETWORK_KEYS,
             sweep=("variable", "values", "start", "stop", "step"))
_KEYS["code"] += ("rs",)


def _read(cp, section: str, key: str, parse):
    """`parse` of one value; its error names the key."""
    try:
        return parse(cp.get(section, key))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _sweep_values(cp) -> tuple[float, ...]:
    if cp.has_option("sweep", "values"):
        return _read(cp, "sweep", "values", lambda text: tuple(
            map(_number, text.replace(",", " ").split())))
    if not all(cp.has_option("sweep", k) for k in ("start", "stop", "step")):
        raise ConfigError("sweep needs `values` or start, stop and step")
    start, stop, step = (_read(cp, "sweep", k, _number)
                         for k in ("start", "stop", "step"))
    if step <= 0 or stop < start:
        raise ConfigError("sweep range needs step > 0 and stop >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(n))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a base network, one swept variable, and a mode.

    Construction checks every field and every sweep point, so a config
    from a file, from `dataclasses.replace` or built in code is rejected
    before its first point is computed."""

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

    def __post_init__(self):
        for value, allowed, what in (
                (self.mode, _MODES, "mode"),
                (self.sweep_variable, _SWEEPABLE, "sweep variable"),
                (self.model_name, _MODELS, "fading model"),
                *((m, _METRICS, "metric") for m in self.metrics)):
            if value not in allowed:
                raise ConfigError(f"unknown {what} {value!r} (one of "
                                  f"{', '.join(allowed)})")
        if not self.sweep_values:
            raise ConfigError("empty sweep list")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        SimConfig(self.n_realizations, self.window_radius)  # count, window
        for value in self.sweep_values:     # `at` checks network and zone
            _, rt, re, _, epsilon = self.at(value)
            for rate in (rt, re):
                if rate is not None and not 0.0 <= rate < 1024.0:
                    raise ConfigError(f"rate {rate:g} bps/Hz outside "
                                      f"[0, 1024)")
            optimizer.check_epsilon(epsilon)

    @classmethod
    def from_text(cls, text: str, name: str = "experiment") -> "ExperimentConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        try:
            return cls._build(cp, name)
        except ValueError as exc:
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
        for section in cp.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]")
            unknown = sorted(set(cp.options(section)) - set(_KEYS[section]))
            if unknown:
                raise ConfigError(f"unknown key(s) in [{section}]: "
                                  f"{', '.join(unknown)}")
        for section in ("network", "sweep"):
            if not cp.has_section(section):
                raise ConfigError(f"missing [{section}] section")
        for key in ("lambda_u", "lambda_e"):
            if not cp.has_option("network", key):
                raise ConfigError(f"[network] {key} is required")
        network = NetworkParams(**{
            key: _read(cp, "network", key,
                       _parse_angle if key == "theta_c" else _number)
            for key in _NETWORK_KEYS if cp.has_option("network", key)})
        fields = {name: _read(cp, section, key, parse)
                  for section, table in _FIELDS.items()
                  for key, (name, parse) in table.items()
                  if cp.has_option(section, key)}
        variable = cp.get("sweep", "variable", fallback="").strip()
        if cp.has_option("code", "rs"):
            # re = rt - rs, set once: needs rt, no re key, no rate sweep
            if "rt" not in fields or "re" in fields \
                    or variable in ("rt", "re"):
                raise ConfigError("[code] rs needs rt, and neither an "
                                  "re key nor an rt or re sweep")
            fields["re"] = fields["rt"] - _read(cp, "code", "rs", _number)
        if not fields.get("metrics"):
            fields["metrics"] = ("pc",) if network.lambda_e == 0 \
                or fields.get("re") is None else ("pc", "pso")
        fields.setdefault("mode", "analyze")
        fields["name"] = fields.get("name") or default_name
        return cls(network=network, sweep_variable=variable,
                   sweep_values=_sweep_values(cp), **fields)

    def at(self, value: float):
        """Network/code/zone/epsilon with the swept variable set to `value`.
        An altitude sweep widens [h_min, h_max] to include each value."""
        var, net = self.sweep_variable, self.network
        point = {"rt": self.rt, "re": self.re, "d": self.zone_d,
                 "epsilon": self.epsilon}
        if var == "h":
            net = replace(net, h=value, h_min=min(net.h_min, value),
                          h_max=max(net.h_max, value))
        elif var in point:
            point[var] = value
        else:
            net = replace(net, **{var: value})
        zone = GuardZone(point["d"]) if point["d"] is not None else None
        return net, point["rt"], point["re"], zone, point["epsilon"]


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
    """Metric columns at one sweep point, per the experiment mode: closed
    forms (analyze, validate), Monte Carlo estimates under the config's
    fading model (simulate; columns `pc_mc`, `pso_mc`) or under both
    models (validate; `pc_mc_rayleigh`, `pc_mc_exact`, `pso_mc_exact`),
    each with its `_hw` half-width, or both optimizer reports (optimize)."""
    net, rt, re, zone, eps = cfg.at(value)
    out: dict[str, float] = {}

    if cfg.mode in ("analyze", "validate"):
        if "pc" in cfg.metrics and rt is not None:
            out["pc_approx"] = analytic.pc_approx(net, _beta(rt))
        if "pso" in cfg.metrics and re is not None:
            out["pso_approx"] = analytic.pso_zone_approx(net, _beta(re), zone)
        if "cs" in cfg.metrics and rt is not None and re is not None:
            p_c = out["pc_approx"] if "pc_approx" in out \
                else analytic.pc_approx(net, _beta(rt))
            density = analytic.effective_density(net.lambda_u, net.lambda_e,
                                                 zone)
            out["cs"] = analytic.stc(rt - re, p_c, density)

    # (column suffix, fading model, the metrics simulated under it)
    runs = {"simulate": (("", _MODELS[cfg.model_name], ("pc", "pso")),),
            "validate": (("_rayleigh", AllRayleigh, ("pc",)),
                         ("_exact", ExactLoSNLoS, ("pc", "pso")))}
    for suffix, model_cls, names in runs.get(cfg.mode, ()):
        sim = SimConfig(cfg.n_realizations, cfg.window_radius, cfg.seed,
                        model_cls)
        for metric, rate in (("pc", rt), ("pso", re)):
            if metric in names and metric in cfg.metrics and rate is not None:
                est = (sim_connection(net, _beta(rate), sim) if metric == "pc"
                       else sim_outage(net, _beta(rate), zone, sim))
                out[f"{metric}_mc{suffix}"] = est.value
                out[f"{metric}_mc{suffix}_hw"] = est.half_width

    if cfg.mode == "optimize":
        for tag, report, extra in (
                ("no_zone", optimizer.optimize_no_zone(net, eps), ()),
                ("zone", optimizer.optimize_zone(net, eps), ("d", "pso"))):
            for name in ("cs", "rt", "rs", "re", "h") + extra:
                out[f"{name}_{tag}"] = getattr(report, name)
    return out


def run(config_path: str, out_dir: str | None = None) -> int:
    """Execute one experiment config file; returns a process exit status."""
    try:
        cfg = ExperimentConfig.from_file(config_path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run_experiment(cfg, out_dir)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Execute one parsed experiment: one CSV row per sweep point (and an
    SVG chart if asked); returns a process exit status."""
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
    except ValueError as exc:    # a model's own domain, e.g. its exponents
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


def validate_suite(n_realizations: int = 100_000,
                   seed: int = 42) -> ValidationReport:
    """Closed-form vs Monte Carlo agreement on five validate-mode sweeps:
    connection over lambda_u at H = 10 and 20 m (rt = 5), and outage over
    lambda_e without a zone and with d = 10 and 20 m (re = 1)."""
    report = ValidationReport()

    def sweep(network, variable, values, **fields):
        cfg = ExperimentConfig(
            name="validate", mode="validate", network=network,
            sweep_variable=variable, sweep_values=values,
            n_realizations=n_realizations, seed=seed, **fields)
        return [_point_metrics(cfg, value) for value in values]

    # Connection probability, both fading models, Fig.-3-style grid.
    pc = [m for h in (10.0, 20.0) for m in sweep(
        NetworkParams(lambda_u=1e-4, lambda_e=1e-3, h=h), "lambda_u",
        (1e-4, 3e-4, 1e-3, 3e-3, 1e-2), metrics=("pc",), rt=5.0)]
    misses = sum(abs(m["pc_mc_rayleigh"] - m["pc_approx"])
                 > m["pc_mc_rayleigh_hw"] for m in pc)
    worst_exact = max(abs(m["pc_mc_exact"] - m["pc_approx"]) for m in pc)
    report.rows.append(ValidationRow(
        "pc rayleigh-model within halfwidth", float(misses), 1.0,
        misses <= 1, f"misses over {len(pc)} grid points"))
    report.rows.append(ValidationRow(
        "pc exact-model absolute deviation", worst_exact, 0.03,
        worst_exact <= 0.03))

    # Outage probability in the small-outage regime, Fig.-4/6-style.
    for d in (None, 10.0, 20.0):
        gaps = [abs(m["pso_mc_exact"] - m["pso_approx"]) for m in sweep(
            NetworkParams(lambda_u=1e-3, lambda_e=3e-5, h=10.0), "lambda_e",
            (3e-5, 1e-4, 3e-4), metrics=("pso",), re=1.0, zone_d=d)
            if m["pso_mc_exact"] <= 0.1]
        worst = max(gaps, default=0.0)
        tag = f"d={d:g}" if d is not None else "no zone"
        report.rows.append(ValidationRow(
            f"pso small-regime deviation ({tag})", worst, 0.02,
            worst <= 0.02 and bool(gaps), f"{len(gaps)} points in regime"))
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
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return EXIT_OK
    if args.command == "run":
        return run(args.config, args.out_dir)
    # the subcommand is required, so the one left is validate
    report = validate_suite(20_000 if args.fast else 100_000, args.seed)
    print(report.format())
    print("overall:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
