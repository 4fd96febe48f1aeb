"""Experiment runner: parses a flat key=value config with bracketed section
headers, executes analytic / simulation / validation / optimization sweeps,
and emits one deterministic CSV per experiment (plus an optional SVG chart).

CSV schema: the first column is the swept variable, one column per computed
metric, half-width columns suffixed `_hw`. Rows are ordered by sweep value;
identical config + seed gives byte-identical output.

`run` parses a config file and writes one row per sweep point;
`_point_metrics` is the one place where a sweep point becomes numbers, and
the built-in `validate_suite` reads its checks from the same function on
five validate-mode sweeps.

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
from .model import GuardZone, NetworkParams, beta, check_threshold
from .montecarlo import SimConfig, sim_connection, sim_outage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 5

_SWEEPABLE = ("lambda_u", "lambda_e", "h", "theta_c", "d", "rt", "re",
              "epsilon")
# Each mode and the variables it never reads, which it may not sweep (nor,
# for the [code] rates and [zone] d, set): the searches choose h, d, rt and
# re, and only they have an outage target.
_MODES = {"analyze": ("epsilon",), "simulate": ("epsilon",),
          "validate": ("epsilon",), "optimize": ("h", "d", "rt", "re")}
# Each metric and the rates it needs; it never reads the other rate.
_METRICS = {"pc": ("rt",), "pso": ("re",), "cs": ("rt", "re")}
# Each metric and the other sweep variables it never reads: the
# connection involves no eavesdropper.
_UNREAD = {"pc": ("lambda_e", "d")}
_NETWORK_KEYS = ("lambda_u", "lambda_e", "h", "theta_c", "h_min", "h_max",
                 "eta_los", "eta_nlos", "alpha_los", "alpha_nlos")


def _number(text: str) -> float:
    """A finite float; NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text.strip()!r}")
    return value


def _count(text: str) -> int:
    """A whole number: a float form such as 1e5 is valid, a fraction is an
    error, not truncated."""
    value = _number(text)
    if not value.is_integer():
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _flag(text: str) -> bool:
    """`true` or `false` (any case); anything else is an error."""
    word = text.strip().lower()
    if word not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text.strip()!r}")
    return word == "true"


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(map(_number, text.replace(",", " ").split()))


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
    "sweep": {"variable": ("sweep_variable", str.strip),
              "values": ("sweep_values", _numbers)},
    "zone": {"d": ("zone_d", _number)},
    "sim": {"n_realizations": ("n_realizations", _count),
            "seed": ("seed", int),
            "window_radius": ("window_radius", _number),
            "model": ("model", str.strip)},
    "optimize": {"epsilon": ("epsilon", _number)},
    "output": {"charts": ("charts", _flag), "log_x": ("log_x", _flag),
               "log_y": ("log_y", _flag)},
}
# Every section and key the parser reads; anything else is an error.
_KEYS = {**{section: tuple(table) for section, table in _FIELDS.items()},
         "network": _NETWORK_KEYS}


def _read(cp, section: str, key: str, parse):
    """`parse` of one value; its error names the key."""
    try:
        return parse(cp.get(section, key))
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from exc


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
    model: str = "exact"
    charts: bool = False
    log_x: bool = False
    log_y: bool = False

    def __post_init__(self):
        for value, allowed, what in (
                (self.mode, _MODES, "mode"),
                (self.sweep_variable, _SWEEPABLE, "sweep variable"),
                *((m, _METRICS, "metric") for m in self.metrics)):
            if value not in allowed:
                raise ValueError(f"unknown {what} {value!r} (one of "
                                 f"{', '.join(allowed)})")
        if self.name in ("", ".", "..") \
                or self.name != os.path.basename(self.name):
            raise ValueError(f"name {self.name!r} must be a plain file name")
        if not self.sweep_values:
            raise ValueError("empty sweep list")
        if self.sweep_variable in _MODES[self.mode]:
            raise ValueError(f"{self.mode} mode never reads "
                             f"{self.sweep_variable}: every row would be the "
                             f"same")
        for key, value in (("[code] rt", self.rt), ("[code] re", self.re),
                           ("[zone] d", self.zone_d)):
            if value is not None and key.split()[1] in _MODES[self.mode]:
                raise ValueError(f"{self.mode} mode never reads {key}: the "
                                 f"searches choose it")
        if self.mode != "optimize":     # the searches ignore `metrics`
            if not self.metrics:
                raise ValueError("no metric to compute: set [code] rt for "
                                 "pc, re for pso, or both for cs")
            for metric in self.metrics:
                missing = [rate for rate in _METRICS[metric]
                           if getattr(self, rate) is None
                           and self.sweep_variable != rate]
                if missing:
                    raise ValueError(f"metric {metric} needs [code] "
                                     f"{' and '.join(missing)}")
            if self.mode == "simulate" and "cs" in self.metrics:
                raise ValueError("simulate mode has no cs estimate")
            if all(self.sweep_variable in {"rt", "re"} - set(_METRICS[m])
                   | set(_UNREAD.get(m, ())) for m in self.metrics):
                raise ValueError(f"no requested metric reads "
                                 f"{self.sweep_variable} (metrics = "
                                 f"{', '.join(self.metrics)}): every row "
                                 f"would be the same")
        sim = SimConfig(self.n_realizations, self.window_radius, self.seed,
                        self.model)
        for value in self.sweep_values:     # `at` checks network and zone
            net, rt, re, _, epsilon = self.at(value)
            if self.mode in ("simulate", "validate"):
                sim.check_window(net)
            for rate in (rt, re):
                if rate is not None and not 0.0 <= rate < 1024.0:
                    raise ValueError(f"rate {rate:g} bps/Hz outside "
                                     f"[0, 1024)")
            optimizer.check_epsilon(epsilon)
            # the closed forms' own rules, under `_point_metrics`' conditions
            if self.mode != "simulate":
                analytic._require_canonical_alphas(net)
            if self.mode in ("analyze", "validate"):
                if "pso" in self.metrics:
                    check_threshold(beta(re), "pso_zone_approx: beta_e",
                                    positive=True)
                if "cs" in self.metrics:
                    check_threshold(rt - re, "stc: rs")

    @classmethod
    def from_text(cls, text: str, name: str = "experiment") -> "ExperimentConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"config parse error: {exc}") from exc
        return cls._build(cp, name)

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
                raise ValueError(f"unknown section [{section}]")
            unknown = sorted(set(cp.options(section)) - set(_KEYS[section]))
            if unknown:
                raise ValueError(f"unknown key(s) in [{section}]: "
                                 f"{', '.join(unknown)}")
        for section, key in (("network", "lambda_u"), ("network", "lambda_e"),
                             ("sweep", "variable"), ("sweep", "values")):
            if not cp.has_option(section, key):
                raise ValueError(f"[{section}] {key} is required")
        network = NetworkParams(**{
            key: _read(cp, "network", key,
                       _parse_angle if key == "theta_c" else _number)
            for key in _NETWORK_KEYS if cp.has_option("network", key)})
        fields = {name: _read(cp, section, key, parse)
                  for section, table in _FIELDS.items()
                  for key, (name, parse) in table.items()
                  if cp.has_option(section, key)}
        if not fields.get("metrics"):     # the metrics the rates allow
            fields["metrics"] = tuple(
                metric for metric, rate in (("pc", "rt"), ("pso", "re"))
                if rate in fields or fields["sweep_variable"] == rate)
        fields.setdefault("mode", "analyze")
        fields["name"] = fields.get("name") or default_name
        return cls(network=network, **fields)

    def at(self, value: float):
        """Network/code/zone/epsilon with the swept variable set to `value`."""
        var, net = self.sweep_variable, self.network
        point = {"rt": self.rt, "re": self.re, "d": self.zone_d,
                 "epsilon": self.epsilon}
        if var in point:
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


def _point_metrics(cfg: ExperimentConfig, value: float) -> dict:
    """Metric columns at one sweep point, per the experiment mode: closed
    forms (analyze, validate), Monte Carlo estimates under the config's
    fading model (simulate; columns `pc_mc`, `pso_mc`) or under both
    models (validate; `pc_mc_rayleigh`, `pc_mc_exact`, `pso_mc_exact`),
    each with its `_hw` half-width, or both optimizer reports (optimize)."""
    net, rt, re, zone, eps = cfg.at(value)
    out: dict[str, float] = {}

    if cfg.mode in ("analyze", "validate"):
        if "pc" in cfg.metrics:
            out["pc_approx"] = analytic.pc_approx(net, beta(rt))
        if "pso" in cfg.metrics:
            out["pso_approx"] = analytic.pso_zone_approx(net, beta(re), zone)
        if "cs" in cfg.metrics:
            p_c = out["pc_approx"] if "pc_approx" in out \
                else analytic.pc_approx(net, beta(rt))
            density = analytic.effective_density(net.lambda_u, net.lambda_e,
                                                 zone)
            out["cs"] = analytic.stc(rt - re, p_c, density)

    # (column suffix, fading model, the metrics simulated under it)
    runs = {"simulate": (("", cfg.model, ("pc", "pso")),),
            "validate": (("_rayleigh", "rayleigh", ("pc",)),
                         ("_exact", "exact", ("pc", "pso")))}
    for suffix, model, names in runs.get(cfg.mode, ()):
        sim = SimConfig(cfg.n_realizations, cfg.window_radius, cfg.seed,
                        model)
        for metric, rate in (("pc", rt), ("pso", re)):
            if metric in names and metric in cfg.metrics:
                est = (sim_connection(net, beta(rate), sim) if metric == "pc"
                       else sim_outage(net, beta(rate), zone, sim))
                out[f"{metric}_mc{suffix}"] = est.value
                out[f"{metric}_mc{suffix}_hw"] = est.half_width

    if cfg.mode == "optimize":
        for tag, report, extra in (
                ("no_zone", optimizer.optimize_no_zone(net, eps), ()),
                ("zone", optimizer.optimize_zone(net, eps), ("d", "pso"))):
            for name in ("cs", "rt", "rs", "re", "h") + extra:
                out[f"{name}_{tag}"] = getattr(report, name)
    return out


def run(config_path: str, out_dir: str | None = None,
        n_realizations: int | None = None) -> int:
    """Execute one experiment config file: one CSV row per sweep point (and
    an SVG chart if asked) in `out_dir`, else ./out. `n_realizations`, if
    given, replaces the config's Monte Carlo budget. Returns a process exit
    status."""
    directory = out_dir or "out"
    rows = []
    try:
        cfg = ExperimentConfig.from_file(config_path)
        if n_realizations is not None:
            cfg = replace(cfg, n_realizations=n_realizations)
        for value in sorted(cfg.sweep_values):
            metrics = _point_metrics(cfg, value)    # the same keys each point
            rows.append([value, *metrics.values()])
            summary = " ".join(f"{k}={_fmt(v)}" for k, v in metrics.items())
            print(f"{cfg.name}: {cfg.sweep_variable}={_fmt(value)} {summary}")
        columns = [cfg.sweep_variable, *metrics]
        os.makedirs(directory, exist_ok=True)
        csv_path = os.path.join(directory, f"{cfg.name}.csv")
        write_csv(csv_path, columns, rows)
        print(f"wrote {csv_path}")
        if cfg.charts:
            series = {c: [r[columns.index(c)] for r in rows]
                      for c in columns[1:] if not c.endswith("_hw")}
            svg = render_chart([r[0] for r in rows], series,
                               cfg.sweep_variable, title=cfg.name,
                               log_x=cfg.log_x, log_y=cfg.log_y)
            svg_path = os.path.join(directory, f"{cfg.name}.svg")
            with open(svg_path, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"wrote {svg_path}")
    except optimizer.InfeasibleError as exc:
        print(f"error: infeasible optimization: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # a rejected or unreadable config, optimize at lambda_u = lambda_e = 0,
    # or an output directory that cannot be made or written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    try:
        report = validate_suite(20_000 if args.fast else 100_000, args.seed)
    except ValueError as exc:     # e.g. a negative seed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(report.format())
    print("overall:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
