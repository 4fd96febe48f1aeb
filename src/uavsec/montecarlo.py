"""Ground-truth Monte Carlo simulator for the connection, secrecy-outage
and secrecy-transmission-capacity definitions, under either fading model.

Realizations are processed in fixed-size chunks, each driven by its own
random stream spawned from the master seed, so estimates are bit-identical
for a given (params, thresholds, config), and chunks could be evaluated
concurrently without changing the result.
Within a chunk the draw order is canonical (counts, positions, link fading,
signal fading), and fading is drawn for every link under both fading
models, so runs that differ only in the model share their NLoS draws.

Window policy: the connection simulator sizes the interferer window so the
closed-form truncation bias stays below 5% of the Monte Carlo half-width
(never beyond the 0.1%-interference-tail radius). The outage simulator samples
eavesdroppers out to a radius where the closed-form residual outage is
negligible and extends the interferer window beyond it by a coverage
margin, because an eavesdropper near the sampling edge would otherwise see
a half-empty interference field and decode far too often. Passing an
explicit `window_radius` forces equal eavesdropper/interferer windows at
that radius (used when comparing against the equally-truncated
semi-analytic evaluators).

The guard-zone protocol never thins interferers: zone-silenced
transmitters emit statistically identical artificial noise, so receivers
see the unthinned process. The zone only restricts where eavesdroppers can
lie and thins the transmitter density in the capacity product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import MONTE_CARLO, MetricEstimate, effective_density
from .model import (
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
    WiretapCode,
    connection_window_radius,
    gains,
    outage_window_radius,
    rng_stream,
)

__all__ = ["SimConfig", "sim_connection", "sim_outage", "sim_stc"]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls: realization count, window, seed, fading model."""

    n_realizations: int
    window_radius: Optional[float] = None   # None -> per-metric policy
    seed: int = 0
    model: type = ExactLoSNLoS

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("need n_realizations >= 1")
        if self.window_radius is not None and not (
                0.0 < self.window_radius < math.inf):
            raise ValueError("window_radius must be finite and positive")


def _chunk_size(expected_work: float, lo: int = 16, hi: int = 8192) -> int:
    """Pick a per-chunk realization count that keeps arrays ~O(10^7)."""
    if expected_work <= 0:
        return hi
    return int(max(lo, min(hi, 1.2e7 / expected_work)))


def _binary_estimate(successes: int, n: int) -> MetricEstimate:
    """Mean of n Bernoulli outcomes, normal 95% half-width with a Wilson
    fallback when the estimate sits within 5/n of 0 or 1."""
    p = successes / n
    if n > 1 and (p < 5.0 / n or p > 1.0 - 5.0 / n):
        z2 = _Z95 ** 2
        denom = 1.0 + z2 / n
        hw = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    else:
        hw = _Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return MetricEstimate(p, MONTE_CARLO, hw)


def sim_connection(params: NetworkParams, beta_t: float,
                   cfg: SimConfig) -> MetricEstimate:
    """Fraction of realizations whose legitimate-receiver SIR exceeds beta_t."""
    window = cfg.window_radius if cfg.window_radius is not None \
        else connection_window_radius(params, beta_t, cfg.n_realizations)
    if window <= params.los_radius:
        raise ValueError("window_radius must exceed the LoS radius")
    h2 = params.h ** 2
    area_mean = params.lambda_u * math.pi * window ** 2
    chunk = _chunk_size(area_mean)
    n = cfg.n_realizations
    successes = 0
    sig_pathloss = params.eta_los * h2 ** (-params.alpha_los / 2.0)
    for ci, start in enumerate(range(0, n, chunk)):
        m = min(chunk, n - start)
        rng = rng_stream(cfg.seed, 0x5EED, ci)
        counts = rng.poisson(area_mean, m)
        total = int(counts.sum())
        seg = np.repeat(np.arange(m), counts)
        horiz2 = rng.random(total) * window ** 2   # r^2 uniform on the disk
        fades = rng.standard_exponential(total)
        sig_fades = rng.standard_exponential(m)
        interference = np.bincount(
            seg, weights=gains(params, cfg.model, horiz2 + h2, horiz2, fades),
            minlength=m)
        signal = sig_pathloss * (sig_fades if cfg.model.los_faded else 1.0)
        successes += int(np.count_nonzero(signal > beta_t * interference))
    return _binary_estimate(successes, n)


def _outage_windows(params: NetworkParams, beta_e: float,
                    cfg: SimConfig) -> tuple[float, float]:
    """(eavesdropper window, interferer window) for the outage simulator."""
    if cfg.window_radius is not None:
        if cfg.window_radius <= params.los_radius:
            raise ValueError("window_radius must exceed the LoS radius")
        return cfg.window_radius, cfg.window_radius
    e_win = outage_window_radius(params, beta_e)
    # Interference-coverage margin: beyond the LoS reach and wide enough
    # that an in-window eavesdropper almost surely has interferers closer
    # than the cut (void probability e^-30); an eavesdropper at the sampling
    # edge with a half-empty interference field would decode far too often.
    if params.lambda_u > 0:
        void = math.sqrt(30.0 / (math.pi * params.lambda_u))
    else:
        void = 0.0
    margin = max(2.0 * params.los_radius, min(void, 500.0), 50.0)
    return e_win, e_win + margin


def sim_outage(params: NetworkParams, beta_e: float,
               zone: Optional[GuardZone], cfg: SimConfig) -> MetricEstimate:
    """Fraction of realizations where some eavesdropper's SIR exceeds beta_e.

    Eavesdroppers are sampled on [d, R_e] (annulus outside the guard zone),
    interferers on [0, R_u]; see the module docstring for the window policy.
    """
    d0 = zone.d if zone is not None else 0.0
    e_win, u_win = _outage_windows(params, beta_e, cfg)
    if d0 >= e_win:
        # Zone swallows the whole effective eavesdropper region.
        e_win = d0 + max(50.0, params.los_radius)
        u_win = max(u_win, e_win + 100.0)
    h2 = params.h ** 2
    u_mean = params.lambda_u * math.pi * u_win ** 2
    e_mean = params.lambda_e * math.pi * (e_win ** 2 - d0 ** 2)
    chunk = _chunk_size(u_mean + e_mean + e_mean * max(u_mean, 1.0))
    n = cfg.n_realizations
    outages = 0
    for ci, start in enumerate(range(0, n, chunk)):
        m = min(chunk, n - start)
        rng = rng_stream(cfg.seed, 0x5EED, ci)
        u_counts = rng.poisson(u_mean, m)
        e_counts = rng.poisson(e_mean, m) if e_mean > 0 else np.zeros(m, int)
        tu = int(u_counts.sum())
        te = int(e_counts.sum())
        # Canonical draw order: positions (u then e), then fading.
        ur = np.sqrt(rng.random(tu)) * u_win
        uphi = rng.random(tu) * (2.0 * math.pi)
        er2 = d0 ** 2 + rng.random(te) * (e_win ** 2 - d0 ** 2)
        ephi = rng.random(te) * (2.0 * math.pi)
        sig_fades = rng.standard_exponential(te)
        if te == 0:
            continue
        ux = ur * np.cos(uphi)
        uy = ur * np.sin(uphi)
        er = np.sqrt(er2)
        ex = er * np.cos(ephi)
        ey = er * np.sin(ephi)
        e_seg = np.repeat(np.arange(m), e_counts)
        u_offset = np.concatenate(([0], np.cumsum(u_counts)[:-1]))

        # Pair every eavesdropper with the interferers of its realization.
        lens = u_counts[e_seg]
        pairs = int(lens.sum())
        pair_fades = rng.standard_exponential(pairs)
        if pairs:
            pair_e = np.repeat(np.arange(te), lens)
            starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
            within = np.arange(pairs) - np.repeat(starts, lens)
            pair_u = within + np.repeat(u_offset[e_seg], lens)
            dx = ux[pair_u] - ex[pair_e]
            dy = uy[pair_u] - ey[pair_e]
            horiz2 = dx * dx + dy * dy
            interference = np.bincount(
                pair_e, weights=gains(params, cfg.model, horiz2 + h2, horiz2,
                                      pair_fades), minlength=te)
        else:
            interference = np.zeros(te)

        signal = gains(params, cfg.model, er2 + h2, er2, sig_fades)
        decoded = signal > beta_e * interference
        outages += int(np.count_nonzero(
            np.bincount(e_seg, weights=decoded, minlength=m) > 0))
    return _binary_estimate(outages, n)


def sim_stc(params: NetworkParams, code: WiretapCode,
            zone: Optional[GuardZone], cfg: SimConfig) -> MetricEstimate:
    """Secrecy transmission capacity rs * Pc_hat * active-transmitter density."""
    conn = sim_connection(params, code.beta_t, cfg)
    density = effective_density(params.lambda_u, params.lambda_e, zone)
    return MetricEstimate(code.rs * conn.value * density, MONTE_CARLO,
                          code.rs * conn.half_width * density)
