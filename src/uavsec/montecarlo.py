"""Ground-truth Monte Carlo simulator for the connection and secrecy-outage
definitions, under either fading model.

Realizations are processed in chunks, each driven by its own random
stream spawned from the master seed, so estimates are bit-identical for a
given (params, thresholds, config), and chunks could be evaluated
concurrently without changing the result. The chunk is the stream
partition and is frozen: changing `_chunk_size` changes every simulator
CSV. Within a chunk the draw order is canonical (counts, positions, link
fading, signal fading), and fading is drawn for every link under both
fading models, so runs that differ only in the model share their NLoS
draws.

The block bounds memory: inside a chunk, links are built, faded and summed
a block of whole receivers at a time (`_blocks`, at most `BLOCK_LINKS`
links, each holding about 90 bytes of live temporaries under
tracemalloc). The block's fades are the next draws of the chunk's
stream, and each receiver's interference is summed in the same order
whatever the block size, so estimates do not depend on it. A chunk is one
call (`_connection_chunk`, `_outage_chunk`), freeing its arrays before the
next chunk draws (two chunks' arrays at once made peak RSS vary by 8 MB).
A link is its squared horizontal span, read through the kernel `model.links`.

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
from typing import Iterator, Optional

import numpy as np

from .analytic import MetricEstimate
from .model import (
    BLOCK_LINKS,
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
    check_threshold,
    connection_window_radius,
    gains,
    outage_window_radius,
    rng_stream,
)

__all__ = ["SimConfig", "sim_connection", "sim_outage"]

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


# Bounds of the per-chunk realization count.
_CHUNK_MIN = 16
_CHUNK_MAX = 8192


def _chunk_size(expected_work: float) -> int:
    """Per-chunk realization count, about 1.2e7 / expected links per
    realization, within [_CHUNK_MIN, _CHUNK_MAX].

    Frozen: the chunk is the random-stream partition, so changing this
    changes every simulator CSV. Memory is bounded by `_blocks`, not here.
    """
    if expected_work <= 0:
        return _CHUNK_MAX
    return int(max(_CHUNK_MIN, min(_CHUNK_MAX, 1.2e7 / expected_work)))


def _blocks(sizes: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """Split consecutive receivers, receiver i owning sizes[i] links, into
    blocks of whole receivers with at most BLOCK_LINKS links (a receiver
    with more links is a block of its own).

    Yields (lo, hi, first, last): receivers [lo, hi) own links
    [first, last) of the concatenated link arrays.
    """
    ends = np.cumsum(sizes)
    lo = first = 0
    while lo < len(ends):
        hi = max(int(np.searchsorted(ends, first + BLOCK_LINKS,
                                     side="right")), lo + 1)
        last = int(ends[hi - 1])
        yield lo, hi, first, last
        lo, first = hi, last


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
    return MetricEstimate(p, hw)


def sim_connection(params: NetworkParams, beta_t: float,
                   cfg: SimConfig) -> MetricEstimate:
    """Fraction of realizations whose legitimate-receiver SIR exceeds beta_t."""
    check_threshold(beta_t, "sim_connection: beta_t")
    window = cfg.window_radius if cfg.window_radius is not None \
        else connection_window_radius(params, beta_t, cfg.n_realizations)
    if window <= params.los_radius:
        raise ValueError("window_radius must exceed the LoS radius")
    area_mean = params.lambda_u * math.pi * window ** 2
    chunk = _chunk_size(area_mean)
    n = cfg.n_realizations
    successes = sum(_connection_chunk(params, beta_t, cfg, ci,
                                      min(chunk, n - start), window, area_mean)
                    for ci, start in enumerate(range(0, n, chunk)))
    return _binary_estimate(successes, n)


def _connection_chunk(params: NetworkParams, beta_t: float, cfg: SimConfig,
                      ci: int, m: int, window: float, area_mean: float) -> int:
    """Successes among the m realizations of chunk ci."""
    rng = rng_stream(cfg.seed, 0x5EED, ci)
    counts = rng.poisson(area_mean, m)
    horiz2 = rng.random(int(counts.sum())) * window ** 2  # r^2 uniform
    interference = np.empty(m)
    for lo, hi, first, last in _blocks(counts):
        span2 = horiz2[first:last]
        fades = rng.standard_exponential(last - first)
        interference[lo:hi] = np.bincount(
            np.repeat(np.arange(hi - lo), counts[lo:hi]),
            weights=gains(params, cfg.model, span2, fades),
            minlength=hi - lo)
    sig_fades = rng.standard_exponential(m)
    signal = gains(params, cfg.model, np.zeros(m), sig_fades)
    return int(np.count_nonzero(signal > beta_t * interference))


def _outage_windows(params: NetworkParams, beta_e: float, cfg: SimConfig,
                    zone: Optional[GuardZone] = None) -> tuple[float, float]:
    """(eavesdropper window, interferer window) for the outage simulator.

    A guard zone that swallows the eavesdropper window (d >= window) widens
    it to d + max(50 m, K), and the interferer window to at least 100 m
    beyond that.
    """
    if cfg.window_radius is not None:
        if cfg.window_radius <= params.los_radius:
            raise ValueError("window_radius must exceed the LoS radius")
        e_win = u_win = cfg.window_radius
    else:
        e_win = outage_window_radius(params, beta_e)
        # Interference-coverage margin: beyond the LoS reach and wide
        # enough that an in-window eavesdropper almost surely has
        # interferers closer than the cut (void probability e^-30); an
        # eavesdropper at the sampling edge with a half-empty interference
        # field would decode far too often.
        if params.lambda_u > 0:
            void = math.sqrt(30.0 / (math.pi * params.lambda_u))
        else:
            void = 0.0
        u_win = e_win + max(2.0 * params.los_radius, min(void, 500.0), 50.0)
    if zone is not None and zone.d >= e_win:
        e_win = zone.d + max(50.0, params.los_radius)
        u_win = max(u_win, e_win + 100.0)
    return e_win, u_win


def sim_outage(params: NetworkParams, beta_e: float,
               zone: Optional[GuardZone], cfg: SimConfig) -> MetricEstimate:
    """Fraction of realizations where some eavesdropper's SIR exceeds beta_e.

    Eavesdroppers are sampled on [d, R_e] (annulus outside the guard zone),
    interferers on [0, R_u]; see the module docstring for the window policy.
    Each chunk is one `_outage_chunk` call: only the interferers of
    realizations with an eavesdropper are kept, converted to x/y (cos/sin)
    and paired, one block of eavesdroppers at a time (`_blocks`).
    """
    check_threshold(beta_e, "sim_outage: beta_e")
    d0 = zone.d if zone is not None else 0.0
    e_win, u_win = _outage_windows(params, beta_e, cfg, zone)
    u_mean = params.lambda_u * math.pi * u_win ** 2
    e_mean = params.lambda_e * math.pi * (e_win ** 2 - d0 ** 2)
    chunk = _chunk_size(u_mean + e_mean + e_mean * max(u_mean, 1.0))
    n = cfg.n_realizations
    outages = sum(_outage_chunk(params, beta_e, cfg, ci, min(chunk, n - start),
                                d0, e_win, u_win, u_mean, e_mean)
                  for ci, start in enumerate(range(0, n, chunk)))
    return _binary_estimate(outages, n)


def _outage_chunk(params: NetworkParams, beta_e: float, cfg: SimConfig,
                  ci: int, m: int, d0: float, e_win: float, u_win: float,
                  u_mean: float, e_mean: float) -> int:
    """Outages among the m realizations of chunk ci. Interferer positions
    are kept, right after each draw, only where there is an eavesdropper."""
    rng = rng_stream(cfg.seed, 0x5EED, ci)
    u_counts = rng.poisson(u_mean, m)
    e_counts = rng.poisson(e_mean, m) if e_mean > 0 else np.zeros(m, int)
    tu = int(u_counts.sum())
    te = int(e_counts.sum())
    if te == 0:
        return 0        # the stream is the chunk's own: skip its other draws
    # Canonical draw order: positions (u then e), then fading. cos/sin cost
    # about 30 multiplies an element, and at small lambda_e most
    # realizations have no eavesdropper to pair with.
    keep = np.repeat(e_counts > 0, u_counts)
    ur = np.sqrt(rng.random(tu)[keep]) * u_win
    uphi = rng.random(tu)[keep] * (2.0 * math.pi)
    er2 = d0 ** 2 + rng.random(te) * (e_win ** 2 - d0 ** 2)
    ephi = rng.random(te) * (2.0 * math.pi)
    sig_fades = rng.standard_exponential(te)
    ux = np.cos(uphi) * ur
    uy = np.sin(uphi) * ur
    del keep, ur, uphi
    er = np.sqrt(er2)
    ex = er * np.cos(ephi)
    ey = er * np.sin(ephi)
    e_seg = np.repeat(np.arange(m), e_counts)

    # Pair every eavesdropper with the interferers of its realization,
    # one block of eavesdroppers at a time; `u_first` is the index in
    # `ux` of the first interferer an eavesdropper sees.
    paired = np.where(e_counts > 0, u_counts, 0)
    lens = u_counts[e_seg]
    u_first = (np.cumsum(paired) - paired)[e_seg]
    interference = np.empty(te)
    for lo, hi, first, last in _blocks(lens):
        blens = lens[lo:hi]
        pair_fades = rng.standard_exponential(last - first)
        pair_e = np.repeat(np.arange(hi - lo), blens)
        pair_u = np.arange(last - first) + np.repeat(
            u_first[lo:hi] - (np.cumsum(blens) - blens), blens)
        dx = ux[pair_u] - np.repeat(ex[lo:hi], blens)
        dy = uy[pair_u] - np.repeat(ey[lo:hi], blens)
        horiz2 = dx * dx + dy * dy
        interference[lo:hi] = np.bincount(
            pair_e, weights=gains(params, cfg.model, horiz2, pair_fades),
            minlength=hi - lo)

    signal = gains(params, cfg.model, er2, sig_fades)
    decoded = signal > beta_e * interference
    return int(np.count_nonzero(
        np.bincount(e_seg, weights=decoded, minlength=m) > 0))
