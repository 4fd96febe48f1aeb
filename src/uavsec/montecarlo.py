"""Ground-truth Monte Carlo simulator for the connection and secrecy-outage
definitions, under either fading model: `SimConfig.model` names it, and
each simulator call reads it once as the one bit `model.gains` takes.

Both simulators pick their windows and Poisson means, then hand one chunk
body, `count(rng, m)`, to the one driver `_estimate`. Realizations are
processed in chunks, each driven by its own random stream spawned from the
master seed, so estimates are bit-identical for a given (params,
thresholds, config), and chunks could be evaluated concurrently without
changing the result. The chunk is the stream partition and is frozen:
changing `_estimate`'s chunk size changes every simulator CSV. Within a
chunk the draw order is canonical (counts, positions, then fading), and
fading is drawn for every link under both fading models, so runs that
differ only in the model share their NLoS draws.

The block bounds memory: inside a chunk, `_interference` builds, fades and
sums links a block of whole receivers at a time (at most `BLOCK_LINKS`
links, each holding about 90 bytes of live temporaries under
tracemalloc). The block's fades are the next draws of the chunk's
stream, and each receiver's interference is summed in the same order
whatever the block size, so estimates do not depend on it. A chunk is one
`count` call, freeing its arrays before the next chunk draws (two chunks'
arrays at once made peak RSS vary by 8 MB). A link is its squared
horizontal span, read through the kernel `model.links`.

The outage screen: an eavesdropper decodes when its signal exceeds beta_e
times its interference, and most do not. So in a block with at least
`SCREEN_GATE` links per interferer (below that, sorting the interferers
costs more than it saves), `sim_outage` first sums, per eavesdropper, its
links to the `SCREEN_K` interferers of its realization that lie nearest
it in x (one sort of the block's interferers by realization and x, one
`searchsorted`), and sums all of its links only if signal > beta_e *
partial. The estimate is still bit-identical:
- each partial term equals its term in the full sum bit for bit (same
  span, same fade, the same elementwise operations in `model.gains`);
- the partial terms are a subsequence of the eavesdropper's terms in link
  order, and `np.bincount` adds each sum left to right from 0. Every term
  is >= 0, and rounding to nearest is monotone, so by induction over the
  terms the partial sum is <= the full sum (Higham, Accuracy and
  Stability of Numerical Algorithms, 2002, ch. 4);
- beta_e >= 0, so beta_e * partial <= beta_e * full, and an eavesdropper
  the partial sum rules out fails the full test too.
Which interferers the screen picks changes only its speed. An unscreened
block keeps the contiguous path, with no gather of its fades, and the
screen's arrays are built per block from the block's slice of
interferers, never per chunk, so they do not raise the chunk's peak.

Window policy: the connection simulator sizes the interferer window so the
closed-form truncation bias stays below 5% of the Monte Carlo half-width
(never beyond the 0.1%-interference-tail radius). The outage simulator samples
eavesdroppers out to a radius where the closed-form residual outage is
negligible and extends the interferer window beyond it by a coverage
margin, because an eavesdropper near the sampling edge would otherwise see
a half-empty interference field and decode far too often. Passing an
explicit `window_radius` forces equal eavesdropper/interferer windows at
that radius (used when comparing against the equally-truncated
semi-analytic evaluators); it must exceed the LoS radius
(`SimConfig.check_window`).

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

from .analytic import MetricEstimate
from .model import (
    BLOCK_LINKS,
    GuardZone,
    NetworkParams,
    check_count,
    check_seed,
    check_threshold,
    connection_window_radius,
    gains,
    outage_window_radius,
    rng_stream,
)

__all__ = ["SimConfig", "sim_connection", "sim_outage"]

_Z95 = 1.959963984540054

# `sim_outage`'s screen (module docstring): each eavesdropper's SCREEN_K
# nearest-in-x interferers, in blocks of at least SCREEN_GATE links
# (eavesdroppers per realization) per interferer. On the ten outage points
# of the benchmark's mc_validate workload (2 cores, CPU-time minimums),
# K = 8 to 16 ran within 3% of each other, K = 4 3-5% and K = 32 10-15%
# slower. Screening every block cost 7-11% more at lambda_e <= 1e-4 (1.2
# to 1.7 eavesdroppers per realization); gates of 2 to 8 were within noise.
SCREEN_K = 16
SCREEN_GATE = 4

MODELS = ("exact", "rayleigh")      # the values of `SimConfig.model`


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls, each checked at construction: realization
    count, window, seed and fading model, "exact" (the paper's channel,
    LoS links deterministic) or "rayleigh" (every link Rayleigh-faded, as
    the closed forms assume)."""

    n_realizations: int
    window_radius: Optional[float] = None   # None -> per-metric policy
    seed: int = 0
    model: str = "exact"

    def __post_init__(self):
        check_count(self.n_realizations, "n_realizations")
        if self.window_radius is not None:
            check_threshold(self.window_radius, "window_radius", positive=True)
        check_seed(self.seed)
        if self.model not in MODELS:
            raise ValueError(f"unknown fading model {self.model!r} (one of "
                             f"{', '.join(MODELS)})")

    def check_window(self, params: NetworkParams) -> None:
        """Raise ValueError unless an explicit window exceeds the LoS
        radius K of `params` (the policy windows always do)."""
        if self.window_radius is not None \
                and self.window_radius <= params.los_radius:
            raise ValueError(
                f"window_radius = {self.window_radius:g} must exceed the "
                f"LoS radius {params.los_radius:g} m at h = {params.h:g} m")


# Bounds of the per-chunk realization count.
_CHUNK_MIN = 16
_CHUNK_MAX = 8192


def _estimate(cfg: SimConfig, work: float, count) -> MetricEstimate:
    """Event share over cfg.n_realizations realizations: `count(rng, m)`
    events in each chunk of m, drawn from the chunk's own stream. A chunk
    is about 1.2e7 / `work` (expected links per realization) realizations,
    within [_CHUNK_MIN, _CHUNK_MAX]; frozen, being the stream partition.
    Memory is bounded by `_interference`'s blocks, not here."""
    chunk = _CHUNK_MAX if work <= 0 \
        else int(max(_CHUNK_MIN, min(_CHUNK_MAX, 1.2e7 / work)))
    n = cfg.n_realizations
    events = sum(count(rng_stream(cfg.seed, 0x5EED, ci), min(chunk, n - start))
                 for ci, start in enumerate(range(0, n, chunk)))
    return _binary_estimate(events, n)


def _interference(params: NetworkParams, los_faded: bool, rng,
                  sizes: np.ndarray, spans, screen=None) -> np.ndarray:
    """Interference at consecutive receivers, receiver i summing sizes[i]
    links, in blocks of whole receivers with at most BLOCK_LINKS links (or
    one receiver). `spans(lo, hi, first, last)` gives the squared spans of
    links [first, last), those of receivers [lo, hi); their fades are the
    stream's next draws.

    `screen(lo, hi, first, fades)`, if given, may settle receivers of a
    block from some of their links. It returns None (sum every link of the
    block), or a lower bound on each of the block's sums, the receivers
    (an index array) it leaves open and the squared spans of their links.
    Only the open receivers are summed in full, from the block's fades at
    their links; the others get the bound."""
    ends = np.cumsum(sizes)
    out = np.empty(len(sizes))
    lo = first = 0
    while lo < len(ends):
        hi = max(int(np.searchsorted(ends, first + BLOCK_LINKS,
                                     side="right")), lo + 1)
        last = int(ends[hi - 1])
        fades = rng.standard_exponential(last - first)
        screened = None if screen is None else screen(lo, hi, first, fades)
        if screened is None:
            rows, span2 = slice(lo, hi), spans(lo, hi, first, last)
        else:
            out[lo:hi], rows, span2 = screened
            fades = fades[_ranges(ends[rows] - sizes[rows] - first,
                                  sizes[rows])]
        blens = sizes[rows]
        out[rows] = np.bincount(
            np.repeat(np.arange(len(blens)), blens),
            weights=gains(params, los_faded, span2, fades),
            minlength=len(blens))
        lo, first = hi, last
    return out


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The integers [starts[i], starts[i] + lens[i]) of every i, in order."""
    return np.arange(int(lens.sum())) + np.repeat(
        starts - (np.cumsum(lens) - lens), lens)


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
    cfg.check_window(params)
    window = cfg.window_radius if cfg.window_radius is not None \
        else connection_window_radius(params, beta_t, cfg.n_realizations)
    area_mean = params.lambda_u * math.pi * window ** 2
    los_faded = cfg.model == "rayleigh"

    def count(rng, m):
        counts = rng.poisson(area_mean, m)
        horiz2 = rng.random(int(counts.sum())) * window ** 2  # r^2 uniform
        interference = _interference(
            params, los_faded, rng, counts,
            lambda lo, hi, first, last: horiz2[first:last])
        sig_fades = rng.standard_exponential(m)
        signal = gains(params, los_faded, np.zeros(m), sig_fades)
        return int(np.count_nonzero(signal > beta_t * interference))

    return _estimate(cfg, area_mean, count)


def _outage_windows(params: NetworkParams, beta_e: float, cfg: SimConfig,
                    zone: Optional[GuardZone] = None) -> tuple[float, float]:
    """(eavesdropper window, interferer window) for the outage simulator.

    A guard zone that swallows the eavesdropper window (d >= window) widens
    it to d + max(50 m, K), and the interferer window to at least 100 m
    beyond that.
    """
    if cfg.window_radius is not None:
        cfg.check_window(params)
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
    In each chunk only the interferers of realizations with an eavesdropper
    are kept, right after each draw, converted to x/y (cos/sin) and paired
    with the eavesdroppers of their realization, one block at a time, each
    dense block screened first (module docstring).
    """
    check_threshold(beta_e, "sim_outage: beta_e")
    d0 = zone.d if zone is not None else 0.0
    e_win, u_win = _outage_windows(params, beta_e, cfg, zone)
    u_mean = params.lambda_u * math.pi * u_win ** 2
    e_mean = params.lambda_e * math.pi * (e_win ** 2 - d0 ** 2)
    los_faded = cfg.model == "rayleigh"

    def count(rng, m):
        u_counts = rng.poisson(u_mean, m)
        e_counts = rng.poisson(e_mean, m) if e_mean > 0 else np.zeros(m, int)
        tu = int(u_counts.sum())
        te = int(e_counts.sum())
        if te == 0:
            return 0    # the stream is the chunk's own: skip its other draws
        # Canonical draw order: positions (u then e), then fading. cos/sin
        # cost about 30 multiplies an element, and at small lambda_e most
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

        # Eavesdropper i sees the lens[i] interferers of its realization,
        # the first of them at index u_first[i] of `ux`.
        paired = np.where(e_counts > 0, u_counts, 0)
        lens = u_counts[e_seg]
        u_first = (np.cumsum(paired) - paired)[e_seg]

        def pair_spans(rows):
            # Squared spans of the links of eavesdroppers `rows` (a slice
            # or an index array), eavesdropper by eavesdropper.
            blens = lens[rows]
            pair_u = _ranges(u_first[rows], blens)
            dx = ux[pair_u] - np.repeat(ex[rows], blens)
            dy = uy[pair_u] - np.repeat(ey[rows], blens)
            return dx * dx + dy * dy

        def screen(lo, hi, first, fades):
            # The block's interferers are ux[u0:u0 + n_u]; g[i] is
            # eavesdropper lo + i's first one, counted from u0.
            blens = lens[lo:hi]
            u0 = u_first[lo]
            g = u_first[lo:hi] - u0
            n_u = int(g[-1] + blens[-1])
            if n_u == 0 or fades.size < SCREEN_GATE * n_u:
                return None
            # Sort them by (realization, x): the key x + r * 4 u_win keeps
            # realization r's interferers apart from every other's.
            mark = np.zeros(n_u, bool)
            mark[g[blens > 0]] = True
            shift = np.cumsum(mark) * (4.0 * u_win)
            key = ux[u0:u0 + n_u] + shift
            order = np.argsort(key)
            # For each eavesdropper with more than SCREEN_K interferers,
            # the SCREEN_K nearest it in x, as link numbers in canonical
            # order.
            wide = np.flatnonzero(blens > SCREEN_K)
            e, gw, lw = lo + wide, g[wide], blens[wide]
            at = np.searchsorted(key[order], ex[e] + shift[gw])
            start = np.clip(at - SCREEN_K // 2, gw, gw + lw - SCREEN_K)
            near = np.sort(order[start[:, None] + np.arange(SCREEN_K)]
                           - gw[:, None], axis=1)
            u = u_first[e][:, None] + near
            dx = ux[u] - ex[e][:, None]
            dy = uy[u] - ey[e][:, None]
            link = (np.cumsum(blens) - blens)[wide][:, None] + near
            partial = np.bincount(
                np.repeat(np.arange(len(wide)), SCREEN_K),
                weights=gains(params, los_faded, (dx * dx + dy * dy).ravel(),
                              fades[link.ravel()]),
                minlength=len(wide))
            bound = np.zeros(hi - lo)
            bound[wide] = partial
            undecided = blens <= SCREEN_K
            undecided[wide] = signal[e] > beta_e * partial
            rows = lo + np.flatnonzero(undecided)
            return bound, rows, pair_spans(rows)

        signal = gains(params, los_faded, er2, sig_fades)
        interference = _interference(
            params, los_faded, rng, lens,
            lambda lo, hi, first, last: pair_spans(slice(lo, hi)), screen)
        decoded = signal > beta_e * interference
        return int(np.count_nonzero(
            np.bincount(e_seg, weights=decoded, minlength=m) > 0))

    return _estimate(cfg, u_mean + e_mean + e_mean * max(u_mean, 1.0), count)
