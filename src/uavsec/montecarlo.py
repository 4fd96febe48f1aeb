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
fading is drawn alike under both fading models, so runs that differ only
in the model share their NLoS draws.

The block bounds memory: one loop (`_interference`) builds, fades and sums
a chunk's links a block of whole receivers at a time (`_blocks`: at most
`BLOCK_LINKS` links, each holding about 90 bytes of live temporaries under
tracemalloc). The draws of consecutive blocks are consecutive draws of the
chunk's stream, and each receiver's interference is summed in link order
whatever the block size, so estimates do not depend on it. A chunk is one
`count` call, freeing its arrays before the next chunk draws (two chunks'
arrays at once made peak RSS vary by 8 MB). A link is its squared
horizontal span, read through the kernel `model.links`.

The outage screen: a realization is in outage when some eavesdropper's
signal exceeds beta_e times its interference, and most eavesdroppers do
not decode. So a chunk with at least `SCREEN_GATE` links per kept
interferer (below that, sorting the interferers costs more than it saves;
the gate reads positions only) draws its link fades in three passes, each
over the whole chunk:
1. the leads (`_interference`): each realization's eavesdropper with the
   largest signal, first on ties, draws the fades of its links in link
   order and sums them, lead by lead. A realization whose lead decodes is
   in outage, and none of its other eavesdroppers is evaluated;
2. the screen (`_screen`), over the other eavesdroppers of the undecided
   realizations: each one with more than `SCREEN_K` links draws the fades
   of its links to the `SCREEN_K` interferers of its realization nearest
   it in x (one sort of a block's interferers by realization and x, one
   `searchsorted`) and sums them. It stays open only if signal > beta_e *
   partial;
3. the full sums (`_interference`, given the screen's fades): each open
   eavesdropper (every one with at most `SCREEN_K` links is open) draws
   the fades of its other links in link order, gets the screen's fades
   back at their links, and sums all of its links in link order.
Fades that no sum reads are never drawn, and the estimate keeps its exact
law:
- a settled eavesdropper fails the full test too. The partial terms are a
  subsequence of its full sum's terms in link order, every term is >= 0
  and `np.bincount` adds each sum left to right from 0, so with rounding
  to nearest the partial sum is <= the full sum by induction over the
  terms (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
  ch. 4); and beta_e >= 0;
- an eavesdropper that is never evaluated cannot change its realization's
  verdict: it belongs to a realization whose lead decodes, and an OR that
  is already true stays true;
- which eavesdropper leads depends only on the positions and the signal
  fades, which realizations stay open only on those and the leads' link
  fades, and which links are near and which eavesdroppers stay open only
  on the positions and earlier draws. So every fade drawn after those
  decisions is a fresh Exp(1) draw, independent of them. Together with
  the fades that are never drawn, which cannot change a verdict, the
  fades are i.i.d. Exp(1) as in the unscreened chunk, and every
  realization's verdict has its unscreened law (conditional sampling;
  Asmussen and Glynn, Stochastic Simulation, 2007, ch. V).
So `SCREEN_K` and `SCREEN_GATE` move estimates only within their
sampling error, not bit for bit. An unscreened chunk runs pass 3 alone
over every eavesdropper, drawing every fade contiguously in link order as
before the screen. The passes run in the blocks of `_blocks`; the screen
and the full sums take the undecided eavesdroppers as indexes into the
chunk's pairs, not as copies, and between them keep only the open
eavesdroppers' near-link offsets (in the smallest integer type that holds
them) and fades.

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
# nearest-in-x interferers, in chunks of at least SCREEN_GATE links
# (eavesdroppers per realization) per kept interferer. Measured with the
# lead phase (2 cores, CPU-time minimums of 3 seeds at n = 4000, 1e5 at
# lambda_e = 3e-5 and 1e-4 without a zone): on the four dense outage
# points of the benchmark's mc_validate workload (lambda_e = 1e-3 and
# 3e-3, with and without a 20 m zone), K = 8 to 16 ran within 8% of each
# other, and K = 10 read 0.4-1.9% below K = 12 in a six-round repeat,
# within the host's noise. Gates 4 and 8 screen the same chunks at all ten
# of its outage points (12 to 43 links per kept interferer at lambda_e >=
# 1e-3, 3.3 to 3.6 at 3e-4). Gates 0 and 2 also screen lambda_e = 3e-4,
# which gate 2 ran 2-11% faster (about 5 ms a call out of about 2 s of
# simulation), and gate 0 cost 14-19% more at 3e-5 and 1e-4. Gate 4
# leaves the chunks at lambda_e <= 3e-4 unscreened, so those estimates
# keep the bits of the contiguous draws.
SCREEN_K = 12
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


def _blocks(sizes: np.ndarray):
    """Blocks of whole consecutive receivers, receiver i holding sizes[i]
    links: (lo, hi, first, last) for receivers [lo, hi) and their links
    [first, last), at most BLOCK_LINKS links a block (or one receiver)."""
    ends = np.cumsum(sizes)
    lo = first = 0
    while lo < len(ends):
        hi = max(int(np.searchsorted(ends, first + BLOCK_LINKS,
                                     side="right")), lo + 1)
        last = int(ends[hi - 1])
        yield lo, hi, first, last
        lo, first = hi, last


def _link_sums(params: NetworkParams, los_faded: bool, span2: np.ndarray,
               fades: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per receiver, the gains of its sizes[i] consecutive links (squared
    spans `span2`, fades `fades`), added left to right from 0 in link
    order by `np.bincount`."""
    return np.bincount(np.repeat(np.arange(len(sizes)), sizes),
                       weights=gains(params, los_faded, span2, fades),
                       minlength=len(sizes))


def _interference(params: NetworkParams, los_faded: bool, rng,
                  sizes: np.ndarray, spans, near=None) -> np.ndarray:
    """Interference at consecutive receivers, receiver i summing its
    sizes[i] links in link order, a block of `_blocks(sizes)` at a time:
    `spans(lo, hi, first, last)` gives the squared spans of links
    [first, last), those of receivers [lo, hi). Each link's fade is the
    stream's next Exp(1) draw, receiver by receiver in link order, except
    where `near`, `_screen`'s (offsets, fades) with a row for each
    receiver with more than SCREEN_K links, puts a fade back at its link."""
    out = np.empty(len(sizes))
    if near is not None:
        offsets, kept = near
        wide = sizes > SCREEN_K
        slot = np.cumsum(wide) - wide   # rows of `near` before each receiver
    for lo, hi, first, last in _blocks(sizes):
        if near is None:
            fades = rng.standard_exponential(last - first)
        else:
            blens = sizes[lo:hi]
            w = np.flatnonzero(wide[lo:hi])
            ours = slice(slot[lo], slot[lo] + len(w))
            at = ((np.cumsum(blens) - blens)[w, None] + offsets[ours]).ravel()
            fresh = np.ones(last - first, bool)
            fresh[at] = False
            fades = np.empty(last - first)
            fades[at] = kept[ours].ravel()
            fades[fresh] = rng.standard_exponential(last - first - at.size)
        out[lo:hi] = _link_sums(params, los_faded, spans(lo, hi, first, last),
                                fades, sizes[lo:hi])
        del fades   # two blocks' fades live at once: +2.4 MB peak RSS
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


@dataclass(frozen=True)
class _Pairs:
    """One chunk's eavesdropper-interferer links: eavesdropper i, at
    (ex[i], ey[i]), sees the lens[i] interferers of its realization,
    ux/uy[first[i]:first[i] + lens[i]], all within `reach` of the
    origin."""

    ux: np.ndarray
    uy: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    lens: np.ndarray
    first: np.ndarray
    reach: float

    def spans(self, rows: np.ndarray) -> np.ndarray:
        """Squared spans of the links of eavesdroppers `rows` (an ascending
        index array), eavesdropper by eavesdropper."""
        blens = self.lens[rows]
        u = _ranges(self.first[rows], blens)
        dx = self.ux[u] - np.repeat(self.ex[rows], blens)
        dy = self.uy[u] - np.repeat(self.ey[rows], blens)
        return dx * dx + dy * dy


def _screen(params: NetworkParams, los_faded: bool, rng, pairs: _Pairs,
            rows: np.ndarray, signal: np.ndarray, beta_e: float):
    """The screen pass over eavesdroppers `rows` (an ascending index array)
    of a screened chunk (module docstring). Returns which of them stay
    open (a bool array over `rows`) and, a row each for the open ones with
    more than SCREEN_K links, in order, the offsets of their SCREEN_K near
    links (ascending) and those links' fades."""
    lens = pairs.lens[rows]
    is_open = np.ones(len(rows), bool)
    dtype = np.min_scalar_type(int(lens.max(initial=0)))
    near_kept = [np.empty((0, SCREEN_K), dtype)]
    fades_kept = [np.empty((0, SCREEN_K))]
    for lo, hi, _, _ in _blocks(lens):
        blens = lens[lo:hi]
        wide = np.flatnonzero(blens > SCREEN_K)
        if wide.size == 0:
            continue
        # The block's interferers are ux[u0:u0 + n_u], among them those of
        # the realizations between its eavesdroppers' that `rows` skips;
        # g[i] is eavesdropper rows[lo + i]'s first one, counted from u0.
        first = pairs.first[rows[lo:hi]]
        u0 = first[0]
        g = first - u0
        n_u = int(g[-1] + blens[-1])
        # Sort them by (realization, x): the key x + r * 4 reach keeps
        # realization r's interferers apart from every other's, r counting
        # the starts and ends of the realizations seen (a skipped
        # realization's interferers get a key of their own).
        mark = np.zeros(n_u + 1, bool)
        mark[g[blens > 0]] = True
        mark[(g + blens)[blens > 0]] = True
        shift = np.cumsum(mark[:n_u]) * (4.0 * pairs.reach)
        key = pairs.ux[u0:u0 + n_u] + shift
        order = np.argsort(key)
        # Each wide eavesdropper's SCREEN_K interferers nearest it in x,
        # as offsets among its links.
        e, gw, lw = rows[lo + wide], g[wide], blens[wide]
        at = np.searchsorted(key[order], pairs.ex[e] + shift[gw])
        start = np.clip(at - SCREEN_K // 2, gw, gw + lw - SCREEN_K)
        near = np.sort(order[start[:, None] + np.arange(SCREEN_K)]
                       - gw[:, None], axis=1)
        u = first[wide][:, None] + near
        dx = pairs.ux[u] - pairs.ex[e][:, None]
        dy = pairs.uy[u] - pairs.ey[e][:, None]
        fades = rng.standard_exponential((len(e), SCREEN_K))
        partial = _link_sums(params, los_faded, (dx * dx + dy * dy).ravel(),
                             fades.ravel(), np.full(len(e), SCREEN_K))
        kept = signal[e] > beta_e * partial
        is_open[lo + wide[~kept]] = False
        near_kept.append(near[kept].astype(dtype))
        fades_kept.append(fades[kept])
    return is_open, np.concatenate(near_kept), np.concatenate(fades_kept)


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
    with the eavesdroppers of their realization, one block at a time; a
    dense chunk draws its link fades in the screen's three passes, leads
    first (module docstring).
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
        del keep
        er2 = d0 ** 2 + rng.random(te) * (e_win ** 2 - d0 ** 2)
        ephi = rng.random(te) * (2.0 * math.pi)
        signal = gains(params, los_faded, er2, rng.standard_exponential(te))
        # Polar positions go as soon as their x/y are made, so that they
        # and the pairs are never all live at once (about 2.5 MiB of the
        # chunk's peak at lambda_e = 3e-3).
        ux, uy = np.cos(uphi) * ur, np.sin(uphi) * ur
        del ur, uphi
        er = np.sqrt(er2)
        del er2
        ex, ey = er * np.cos(ephi), er * np.sin(ephi)
        del er, ephi
        paired = np.where(e_counts > 0, u_counts, 0)
        pairs = _Pairs(ux=ux, uy=uy, ex=ex, ey=ey,
                       lens=np.repeat(u_counts, e_counts),
                       first=np.repeat(np.cumsum(paired) - paired, e_counts),
                       reach=u_win)
        del ux, uy, ex, ey, paired

        decoded = np.zeros(te, bool)
        near = None
        if pairs.lens.sum() >= SCREEN_GATE * pairs.ux.size:
            # Pass 1 (module docstring): each realization's eavesdropper
            # with the largest signal, first on ties, leads.
            n_e = e_counts[e_counts > 0]
            starts = np.cumsum(n_e) - n_e
            top = np.flatnonzero(signal == np.repeat(
                np.maximum.reduceat(signal, starts), n_e))
            leads = top[np.searchsorted(top, starts)]
            decoded[leads] = signal[leads] > beta_e * _interference(
                params, los_faded, rng, pairs.lens[leads],
                lambda lo, hi, first, last: pairs.spans(leads[lo:hi]))
            rest = np.repeat(~decoded[leads], n_e)
            rest[leads] = False
            rows = np.flatnonzero(rest)
            is_open, *near = _screen(params, los_faded, rng, pairs, rows,
                                     signal, beta_e)
            rows = rows[is_open]
        else:
            rows = np.arange(te)
        decoded[rows] = signal[rows] > beta_e * _interference(
            params, los_faded, rng, pairs.lens[rows],
            lambda lo, hi, first, last: pairs.spans(rows[lo:hi]), near)
        return int(np.count_nonzero(np.bincount(
            np.repeat(np.arange(m), e_counts), weights=decoded, minlength=m)))

    return _estimate(cfg, u_mean + e_mean + e_mean * max(u_mean, 1.0), count)
