"""Closed-form and semi-analytic evaluators for connection probability,
secrecy outage probability (with and without a guard zone) and secrecy
transmission capacity.

The closed forms assume the canonical path-loss exponents (LoS 2, NLoS 4)
and, for the outage forms, the all-Rayleigh treatment of LoS links plus an
expectation swap over the interferer process; they are exact for the
connection probability under that fading treatment and are validated
against simulation in the small-outage regime. Each is written once, over
arrays of cells (`_pc_cells`, `_brace_cells`): the public forms evaluate
one cell, the optimizer whole grids. The semi-analytic
`pc_exact`/`pso_exact` evaluators average, over sampled interferer
configurations, the probability that the SIR from the transmitter overhead
exceeds a threshold at a ground point given the interferers: a
hypoexponential CDF inside the LoS disk (`_disk_rows`), a product form
outside (`_product_rows`). `pc_exact` evaluates it at the origin, where
the typical receiver sits, as one `_disk_rows` row. `pso_exact` evaluates
it on rings of 64 points (`_exceedance`), integrated over the eavesdropper
process; per configuration, one ring table (`_ring_table`) holds each
interferer's projection on each ring angle, so a ring's geometry takes one
scalar per ring. Every link's D^2 and LoS side come from `model.links`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mathkit
from .model import (BLOCK_LINKS, GuardZone, NetworkParams, check_threshold,
                    links, los_radius, pathloss, q1, rng_stream, sample_ppp)

__all__ = [
    "MetricEstimate",
    "pc_approx",
    "pso_approx",
    "pso_zone_approx",
    "pc_simplified",
    "effective_density",
    "stc",
    "pc_exact",
    "pso_exact",
]

@dataclass(frozen=True)
class MetricEstimate:
    """A probability or capacity value and its 95% half-width."""

    value: float
    half_width: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")
        if not 0.0 <= self.half_width < math.inf:
            raise ValueError("half_width must be finite and nonnegative")


def _require_canonical_alphas(params: NetworkParams):
    if params.alpha_los != 2.0 or params.alpha_nlos != 4.0:
        raise ValueError(
            "closed forms require alpha_los = 2 and alpha_nlos = 4; "
            f"got ({params.alpha_los}, {params.alpha_nlos})")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def pc_approx(params: NetworkParams, beta_t: float) -> float:
    """Connection probability under the all-Rayleigh treatment (exact for
    that model): exp of an arctan term (NLoS interferers) plus a log term
    (LoS interferers), evaluated as one cell of `_pc_cells`."""
    _require_canonical_alphas(params)
    check_threshold(beta_t, "pc_approx: beta_t")
    if beta_t == 0.0 or params.lambda_u == 0.0:
        return 1.0
    return float(_pc_cells(params, np.array([beta_t]),
                           np.array([params.h]))[0])


def pso_approx(params: NetworkParams, beta_e: float) -> float:
    """Secrecy outage probability of the typical pair, closed form.

    Valid in the small-outage regime (~0 to 0.1); singular at beta_e = 0.
    """
    _require_canonical_alphas(params)
    check_threshold(beta_e, "pso_approx: beta_e", positive=True)
    return _pso_cell(params, beta_e, 0.0)


def pso_zone_approx(params: NetworkParams, beta_e: float,
                    zone: GuardZone | None) -> float:
    """Outage probability with a secrecy guard zone of radius d; no zone
    (None) is d = 0, which is `pso_approx`.

    Two branches: for d >= K only the NLoS tail beyond d remains; for d < K
    the LoS-disk part starts at d. The branches agree exactly at d = K.
    """
    _require_canonical_alphas(params)
    check_threshold(beta_e, "pso_zone_approx: beta_e", positive=True)
    return _pso_cell(params, beta_e, zone.d if zone is not None else 0.0)


def _pso_cell(params: NetworkParams, beta_e: float, d: float) -> float:
    """The outage of `pso_zone_approx` at zone radius d (0: no zone), for
    validated inputs: 1 - exp(-2 pi lambda_e (T + D)) with the brace of
    one cell of `_brace_cells`."""
    if params.lambda_e == 0.0:
        return 0.0
    if params.lambda_u == 0.0:
        return 1.0  # no interference: every eavesdropper decodes
    h = np.array([params.h])
    d = np.array([d])
    k = np.array([params.los_radius])
    with np.errstate(over="ignore", invalid="ignore"):
        tail, disk, _ = _brace_cells(params, q1(params, beta_e), h, d, k,
                                     h ** 2 + np.maximum(d, k) ** 2)
    brace = float(tail[0] + disk[0])
    if not brace < math.inf:
        return 1.0  # past float range (inf, or inf - inf inside D)
    return -math.expm1(-2.0 * math.pi * params.lambda_e * brace)


def pc_simplified(params: NetworkParams, rt: float) -> float:
    """Large-threshold surrogate of the connection probability.

    Accurate only deep in the small-angle regime (beta_t >>
    (eta_los/eta_nlos)*(H^2+K^2)^2/H^2); used by the optimizer for the
    codeword-rate argmax, not for reporting. May exceed 1 outside its
    regime.
    """
    _require_canonical_alphas(params)
    check_threshold(rt, "pc_simplified: rt")
    ratio = math.sqrt(params.eta_nlos / params.eta_los)
    return math.exp(-(math.pi / 2.0) * params.lambda_u * params.h
                    * (ratio * math.pi * 2.0 ** (rt / 2.0) - 2.0 * params.h))


def effective_density(lambda_u: float, lambda_e: float,
                      zone: GuardZone | None) -> float:
    """Transmitter density thinned by the guard-zone silence protocol."""
    check_threshold(lambda_u, "effective_density: lambda_u")
    check_threshold(lambda_e, "effective_density: lambda_e")
    if zone is None or zone.d == 0.0:
        return lambda_u
    return lambda_u * math.exp(-math.pi * lambda_e * zone.d ** 2)


def stc(rs: float, p_c: float, density: float) -> float:
    """Secrecy transmission capacity rs * Pc * density (bps/Hz/m^2)."""
    check_threshold(rs, "stc: rs")
    check_threshold(p_c, "stc: p_c")
    check_threshold(density, "stc: density")
    return rs * p_c * density


# The closed forms over arrays of cells: the outage brace of
# `pso_zone_approx` (both branches), which that form takes as one cell and
# the optimizer's log-outage reads over its grid, and the connection
# probability (`pc_approx` is one cell). Callers pass valid inputs;
# exponents past float range saturate.

# Gauss-Legendre(7) on [-1, 1]: exact for the narrow disk-term intervals.
_GL7_X = np.array([-0.9491079123427585, -0.7415311855993945,
                   -0.4058451513773972, 0.0,
                   0.4058451513773972, 0.7415311855993945,
                   0.9491079123427585])
_GL7_W = np.array([0.1294849661688697, 0.2797053914892766,
                   0.3818300505051189, 0.4179591836734694,
                   0.3818300505051189, 0.2797053914892766,
                   0.1294849661688697])


def _disk_moments_cells(b, u1, u2):
    """exp(b) * integral of s*exp(-s) over [u1, u2], i.e.
    (1+u1)e^(b-u1) - (1+u2)e^(b-u2), per cell, and with it the second
    moment exp(b) * integral of s^2*exp(-s) over [u1, u2] by the same split
    (the antiderivative of s^2*exp(-s) is -(2 + 2s + s^2)*exp(-s)).
    Narrow or near-origin intervals (u2 - u1 < 0.1 or u2 < 1e-3), where the
    direct difference loses all precision, go through fixed quadrature of
    the smooth integrands instead. The quadrature runs on those cells only,
    and sums each cell's nodes by itself (not by a BLAS product, whose
    rounding depends on how many cells share the call), so a cell's values
    do not depend on the other cells. Cells past float range
    (b - u1 > 700) give inf for both, where the outage saturates at 1, and
    are evaluated at b = u1 so that nothing overflows."""
    saturated = b - u1 > 700.0
    b = np.where(saturated, u1, b)
    e1, e2 = np.exp(b - u1), np.exp(b - u2)
    first = (1.0 + u1) * e1 - (1.0 + u2) * e2
    second = (2.0 + u1 * (2.0 + u1)) * e1 - (2.0 + u2 * (2.0 + u2)) * e2
    quad = np.flatnonzero((u2 - u1 < 0.1) | (u2 < 1e-3))
    half = 0.5 * (u2[quad] - u1[quad])
    s = 0.5 * (u1[quad] + u2[quad])[:, None] + half[:, None] * _GL7_X
    tilt = s * np.exp(b[quad, None] - s)
    first[quad] = half * (tilt * _GL7_W).sum(axis=1)
    second[quad] = half * (s * tilt * _GL7_W).sum(axis=1)
    empty = u2 <= u1
    first[saturated] = second[saturated] = np.inf
    return np.where(empty, 0.0, first), np.where(empty, 0.0, second)


def _brace_cells(params: NetworkParams, q, h, d, k, s):
    """The outage brace T + D of `pso_zone_approx` per cell (altitude h,
    zone radius d, LoS radius k, s = h^2 + max(d, k)^2) at q = `q1`, so
    that P_so = 1 - exp(-2 pi lambda_e (T + D)). T = e^(b - q s) / (2q) is
    the NLoS tail beyond sqrt(s - h^2) and D the integral over the LoS
    annulus [s1, s2] = [sqrt(h^2 + d^2), sqrt(h^2 + k^2)] (empty for
    d >= k) of x e^(b - c q x) dx, with b = pi lambda_u h^2 and
    c = sqrt(eta_N/eta_L). Returns T, D and c times D's second moment (the
    same integral of x^2 e^(b - c q x)), which is -dD/dq; past float range
    they are inf."""
    b = math.pi * params.lambda_u * h ** 2
    c = math.sqrt(params.eta_nlos / params.eta_los)
    a = c * q
    tail = np.exp(b - q * s - np.log(2.0 * q))
    disk, disk2 = _disk_moments_cells(b, a * np.sqrt(h ** 2 + d * d),
                                      a * np.sqrt(h ** 2 + k * k))
    return tail, disk / (a * a), c * (disk2 / a ** 3)


def _log_outage_cells(params: NetworkParams, epsilon: float, h, d, k, s):
    """The outage constraint of `pso_zone_approx` per cell (the cells of
    `_brace_cells`) in q = `q1`: G(q) = log(T + D) - log(rho) with
    rho = L / (2 pi lambda_e) and L = -log(1 - epsilon), so
    P_so = -expm1(-L e^G) <= epsilon where G <= 0. Both terms of the brace
    are log-convex and decreasing in q, so G is convex and decreasing (inf
    past float range, where P_so saturates at 1). Returns
    g(q, j) -> (G, dG/dq) at the cells j."""
    log_rho = math.log(-math.log1p(-epsilon)
                       / (2.0 * math.pi * params.lambda_e))

    def g(q, j):
        tail, disk, slope = _brace_cells(params, q, h[j], d[j], k[j], s[j])
        brace = tail + disk
        return (np.log(brace) - log_rho,
                -(tail * (s[j] + 1.0 / q) + slope) / brace)
    return g


def _pc_cells(params: NetworkParams, beta_t, h) -> np.ndarray:
    """`pc_approx` per cell at altitudes h and thresholds beta_t > 0 (where
    beta_t eta_N / eta_L underflows to 0, arctan(inf) = pi/2 makes the NLoS
    term its beta_t -> 0 limit, 0)."""
    h2 = h ** 2
    k2 = los_radius(h, params.theta_c) ** 2
    sqrt_c = h * np.sqrt(beta_t * params.eta_nlos / params.eta_los)
    with np.errstate(divide="ignore"):
        angle = np.arctan((h2 + k2) / sqrt_c)
    term_nlos = (math.pi * params.lambda_u * sqrt_c / 2.0
                 * (math.pi - 2.0 * angle))
    term_los = (math.pi * params.lambda_u * h2 * beta_t
                * np.log1p(k2 / (h2 * beta_t + h2)))
    return np.exp(-term_nlos - term_los)


# ---------------------------------------------------------------------------
# Semi-analytic evaluators (conditional forms averaged over sampled
# interferer configurations)
# ---------------------------------------------------------------------------

# Angles of the trapezoid rule on each ring of `pso_exact`'s radial
# quadrature (the integrand is periodic in angle, so it is spectrally
# accurate).
_N_ANGLES = 64
_PHIS = np.linspace(0.0, 2.0 * math.pi, _N_ANGLES, endpoint=False)
_COS, _SIN = np.cos(_PHIS), np.sin(_PHIS)

# Default radius (m) of the disk of interferers both evaluators sample.
WINDOW = 200.0


def pc_exact(params: NetworkParams, beta_t: float, n_realizations: int = 200,
             window: float = WINDOW, seed: int = 0) -> MetricEstimate:
    """Connection probability by averaging the conditional hypoexponential
    form over sampled interferer configurations.

    Low-variance counterpart of the plain simulator: the fading is
    integrated out analytically per configuration (one `_disk_rows` row
    at the receiver's own position, the origin, whose span to interferer
    u is |u|); with no NLoS interferers the event degenerates to a
    deterministic comparison against the LoS interference.
    """
    check_threshold(beta_t, "pc_exact: beta_t")
    check_threshold(window, "pc_exact: window", positive=True)
    if beta_t == 0.0:       # always connects
        return MetricEstimate(1.0)
    p = params
    sig = p.eta_los * pathloss(np.array([p.h ** 2]), p.alpha_los)

    def connects(pts):
        d2, los = links(p, pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1])
        return _disk_rows(p, beta_t, sig, d2[None], los[None],
                          np.empty((1, d2.size)))[0]

    mean, hw = _average(params, connects, n_realizations, window, seed)
    return MetricEstimate(mean, hw)


def _average(params: NetworkParams, value, n_realizations: int,
             window: float, seed: int) -> tuple[float, float]:
    """Mean of `value(pts)` over interferer configurations `pts`, PPPs on
    the disk of radius `window` drawn from streams (seed, i), and its 95%
    half-width."""
    if n_realizations < 1:
        raise ValueError("need n_realizations >= 1")
    vals = np.empty(n_realizations)
    for i in range(n_realizations):
        vals[i] = value(sample_ppp(params.lambda_u, 0.0, window,
                                   rng_stream(seed, i)))
    hw = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(n_realizations) \
        if n_realizations > 1 else 0.0
    return float(np.mean(vals)), hw


def _ring_table(pts: np.ndarray, cos, sin):
    """The ring table of one interferer configuration at the angles
    (`cos`, `sin`): proj[a, j] = -2 (u_j . e_a), shaped (angles, n), and
    |u_j|^2. The squared horizontal span from the ring point at radius r
    and angle a to interferer j is then |u_j|^2 + r proj[a, j] + r^2."""
    ux, uy = pts[:, 0], pts[:, 1]
    proj = np.multiply.outer(cos, ux)
    proj += np.multiply.outer(sin, uy)
    proj *= -2.0
    return proj, ux * ux + uy * uy


def _scratch(n_points: int, n: int):
    """Buffers for `_exceedance` calls of up to `n_points` ring points
    against `n` interferers: the pairs of one block (squared distances,
    work, LoS mask)."""
    size = min(n_points, max(1, BLOCK_LINKS // max(n, 1))) * n
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _blocks(n_rings: int, n_angles: int, n: int):
    """(first ring, end ring, first angle, end angle) of each block: whole
    rings while they fit in `BLOCK_LINKS` pairs, else one ring a block of
    angles at a time."""
    per = BLOCK_LINKS // (n_angles * n)
    if per:
        return [(i, min(i + per, n_rings), 0, n_angles)
                for i in range(0, n_rings, per)]
    step = max(1, BLOCK_LINKS // n)
    return [(i, i + 1, a, min(a + step, n_angles))
            for i in range(n_rings) for a in range(0, n_angles, step)]


def _exceedance(params: NetworkParams, beta: float, table, rs: np.ndarray,
                scratch) -> np.ndarray:
    """Conditional P(SIR at ground point x from the transmitter above the
    origin exceeds beta | interferers), at the points of the rings of radii
    `rs` at the angles of the ring `table` (`_ring_table`), shaped
    (rings, angles): an eavesdropper at x decodes.

    All rings of one call lie on one side of the LoS radius K. The
    (point, interferer) pairs are built a block at a time (`_blocks`) in
    the `scratch` buffers (`_scratch`), filled in place from the table:
    each pass multiplies or adds one scalar per ring or the n-vector
    |u|^2 over contiguous data, and `model.links` turns the spans into
    distances and LoS masks in place. Each element keeps its operations and
    each sum runs over one point's contiguous row, so results do not depend
    on the block size. The span differs from |u - x|^2 computed from
    coordinate differences by rounding.
    """
    proj, u2 = table
    n_angles, n = proj.shape
    out = np.ones((rs.size, n_angles))
    if n == 0:
        return out
    p = params
    r2 = rs * rs
    d0, inside = links(p, r2)
    if inside[0]:
        sig = p.eta_los * pathloss(d0, p.alpha_los)
    else:
        scale = beta * d0 ** (p.alpha_nlos / 2.0)
    for i0, i1, a0, a1 in _blocks(rs.size, n_angles, n):
        shape = (i1 - i0, a1 - a0, n)
        d2, work, los = (b[:math.prod(shape)].reshape(shape)
                         for b in scratch)
        np.multiply(rs[i0:i1, None, None], proj[a0:a1], out=d2)
        np.add(d2, u2, out=d2)
        np.add(d2, r2[i0:i1, None, None], out=d2)   # horizontal span^2
        links(p, d2, d2, los)
        if inside[0]:
            rows = (-1, n)
            out[i0:i1, a0:a1] = _disk_rows(
                p, beta, np.repeat(sig[i0:i1], a1 - a0), d2.reshape(rows),
                los.reshape(rows), work.reshape(rows)).reshape(shape[:2])
        else:
            out[i0:i1, a0:a1] = _product_rows(p, scale[i0:i1], d2, los,
                                              work)
    return out


def _disk_rows(p: NetworkParams, beta: float, sig, d2, los,
               work) -> np.ndarray:
    """LoS signal: per position, the hypoexponential CDF of the NLoS
    interference at the margin left by the deterministic LoS interference.

    A position is a row of `d2` / `los` (its squared 3-D distance to every
    interferer, and which of those links are LoS) with signal power `sig`;
    `work`, shaped like `d2`, is overwritten. The LoS interference is summed
    over the whole row, zeros included, after writing only the LoS pairs.
    Chernoff screens decide almost every open position (positive margin
    and some NLoS interferer); only genuinely mid-CDF positions pay for the
    signed mixture.

    The first screen has no logarithm: with z_i = lam_min / (2 lam_i)
    <= 1/2, -log1p(-z) <= 2z bounds the Chernoff exponent of P(I >= y) at
    t = lam_min/2 by (lam_min/2)(2 sum 1/lam_i - y) (`_log_free_bound`).
    It needs two row reductions of the NLoS path loss over the whole
    block. A row it puts below -23 gets 1, as the log1p screen would give
    it; only the rows it leaves are gathered for the log1p screens, with
    their arithmetic unchanged.
    """
    work.fill(0.0)
    at = np.flatnonzero(los)
    work.reshape(-1)[at] = p.eta_los * pathloss(d2.reshape(-1)[at],
                                                p.alpha_los)
    y = sig / beta - np.sum(work, axis=1)
    n_nlos = los.shape[1] - np.count_nonzero(los, axis=1)
    vals = np.where(y > 0.0, 1.0, 0.0)
    rows = np.flatnonzero((y > 0.0) & (n_nlos > 0))
    if rows.size == 0:
        return vals
    # D^-alpha_N = 1 / (eta_N lam_i) at NLoS pairs, 0 at LoS pairs
    gain = pathloss(d2, p.alpha_nlos, out=work)
    gain.reshape(-1)[at] = 0.0
    with np.errstate(divide="ignore"):      # gains that underflow to 0
        free = _log_free_bound(np.sum(gain, axis=1)[rows],
                               np.max(gain, axis=1)[rows],
                               y[rows] / (2.0 * p.eta_nlos), los.shape[1])
    rows = rows[~(free < -23.0)]
    if rows.size == 0:
        return vals
    y, n_nlos, los = y[rows], n_nlos[rows], los[rows]
    rates = np.where(los, np.inf, d2[rows] ** (p.alpha_nlos / 2.0)
                     / p.eta_nlos)
    lam_min = np.min(rates, axis=1)
    inv_rates = np.where(los, 0.0, 1.0 / rates)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log P(I >= y) <= -sum log1p(-t/rate) - t*y at t = lam_min/2
        upper = (-np.sum(np.log1p(-0.5 * lam_min[:, None] * inv_rates),
                         axis=1)
                 - 0.5 * lam_min * y)
        # log P(I <= y) <= t*y - sum log1p(t/rate) at t = 4n/y
        t0 = 4.0 * n_nlos / y
        lower = t0 * y - np.sum(np.log1p(t0[:, None] * inv_rates), axis=1)
    # P(I >= y) <= 1e-10 leaves the 1; else P(I <= y) <= 1e-12 gives 0.
    unsure = ~(upper < -23.0)
    vals[rows[unsure & (lower < -28.0)]] = 0.0
    for j in np.flatnonzero(unsure & ~(lower < -28.0)):
        vals[rows[j]] = mathkit.hypoexp_cdf(rates[j][~los[j]], float(y[j]))
    return vals


def _log_free_bound(total, peak, half, n: int):
    """Log-free upper bound on the Chernoff exponent of P(I >= y) at
    t = lam_min/2, per row, from the row's NLoS path losses
    g_i = D_i^-alpha_N = 1 / (eta_N lam_i): their sum `total`, their
    maximum `peak` = 1 / (eta_N lam_min), and `half` = y / (2 eta_N).
    Exactly, (lam_min/2)(2 sum 1/lam_i - y) = (total - half) / peak, which
    exceeds the log1p exponent by at least 1 - ln 2 (its term at
    z = 1/2). The rounding margin (n + 16) 2^-50 (total + half) / peak on
    top covers the rounding of both n-term sums, the log1p one included."""
    return ((total - half) + (n + 16) * 2.0 ** -50 * (total + half)) / peak


def _product_rows(p: NetworkParams, scale, d2, los, work) -> np.ndarray:
    """NLoS signal: per position (rings x angles x interferers in `d2` /
    `los`, signal scale beta*D0^alpha_N per ring), interferer fading
    integrates to a product form exp(-sum): log1p on every pair in `work`
    in place, then the LoS pairs (found by flat index) overwritten with
    their deterministic term."""
    w = pathloss(d2, p.alpha_nlos, out=work)
    np.multiply(scale[:, None, None], w, out=w)
    np.log1p(w, out=w)
    at = np.flatnonzero(los)
    c = (p.eta_los / p.eta_nlos) * scale
    w.reshape(-1)[at] = (c[at // (d2.shape[1] * d2.shape[2])]
                         * pathloss(d2.reshape(-1)[at], p.alpha_los))
    return np.exp(-np.sum(w, axis=2))


def pso_exact(params: NetworkParams, beta_e: float,
              zone: GuardZone | None = None, n_realizations: int = 200,
              window: float = WINDOW, seed: int = 0,
              tol: float = 1e-4) -> MetricEstimate:
    """Secrecy outage probability by averaging, over sampled interferer
    configurations, the eavesdropper-process functional
    1 - exp(-lambda_e * integral of the conditional exceedance).

    The conditional exceedance is `_exceedance` at explicit ground points,
    and the spatial integral runs over rings of them: adaptive quadrature
    in radius with a breakpoint at the LoS radius, and on each ring the
    mean over `_N_ANGLES` equally spaced angles (a trapezoid rule). The
    integral is truncated at `window`; with the canonical path-loss
    exponents (LoS 2, NLoS 4) the closed-form outage beyond the window
    (`pso_zone_approx` at d = window) bounds the truncated contribution
    and is folded into the half-width, and with other exponents there is
    no such bound and none is added. Quadrature accuracy
    failures propagate as `mathkit.AccuracyError` with the partial
    estimate attached.
    """
    check_threshold(beta_e, "pso_exact: beta_e", positive=True)
    check_threshold(window, "pso_exact: window", positive=True)
    if params.lambda_e == 0.0:
        return MetricEstimate(0.0)
    d0 = zone.d if zone is not None else 0.0
    if d0 >= window:
        raise ValueError("pso_exact: guard-zone radius must be below the "
                         "window")

    def outage(pts):
        table = _ring_table(pts, _COS, _SIN)
        # an integrand call evaluates the rings of one G7/K15 panel
        scratch = _scratch(mathkit._GK_NODES.size * _N_ANGLES, len(pts))

        def g(rs):
            rs = np.atleast_1d(rs)
            ring = _exceedance(params, beta_e, table, rs, scratch)
            return 2.0 * math.pi * rs * np.mean(ring, axis=1)

        area = mathkit.integrate_radial(
            g, d0, window, tol, breakpoints=(params.los_radius,))
        return -math.expm1(-params.lambda_e * area)

    mean, hw = _average(params, outage, n_realizations, window, seed)
    if params.alpha_los == 2.0 and params.alpha_nlos == 4.0:
        hw += pso_zone_approx(params, beta_e, GuardZone(window))
    return MetricEstimate(mean, hw)
