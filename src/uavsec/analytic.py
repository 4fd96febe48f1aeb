"""Closed-form and semi-analytic evaluators for connection probability,
secrecy outage probability (with and without a guard zone) and secrecy
transmission capacity.

The closed forms assume the canonical path-loss exponents (LoS 2, NLoS 4)
and, for the outage forms, the all-Rayleigh treatment of LoS links plus an
expectation swap over the interferer process; they are exact for the
connection probability under that fading treatment and are validated
against simulation in the small-outage regime. The semi-analytic
`pc_exact`/`pso_exact` evaluators average one conditional kernel over
sampled interferer configurations: `_exceedance`, the probability that the
SIR from the transmitter overhead exceeds a threshold at explicit ground
points given the interferers (a hypoexponential CDF inside the LoS disk, a
product form outside). `pc_exact` evaluates it at the origin, where the
typical receiver sits; `pso_exact` on rings of points, integrated over the
eavesdropper process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mathkit
from .model import (BLOCK_LINKS, GuardZone, NetworkParams, pathloss, q1,
                    rng_stream, sample_ppp)

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

CLOSED_FORM = "closed-form"
SEMI_ANALYTIC = "semi-analytic"
MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class MetricEstimate:
    """A probability or capacity value with provenance and a 95% half-width."""

    value: float
    method: str = CLOSED_FORM
    half_width: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")
        if not 0.0 <= self.half_width < math.inf:
            raise ValueError("half_width must be finite and nonnegative")

    def agrees_with(self, other: "MetricEstimate") -> bool:
        """Two-estimate comparison at combined 95% intervals."""
        gap = abs(self.value - other.value)
        return gap <= math.hypot(self.half_width, other.half_width)


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
    (LoS interferers)."""
    _require_canonical_alphas(params)
    if beta_t < 0:
        raise ValueError("beta_t must be nonnegative")
    if beta_t == 0.0 or params.lambda_u == 0.0:
        return 1.0
    h2 = params.h ** 2
    k2 = params.los_radius ** 2
    sqrt_c = params.h * math.sqrt(beta_t * params.eta_nlos / params.eta_los)
    term_nlos = (math.pi * params.lambda_u * sqrt_c / 2.0
                 * (math.pi - 2.0 * math.atan((h2 + k2) / sqrt_c)))
    term_los = (math.pi * params.lambda_u * h2 * beta_t
                * math.log1p(k2 / (h2 * beta_t + h2)))
    return math.exp(-term_nlos - term_los)


# Gauss-Legendre(7) on [-1, 1]: exact for the narrow disk-term intervals.
_GL7_X = np.array([-0.9491079123427585, -0.7415311855993945,
                   -0.4058451513773972, 0.0,
                   0.4058451513773972, 0.7415311855993945,
                   0.9491079123427585])
_GL7_W = np.array([0.1294849661688697, 0.2797053914892766,
                   0.3818300505051189, 0.4179591836734694,
                   0.3818300505051189, 0.2797053914892766,
                   0.1294849661688697])


def _disk_term(b: float, u1: float, u2: float) -> float:
    """exp(b) * integral of s*exp(-s) over [u1, u2], i.e.
    (1+u1)e^(b-u1) - (1+u2)e^(b-u2), evaluated without cancellation.

    Narrow or near-origin intervals (where the direct difference loses all
    precision) go through fixed quadrature of the smooth integrand instead.
    """
    if u2 <= u1:
        return 0.0
    if b - u1 > 700.0:
        return math.inf     # past float range: the outage saturates at 1
    if u2 - u1 < 0.1 or u2 < 1e-3:
        mid = 0.5 * (u1 + u2)
        half = 0.5 * (u2 - u1)
        s = mid + half * _GL7_X
        return half * float(np.dot(_GL7_W, s * np.exp(b - s)))
    return (1.0 + u1) * math.exp(b - u1) - (1.0 + u2) * math.exp(b - u2)


def pso_approx(params: NetworkParams, beta_e: float) -> float:
    """Secrecy outage probability of the typical pair, closed form.

    Valid in the small-outage regime (~0 to 0.1); singular at beta_e = 0.
    """
    _require_canonical_alphas(params)
    if beta_e <= 0:
        raise ValueError("pso_approx: beta_e must be positive (form is "
                         "singular at beta_e = 0)")
    return _pso_form(params, beta_e, 0.0)


def pso_zone_approx(params: NetworkParams, beta_e: float,
                    zone: GuardZone) -> float:
    """Outage probability with a secrecy guard zone of radius d.

    Two branches: for d >= K only the NLoS tail beyond d remains; for d < K
    the LoS-disk part starts at d. d = 0 is `pso_approx`, and the branches
    agree exactly at d = K.
    """
    _require_canonical_alphas(params)
    if beta_e <= 0:
        raise ValueError("pso_zone_approx: beta_e must be positive")
    return _pso_form(params, beta_e, zone.d)


def _pso_form(params: NetworkParams, beta_e: float, d: float) -> float:
    """The outage form of `pso_zone_approx` at zone radius d (0: no zone),
    for validated inputs. For d < K the brace is the bracketed area
    integral: the LoS-disk part on [d, K] plus the NLoS tail beyond K, both
    carrying the exp(pi*lambda_u*H^2) factor."""
    if params.lambda_e == 0.0:
        return 0.0
    if params.lambda_u == 0.0:
        return 1.0  # no interference: every eavesdropper decodes
    k = params.los_radius
    h2 = params.h ** 2
    q = q1(params, beta_e)
    if d >= k:
        log_arg = (math.log(math.pi * params.lambda_e / q)
                   + math.pi * params.lambda_u * h2 - q * (h2 + d * d))
        if log_arg > 700.0:
            return 1.0
        return -math.expm1(-math.exp(log_arg))
    b = math.pi * params.lambda_u * h2
    a = q * math.sqrt(params.eta_nlos / params.eta_los)
    k2 = k ** 2
    tail_log = b - q * (h2 + k2) - math.log(2.0 * q)
    tail = math.exp(tail_log) if tail_log < 700.0 else math.inf
    brace = tail + _disk_term(b, a * math.sqrt(h2 + d * d),
                              a * math.sqrt(h2 + k2)) / (a * a)
    if not math.isfinite(brace):
        return 1.0
    return -math.expm1(-2.0 * math.pi * params.lambda_e * brace)


def pc_simplified(params: NetworkParams, rt: float) -> float:
    """Large-threshold surrogate of the connection probability.

    Accurate only deep in the small-angle regime (beta_t >>
    (eta_los/eta_nlos)*(H^2+K^2)^2/H^2); used by the optimizer for the
    codeword-rate argmax, not for reporting. May exceed 1 outside its
    regime.
    """
    _require_canonical_alphas(params)
    if rt < 0:
        raise ValueError("rt must be nonnegative")
    ratio = math.sqrt(params.eta_nlos / params.eta_los)
    return math.exp(-(math.pi / 2.0) * params.lambda_u * params.h
                    * (ratio * math.pi * 2.0 ** (rt / 2.0) - 2.0 * params.h))


def effective_density(lambda_u: float, lambda_e: float,
                      zone: GuardZone | None) -> float:
    """Transmitter density thinned by the guard-zone silence protocol."""
    if zone is None or zone.d == 0.0:
        return lambda_u
    return lambda_u * math.exp(-math.pi * lambda_e * zone.d ** 2)


def stc(rs: float, p_c: float, density: float) -> float:
    """Secrecy transmission capacity rs * Pc * density (bps/Hz/m^2)."""
    if rs < 0 or p_c < 0 or density < 0:
        raise ValueError("stc arguments must be nonnegative")
    return rs * p_c * density


# The closed forms term for term over arrays of cells (altitude, threshold,
# zone radius), both branches evaluated and selected per cell. Callers pass
# valid inputs; exponents past float range saturate as in the scalar forms.

def _disk_moments_cells(b, u1, u2):
    """`_disk_term` elementwise, and with it the second moment
    exp(b) * integral of s^2*exp(-s) over [u1, u2] by the same split
    (the antiderivative of s^2*exp(-s) is -(2 + 2s + s^2)*exp(-s)).
    Cells past float range (b - u1 > 700) give inf for both, as in
    `_disk_term`, and are evaluated at b = u1 so that nothing overflows."""
    saturated = b - u1 > 700.0
    b = np.where(saturated, u1, b)
    mid = 0.5 * (u1 + u2)
    half = 0.5 * (u2 - u1)
    s = mid[:, None] + half[:, None] * _GL7_X
    tilt = s * np.exp(b[:, None] - s)
    e1, e2 = np.exp(b - u1), np.exp(b - u2)
    quad = (u2 - u1 < 0.1) | (u2 < 1e-3)
    first = np.where(quad, half * (tilt @ _GL7_W),
                     (1.0 + u1) * e1 - (1.0 + u2) * e2)
    second = np.where(quad, half * ((s * tilt) @ _GL7_W),
                      (2.0 + u1 * (2.0 + u1)) * e1
                      - (2.0 + u2 * (2.0 + u2)) * e2)
    empty = u2 <= u1
    first[saturated] = second[saturated] = np.inf
    return np.where(empty, 0.0, first), np.where(empty, 0.0, second)


def _pso_zone_cells(params: NetworkParams, beta_e, h, d) -> np.ndarray:
    """`pso_zone_approx` per cell at altitudes h, thresholds beta_e > 0 and
    zone radii d (d = 0 is `pso_approx`)."""
    _require_canonical_alphas(params)
    if params.lambda_u == 0.0:
        return np.ones(np.shape(beta_e))
    k = h / math.tan(params.theta_c)
    h2 = h ** 2
    k2 = k ** 2
    q = q1(params, beta_e)
    b = math.pi * params.lambda_u * h2
    log_arg = (np.log(math.pi * params.lambda_e / q) + b
               - q * (h2 + d * d))
    beyond_k = -np.expm1(-np.exp(np.minimum(log_arg, 700.0)))
    a = q * math.sqrt(params.eta_nlos / params.eta_los)
    tail_log = b - q * (h2 + k2) - np.log(2.0 * q)
    tail = np.where(tail_log < 700.0, np.exp(np.minimum(tail_log, 700.0)),
                    np.inf)
    brace = tail + _disk_moments_cells(b, a * np.sqrt(h2 + d * d),
                                       a * np.sqrt(h2 + k2))[0] / (a * a)
    inside_k = np.where(np.isfinite(brace),
                        -np.expm1(-2.0 * math.pi * params.lambda_e * brace),
                        1.0)
    return np.where(d >= k, beyond_k, inside_k)


def _pc_cells(params: NetworkParams, beta_t, h) -> np.ndarray:
    """`pc_approx` per cell at altitudes h and thresholds beta_t > 0."""
    h2 = h ** 2
    k2 = (h / math.tan(params.theta_c)) ** 2
    sqrt_c = h * np.sqrt(beta_t * params.eta_nlos / params.eta_los)
    term_nlos = (math.pi * params.lambda_u * sqrt_c / 2.0
                 * (math.pi - 2.0 * np.arctan((h2 + k2) / sqrt_c)))
    term_los = (math.pi * params.lambda_u * h2 * beta_t
                * np.log1p(k2 / (h2 * beta_t + h2)))
    return np.exp(-term_nlos - term_los)


# ---------------------------------------------------------------------------
# Semi-analytic evaluators (conditional forms averaged over sampled
# interferer configurations)
# ---------------------------------------------------------------------------

# The typical receiver's position, as coordinates and squared distance.
_ORIGIN = np.zeros(1)
# Angles of the trapezoid rule on each ring of `pso_exact`'s radial
# quadrature (the integrand is periodic in angle, so it is spectrally
# accurate).
_N_ANGLES = 64
_PHIS = np.linspace(0.0, 2.0 * math.pi, _N_ANGLES, endpoint=False)
_COS, _SIN = np.cos(_PHIS), np.sin(_PHIS)


def pc_exact(params: NetworkParams, beta_t: float, n_realizations: int = 200,
             window: float = 200.0, seed: int = 0) -> MetricEstimate:
    """Connection probability by averaging the conditional hypoexponential
    form over sampled interferer configurations.

    Low-variance counterpart of the plain simulator: the fading is
    integrated out analytically per configuration (`_exceedance` at the
    receiver's own position, the origin); with no NLoS interferers the
    event degenerates to a deterministic comparison against the LoS
    interference.
    """
    if n_realizations < 1:
        raise ValueError("need n_realizations >= 1")
    vals = np.ones(n_realizations)      # beta_t = 0 always connects
    if beta_t != 0.0:
        for i in range(n_realizations):
            pts = sample_ppp(params.lambda_u, 0.0, window,
                             rng_stream(seed, i))
            vals[i] = _exceedance(params, beta_t, pts, _ORIGIN, _ORIGIN,
                                  _ORIGIN, _scratch(1, len(pts)))[0]
    hw = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(n_realizations) \
        if n_realizations > 1 else 0.0
    return MetricEstimate(float(np.mean(vals)), SEMI_ANALYTIC, hw)


def _scratch(n_points: int, n: int):
    """Buffers for `_exceedance` calls of up to `n_points` points against
    `n` interferers: the pairs of one block (squared distances, work,
    LoS mask)."""
    size = min(n_points, max(1, BLOCK_LINKS // max(n, 1))) * n
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _exceedance(params: NetworkParams, beta: float, pts: np.ndarray, px,
                py, r2, scratch) -> np.ndarray:
    """Conditional P(SIR at ground point x from the transmitter above the
    origin exceeds beta | interferers at `pts`), at the points (px, py)
    whose squared horizontal distances from the origin are `r2`: at x = 0
    the typical receiver connects, elsewhere an eavesdropper at x decodes.

    All points of one call lie on one side of the LoS radius K. The
    (point, interferer) pairs are built a block of points at a time in the
    `scratch` buffers (`_scratch`), filled in place: a block holds at most
    `BLOCK_LINKS` pairs, and a point with more pairs is a block of its own.
    Each element keeps its operations and each sum runs over one point's
    contiguous row, so results do not depend on the block size.
    """
    n = len(pts)
    if n == 0:
        return np.ones(px.size)
    p = params
    ux, uy = pts[:, 0], pts[:, 1]
    k2, h2 = p.los_radius ** 2, p.h ** 2
    d0 = r2 + h2
    disk = r2[0] < k2
    if disk:
        sig = p.eta_los * pathloss(d0, p.alpha_los)
    else:
        scale = beta * d0 ** (p.alpha_nlos / 2.0)
    out = np.empty(px.size)
    block = max(1, BLOCK_LINKS // n)
    for lo in range(0, px.size, block):
        hi = min(lo + block, px.size)
        d2, work, los = (b[:(hi - lo) * n].reshape(hi - lo, n)
                         for b in scratch)
        np.subtract(ux, px[lo:hi, None], out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(uy, py[lo:hi, None], out=work)
        np.multiply(work, work, out=work)
        np.add(d2, work, out=d2)                    # horizontal span^2
        np.less(d2, k2, out=los)
        np.add(d2, h2, out=d2)
        if disk:
            out[lo:hi] = _disk_rows(p, beta, sig[lo:hi], d2, los, work)
        else:
            out[lo:hi] = _product_rows(p, scale[lo:hi], d2, los, work)
    return out


def _disk_rows(p: NetworkParams, beta: float, sig, d2, los,
               work) -> np.ndarray:
    """LoS signal: per position, the hypoexponential CDF of the NLoS
    interference at the margin left by the deterministic LoS interference.

    A position is a row of `d2` / `los` (its squared 3-D distance to every
    interferer, and which of those links are LoS) with signal power `sig`;
    `work`, shaped like `d2`, is overwritten. The LoS interference is summed
    over the whole row, zeros included, after writing only the LoS pairs.
    Chernoff screens, evaluated on the open rows only (positive margin and
    some NLoS interferer), decide almost every position in one vectorized
    step; only genuinely mid-CDF positions pay for the signed mixture.
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


def _product_rows(p: NetworkParams, scale, d2, los, work) -> np.ndarray:
    """NLoS signal: per position (a row of `d2` / `los`, signal scale
    beta*D0^alpha_N), interferer fading integrates to a product form,
    log1p on every pair in `work` in place, then the LoS pairs (found by
    flat index) overwritten with their deterministic term."""
    w = pathloss(d2, p.alpha_nlos, out=work)
    np.multiply(scale[:, None], w, out=w)
    np.log1p(w, out=w)
    np.negative(w, out=w)
    at = np.flatnonzero(los)
    c = -(p.eta_los / p.eta_nlos) * scale
    w.reshape(-1)[at] = (c[at // d2.shape[1]]
                         * pathloss(d2.reshape(-1)[at], p.alpha_los))
    return np.exp(np.sum(w, axis=1))


def pso_exact(params: NetworkParams, beta_e: float,
              zone: GuardZone | None = None, n_realizations: int = 200,
              window: float = 200.0, seed: int = 0,
              tol: float = 1e-4) -> MetricEstimate:
    """Secrecy outage probability by averaging, over sampled interferer
    configurations, the eavesdropper-process functional
    1 - exp(-lambda_e * integral of the conditional exceedance).

    The conditional exceedance is `_exceedance` at explicit ground points,
    and the spatial integral runs over rings of them: adaptive quadrature
    in radius with a breakpoint at the LoS radius, and on each ring the
    mean over `_N_ANGLES` equally spaced angles (a trapezoid rule). The
    integral is truncated at `window`; a closed-form bound on the truncated
    contribution is folded into the half-width. Quadrature accuracy
    failures propagate as `mathkit.AccuracyError` with the partial
    estimate attached.
    """
    if n_realizations < 1:
        raise ValueError("need n_realizations >= 1")
    if beta_e <= 0:
        raise ValueError("pso_exact: beta_e must be positive")
    if params.lambda_e == 0.0:
        return MetricEstimate(0.0, SEMI_ANALYTIC, 0.0)
    d0 = zone.d if zone is not None else 0.0
    if d0 >= window:
        raise ValueError("guard-zone radius must be below the window")
    k = params.los_radius
    vals = np.empty(n_realizations)
    for i in range(n_realizations):
        pts = sample_ppp(params.lambda_u, 0.0, window, rng_stream(seed, i))
        # an integrand call evaluates the rings of one G7/K15 panel
        scratch = _scratch(mathkit._GK_NODES.size * _N_ANGLES, len(pts))

        def g(rs):
            rs = np.atleast_1d(rs)
            ring = _exceedance(params, beta_e, pts,
                               (rs[:, None] * _COS).reshape(-1),
                               (rs[:, None] * _SIN).reshape(-1),
                               np.repeat(rs * rs, _N_ANGLES), scratch)
            return 2.0 * math.pi * rs * np.mean(
                ring.reshape(rs.size, _N_ANGLES), axis=1)

        area = mathkit.integrate_radial(
            g, d0, window, tol, breakpoints=(k,) if d0 < k < window else ())
        vals[i] = -math.expm1(-params.lambda_e * area)
    hw = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(n_realizations) \
        if n_realizations > 1 else 0.0
    try:
        tail = pso_zone_approx(params, beta_e, GuardZone(window))
    except ValueError:
        tail = 0.0
    return MetricEstimate(float(np.mean(vals)), SEMI_ANALYTIC, hw + tail)
