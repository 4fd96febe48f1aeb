"""Closed-form and semi-analytic evaluators for connection probability,
secrecy outage probability (with and without a guard zone) and secrecy
transmission capacity.

The closed forms assume the canonical path-loss exponents (LoS 2, NLoS 4)
and, for the outage forms, the all-Rayleigh treatment of LoS links plus an
expectation swap over the interferer process; they are exact for the
connection probability under that fading treatment and are validated
against simulation in the small-outage regime. The semi-analytic
`pc_exact`/`pso_exact` evaluators average one conditional kernel, the
probability that a ground node's SIR from the transmitter overhead exceeds
a threshold given the interferers (a hypoexponential CDF inside the LoS
disk, a product form outside), over sampled interferer configurations:
at the origin for the typical receiver, and integrated over the
eavesdropper process for the outage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mathkit
from .model import (GuardZone, NetworkParams, pathloss, q1, rng_stream,
                    sample_ppp)

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


def _pso_brace(params: NetworkParams, beta_e: float, d: float) -> float:
    """The bracketed area integral of the outage form for zone radius d < K:
    LoS-disk part on [d, K] plus the NLoS tail beyond K, both carrying the
    exp(pi*lambda_u*H^2) factor."""
    q = q1(params, beta_e)
    h2 = params.h ** 2
    k2 = params.los_radius ** 2
    b = math.pi * params.lambda_u * h2
    a = q * math.sqrt(params.eta_nlos / params.eta_los)
    s1 = math.sqrt(h2 + d * d)
    s2 = math.sqrt(h2 + k2)
    tail_log = b - q * (h2 + k2) - math.log(2.0 * q)
    tail = math.exp(tail_log) if tail_log < 700.0 else math.inf
    disk = _disk_term(b, a * s1, a * s2) / (a * a)
    return tail + disk


def pso_approx(params: NetworkParams, beta_e: float) -> float:
    """Secrecy outage probability of the typical pair, closed form.

    Valid in the small-outage regime (~0 to 0.1); singular at beta_e = 0.
    """
    _require_canonical_alphas(params)
    if beta_e <= 0:
        raise ValueError("pso_approx: beta_e must be positive (form is "
                         "singular at beta_e = 0)")
    if params.lambda_e == 0.0:
        return 0.0
    if params.lambda_u == 0.0:
        return 1.0  # no interference: every eavesdropper decodes
    brace = _pso_brace(params, beta_e, 0.0)
    if not math.isfinite(brace):
        return 1.0
    return -math.expm1(-2.0 * math.pi * params.lambda_e * brace)


def pso_zone_approx(params: NetworkParams, beta_e: float,
                    zone: GuardZone) -> float:
    """Outage probability with a secrecy guard zone of radius d.

    Two branches: for d >= K only the NLoS tail beyond d remains; for d < K
    the LoS-disk part starts at d. d = 0 reproduces `pso_approx` term by
    term, and the branches agree exactly at d = K.
    """
    _require_canonical_alphas(params)
    if beta_e <= 0:
        raise ValueError("pso_zone_approx: beta_e must be positive")
    if params.lambda_e == 0.0:
        return 0.0
    if params.lambda_u == 0.0:
        return 1.0
    d = zone.d
    k = params.los_radius
    h2 = params.h ** 2
    q = q1(params, beta_e)
    if d >= k:
        log_arg = (math.log(math.pi * params.lambda_e / q)
                   + math.pi * params.lambda_u * h2 - q * (h2 + d * d))
        if log_arg > 700.0:
            return 1.0
        return -math.expm1(-math.exp(log_arg))
    brace = _pso_brace(params, beta_e, d)
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
# valid inputs and silence numpy's overflow warnings.

def _disk_moments_cells(b, u1, u2):
    """`_disk_term` elementwise, and with it the second moment
    exp(b) * integral of s^2*exp(-s) over [u1, u2] by the same split
    (the antiderivative of s^2*exp(-s) is -(2 + 2s + s^2)*exp(-s))."""
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
    beyond_k = -np.expm1(-np.exp(log_arg))
    a = q * math.sqrt(params.eta_nlos / params.eta_los)
    tail_log = b - q * (h2 + k2) - np.log(2.0 * q)
    tail = np.where(tail_log < 700.0, np.exp(tail_log), np.inf)
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

def pc_exact(params: NetworkParams, beta_t: float, n_realizations: int = 200,
             window: float = 200.0, seed: int = 0) -> MetricEstimate:
    """Connection probability by averaging the conditional hypoexponential
    form over sampled interferer configurations.

    Low-variance counterpart of the plain simulator: the fading is
    integrated out analytically per configuration (the `_ExceedanceField`
    kernel at the origin, one angle); with no NLoS interferers the event
    degenerates to a deterministic comparison against the LoS interference.
    """
    if n_realizations < 1:
        raise ValueError("need n_realizations >= 1")
    vals = np.ones(n_realizations)      # beta_t = 0 always connects
    if beta_t != 0.0:
        origin = np.zeros(1)
        for i in range(n_realizations):
            pts = sample_ppp(params.lambda_u, 0.0, window,
                             rng_stream(seed, i))
            vals[i] = _ExceedanceField(params, beta_t, pts,
                                       1).mean_over_angles(origin)[0]
    hw = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(n_realizations) \
        if n_realizations > 1 else 0.0
    return MetricEstimate(float(np.mean(vals)), SEMI_ANALYTIC, hw)


class _ExceedanceField:
    """Conditional P(SIR at ground position x from the transmitter above the
    origin exceeds beta | interferers at `pts`), vectorized over batches of
    radii and the angle grid: an eavesdropper at x decodes, or at x = 0 the
    typical receiver connects."""

    def __init__(self, params: NetworkParams, beta: float, pts: np.ndarray,
                 n_angles: int):
        self.p = params
        self.beta = beta
        self.ux = pts[:, 0] if pts.size else np.empty(0)
        self.uy = pts[:, 1] if pts.size else np.empty(0)
        self.k2 = params.los_radius ** 2
        self.h2 = params.h ** 2
        phis = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
        self.cos = np.cos(phis)
        self.sin = np.sin(phis)

    def _geometry(self, rs: np.ndarray):
        ex = rs[:, None] * self.cos[None, :]
        ey = rs[:, None] * self.sin[None, :]
        dx = self.ux[None, None, :] - ex[:, :, None]
        dy = self.uy[None, None, :] - ey[:, :, None]
        horiz2 = dx * dx + dy * dy
        return horiz2 + self.h2, horiz2 < self.k2

    def mean_over_angles(self, rs: np.ndarray) -> np.ndarray:
        """Angle-averaged exceedance probability at each radius in `rs`.

        All radii in one call must lie on one side of the LoS radius (the
        radial quadrature keeps K as a panel breakpoint)."""
        p = self.p
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        if self.ux.size == 0:
            return np.ones_like(rs)
        d0 = rs * rs + self.h2
        d2, los = self._geometry(rs)
        if rs[0] ** 2 < self.k2:
            return self._disk(rs, d0, d2, los)
        # NLoS signal: interferer fading integrates to a product form.
        scale = self.beta * d0 ** (p.alpha_nlos / 2.0)
        log_det = np.where(
            los,
            -(p.eta_los / p.eta_nlos) * scale[:, None, None]
            * pathloss(d2, p.alpha_los),
            -np.log1p(scale[:, None, None] * pathloss(d2, p.alpha_nlos)))
        return np.mean(np.exp(np.sum(log_det, axis=2)), axis=1)

    def _disk(self, rs, d0, d2, los):
        """LoS signal: hypoexponential CDF of the NLoS interference at the
        margin left by the deterministic LoS interference. Chernoff screens
        decide almost every (radius, angle) outright; only genuinely
        mid-CDF positions pay for the signed mixture."""
        p = self.p
        sig = p.eta_los * pathloss(d0, p.alpha_los)
        i_los = np.sum(
            np.where(los, p.eta_los * pathloss(d2, p.alpha_los), 0.0), axis=2)
        y = sig[:, None] / self.beta - i_los
        rates = np.where(los, np.inf, d2 ** (p.alpha_nlos / 2.0) / p.eta_nlos)
        n_nlos = np.sum(~los, axis=2)
        vals = np.where(y > 0.0, 1.0, 0.0)
        open_pos = (y > 0.0) & (n_nlos > 0)
        if np.any(open_pos):
            ypos = np.maximum(y, 0.0)
            lam_min = np.min(rates, axis=2)
            inv_rates = np.where(los, 0.0, 1.0 / rates)
            with np.errstate(divide="ignore", invalid="ignore"):
                # log P(I >= y) <= -sum log1p(-t/rate) - t*y at t = lam_min/2
                upper = (-np.sum(np.log1p(-0.5 * lam_min[:, :, None]
                                          * inv_rates), axis=2)
                         - 0.5 * lam_min * ypos)
                # log P(I <= y) <= t*y - sum log1p(t/rate) at t = 4n/y
                t0 = 4.0 * np.maximum(n_nlos, 1) / np.where(y > 0, y, 1.0)
                lower = (t0 * ypos
                         - np.sum(np.log1p(t0[:, :, None] * inv_rates),
                                  axis=2))
            for i, m in zip(*np.nonzero(open_pos)):
                if upper[i, m] < -23.0:       # P(I >= y) <= 1e-10
                    vals[i, m] = 1.0
                elif lower[i, m] < -28.0:     # P(I <= y) <= 1e-12
                    vals[i, m] = 0.0
                else:
                    vals[i, m] = mathkit.hypoexp_cdf(
                        rates[i, m][~los[i, m]], float(y[i, m]))
        return np.mean(vals, axis=1)


def pso_exact(params: NetworkParams, beta_e: float,
              zone: GuardZone | None = None, n_realizations: int = 200,
              window: float = 200.0, seed: int = 0, n_angles: int = 64,
              tol: float = 1e-4) -> MetricEstimate:
    """Secrecy outage probability by averaging, over sampled interferer
    configurations, the eavesdropper-process functional
    1 - exp(-lambda_e * integral of the conditional exceedance).

    The spatial integral runs in polar coordinates: a fixed `n_angles`
    trapezoid in angle (periodic, so spectrally accurate) and adaptive
    quadrature in radius with a breakpoint at the LoS radius. The integral
    is truncated at `window`; a closed-form bound on the truncated
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
        field = _ExceedanceField(params, beta_e, pts, n_angles)

        def g(rs):
            rs = np.atleast_1d(rs)
            return 2.0 * math.pi * rs * field.mean_over_angles(rs)

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
