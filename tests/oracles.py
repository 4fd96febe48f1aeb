"""Test oracles.

For the closed forms: the polar-coordinate integrals they were derived
from, evaluated by `scipy.integrate.quad`. Each integrand is written
without cancellation: the per-interferer Laplace factor 1 - 1/(1 + c/t) is
taken as c/(t + c), so quad sees a smooth positive function and meets its
relative tolerance.

For the array kernels: `gains` and the radius x angle exceedance field of
the semi-analytic evaluators as they were before they learned to work in
blocks and to evaluate each branch only where it is used, kept verbatim
with the `pathloss` they called. Every element is computed by the same
operations and every sum runs over the same row, so the package's kernels
(`model.gains`, `analytic._exceedance` at ring points) must match them bit
for bit.
"""

import math

import numpy as np
from scipy.integrate import quad

from uavsec import mathkit
from uavsec.model import NetworkParams

EPSREL = 1e-10


def _integral(f, a, b):
    if b <= a:
        return 0.0
    return quad(f, a, b, epsabs=0.0, epsrel=EPSREL, limit=200)[0]


def pc_radial(p, beta_t):
    """Connection probability under the all-Rayleigh treatment:
    exp(-2 pi lambda_u (integral over the LoS disk [0, K] of
    c_L/(t + c_L) r dr + integral beyond K of c_N/(t^2 + c_N) r dr)),
    t = r^2 + H^2, c_L = beta_t H^2, c_N = beta_t H^2 eta_N / eta_L."""
    if beta_t == 0.0 or p.lambda_u == 0.0:
        return 1.0
    h2 = p.h ** 2
    k = p.los_radius
    c_los = beta_t * h2
    c_nlos = beta_t * h2 * p.eta_nlos / p.eta_los

    def f_los(r):
        return c_los / (r * r + h2 + c_los) * r

    def f_nlos(r):
        t = r * r + h2
        return c_nlos / (t * t + c_nlos) * r

    area = _integral(f_los, 0.0, k) + _integral(f_nlos, k, math.inf)
    return math.exp(-2.0 * math.pi * p.lambda_u * area)


def pso_radial(p, beta_e, d=0.0):
    """Secrecy outage with a guard zone of radius d (d = 0: none):
    1 - exp(-2 pi lambda_e e^b (integral over [d, K] of
    exp(-a sqrt(r^2 + H^2)) r dr + integral beyond max(d, K) of
    exp(-q (r^2 + H^2)) r dr)), with q = lambda_u pi^2 sqrt(beta_e) / 2,
    a = q sqrt(eta_N / eta_L) and b = pi lambda_u H^2."""
    if p.lambda_e == 0.0:
        return 0.0
    h2 = p.h ** 2
    k = p.los_radius
    q = p.lambda_u * math.pi ** 2 * math.sqrt(beta_e) / 2.0
    a = q * math.sqrt(p.eta_nlos / p.eta_los)

    def f_los(r):
        return math.exp(-a * math.sqrt(r * r + h2)) * r

    def f_nlos(r):
        return math.exp(-q * (r * r + h2)) * r

    area = (_integral(f_los, d, k)
            + _integral(f_nlos, max(d, k), math.inf))
    return -math.expm1(-2.0 * math.pi * p.lambda_e
                       * math.exp(math.pi * p.lambda_u * h2) * area)


# ---------------------------------------------------------------------------
# Array kernels, both branches evaluated everywhere, whole batch at once
# ---------------------------------------------------------------------------

def pathloss(d2: np.ndarray, alpha: float) -> np.ndarray:
    """D^-alpha from squared distance; reciprocal fast paths for the
    canonical exponents (np.power is ~50x slower)."""
    if alpha == 2.0:
        return 1.0 / d2
    if alpha == 4.0:
        inv = 1.0 / d2
        return inv * inv
    return d2 ** (-alpha / 2.0)


def gains(params: NetworkParams, model: type, d2: np.ndarray,
          horiz2: np.ndarray, fades: np.ndarray) -> np.ndarray:
    """Received power factor eta*S*D^-alpha per link, from squared 3-D
    distance `d2`, squared horizontal span `horiz2` and unit-mean
    exponential draws `fades`.

    LoS branch (horizontal span < K): eta_los, alpha_los, S = 1 under
    ExactLoSNLoS or the draw under AllRayleigh. NLoS branch (span >= K,
    ties go NLoS): eta_nlos, alpha_nlos, S = the draw under both models.
    Both branches are evaluated on every link and selected elementwise,
    which is cheaper than gathering and scattering each branch.
    """
    s_los = fades if model.los_faded else 1.0
    return np.where(horiz2 < params.los_radius ** 2,
                    params.eta_los * s_los * pathloss(d2, params.alpha_los),
                    params.eta_nlos * fades * pathloss(d2, params.alpha_nlos))


class ExceedanceField:
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

