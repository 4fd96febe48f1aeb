"""Test oracles.

For the closed forms: the polar-coordinate integrals they were derived
from, evaluated by `scipy.integrate.quad`. Each integrand is written
without cancellation: the per-interferer Laplace factor 1 - 1/(1 + c/t) is
taken as c/(t + c), so quad sees a smooth positive function and meets its
relative tolerance.

For the outage closed form: `pso_form` with its `disk_term`, the scalar
form that `pso_zone_approx` evaluated before it became one cell of
`analytic._brace_cells`, kept verbatim. The two agree to rounding, which
where the LoS annulus is thin is the rounding of its width. The bisection
oracle below reads this copy: a run of the test suite makes about two
million outage calls through it, at 2-8 us each against 47-62 us for one
cell (2 cores, Python 3.11, numpy 2.4).

For the array kernels: `gains` and the radius x angle exceedance field of
the semi-analytic evaluators as they were before they learned to work in
blocks and to evaluate each branch only where it is used, kept verbatim
with the `pathloss` they called. `model.gains` computes every element by
the same operations and sums over the same rows, so it must match `gains`
bit for bit. `analytic._exceedance`, and `pc_exact`'s single LoS-disk
row, match the field bit for bit at the origin; on rings of radius
r > 0 `_exceedance` takes the squared span as |u|^2 + r proj + r^2 from
its ring table instead of from coordinate differences, so it matches to
rounding. `disk_rows` is the LoS-disk row kernel with only the log1p
Chernoff screens, as it was before the log-free screen went in front of
them: `analytic._disk_rows` must give the same values bit for bit.

For the optimizer: `solve_re_bisect`, the scalar rate-gap solver the
optimizer used before its array screen became its only solver, kept
verbatim (slack test, one bracket expansion, bisection to 1e-12).

For Lambert W: `lambert_w0_array_halley60`, `mathkit.lambert_w0_array`
as it was before it learned to stop the elements whose Halley iterates
cycle, kept verbatim (those ran all 60 steps). The current routine must
match it bit for bit.

For the hypoexponential CDF: `resolve_rate_ties_walk`, the tie rule as it
was before it became one vectorized pass, kept verbatim (a relative-gap
early exit and a Python walk over each run of tied neighbours).
`mathkit.resolve_rate_ties` must match it bit for bit.
"""

import math

import numpy as np
from scipy.integrate import quad

from uavsec import mathkit
from uavsec.analytic import _GL7_W, _GL7_X
from uavsec.model import NetworkParams, q1
from uavsec.optimizer import RE_CEILING, RE_FLOOR, InfeasibleError

EPSREL = 1e-10
_INV_E = math.exp(-1.0)


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


def disk_term(b: float, u1: float, u2: float) -> float:
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


def pso_form(params: NetworkParams, beta_e: float, d: float) -> float:
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
    brace = tail + disk_term(b, a * math.sqrt(h2 + d * d),
                             a * math.sqrt(h2 + k2)) / (a * a)
    if not math.isfinite(brace):
        return 1.0
    return -math.expm1(-2.0 * math.pi * params.lambda_e * brace)


def estimates_agree(a, b) -> bool:
    """Two `MetricEstimate`s agree when their gap is within the combined
    95% half-width, hypot(a.half_width, b.half_width)."""
    return abs(a.value - b.value) <= math.hypot(a.half_width, b.half_width)


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


def gains(params: NetworkParams, los_faded: bool, d2: np.ndarray,
          horiz2: np.ndarray, fades: np.ndarray) -> np.ndarray:
    """Received power factor eta*S*D^-alpha per link, from squared 3-D
    distance `d2`, squared horizontal span `horiz2` and unit-mean
    exponential draws `fades`.

    LoS branch (horizontal span < K): eta_los, alpha_los, S = the draw if
    `los_faded` (the all-Rayleigh model), else 1 (the exact model). NLoS
    branch (span >= K, ties go NLoS): eta_nlos, alpha_nlos, S = the draw
    under both models.
    Both branches are evaluated on every link and selected elementwise,
    which is cheaper than gathering and scattering each branch.
    """
    s_los = fades if los_faded else 1.0
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



def disk_rows(p, beta, sig, d2, los, work):
    """LoS-disk rows of `analytic._exceedance` screened by the two log1p
    Chernoff bounds alone (see `analytic._disk_rows` for the arguments)."""
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
    upper, lower = chernoff_exponents(rates, los, y, n_nlos)
    # P(I >= y) <= 1e-10 leaves the 1; else P(I <= y) <= 1e-12 gives 0.
    unsure = ~(upper < -23.0)
    vals[rows[unsure & (lower < -28.0)]] = 0.0
    for j in np.flatnonzero(unsure & ~(lower < -28.0)):
        vals[rows[j]] = mathkit.hypoexp_cdf(rates[j][~los[j]], float(y[j]))
    return vals


def chernoff_exponents(rates, los, y, n_nlos):
    """Per row of NLoS `rates` (inf at the LoS pairs `los`): the log1p
    Chernoff exponents of P(I >= y) at t = lam_min/2 and of P(I <= y) at
    t = 4n/y."""
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
    return upper, lower


def pso_at(params, re, zone):
    """The closed-form outage `pso_form` at rate gap re (zone None: no
    zone)."""
    d = zone.d if zone is not None else 0.0
    return pso_form(params, 2.0 ** re - 1.0, d)


def solve_re_bisect(params, epsilon, zone=None):
    """Smallest admissible rate gap: the root of P_so(re) = epsilon, or the
    floor when the constraint is already slack there."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if params.lambda_e == 0.0:
        return RE_FLOOR
    f = lambda re: pso_at(params, re, zone) - epsilon
    if f(RE_FLOOR) <= 0.0:
        return RE_FLOOR
    hi = RE_CEILING
    if f(hi) > 0.0:
        hi = 2.0 * RE_CEILING          # one automatic bracket expansion
        if f(hi) > 0.0:
            achieved = pso_at(params, hi, zone)
            raise InfeasibleError(
                f"outage target {epsilon:g} unreachable: minimum outage "
                f"{achieved:g} at re = {hi:g} bps/Hz", achieved)
    return mathkit.bisect_root(f, RE_FLOOR, hi, 1e-12)


_TIE_REL_TOL = mathkit._TIE_REL_TOL


def resolve_rate_ties_walk(rates: np.ndarray) -> np.ndarray:
    """Perturb clashing rates multiplicatively so all are pairwise distinct.

    Rates closer than `_TIE_REL_TOL` relative are clustered; member k of an
    m-member cluster is scaled by 1 + (2k - (m-1))*1e-8, a deterministic
    spread that keeps pairwise relative gaps >= 2e-8. The CDF is continuous
    in the rates, so the perturbation is harmless at this magnitude.
    """
    lam = np.sort(np.asarray(rates, dtype=float))
    for _ in range(3):
        gaps = np.diff(lam) / lam[:-1]
        if np.all(gaps >= _TIE_REL_TOL):
            return lam
        out = lam.copy()
        i = 0
        n = len(lam)
        while i < n:
            j = i
            while (j + 1 < n
                   and (lam[j + 1] - lam[j]) < _TIE_REL_TOL * lam[j]):
                j += 1
            m = j - i + 1
            if m > 1:
                for k in range(m):
                    out[i + k] = lam[i + k] * (1.0 + (2 * k - (m - 1)) * 1e-8)
            i = j + 1
        lam = np.sort(out)
    return lam


def lambert_w0_array_halley60(x: np.ndarray) -> np.ndarray:
    """Principal branch of the Lambert W function elementwise: Halley
    iteration from the seeds of `mathkit.lambert_w0_array`, each element
    stopped by the step-size rule or after 60 steps, then one Newton
    polish."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -_INV_E) & (x < math.inf)):
        raise ValueError("lambert_w0: x is NaN, infinite or below -1/e")
    negative = not np.all(x >= 0.0)
    l1 = np.log(np.maximum(x, math.e))
    l2 = np.log(l1)
    w = np.where(x < math.e,
                 x / (1.0 + x * (1.0 + x * 0.5) / (1.0 + x * 1.1)),
                 l1 - l2 + l2 / l1)
    if negative:
        # Series around the branch point: w = -1 + p - p^2/3 + 11 p^3/72.
        p2 = 2.0 * (math.e * x + 1.0)
        p = np.sqrt(np.maximum(p2, 0.0))
        w = np.where(p2 < 0.5, -1.0 + p - p2 / 3.0 + 11.0 * p * p2 / 72.0, w)
    # Iterate only the elements still moving: a few never meet the stopping
    # rule (their last step is one rounding) and run all 60 steps.
    flat_w, flat_x = w.reshape(-1), x.reshape(-1)
    live = (np.flatnonzero(p2.reshape(-1) > 0.0) if negative
            else np.arange(flat_w.size))
    for _ in range(60):
        wl, xl = flat_w[live], flat_x[live]
        ew = np.exp(wl)
        r = wl * ew - xl
        w1 = wl + 1.0
        dw = r / (ew * w1 - (wl + 2.0) * r / (2.0 * w1))
        wl = wl - dw
        flat_w[live] = wl
        live = live[np.abs(dw) > 1e-16 * (1.0 + np.abs(wl))]
        if live.size == 0:
            break
    ew = np.exp(w)
    r = w * ew - x
    if not negative:
        return w - r / (ew * (w + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p2 <= 0.0, -1.0,
                        np.where(w > -1.0, w - r / (ew * (w + 1.0)), w))
