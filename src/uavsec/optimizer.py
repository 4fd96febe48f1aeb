"""Secrecy-transmission-capacity maximization: outage-equality root for the
rate gap, Lambert-W closed forms for the code rates, and grid searches over
altitude and guard-zone radius.

The outage constraint binds with equality at any optimum (outage and
capacity both fall as the rate gap grows), so the gap comes from a 1D root;
the codeword rate then maximizes the large-threshold surrogate objective in
closed form. Reported capacities always use the full closed-form connection
probability at the candidate rates, not the surrogate; the surrogate/full
ratio is surfaced in the diagnostics.

The grid is screened in array blocks, every cell running the capacity
formulas as numpy arrays; the winning cell is re-solved by the scalar path
(a 1e-12 bisection), which alone produces the reported numbers. The screen
finds each cell's rate gap by root formulas instead: a zone covering the
LoS disk leaves only the NLoS tail, whose outage equation inverts through
Lambert W (`re_closed_zone`); smaller zones run a safeguarded Newton on the
convex log-outage in q = lambda_u pi^2 sqrt(beta_e) / 2, started from that
tail-only root, which lies at or below the true one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic, mathkit
from .model import GuardZone, NetworkParams, q1

__all__ = [
    "InfeasibleError",
    "OptimumReport",
    "RE_FLOOR",
    "RE_CEILING",
    "solve_re",
    "re_closed_zone",
    "rt_star",
    "rs_star",
    "large_zone_limit",
    "default_h_grid",
    "default_d_grid",
    "optimize_no_zone",
    "optimize_zone",
]

# The outage form is singular at beta_e = 0, so the rate gap is floored just
# above it; the constraint is inactive in that regime anyway.
RE_FLOOR = 1e-6
RE_CEILING = 40.0
# Bracket width (bps/Hz) at which `solve_re`'s bisection stops.
_RE_TOL = 1e-12
# Spacing (m) of the default altitude and zone-radius grids.
_GRID_STEP = 1.0

_LN2 = math.log(2.0)


class InfeasibleError(RuntimeError):
    """The outage target is unreachable; carries the best outage achieved."""

    def __init__(self, message, achieved_outage):
        super().__init__(message)
        self.achieved_outage = achieved_outage


@dataclass(frozen=True)
class OptimumReport:
    """Solution of a capacity maximization: rates (bps/Hz), altitude,
    optional zone radius, capacity (bps/Hz/m^2), achieved outage, and
    search diagnostics."""

    rt: float
    rs: float
    re: float
    h: float
    cs: float
    pso: float
    d: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)


def _beta_e(re: float) -> float:
    return 2.0 ** re - 1.0


def _pso_at(params: NetworkParams, re: float,
            zone: Optional[GuardZone]) -> float:
    be = _beta_e(re)
    if zone is None:
        return analytic.pso_approx(params, be)
    return analytic.pso_zone_approx(params, be, zone)


def solve_re(params: NetworkParams, epsilon: float,
             zone: Optional[GuardZone] = None) -> float:
    """Smallest admissible rate gap: the root of P_so(re) = epsilon, or the
    floor when the constraint is already slack there."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if params.lambda_e == 0.0:
        return RE_FLOOR
    f = lambda re: _pso_at(params, re, zone) - epsilon
    if f(RE_FLOOR) <= 0.0:
        return RE_FLOOR
    hi = RE_CEILING
    if f(hi) > 0.0:
        hi = 2.0 * RE_CEILING          # one automatic bracket expansion
        if f(hi) > 0.0:
            achieved = _pso_at(params, hi, zone)
            raise InfeasibleError(
                f"outage target {epsilon:g} unreachable: minimum outage "
                f"{achieved:g} at re = {hi:g} bps/Hz", achieved)
    return mathkit.bisect_root(f, RE_FLOOR, hi, _RE_TOL)


def _re_of_q(params: NetworkParams, q):
    """The rate gap at which `model.q1` takes the value q."""
    z = 2.0 * q / (params.lambda_u * math.pi ** 2)
    return np.log1p(z * z) / _LN2


def _tail_root(params: NetworkParams, epsilon: float, h, s, w0):
    """The q at which the NLoS tail beyond horizontal radius sqrt(s - h^2)
    alone meets the outage target: q*s = W0(pi lambda_e s e^(pi lambda_u
    h^2) / L) with L = -log(1 - epsilon). Scalars with `mathkit.lambert_w0`,
    arrays with `mathkit.lambert_w0_array`."""
    arg = (math.pi * params.lambda_e * s
           * np.exp(math.pi * params.lambda_u * h ** 2)
           / (-math.log1p(-epsilon)))
    return w0(arg) / s


def re_closed_zone(params: NetworkParams, epsilon: float,
                   zone: GuardZone) -> float:
    """Closed-form rate gap for a guard zone covering the LoS disk (d >= K):
    only the NLoS tail beyond d contributes, which inverts through the
    Lambert W function."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if zone.d < params.los_radius * (1.0 - 1e-12):
        raise ValueError("re_closed_zone requires d >= the LoS radius")
    if params.lambda_e == 0.0:
        return RE_FLOOR
    with np.errstate(over="ignore"):
        re = _re_of_q(params, _tail_root(params, epsilon, params.h,
                                         params.h ** 2 + zone.d ** 2,
                                         mathkit.lambert_w0))
    if not math.isfinite(re):
        raise InfeasibleError("closed-form rate gap undefined", float("nan"))
    return max(float(re), RE_FLOOR)


def _w_argument(params: NetworkParams, re_star, h):
    """W0 argument of the codeword-rate optimum at altitude h (scalars or
    arrays)."""
    if params.lambda_u <= 0.0:
        raise ValueError("codeword-rate optimum needs lambda_u > 0")
    return (math.sqrt(params.eta_los / params.eta_nlos)
            * 2.0 ** (1.0 - re_star / 2.0)
            / (math.pi ** 2 * params.lambda_u * h))


def rt_star(params: NetworkParams, re_star: float) -> float:
    """Codeword rate maximizing the surrogate objective
    (rt - re*) * Pbar_c(rt): rt* = re* + (2/ln 2) W0(z) with
    z = sqrt(eta_los/eta_nlos) * 2^(1 - re*/2) / (pi^2 lambda_u H)."""
    if re_star < 0:
        raise ValueError("re_star must be nonnegative")
    return re_star + (2.0 / _LN2) * mathkit.lambert_w0(
        _w_argument(params, re_star, params.h))


def rs_star(params: NetworkParams, re_star: float) -> float:
    """Secrecy rate at the optimum: rt* - re*."""
    if re_star < 0:
        raise ValueError("re_star must be nonnegative")
    return (2.0 / _LN2) * mathkit.lambert_w0(
        _w_argument(params, re_star, params.h))


def large_zone_limit(params: NetworkParams) -> tuple[float, float]:
    """Limiting rates for an unboundedly large guard zone (rate gap -> 0):
    rt = rs = (2/ln 2) W0(2 sqrt(eta_los/eta_nlos) / (pi^2 lambda_u H));
    independent of the eavesdropper density and the zone radius."""
    r = (2.0 / _LN2) * mathkit.lambert_w0(
        _w_argument(params, 0.0, params.h))
    return r, r


def default_h_grid(params: NetworkParams) -> np.ndarray:
    """Altitudes h_min..h_max in 1 m steps."""
    return np.arange(params.h_min, params.h_max + _GRID_STEP / 2.0,
                     _GRID_STEP)


def default_d_grid(params: NetworkParams) -> np.ndarray:
    """Zone radii 0..D_max in 1 m steps, with D_max = 5/sqrt(pi*lambda_e)
    (density thinning e^-25 there, so larger zones are pointless)."""
    if params.lambda_e <= 0.0:
        return np.array([0.0])
    d_max = 5.0 / math.sqrt(math.pi * params.lambda_e)
    return np.arange(0.0, d_max + _GRID_STEP / 2.0, _GRID_STEP)


# Cells screened per array block: bounds the temporaries (GL7 nodes, Halley
# and Newton iterates) to about a megabyte whatever the grid size.
_BLOCK_CELLS = 4096
# The screen's Newton stops a cell once a step moves its rate gap by at
# most _NEWTON_TOL (bps/Hz). Cells take 5 steps at the median; cells whose
# LoS annulus is a few ulps wide (outage = rounding noise) take up to about
# 50, and geometric bisection alone would need about 60 from the widest
# bracket, so the fixed cap _NEWTON_CAP is never what stops a cell.
_NEWTON_TOL = 1e-13
_NEWTON_CAP = 100


def _evaluate_cell(params: NetworkParams, epsilon: float,
                   zone: Optional[GuardZone]):
    re = solve_re(params, epsilon, zone)
    rt = rt_star(params, re)
    rs = rt - re
    pc = analytic.pc_approx(params, 2.0 ** rt - 1.0)
    density = analytic.effective_density(params.lambda_u, params.lambda_e,
                                         zone)
    return re, rt, rs, analytic.stc(rs, pc, density)


def _newton_q(params: NetworkParams, g, q, lo, hi):
    """Roots of the decreasing convex functions g(q, j) -> (values, slopes)
    of cells j inside the brackets [lo, hi] (0 < lo), from starts q at or
    below the roots, where Newton climbs monotonically. A step that leaves
    the bracket or is not finite becomes a bisection (geometric: a bracket
    spans decades), and so does a step from right of the root (g < 0, from
    rounding or lost convexity) longer than half the previous one, as in
    Numerical Recipes' rtsafe. Returns the rate gaps and the steps each
    cell took."""
    re = _re_of_q(params, q)
    steps = np.zeros(q.shape, dtype=int)
    last = hi - lo
    j = np.arange(q.size)
    for _ in range(_NEWTON_CAP):
        val, slope = g(q[j], j)
        lo[j] = np.where(val > 0.0, q[j], lo[j])
        hi[j] = np.where(val < 0.0, q[j], hi[j])
        newton = q[j] - val / slope
        fast = ((newton >= lo[j]) & (newton <= hi[j])
                & ((val > 0.0) | (np.abs(newton - q[j]) <= 0.5 * last[j])))
        new = np.where(fast, newton, np.sqrt(lo[j] * hi[j]))
        last[j] = np.abs(new - q[j])
        q[j] = new
        steps[j] += 1
        prev, re[j] = re[j], _re_of_q(params, new)
        j = j[np.abs(re[j] - prev) > _NEWTON_TOL]
        if j.size == 0:
            break
    return re, steps


def _log_outage_cells(params: NetworkParams, epsilon: float, h, d, k, s):
    """G(q) = log(T + D) - log(rho) per cell and its slope, where P_so =
    epsilon is T + D = rho = L / (2 pi lambda_e): T = e^(b - q s) / (2q) is
    the NLoS tail beyond sqrt(s - h^2) and D = integral over the LoS annulus
    [s1, s2] = [sqrt(h^2 + d^2), sqrt(h^2 + k^2)] of x e^(b - c q x) dx,
    with b = pi lambda_u h^2 and c = sqrt(eta_N/eta_L)
    (`analytic._pso_zone_cells` term for term). Both terms are log-convex
    and decreasing in q, so G is convex and decreasing. Returns G(q, j) for
    the cells j."""
    b = math.pi * params.lambda_u * h ** 2
    c = math.sqrt(params.eta_nlos / params.eta_los)
    s1 = np.sqrt(h ** 2 + d * d)
    s2 = np.sqrt(h ** 2 + k * k)
    log_rho = math.log(-math.log1p(-epsilon)
                       / (2.0 * math.pi * params.lambda_e))

    def g(q, j):
        a = c * q
        tail = np.exp(b[j] - q * s[j] - np.log(2.0 * q))
        u1, u2 = a * s1[j], a * s2[j]
        disk, disk2 = analytic._disk_moments_cells(b[j], u1, u2)
        disk, disk2 = disk / (a * a), disk2 / a ** 3
        brace = tail + disk
        return (np.log(brace) - log_rho,
                -(tail * (s[j] + 1.0 / q) + c * disk2) / brace)
    return g


def _solve_re_cells(params: NetworkParams, epsilon: float, h: np.ndarray,
                    d: np.ndarray):
    """`solve_re` for each cell (altitude h[i], zone radius d[i]) on arrays.
    Returns the rate gaps, NaN where the target is unreachable, and those
    cells' outage at the expanded bracket end 2 * RE_CEILING (+inf
    elsewhere).

    Cells with d >= K take the Lambert-W root of `re_closed_zone`, floored
    at RE_FLOOR and infeasible above 2 * RE_CEILING. The others (and any
    whose closed form overflows) keep `solve_re`'s slack test, bracket and
    single expansion, and the bracketed cells run `_newton_q` on the
    log-outage from the tail-only root."""
    if params.lambda_e == 0.0:
        return np.full(h.shape, RE_FLOOR), np.full(h.shape, np.inf)
    k = h / math.tan(params.theta_c)
    s = h ** 2 + np.maximum(d, k) ** 2
    q0 = _tail_root(params, epsilon, h, s, mathkit.lambert_w0_array)
    re = np.maximum(_re_of_q(params, q0), RE_FLOOR)
    i = np.flatnonzero((d < k) | np.isnan(re))
    f = lambda re: analytic._pso_zone_cells(params, 2.0 ** re - 1.0, h[i],
                                            d[i]) - epsilon
    lo = np.full(i.shape, RE_FLOOR)
    hi = np.full(i.shape, RE_CEILING)
    slack = f(lo) <= 0.0
    hi[f(hi) > 0.0] = 2.0 * RE_CEILING     # one automatic bracket expansion
    fhi = f(hi)
    re[i] = np.where(~slack & (fhi > 0.0), np.inf,
                     np.where(~slack & (fhi == 0.0), hi, RE_FLOOR))
    bracketed = ~slack & (fhi < 0.0)
    if bracketed.any():
        i, lo, hi = i[bracketed], lo[bracketed], hi[bracketed]
        lo, hi = q1(params, 2.0 ** lo - 1.0), q1(params, 2.0 ** hi - 1.0)
        re[i], _ = _newton_q(
            params, _log_outage_cells(params, epsilon, h[i], d[i], k[i],
                                      s[i]),
            np.where(q0[i] > lo, np.minimum(q0[i], hi), lo), lo, hi)
    infeasible = re > 2.0 * RE_CEILING
    achieved = np.full(h.shape, np.inf)
    if infeasible.any():
        achieved[infeasible] = analytic._pso_zone_cells(
            params, 2.0 ** (2.0 * RE_CEILING) - 1.0, h[infeasible],
            d[infeasible])
    return np.where(infeasible, np.nan, re), achieved


def _screen(params: NetworkParams, epsilon: float, h: np.ndarray,
            d: np.ndarray):
    """`_evaluate_cell`'s capacity for each cell on arrays (rt* from
    Lambert W, the full `pc_approx`), -inf where the target is unreachable,
    and the outages `_solve_re_cells` returns."""
    re, achieved = _solve_re_cells(params, epsilon, h, d)
    infeasible = np.isnan(re)
    if infeasible.all():
        return np.full(h.shape, -np.inf), achieved
    re = np.where(infeasible, RE_FLOOR, re)
    rt = re + (2.0 / _LN2) * mathkit.lambert_w0_array(
        _w_argument(params, re, h))
    pc = analytic._pc_cells(params, 2.0 ** rt - 1.0, h)
    density = params.lambda_u * np.exp(-math.pi * params.lambda_e * d ** 2)
    return np.where(infeasible, -np.inf, (rt - re) * pc * density), achieved


def _search(params: NetworkParams, epsilon: float, h_grid, d_grid,
            zoned: bool, diagnostics: dict) -> OptimumReport:
    """Screen the sorted altitude x zone-radius grid in array blocks, in
    altitude-major order so that the first maximum wins (lowest altitude,
    then smallest zone), and re-solve the winner by the scalar path."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    h_grid = np.sort(h_grid)
    d_grid = np.sort(d_grid)
    if not params.h_min <= h_grid[0] <= h_grid[-1] <= params.h_max:
        raise ValueError(f"altitude grid outside [{params.h_min}, "
                         f"{params.h_max}]")
    if not 0.0 <= d_grid[0] <= d_grid[-1] < math.inf:
        raise ValueError("zone radii must be finite and nonnegative")
    n_d = d_grid.size
    n = h_grid.size * n_d
    best, least = (-np.inf, 0), (np.inf, 0)
    infeasible = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_CELLS):
            cell = np.arange(start, min(start + _BLOCK_CELLS, n))
            cs, achieved = _screen(params, epsilon, h_grid[cell // n_d],
                                   d_grid[cell % n_d])
            i, j = int(np.argmax(cs)), int(np.argmin(achieved))
            if cs[i] > best[0]:
                best = (cs[i], start + i)
            if achieved[j] < least[0]:
                least = (achieved[j], start + j)
            infeasible += int(np.count_nonzero(np.isneginf(cs)))

    def at(i):
        p = params.with_altitude(float(h_grid[i // n_d]))
        return p, GuardZone(float(d_grid[i % n_d])) if zoned else None

    if best[0] == -np.inf:
        p, zone = at(least[1])
        raise InfeasibleError(
            f"outage target {epsilon:g} unreachable on the whole grid",
            _pso_at(p, 2.0 * RE_CEILING, zone))
    p, zone = at(best[1])
    re, rt, rs, cs = _evaluate_cell(p, epsilon, zone)
    pso = _pso_at(p, re, zone)
    if not cs > 0.0:
        # the connection probability at the optimal rates underflows to 0
        raise InfeasibleError(
            f"zero secrecy capacity on the whole grid: the best cell "
            f"(h = {p.h:g} m) carries cs = {cs:g} at outage {pso:g}", pso)
    pc = analytic.pc_approx(p, 2.0 ** rt - 1.0)
    diagnostics["infeasible_cells"] = infeasible
    diagnostics["surrogate_pc_ratio"] = analytic.pc_simplified(p, rt) / pc
    diagnostics["constraint_active"] = re > RE_FLOOR
    return OptimumReport(rt=rt, rs=rs, re=re, h=p.h, cs=cs, pso=pso,
                         d=zone.d if zoned else None, diagnostics=diagnostics)


def optimize_no_zone(params: NetworkParams, epsilon: float,
                     h_grid=None) -> OptimumReport:
    """Maximize rs * Pc * lambda_u over the altitude grid, with the rates
    solved per altitude (ties resolved toward the lowest altitude)."""
    if h_grid is None:
        h_grid = default_h_grid(params)
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size == 0:
        raise ValueError("empty altitude grid")
    return _search(params, epsilon, h_grid, np.zeros(1), False,
                   {"h_grid_size": int(h_grid.size)})


def optimize_zone(params: NetworkParams, epsilon: float, h_grid=None,
                  d_grid=None) -> OptimumReport:
    """Maximize rs * Pc * lambda_u' over the (altitude, zone-radius) grid
    (ties resolved toward the lowest altitude, then the smallest zone)."""
    if h_grid is None:
        h_grid = default_h_grid(params)
    if d_grid is None:
        d_grid = default_d_grid(params)
    h_grid = np.asarray(h_grid, dtype=float)
    d_grid = np.asarray(d_grid, dtype=float)
    if h_grid.size == 0 or d_grid.size == 0:
        raise ValueError("empty search grid")
    return _search(params, epsilon, h_grid, d_grid, True,
                   {"h_grid_size": int(h_grid.size),
                    "d_grid_size": int(d_grid.size)})
