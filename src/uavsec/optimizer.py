"""Secrecy-transmission-capacity maximization: outage-equality root for the
rate gap, Lambert-W closed forms for the code rates, and grid searches over
altitude and guard-zone radius.

The outage constraint binds with equality at any optimum (outage and
capacity both fall as the rate gap grows), so the gap comes from a 1D root;
the codeword rate then maximizes the large-threshold surrogate objective in
closed form. Reported capacities always use the full closed-form connection
probability at the candidate rates, not the surrogate; the surrogate/full
ratio is surfaced in the diagnostics.

The grid is screened in array blocks, every cell running the same root
search and capacity formulas as numpy arrays; the winning cell is re-solved
by the scalar path, which alone produces the reported numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic, mathkit
from .model import GuardZone, NetworkParams

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
             zone: Optional[GuardZone] = None, tol: float = 1e-12) -> float:
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
    return mathkit.bisect_root(f, RE_FLOOR, hi, tol)


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
    s = params.h ** 2 + zone.d ** 2
    arg = (math.pi * params.lambda_e * s
           * math.exp(math.pi * params.lambda_u * params.h ** 2)
           / (-math.log1p(-epsilon)))
    try:
        w = mathkit.lambert_w0(arg)
    except ValueError as exc:
        raise InfeasibleError(f"closed-form rate gap undefined: {exc}",
                              float("nan")) from exc
    beta_e = 4.0 * w * w / (math.pi ** 4 * params.lambda_u ** 2 * s * s)
    return max(math.log1p(beta_e) / _LN2, RE_FLOOR)


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


def default_h_grid(params: NetworkParams, step: float = 1.0) -> np.ndarray:
    return np.arange(params.h_min, params.h_max + step / 2.0, step)


def default_d_grid(params: NetworkParams, step: float = 1.0) -> np.ndarray:
    """Zone radii 0..D_max in 1 m steps, with D_max = 5/sqrt(pi*lambda_e)
    (density thinning e^-25 there, so larger zones are pointless)."""
    if params.lambda_e <= 0.0:
        return np.array([0.0])
    d_max = 5.0 / math.sqrt(math.pi * params.lambda_e)
    return np.arange(0.0, d_max + step / 2.0, step)


# Cells screened per array block: bounds the temporaries (GL7 nodes, Halley
# iterates) to a few hundred kB whatever the grid size.
_BLOCK_CELLS = 1024


def _evaluate_cell(params: NetworkParams, epsilon: float,
                   zone: Optional[GuardZone]):
    re = solve_re(params, epsilon, zone)
    rt = rt_star(params, re)
    rs = rt - re
    pc = analytic.pc_approx(params, 2.0 ** rt - 1.0)
    density = analytic.effective_density(params.lambda_u, params.lambda_e,
                                         zone)
    return re, rt, rs, analytic.stc(rs, pc, density)


def _solve_re_cells(params: NetworkParams, epsilon: float, h: np.ndarray,
                    d: np.ndarray):
    """`solve_re` for each cell (altitude h[i], zone radius d[i]) on arrays:
    the same slack test, bracket, single expansion and bisection. Returns
    the rate gaps, NaN where the target is unreachable, and those cells'
    outage at the expanded bracket end (+inf elsewhere)."""
    f = lambda re: analytic._pso_zone_cells(params, 2.0 ** re - 1.0, h,
                                            d) - epsilon
    lo = np.full(h.shape, RE_FLOOR)
    hi = np.full(h.shape, RE_CEILING)
    slack = (f(lo) <= 0.0) | (params.lambda_e == 0.0)
    hi[f(hi) > 0.0] = 2.0 * RE_CEILING     # one automatic bracket expansion
    fhi = f(hi)
    infeasible = ~slack & (fhi > 0.0)
    bisect = ~slack & (fhi < 0.0)
    re = np.where(~slack & (fhi == 0.0), hi, RE_FLOOR)
    active = bisect.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= (hi - lo > 1e-12) & (mid > lo) & (mid < hi)
        if not active.any():
            break
        fm = f(mid)
        hit = active & (fm == 0.0)
        re[hit] = mid[hit]
        bisect &= ~hit
        active &= ~hit
        lo = np.where(active & (fm > 0.0), mid, lo)
        hi = np.where(active & ~(fm > 0.0), mid, hi)
    re = np.where(bisect, 0.5 * (lo + hi), re)
    return (np.where(infeasible, np.nan, re),
            np.where(infeasible, fhi + epsilon, np.inf))


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
    diagnostics["infeasible_cells"] = infeasible
    diagnostics["surrogate_pc_ratio"] = (
        analytic.pc_simplified(p, rt) / analytic.pc_approx(p, 2.0 ** rt - 1.0))
    diagnostics["constraint_active"] = re > RE_FLOOR
    return OptimumReport(rt=rt, rs=rs, re=re, h=p.h, cs=cs,
                         pso=_pso_at(p, re, zone),
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
