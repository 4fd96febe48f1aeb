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
formulas as numpy arrays, and the winning cell's rates, connection
probability and capacity are reported as the screen computed them; only
the reported outage is evaluated afterwards, by the scalar closed form.
The screen is the only rate-gap solver (`solve_re` is a one-cell screen):
a zone covering the LoS disk leaves only the NLoS tail, whose outage
equation inverts through Lambert W (`_tail_root`). Other cells read only
the convex log-outage G(q), q = lambda_u pi^2 sqrt(beta_e) / 2: its sign
at the bracket ends RE_FLOOR and 2 * RE_CEILING marks slack and
unreachable cells, and the rest run a safeguarded Newton on G from that
tail-only root, which lies at or below the true one. The codeword rate
has one formula, `_rt_cells`. Every cell's numbers are computed
elementwise, so they do not depend on which block the cell falls in.

The search is bound-and-prune. Its floor is the best capacity some cell
has attained: in earlier blocks, and in this block's cells that need no
Newton. The capacity falls as the rate gap grows, and Newton's bracket
keeps every later iterate at or above its lower end, so the capacity at
that end's rate gap bounds what the cell can still reach. A Newton cell
is retired once that bound falls below the floor, less a margin that
covers the capacity's rounding: it could neither win nor tie, so every
report is the one an unpruned search gives, bit for bit, while Newton
runs on the few cells that can still win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic, mathkit
from .model import GuardZone, NetworkParams, beta, los_radius, q1

__all__ = [
    "InfeasibleError",
    "OptimumReport",
    "RE_FLOOR",
    "RE_CEILING",
    "solve_re",
    "default_h_grid",
    "default_d_grid",
    "optimize_no_zone",
    "optimize_zone",
]

# The outage form is singular at beta_e = 0, so the rate gap is floored just
# above it; the constraint is inactive in that regime anyway.
RE_FLOOR = 1e-6
# The screen's rate-gap bracket ends at 2 * RE_CEILING (the bisection
# oracle in tests/oracles.py reaches it by expanding from RE_CEILING).
RE_CEILING = 40.0
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
    search diagnostics. `diagnostics["surrogate_pc_ratio"]` is
    `pc_simplified / pc_approx` at the optimal rates, or None where that
    ratio is not finite (a pc of order 1e-239 overflows it)."""

    rt: float
    rs: float
    re: float
    h: float
    cs: float
    pso: float
    d: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)


def check_epsilon(epsilon: float):
    """Raise ValueError unless the outage target lies in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon = {epsilon!r} must lie in (0, 1)")


def solve_re(params: NetworkParams, epsilon: float,
             zone: Optional[GuardZone] = None) -> float:
    """Smallest admissible rate gap: the root of P_so(re) = epsilon, or the
    floor when the constraint is already slack there. One cell of
    `_solve_re_cells`, so it equals the screen's gap at the same cell."""
    check_epsilon(epsilon)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        re, achieved = _solve_re_cells(
            params, epsilon, np.array([params.h]),
            np.array([zone.d if zone is not None else 0.0]))
    if np.isnan(re[0]):
        raise InfeasibleError(
            f"outage target {epsilon:g} unreachable: minimum outage "
            f"{achieved[0]:g} at re = {2.0 * RE_CEILING:g} bps/Hz",
            float(achieved[0]))
    return float(re[0])


def _re_of_q(params: NetworkParams, q):
    """The rate gap at which `model.q1` takes the value q."""
    z = 2.0 * q / (params.lambda_u * math.pi ** 2)
    return np.log1p(z * z) / _LN2


def _tail_root(params: NetworkParams, epsilon: float, h, s):
    """The q at which the NLoS tail beyond horizontal radius sqrt(s - h^2)
    alone meets the outage target, per cell: q*s = W0(pi lambda_e s
    e^(pi lambda_u h^2) / L) with L = -log(1 - epsilon). W is evaluated
    only where the argument is finite; cells where it overflows get NaN,
    which sends them to the log-outage G."""
    arg = (math.pi * params.lambda_e * s
           * np.exp(math.pi * params.lambda_u * h ** 2)
           / (-math.log1p(-epsilon)))
    w = np.full(arg.shape, np.nan)
    finite = arg < math.inf
    w[finite] = mathkit.lambert_w0_array(arg[finite])
    return w / s


def _rt_cells(params: NetworkParams, re, h):
    """Codeword rate maximizing the surrogate objective
    (rt - re) * Pbar_c(rt) per cell of rate gap re and altitude h:
    rt* = re + (2/ln 2) W0(z) with
    z = sqrt(eta_los/eta_nlos) * 2^(1 - re/2) / (pi^2 lambda_u h)."""
    if params.lambda_u <= 0.0:
        raise ValueError("codeword-rate optimum needs lambda_u > 0")
    z = (math.sqrt(params.eta_los / params.eta_nlos) * 2.0 ** (1.0 - re / 2.0)
         / (math.pi ** 2 * params.lambda_u * h))
    return re + (2.0 / _LN2) * mathkit.lambert_w0_array(z)


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
# A Newton cell is retired once its capacity bound falls below
# floor * (1 - _PRUNE_MARGIN), where the floor is a capacity some cell has
# attained. The bound is the capacity at the lowest rate gap the cell can
# still reach, with the secrecy rate rs = rt - re padded by
# _RS_PAD * (rt + 2 RE_CEILING). Error budget, against the exact capacity
# at the computed rate gap (eps = 2^-52):
# - rs carries an absolute error of about eps (40 rs + rt) (the rounding of
#   rt, of Lambert W and of 2^(-re/2)); rt + 2 RE_CEILING bounds rt at any
#   gap the cell reaches, so the pad covers it eight times over even where
#   rs is far smaller than rt;
# - pc = e^(-T) carries a relative error of a few eps of T plus rt's error
#   through dT/drt, about 3e-13 (T + 60), so at most 2.4e-10 while pc is a
#   normal number, and about 1e-13 at the paper's points;
# - the products add a few eps.
# The margin covers all of it. Below _PRUNE_TINY a capacity may be
# subnormal, where rounding is not relative, so no floor that small prunes.
_PRUNE_MARGIN = 1e-9
_RS_PAD = 2.0 ** -48
_PRUNE_TINY = 2.0 ** -900


def _newton_q(params: NetworkParams, g, q, lo, hi, retire=None):
    """Roots of the decreasing convex functions g(q, j) -> (values, slopes)
    of cells j inside the brackets [lo, hi] (0 < lo), from starts q at or
    below the roots, where Newton climbs monotonically. A step that leaves
    the bracket or is not finite becomes a bisection (geometric: a bracket
    spans decades), and so does a step from right of the root (g < 0, from
    rounding or lost convexity) longer than half the previous one, as in
    Numerical Recipes' rtsafe.

    Bracket invariant: each step raises lo to the iterate where g > 0
    (lowers hi where g < 0), and the next iterate lies in the new [lo, hi]
    (a Newton step only if it does; the geometric mean of two floats lies
    between them unless their product under- or overflows). So lo never
    falls, every later iterate is at least lo, and as `_re_of_q` is
    monotone a cell's final rate gap is at least `_re_of_q(lo)` for any lo
    it held, whatever g's rounding. After each step's bracket update
    `retire(lo, j)`, if given, flags cells to drop; their rate gaps are
    NaN. Returns the rate gaps."""
    re = _re_of_q(params, q)
    last = hi - lo
    j = np.arange(q.size)
    for _ in range(_NEWTON_CAP):
        val, slope = g(q[j], j)
        lo[j] = np.where(val > 0.0, q[j], lo[j])
        hi[j] = np.where(val < 0.0, q[j], hi[j])
        if retire is not None:
            gone = retire(lo[j], j)
            re[j[gone]] = np.nan
            j, val, slope = j[~gone], val[~gone], slope[~gone]
        newton = q[j] - val / slope
        fast = ((newton >= lo[j]) & (newton <= hi[j])
                & ((val > 0.0) | (np.abs(newton - q[j]) <= 0.5 * last[j])))
        new = np.where(fast, newton, np.sqrt(lo[j] * hi[j]))
        last[j] = np.abs(new - q[j])
        q[j] = new
        prev, re[j] = re[j], _re_of_q(params, new)
        j = j[np.abs(re[j] - prev) > _NEWTON_TOL]
        if j.size == 0:
            break
    return re


def _bracket_cells(params: NetworkParams, epsilon: float, h: np.ndarray,
                   d: np.ndarray):
    """Classify each cell (altitude h[i], zone radius d[i]; d = 0 is no
    zone) by its outage constraint. Returns the rate gaps of the cells that
    need no Newton (NaN at the Newton and unreachable cells), the outage
    at the bracket end 2 * RE_CEILING of the unreachable cells (+inf
    elsewhere), and the Newton cells as (cells, log-outage G, starts, lo,
    hi), or None.

    Cells with d >= K take the Lambert-W root (`_tail_root`), floored at
    RE_FLOOR. The rest, and those whose root overflows or passes the
    bracket [q(RE_FLOOR), q(2 * RE_CEILING)], read the log-outage G
    (`analytic._log_outage_cells`) at its ends: slack where G <= 0 at the
    floor, unreachable where G > 0 at the ceiling, else a Newton cell,
    started from the tail-only root clipped to the bracket."""
    if params.lambda_e == 0.0:
        return np.full(h.shape, RE_FLOOR), np.full(h.shape, np.inf), None
    analytic._require_canonical_alphas(params)
    if params.lambda_u == 0.0:  # G(0) is 0/0; every eavesdropper decodes
        return np.full(h.shape, np.nan), np.ones(h.shape), None
    k = los_radius(h, params.theta_c)
    s = h ** 2 + np.maximum(d, k) ** 2
    q0 = _tail_root(params, epsilon, h, s)
    re = np.maximum(_re_of_q(params, q0), RE_FLOOR)
    i = np.flatnonzero((d < k) | ~(re <= 2.0 * RE_CEILING))
    lo, hi = q1(params, beta(np.array([RE_FLOOR, 2.0 * RE_CEILING])))
    g = analytic._log_outage_cells(params, epsilon, h[i], d[i], k[i], s[i])
    slack = g(lo, np.arange(i.size))[0] <= 0.0
    g_hi = g(hi, np.arange(i.size))[0]
    bracketed = ~slack & (g_hi <= 0.0)
    re[i] = np.where(slack, RE_FLOOR, np.nan)
    achieved = np.full(h.shape, np.inf)
    unreachable = ~slack & ~bracketed
    achieved[i[unreachable]] = -np.expm1(math.log1p(-epsilon)
                                         * np.exp(g_hi[unreachable]))
    i = i[bracketed]
    return re, achieved, (
        i, analytic._log_outage_cells(params, epsilon, h[i], d[i], k[i],
                                      s[i]),
        np.where(q0[i] > lo, np.minimum(q0[i], hi), lo),
        np.full(i.size, lo), np.full(i.size, hi))


def _screen(params: NetworkParams, epsilon: float, h: np.ndarray,
            d: np.ndarray, floor: Optional[float] = None):
    """Each cell's rate gap re (`_bracket_cells`, then `_newton_q`),
    codeword rate rt* (`_rt_cells`), full connection probability
    `pc_approx` at rt* and capacity (rt* - re) * pc * lambda_u', and the
    outages `_bracket_cells` returns.

    Given a floor (the best capacity attained before this call, -inf for
    none), Newton cells that cannot win are retired: after each Newton
    step the floor, raised by this call's cells that need no Newton, is
    compared with each cell's capacity bound at re_lo = `_re_of_q(lo)`.
    The capacity falls as the rate gap grows and the cell's final gap is
    at least re_lo (`_newton_q`), so within the margin's error budget
    (`_PRUNE_MARGIN`) a retired cell's capacity lies strictly below the
    floor: it can neither win nor tie, and every other cell's numbers are
    the ones an unpruned screen gives.

    Where the target is unreachable or the cell was retired, re, rt* and
    pc are NaN and the capacity is -inf. Returns those arrays, the
    outages, and the numbers of Newton cells solved and retired."""
    re, achieved, newton = _bracket_cells(params, epsilon, h, d)
    rt, pc = np.full(h.shape, np.nan), np.full(h.shape, np.nan)
    cs = np.full(h.shape, -np.inf)
    density = params.lambda_u * np.exp(-math.pi * params.lambda_e * d ** 2)

    def rates(re_c, c):
        rt_c = _rt_cells(params, re_c, h[c])
        return rt_c, analytic._pc_cells(params, beta(rt_c), h[c])

    def solve(c):
        if c.size == 0:     # `_rt_cells` rejects lambda_u = 0
            return
        rt[c], pc[c] = rates(re[c], c)
        cs[c] = (rt[c] - re[c]) * pc[c] * density[c]

    solve(np.flatnonzero(~np.isnan(re)))
    if newton is None:
        return re, rt, pc, cs, achieved, 0, 0
    i, g, q, lo, hi = newton
    floor = -math.inf if floor is None else max(floor, float(cs.max()))
    retire = None
    if floor >= _PRUNE_TINY:
        level = floor * (1.0 - _PRUNE_MARGIN)

        def retire(lo_j, j):
            c = i[j]
            re_lo = _re_of_q(params, lo_j)
            rt_lo, pc_lo = rates(re_lo, c)
            rs_hi = rt_lo - re_lo + _RS_PAD * (rt_lo + 2.0 * RE_CEILING)
            return rs_hi * pc_lo * density[c] < level

    re[i] = _newton_q(params, g, q, lo, hi, retire)
    solved = i[~np.isnan(re[i])]
    solve(solved)
    return re, rt, pc, cs, achieved, solved.size, i.size - solved.size


def _solve_re_cells(params: NetworkParams, epsilon: float, h: np.ndarray,
                    d: np.ndarray):
    """The rate gap of each cell (altitude h[i], zone radius d[i]; d = 0 is
    no zone): the root of P_so = epsilon, or RE_FLOOR where the constraint
    is slack there, NaN where the target is unreachable; and those cells'
    outage at the bracket end 2 * RE_CEILING (+inf elsewhere): `_screen`
    with no floor, so nothing is retired. Each cell's result is the same
    whatever cells share the call."""
    re, _, _, _, achieved, _, _ = _screen(params, epsilon, h, d)
    return re, achieved


def _search(params: NetworkParams, epsilon: float, h_grid, d_grid,
            zoned: bool) -> OptimumReport:
    """Screen the sorted altitude x zone-radius grid (None: the default
    grid) in array blocks, in altitude-major order so that the first
    maximum wins (lowest altitude, then smallest zone), each block pruned
    against the best capacity so far, and report the winner's screened
    numbers."""
    check_epsilon(epsilon)
    h_grid = np.sort(np.asarray(
        default_h_grid(params) if h_grid is None else h_grid, dtype=float))
    d_grid = np.sort(np.asarray(
        default_d_grid(params) if d_grid is None else d_grid, dtype=float))
    if h_grid.size == 0 or d_grid.size == 0:
        raise ValueError("empty search grid")
    diagnostics = {"h_grid_size": h_grid.size}
    if zoned:
        diagnostics["d_grid_size"] = d_grid.size
    if not params.h_min <= h_grid[0] <= h_grid[-1] <= params.h_max:
        raise ValueError(f"altitude grid outside [{params.h_min}, "
                         f"{params.h_max}]")
    if not 0.0 <= d_grid[0] <= d_grid[-1] < math.inf:
        raise ValueError("zone radii must be finite and nonnegative")
    n_d = d_grid.size
    n = h_grid.size * n_d
    # best: capacity, rate gap, codeword rate, pc and index of the winner
    best, least = (-np.inf, 0.0, 0.0, 0.0, 0), np.inf
    infeasible = solved = retired = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_CELLS):
            cell = np.arange(start, min(start + _BLOCK_CELLS, n))
            re, rt, pc, cs, achieved, n_solved, n_retired = _screen(
                params, epsilon, h_grid[cell // n_d], d_grid[cell % n_d],
                best[0])
            i = int(np.argmax(cs))
            if cs[i] > best[0]:
                best = (float(cs[i]), float(re[i]), float(rt[i]),
                        float(pc[i]), start + i)
            least = min(least, float(achieved.min()))
            infeasible += int(np.count_nonzero(np.isneginf(cs))) - n_retired
            solved += n_solved
            retired += n_retired

    cs, re, rt, pc, i = best
    if cs == -np.inf:
        raise InfeasibleError(
            f"outage target {epsilon:g} unreachable on the whole grid",
            least)
    p = params.with_altitude(float(h_grid[i // n_d]))
    zone = GuardZone(float(d_grid[i % n_d])) if zoned else None
    rs = rt - re
    pso = analytic.pso_zone_approx(p, beta(re), zone)
    if not cs > 0.0:
        # the connection probability at the optimal rates underflows to 0
        raise InfeasibleError(
            f"zero secrecy capacity on the whole grid: the best cell "
            f"(h = {p.h:g} m) carries cs = {cs:g} at outage {pso:g}", pso)
    diagnostics["infeasible_cells"] = infeasible
    diagnostics["newton_cells"] = solved
    diagnostics["retired_cells"] = retired
    ratio = analytic.pc_simplified(p, rt) / pc
    diagnostics["surrogate_pc_ratio"] = ratio if math.isfinite(ratio) else None
    diagnostics["constraint_active"] = re > RE_FLOOR
    return OptimumReport(rt=rt, rs=rs, re=re, h=p.h, cs=cs, pso=pso,
                         d=zone.d if zoned else None, diagnostics=diagnostics)


def optimize_no_zone(params: NetworkParams, epsilon: float,
                     h_grid=None) -> OptimumReport:
    """Maximize rs * Pc * lambda_u over the altitude grid, with the rates
    solved per altitude (ties resolved toward the lowest altitude)."""
    return _search(params, epsilon, h_grid, np.zeros(1), False)


def optimize_zone(params: NetworkParams, epsilon: float, h_grid=None,
                  d_grid=None) -> OptimumReport:
    """Maximize rs * Pc * lambda_u' over the (altitude, zone-radius) grid
    (ties resolved toward the lowest altitude, then the smallest zone)."""
    return _search(params, epsilon, h_grid, d_grid, True)
