import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import pso_at, rt_star_scipy, solve_re_bisect

from uavsec import analytic, optimizer
from uavsec.model import GuardZone, NetworkParams, beta
from uavsec.optimizer import (
    RE_CEILING,
    RE_FLOOR,
    InfeasibleError,
    OptimumReport,
    default_d_grid,
    default_h_grid,
    optimize_no_zone,
    optimize_zone,
    solve_re,
)

EPS = np.finfo(float).eps


def params(**kw):
    base = dict(lambda_u=1e-3, lambda_e=1e-3, h=10.0)
    base.update(kw)
    return NetworkParams(**base)


def random_zone_config(rng):
    p = NetworkParams(lambda_u=10 ** rng.uniform(-4, -2),
                      lambda_e=10 ** rng.uniform(-4, -2),
                      h=rng.uniform(10.0, 50.0),
                      theta_c=rng.uniform(0.4, 1.2))
    d = p.los_radius * rng.uniform(1.0, 4.0)
    eps = 10 ** rng.uniform(-3, -0.7)
    return p, GuardZone(d), eps


def surrogate_objective(p, rt, re):
    return (rt - re) * analytic.pc_simplified(p, rt)


def oracle_search(p, eps, h_grid, d_grid=None):
    """The per-cell loop that the block search replaced: every cell solved
    by the scalar path (the bisection oracle, rt* by scipy's Lambert W,
    `pc_approx` and `stc`) in sorted altitude-major order, first maximum
    kept; d_grid None is the no-zone search."""
    best, failures = None, []
    for h in np.sort(h_grid):
        ph = p.with_altitude(float(h))
        for d in (np.sort(d_grid) if d_grid is not None else [None]):
            zone = GuardZone(float(d)) if d is not None else None
            try:
                re = solve_re_bisect(ph, eps, zone)
            except InfeasibleError as exc:
                failures.append(exc.achieved_outage)
                continue
            rt = rt_star_scipy(ph, re)
            rs = rt - re
            cs = analytic.stc(
                rs, analytic.pc_approx(ph, 2.0 ** rt - 1.0),
                analytic.effective_density(ph.lambda_u, ph.lambda_e, zone))
            if best is None or cs > best[-1]:
                best = (ph, zone, re, rt, rs, cs)
    if best is None:
        raise InfeasibleError("oracle: infeasible grid", min(failures))
    ph, zone, re, rt, rs, cs = best
    return OptimumReport(
        rt=rt, rs=rs, re=re, h=ph.h, cs=cs,
        pso=pso_at(ph, re, zone),
        d=zone.d if zone is not None else None,
        diagnostics={
            "infeasible_cells": len(failures),
            "surrogate_pc_ratio": analytic.pc_simplified(ph, rt)
            / analytic.pc_approx(ph, 2.0 ** rt - 1.0),
            "constraint_active": re > RE_FLOOR})


def oracle_configs():
    """20 seeded configs: random densities, angles and targets, plus no
    eavesdroppers, and transmitter densities tiny enough to need the
    bracket expansion or to leave small zones infeasible. Zone grids run
    from 0 past K and out to slack radii. A 21st config has transmitters
    so sparse (lambda_u = 1e-16) that zones beyond K stay infeasible up to
    about 100 m, past which their gaps lie just below 2 * RE_CEILING."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(20):
        lu = 10 ** rng.uniform(*((-13.5, -12.5) if i % 10 == 9 else
                                 (-9, -7) if i % 5 == 4 else (-4, -2)))
        le = 0.0 if i == 0 else 10 ** rng.uniform(-4, -2)
        p = NetworkParams(lambda_u=lu, lambda_e=le,
                          theta_c=rng.uniform(0.4, 1.2))
        h_grid = np.arange(10.0, 50.5, rng.choice([4.0, 5.0, 8.0]))
        d_max = 5.0 / math.sqrt(math.pi * (le or 1e-3))
        d_grid = np.linspace(0.0, d_max, int(rng.integers(12, 30)))
        out.append((p, 10 ** rng.uniform(-3, -0.7), h_grid, d_grid))
    out.append((NetworkParams(lambda_u=1e-16, lambda_e=1e-3), 0.01,
                np.arange(10.0, 50.5, 10.0), np.linspace(0.0, 200.0, 21)))
    return out


def fig_sweep_params():
    """The sweep points of configs/fig7.cfg and configs/fig8.cfg, their
    shared point lambda_u = lambda_e = 1e-3 once (theta_c = 45 deg, so
    K = h/tan(pi/4) lands one ulp above h and every d == h cell takes the
    d < K branch with a one-ulp LoS annulus)."""
    return [NetworkParams(lambda_u=1e-3, lambda_e=1e-3)] + [
        NetworkParams(**dict({"lambda_u": 1e-3, "lambda_e": 1e-3},
                             **{name: value}))
        for name in ("lambda_e", "lambda_u") for value in (3e-4, 3e-3, 1e-2)]


def rel_close(got, ref, rel):
    return abs(got - ref) <= rel * abs(ref)


def outcome(search, *args):
    """A search's report, or the achieved outage of its InfeasibleError."""
    try:
        return search(*args)
    except InfeasibleError as exc:
        return exc.achieved_outage


def assert_reports_equal(got, ref):
    """The screen's report against the bisection oracle's: the same cell
    and counts, and numbers within the two root solvers' rounding (worst
    gaps measured on the oracle configs and fig points: re 2.8e-13, rt
    2.1e-13, rs 2.0e-13, pso 1.3e-13 absolute; cs 4.4e-13 and the
    surrogate ratio 1.0e-13 relative)."""
    assert (got.h, got.d) == (ref.h, ref.d)
    for name in ("re", "rt", "rs", "pso"):
        assert abs(getattr(got, name) - getattr(ref, name)) <= 2e-12, name
    assert rel_close(got.cs, ref.cs, 1e-12)
    for key, value in ref.diagnostics.items():
        if key == "surrogate_pc_ratio":
            assert rel_close(got.diagnostics[key], value, 1e-12), key
        else:
            assert got.diagnostics[key] == value, key


def assert_gap_is_solve_re(rep, p, eps):
    """The reported rate gap is `solve_re`'s at the winning cell, the
    codeword rate is `_rt_cells`' at that gap and altitude, and the secrecy
    rate is their difference."""
    zone = GuardZone(rep.d) if rep.d is not None else None
    assert rep.re == solve_re(p.with_altitude(rep.h), eps, zone)
    assert rep.rt == optimizer._rt_cells(p, np.array([rep.re]),
                                         np.array([rep.h]))[0]
    assert rep.rs == rep.rt - rep.re


class TestSolveRe:
    def test_no_eavesdroppers_floor(self):
        assert solve_re(params(lambda_e=0.0), 0.01) == RE_FLOOR

    def test_outage_equality_when_active(self):
        for zone in (None, GuardZone(12.0), GuardZone(30.0)):
            p = params()
            re = solve_re(p, 0.01, zone)
            be = 2.0 ** re - 1.0
            pso = (analytic.pso_zone_approx(p, be, zone) if zone
                   else analytic.pso_approx(p, be))
            assert abs(pso - 0.01) <= 1e-6

    def test_monotone_in_eavesdropper_density(self):
        res = [solve_re(params(lambda_e=le), 0.01)
               for le in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)]
        assert all(b >= a for a, b in zip(res, res[1:]))

    def test_monotone_in_zone_radius(self):
        p = params()
        res = [solve_re(p, 0.01, GuardZone(d))
               for d in (0.0, 5.0, 10.0, 20.0, 40.0, 80.0)]
        assert all(b <= a for a, b in zip(res, res[1:]))

    def test_saturated_outage_form(self):
        # pi lambda_u H^2 = 711.5 overflows exp in the LoS-disk term; the
        # outage there saturates at 1 and the root lies beyond it
        p = NetworkParams(lambda_u=0.09206, lambda_e=1.1223e-3, h=49.598,
                          theta_c=0.5790, h_min=10.0, h_max=50.0)
        for zone in (None, GuardZone(5.0)):
            re = solve_re(p, 0.01, zone)
            assert RE_FLOOR < re < RE_CEILING
            assert analytic.pso_zone_approx(
                p, 2.0 ** re - 1.0, zone or GuardZone(0.0)) == \
                pytest.approx(0.01, abs=1e-6)

    def test_epsilon_bounds(self):
        for eps in (0.0, 1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_re(params(), eps)
            with pytest.raises(ValueError):
                optimize_no_zone(params(), eps)
            with pytest.raises(ValueError):
                optimize_zone(params(), eps)
            with pytest.raises(ValueError, match="epsilon"):
                solve_re(params(), eps, GuardZone(20.0))

    def test_unreachable_target_is_infeasible(self):
        # At lambda_u = 1e-13 the interference is too weak: even at the
        # bracket end 2 * RE_CEILING the outage stays above 0.1.
        p = params(lambda_u=1e-13)
        for zone in (None, GuardZone(5.0)):
            with pytest.raises(InfeasibleError, match="unreachable") as info:
                solve_re(p, 0.01, zone)
            assert info.value.achieved_outage > 0.1
            assert info.value.achieved_outage == pytest.approx(
                pso_at(p, 2.0 * RE_CEILING, zone), rel=1e-12)

    def test_no_transmitters_is_infeasible(self):
        # with no interference every eavesdropper decodes: the outage is 1
        # at any rate gap (G(q) is 0/0 at q = 0)
        p = params(lambda_u=0.0)
        for zone in (GuardZone(5.0), GuardZone(50.0)):
            with pytest.raises(InfeasibleError) as info:
                solve_re(p, 0.01, zone)
            assert info.value.achieved_outage == 1.0
        for search in (optimize_zone, optimize_no_zone):
            with pytest.raises(InfeasibleError) as info:
                search(p, 0.01)
            assert info.value.achieved_outage == 1.0


class TestClosedFormZoneGap:
    def test_tail_root_skips_overflowing_cells(self):
        # exp(pi lambda_u h^2) overflows at h = 160 m (callers ignore
        # that overflow): that cell gets NaN without evaluating W, so with
        # no invalid-value warning, and the others are the values they
        # take alone
        p = params(lambda_u=1e-2, h_max=200.0)
        h = np.array([10.0, 160.0, 20.0])
        s = h ** 2 + 400.0
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            q = optimizer._tail_root(p, 0.01, h, s)
            alone = [optimizer._tail_root(p, 0.01, h[i:i + 1],
                                          s[i:i + 1])[0] for i in (0, 2)]
        assert np.isnan(q[1])
        assert [q[0], q[2]] == alone and np.all(np.isfinite(alone))

    def test_matches_bisection(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p, zone, eps = random_zone_config(rng)
            root = solve_re_bisect(p, eps, zone)
            assert abs(solve_re(p, eps, zone) - root) <= 1e-6

    def test_relaxed_target_drives_gap_to_zero(self):
        # the W argument shrinks like 1/ln(1/(1-eps)), so the gap drains
        # toward zero as the outage target relaxes
        p = params()
        zone = GuardZone(30.0)
        res = [solve_re(p, eps, zone)
               for eps in (0.01, 0.1, 0.5, 1.0 - 1e-9)]
        assert all(b < a for a, b in zip(res, res[1:]))
        assert res[-1] < 1e-2

    def test_larger_zone_needs_smaller_gap(self):
        p = params()
        res = [solve_re(p, 0.01, GuardZone(d))
               for d in (10.0, 20.0, 40.0, 80.0)]
        assert all(b < a for a, b in zip(res, res[1:]))


class TestRateFormulas:
    def test_grid_argmax(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            p = NetworkParams(lambda_u=10 ** rng.uniform(-4, -2),
                              lambda_e=1e-3, h=rng.uniform(10.0, 50.0))
            re = rng.uniform(0.0, 6.0)
            rt = optimizer._rt_cells(p, np.array([re]), np.array([p.h]))[0]
            grid = re + np.arange(0.0, 30.0, 1e-3)
            obj = (grid - re) * np.exp(
                -(math.pi / 2) * p.lambda_u * p.h
                * (math.sqrt(p.eta_nlos / p.eta_los) * math.pi
                   * 2.0 ** (grid / 2.0) - 2.0 * p.h))
            assert abs(rt - grid[int(np.argmax(obj))]) <= 1e-3

    def test_concavity_at_optimum(self):
        p = params()
        res = np.array([0.0, 1.0, 4.0])
        for re, rt in zip(res, optimizer._rt_cells(p, res, np.full(3, p.h))):
            h = 1e-4
            second = (surrogate_objective(p, rt + h, re)
                      - 2 * surrogate_objective(p, rt, re)
                      + surrogate_objective(p, rt - h, re)) / h ** 2
            assert second <= 0.0

    def test_rate_identity(self):
        # the searches report rs as rt - re, exactly
        for search in (optimize_no_zone, optimize_zone):
            for le in (0.0, 1e-4, 1e-3, 1e-2):
                rep = search(params(lambda_e=le), 0.01)
                assert rep.rs == rep.rt - rep.re

    def test_secrecy_rate_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = NetworkParams(lambda_u=10 ** rng.uniform(-4, -2),
                              lambda_e=1e-3, h=rng.uniform(10.0, 50.0))
            re = rng.uniform(0.0, 10.0)
            rt = optimizer._rt_cells(p, np.array([re]), np.array([p.h]))
            assert rt[0] - re > 0.0

    def test_zero_gap_matches_limit(self):
        # at re = 0 the codeword rate is the large-zone limit rt = rs
        p = params()
        rt = optimizer._rt_cells(p, np.zeros(1), np.array([p.h]))[0]
        assert rt == pytest.approx(rt_star_scipy(p, 0.0), rel=1e-14)

    def test_limit_independent_of_eavesdroppers(self):
        a, b = (optimizer._rt_cells(params(lambda_e=le), np.zeros(1),
                                    np.array([10.0])) for le in (1e-4, 1e-2))
        assert a == b

    def test_secrecy_rate_grows_with_zone(self):
        p = params()
        res = np.array([solve_re(p, 0.01, GuardZone(d))
                        for d in (0.0, 10, 20, 40, 80)])
        rss = optimizer._rt_cells(p, res, np.full(res.size, p.h)) - res
        assert all(b >= a for a, b in zip(rss, rss[1:]))

    def test_reported_rates_match_scipy_property(self):
        # an oracle for the reported rates: rt is scipy's rt* at the
        # reported altitude and rate gap, and rs = rt - re exactly
        seen = {"no_zone": 0, "zone": 0}

        @settings(max_examples=60, deadline=None)
        @given(st.floats(-4.0, -2.0), st.floats(-4.0, -2.0),
               st.floats(-3.0, math.log10(0.2)), st.floats(10.0, 50.0))
        def check(log_lu, log_le, log_eps, h):
            p = NetworkParams(lambda_u=10 ** log_lu, lambda_e=10 ** log_le)
            eps = 10 ** log_eps
            for tag, rep in (
                    ("no_zone", outcome(optimize_no_zone, p, eps, [h])),
                    ("zone", outcome(optimize_zone, p, eps, [h]))):
                if isinstance(rep, float):
                    continue
                assert rep.h == h
                assert rep.rs == rep.rt - rep.re
                assert rel_close(rep.rt,
                                 rt_star_scipy(p.with_altitude(h), rep.re),
                                 1e-12)
                seen[tag] += 1

        check()
        assert all(seen.values()), seen


class TestGridSearches:
    def test_no_zone_defaults(self):
        rep = optimize_no_zone(params(), 0.01)
        assert rep.h == 10.0          # lowest altitude wins at defaults
        assert rep.rt >= rep.rs >= 0.0
        assert rep.pso <= 0.01 + 1e-6
        assert rep.d is None
        assert rep.diagnostics["constraint_active"]

    def test_no_eavesdroppers_keeps_floor_gap(self):
        rep = optimize_no_zone(params(lambda_e=0.0), 0.01)
        assert rep.re == RE_FLOOR
        # altitude maximizes the capacity directly
        p = params(lambda_e=0.0)

        def capacity(h):
            rt = rt_star_scipy(p.with_altitude(float(h)), RE_FLOOR)
            return analytic.stc(
                rt - RE_FLOOR,
                analytic.pc_approx(p.with_altitude(float(h)), 2 ** rt - 1),
                p.lambda_u)

        best_h = max(np.arange(10.0, 50.5, 1.0), key=capacity)
        assert rep.h == best_h

    def test_grid_refinement_stability(self):
        p = params()
        coarse = optimize_no_zone(p, 0.01, h_grid=np.arange(10.0, 50.5, 1.0))
        fine = optimize_no_zone(p, 0.01, h_grid=np.arange(10.0, 50.25, 0.5))
        assert abs(fine.cs - coarse.cs) / coarse.cs < 0.01

    def test_zone_with_single_zero_radius_matches_no_zone(self):
        p = params()
        a = optimize_no_zone(p, 0.01)
        b = optimize_zone(p, 0.01, d_grid=[0.0])
        assert (a.rt, a.rs, a.re, a.h, a.cs) == (b.rt, b.rs, b.re, b.h, b.cs)
        assert b.d == 0.0

    def test_zone_beats_no_zone_at_defaults(self):
        p = params()
        assert optimize_zone(p, 0.01).cs >= optimize_no_zone(p, 0.01).cs

    def test_default_d_grid_reaches_suppression_radius(self):
        p = params()
        grid = default_d_grid(p)
        d_max = grid[-1]
        assert d_max == pytest.approx(5.0 / math.sqrt(math.pi * 1e-3), abs=1.0)
        thinning = math.exp(-math.pi * p.lambda_e * d_max ** 2)
        assert thinning < 1e-9

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimize_no_zone(params(), 0.01, h_grid=[])

    def test_reports_surrogate_gap(self):
        rep = optimize_zone(params(), 0.01)
        assert rep.diagnostics["surrogate_pc_ratio"] > 0.0

    def test_surrogate_ratio_none_when_not_finite(self):
        # The winner carries cs = 9.1e-239: pc_simplified / pc overflows.
        p = NetworkParams(lambda_u=0.0921, lambda_e=1.1223e-3, h=49.6,
                          h_min=49.0, h_max=50.0, theta_c=0.579)
        rep = optimize_zone(p, 0.01)
        assert 0.0 < rep.cs < 1e-200 and rep.d == 80.0
        assert rep.diagnostics["surrogate_pc_ratio"] is None

    def test_zero_capacity_grid_is_infeasible(self):
        # At the best cell (h = 49, rt = 16.6) pc_approx underflows to 0, so
        # no cell carries secrecy capacity: no rate pair is an optimum. A
        # single zero zone radius is the same grid for `optimize_zone`.
        p = NetworkParams(lambda_u=0.0921, lambda_e=1.1223e-3, h=49.6,
                          h_min=49.0, h_max=50.0, theta_c=0.579)
        best = p.with_altitude(49.0)
        rt = optimizer._rt_cells(best, np.array([solve_re(best, 0.01)]),
                                 np.array([best.h]))[0]
        assert analytic.pc_approx(best, 2.0 ** rt - 1.0) == 0.0
        for search in (lambda: optimize_no_zone(p, 0.01),
                       lambda: optimize_zone(p, 0.01, d_grid=[0.0])):
            with pytest.raises(InfeasibleError,
                               match="zero secrecy capacity") as info:
                search()
            assert info.value.achieved_outage == pytest.approx(0.01)

    def test_infeasible_error_type_exists(self):
        err = InfeasibleError("nope", 0.5)
        assert err.achieved_outage == 0.5


# repr((rt, rs, re, h, cs, pso, d)) of `optimize_no_zone` and
# `optimize_zone` at each point of `fig_sweep_params`, epsilon = 0.01.
FIG_REPORTS = [
    ("(19.343147997908055, 0.7169698711569836, 18.62617812675107, 10.0, "
     "1.7333015972845698e-05, 0.010000000000000005, None)",
     "(12.175592660035178, 8.596575506247309, 3.579017153787869, 10.0, "
     "0.004276420799145407, 0.01, 10.0)"),
    ("(18.465754258809618, 0.9717662745498714, 17.493987984259746, 10.0, "
     "6.684253737015385e-05, 0.009999999999999985, None)",
     "(11.976938635058257, 9.209284552648125, 2.767654082410133, 10.0, "
     "0.0057581959801739635, 0.009999999999999985, 10.0)"),
    ("(19.960949756984053, 0.5787786140439444, 19.38217114294011, 10.0, "
     "5.374967725509328e-06, 0.010000000000000012, None)",
     "(12.337559141762782, 8.127315091211342, 4.21024405055144, 10.0, "
     "0.002139678244035153, 0.009999999999999997, 10.0)"),
    ("(20.516003481339975, 0.4774947109154688, 20.038508770424507, 10.0, "
     "1.544108404531702e-06, 0.009999999999999948, None)",
     "(12.495841762615088, 7.693486376590475, 4.802355386024613, 10.0, "
     "0.0002226873473270367, 0.009999999999999998, 10.0)"),
    ("(22.675827780913203, 0.7529417184679872, 21.922886062445215, 10.0, "
     "5.374864755553652e-06, 0.010000000000000009, None)",
     "(15.58357337752766, 8.795327534362574, 6.788245843165085, 10.0, "
     "0.001472745053072356, 0.010000000000000005, 10.0)"),
    ("(16.54241062541649, 0.6308594758097428, 15.911551149606748, 10.0, "
     "4.054296092381241e-05, 0.009999999999999981, None)",
     "(9.258480899769701, 7.875412264153462, 1.3830686356162392, 10.0, "
     "0.0065492979010127045, 0.01, 10.0)"),
    ("(14.085347374921081, 0.44348481621977065, 13.64186255870131, 10.0, "
     "1.7150269411790444e-05, 0.01000000000000002, None)",
     "(6.5139928629387684, 6.116192744845876, 0.39780011809289206, 10.0, "
     "0.002003381249672169, 0.009999999999999997, 10.0)"),
]


@pytest.mark.parametrize("p, expected", zip(fig_sweep_params(), FIG_REPORTS),
                         ids=[f"{p.lambda_u:g}-{p.lambda_e:g}"
                              for p in fig_sweep_params()])
def test_fig_reports_pinned(p, expected):
    # Pinned reports: a change to the screen that moves any reported
    # number by one bit fails here, not only beyond the CSVs' 10 digits.
    got = tuple(repr((r.rt, r.rs, r.re, r.h, r.cs, r.pso, r.d))
                for r in (optimize_no_zone(p, 0.01), optimize_zone(p, 0.01)))
    assert got == expected


def width_allowance(p, d, re):
    """How far the bisection oracle's root re may lie from the exact one
    through the rounding of its LoS-annulus width s2 - s1, a difference of
    rounded numbers (`analytic` forms it without cancellation): four
    roundings of s2 relative to the width (K - d)(K + d) / (s1 + s2) in
    ln(-ln(1 - P_so)), over that function's slope in re at the root. The
    two largest gaps here, 8.6e-12 and 3.6e-12 at cells 1e-3 and 3e-4 of K
    below it, are 0.28 and 0.15 of their allowances."""
    k = p.los_radius
    if re == RE_FLOOR or d >= k:
        return 0.0
    s1, s2 = math.hypot(p.h, d), math.hypot(p.h, k)
    width = (k - d) * (k + d) / (s1 + s2)
    step = 1e-4 * re
    g = [math.log(-math.log1p(-pso_at(p, r, GuardZone(d))))
         for r in (re - step, re + step)]
    return 4.0 * EPS * s2 / width * 2.0 * step / abs(g[1] - g[0])


class TestBlockSearchOracle:
    """The block search against the per-cell scalar loop it replaced, run
    on the bisection oracle."""

    def test_cell_gaps_match_solve_re(self):
        seen = {"slack": 0, "inside_k": 0, "beyond_k": 0, "expanded": 0,
                "infeasible": 0, "infeasible_beyond_k": 0}
        for p, eps, h_grid, d_grid in oracle_configs():
            h = np.repeat(h_grid, d_grid.size)
            d = np.tile(d_grid, h_grid.size)
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                re, achieved = optimizer._solve_re_cells(p, eps, h, d)
            for i in range(h.size):
                ph = p.with_altitude(float(h[i]))
                zone = GuardZone(float(d[i]))
                try:
                    ref = solve_re_bisect(ph, eps, zone)
                except InfeasibleError as exc:
                    assert np.isnan(re[i])
                    assert achieved[i] == pytest.approx(
                        exc.achieved_outage, rel=1e-12)
                    seen["infeasible_beyond_k" if d[i] >= ph.los_radius
                         else "infeasible"] += 1
                    continue
                assert abs(re[i] - ref) <= 2e-12 + width_allowance(
                    ph, float(d[i]), ref)
                assert achieved[i] == np.inf
                if ref == RE_FLOOR:
                    seen["slack"] += 1
                elif ref > RE_CEILING:
                    seen["expanded"] += 1
                elif d[i] >= ph.los_radius:
                    seen["beyond_k"] += 1
                else:
                    seen["inside_k"] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("block", [7, 1024, optimizer._BLOCK_CELLS])
    def test_reports_match_oracle(self, monkeypatch, block):
        monkeypatch.setattr(optimizer, "_BLOCK_CELLS", block)
        infeasible_grids = 0
        for p, eps, h_grid, d_grid in oracle_configs():
            for grid in (d_grid, None):
                ref = outcome(oracle_search, p, eps, h_grid, grid)
                got = (outcome(optimize_zone, p, eps, h_grid, grid)
                       if grid is not None
                       else outcome(optimize_no_zone, p, eps, h_grid))
                if isinstance(ref, float):
                    assert rel_close(got, ref, 1e-12)
                    infeasible_grids += 1
                    continue
                assert_reports_equal(got, ref)
                assert_gap_is_solve_re(got, p, eps)
        assert infeasible_grids > 0

    def test_reports_do_not_depend_on_block_size(self, monkeypatch):
        # how many Newton cells the bound retires depends on the floor each
        # block starts from (their sum does not: TestPruning)
        runs = {}
        for block in (1, 7, 1024, 4096):
            monkeypatch.setattr(optimizer, "_BLOCK_CELLS", block)
            runs[block] = [
                (without_counters(outcome(optimize_zone, p, eps, h_grid,
                                          d_grid)),
                 without_counters(outcome(optimize_no_zone, p, eps, h_grid)))
                for p, eps, h_grid, d_grid in oracle_configs()]
        assert runs[1] == runs[7] == runs[1024] == runs[4096]

    def test_cells_do_not_depend_on_their_block(self):
        # a cell's rate gap and unreachable outage are the same alone as in
        # a block, so the screen's numbers for the winner are `solve_re`'s;
        # every cell of the oracle configs, every 7th of the fig grids (with
        # a BLAS sum over the GL7 nodes, 63 rate gaps and 4 outages differ)
        grids = [(p, eps, h_grid, d_grid, 1)
                 for p, eps, h_grid, d_grid in oracle_configs()] + [
            (p, 0.01, default_h_grid(p), default_d_grid(p), 7)
            for p in fig_sweep_params()]
        for p, eps, h_grid, d_grid, stride in grids:
            h = np.repeat(h_grid, d_grid.size)[::stride]
            d = np.tile(d_grid, h_grid.size)[::stride]
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                re, achieved = optimizer._solve_re_cells(p, eps, h, d)
                alone = []
                for i in range(h.size):
                    one = slice(i, i + 1)
                    re1, achieved1 = optimizer._solve_re_cells(
                        p, eps, h[one], d[one])
                    alone.append((re1[0], achieved1[0]))
            assert np.array_equal(np.array(alone),
                                  np.stack([re, achieved], axis=1),
                                  equal_nan=True)

    @pytest.mark.parametrize("p", fig_sweep_params(),
                             ids=lambda p: f"{p.lambda_u:g}-{p.lambda_e:g}")
    def test_fig_sweeps_match_oracle(self, p):
        h_grid, d_grid = default_h_grid(p), default_d_grid(p)
        for got, ref in ((optimize_zone(p, 0.01),
                          oracle_search(p, 0.01, h_grid, d_grid)),
                         (optimize_no_zone(p, 0.01),
                          oracle_search(p, 0.01, h_grid))):
            assert_reports_equal(got, ref)
            assert_gap_is_solve_re(got, p, 0.01)

    def test_newton_steps_on_fig_grids(self, monkeypatch):
        # a step calls g once on each live cell, and `_solve_re_cells`
        # retires none, so g's calls per cell are the steps it took
        steps = []

        def spy(params, g, q, lo, hi, retire=None):
            assert retire is None
            calls = np.zeros(q.size, dtype=int)

            def counted(q_j, j):
                calls[j] += 1
                return g(q_j, j)

            steps.append(calls)
            return newton(params, counted, q, lo, hi, retire)

        def solve(p, h, d):
            steps.clear()
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                re, achieved = optimizer._solve_re_cells(p, 0.01, h, d)
            assert np.all(achieved == np.inf)
            return re, np.concatenate(steps)

        newton = optimizer._newton_q
        monkeypatch.setattr(optimizer, "_newton_q", spy)
        for p in fig_sweep_params():
            h_grid, d_grid = default_h_grid(p), default_d_grid(p)
            _, n = solve(p, np.repeat(h_grid, d_grid.size),
                         np.tile(d_grid, h_grid.size))
            assert n.size > 1000 and np.median(n) <= 6
            # d == h: the outage is rounding noise in re (FOUND in
            # CHANGES.md), yet each cell must end inside its bracket
            assert np.count_nonzero(
                h_grid < h_grid / math.tan(p.theta_c)) > 30
            re, n = solve(p, h_grid, h_grid)
            assert np.all((RE_FLOOR <= re) & (re <= 2.0 * RE_CEILING))
            assert n.size > 30 and n.max() < optimizer._NEWTON_CAP

    def test_slack_cells_beyond_k(self):
        p = NetworkParams(lambda_u=1e-2, lambda_e=1e-4)
        h = np.array([10.0, 10.0, 30.0, 50.0])
        d = np.array([300.0, 600.0, 1000.0, 1000.0])
        re, _ = optimizer._solve_re_cells(p, 0.1, h, d)
        ref = [solve_re_bisect(p.with_altitude(h[i]), 0.1, GuardZone(d[i]))
               for i in range(h.size)]
        assert np.all(np.abs(re - ref) <= 2e-12)
        assert np.count_nonzero(re == RE_FLOOR) == 2

    def test_cells_match_solve_re_property(self):
        seen = {"slack": 0, "inside_k": 0, "beyond_k": 0}

        # with lambda_u >= 1e-4 the outage at RE_FLOOR is close to 1 on
        # these grids, so slack cells come from lambda_e = 0 (log -inf)
        @settings(max_examples=60, deadline=None)
        @given(st.floats(-4.0, -2.0),
               st.one_of(st.just(-math.inf), st.floats(-4.0, -2.0)),
               st.floats(0.4, 1.2), st.floats(-3.0, math.log10(0.2)),
               st.lists(st.tuples(st.floats(10.0, 50.0), st.floats(0.0, 1.0)),
                        min_size=1, max_size=8))
        def check(log_lu, log_le, theta_c, log_eps, cells):
            p = NetworkParams(lambda_u=10 ** log_lu, lambda_e=10 ** log_le,
                              theta_c=theta_c)
            eps = 10 ** log_eps
            h = np.array([c[0] for c in cells])
            d = np.array([c[1] for c in cells]) * 5.0 / math.sqrt(
                math.pi * (p.lambda_e or 1e-3))
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                re, achieved = optimizer._solve_re_cells(p, eps, h, d)
            for i in range(h.size):
                ph = p.with_altitude(float(h[i]))
                k = ph.los_radius
                if abs(d[i] - k) < 1e-9 * k:
                    continue
                try:
                    ref = solve_re_bisect(ph, eps, GuardZone(float(d[i])))
                except InfeasibleError as exc:
                    assert np.isnan(re[i])
                    assert achieved[i] == pytest.approx(
                        exc.achieved_outage, rel=1e-12)
                    continue
                assert achieved[i] == np.inf
                # within 1% below K both roots are set by the rounding of
                # the LoS-annulus width (FOUND in CHANGES.md)
                if not 0.99 * k < d[i] < k:
                    assert abs(re[i] - ref) <= 2e-12
                seen["slack" if ref == RE_FLOOR else
                     "beyond_k" if d[i] >= k else "inside_k"] += 1

        check()
        assert all(seen.values()), seen

    def test_exact_ties_keep_smallest_zone(self, monkeypatch):
        # without eavesdroppers every zone radius gives the same capacity
        monkeypatch.setattr(optimizer, "_BLOCK_CELLS", 3)
        rep = optimize_zone(params(lambda_e=0.0), 0.01,
                            d_grid=[30.0, 0.0, 10.0, 20.0])
        assert rep.d == 0.0 and rep.h == 10.0

    def test_reports_infeasible_cells(self):
        rep = optimize_zone(params(), 0.01)
        assert rep.diagnostics["infeasible_cells"] == 0
        assert rep.diagnostics["h_grid_size"] == 41
        assert rep.diagnostics["d_grid_size"] == default_d_grid(params()).size

    def test_rejects_grids_outside_the_domain(self):
        with pytest.raises(ValueError):
            optimize_no_zone(params(), 0.01, h_grid=[10.0, 60.0])
        with pytest.raises(ValueError):
            optimize_zone(params(), 0.01, d_grid=[0.0, -1.0])
        with pytest.raises(ValueError):
            optimize_zone(params(), 0.01, d_grid=[0.0, math.nan])


def exhaustive_search(p, eps, h_grid, d_grid=None):
    """The search without pruning: every cell's rate gap from
    `_solve_re_cells`, its rt*, pc and capacity by the capacity formula,
    and the first maximum in altitude-major order kept; d_grid None is the
    no-zone search. Returns the report `_search` builds, without the
    Newton counters, or the outage of the InfeasibleError it raises."""
    h_grid = np.sort(np.asarray(h_grid, dtype=float))
    zoned = d_grid is not None
    d_grid = np.sort(np.asarray(d_grid, dtype=float)) if zoned else np.zeros(1)
    h = np.repeat(h_grid, d_grid.size)
    d = np.tile(d_grid, h_grid.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        re, achieved = optimizer._solve_re_cells(p, eps, h, d)
        ok = ~np.isnan(re)
        if not ok.any():
            return float(achieved.min())
        rt, pc = np.full(h.shape, np.nan), np.full(h.shape, np.nan)
        rt[ok] = optimizer._rt_cells(p, re[ok], h[ok])
        pc[ok] = analytic._pc_cells(p, beta(rt[ok]), h[ok])
        density = p.lambda_u * np.exp(-math.pi * p.lambda_e * d ** 2)
        cs = np.where(ok, (rt - re) * pc * density, -np.inf)
    i = int(np.argmax(cs))
    best = p.with_altitude(float(h[i]))
    zone = GuardZone(float(d[i])) if zoned else None
    pso = analytic.pso_zone_approx(best, beta(float(re[i])), zone)
    if not cs[i] > 0.0:
        return pso
    diagnostics = {"h_grid_size": h_grid.size}
    if zoned:
        diagnostics["d_grid_size"] = d_grid.size
    diagnostics["infeasible_cells"] = int(np.count_nonzero(~ok))
    ratio = analytic.pc_simplified(best, float(rt[i])) / float(pc[i])
    diagnostics["surrogate_pc_ratio"] = ratio if math.isfinite(ratio) else None
    diagnostics["constraint_active"] = float(re[i]) > RE_FLOOR
    return OptimumReport(rt=float(rt[i]), rs=float(rt[i]) - float(re[i]),
                         re=float(re[i]), h=best.h, cs=float(cs[i]), pso=pso,
                         d=zone.d if zoned else None, diagnostics=diagnostics)


def without_counters(rep):
    """A search outcome with the Newton counters taken out of its
    diagnostics."""
    if isinstance(rep, float):
        return rep
    diag = {k: v for k, v in rep.diagnostics.items()
            if k not in ("newton_cells", "retired_cells")}
    return dataclasses.replace(rep, diagnostics=diag)


def bracketed_cells(p, eps, h_grid, d_grid):
    """How many cells of the grid `_bracket_cells` sends to Newton."""
    h = np.repeat(h_grid, d_grid.size)
    d = np.tile(d_grid, h_grid.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        newton = optimizer._bracket_cells(p, eps, h, d)[2]
    return 0 if newton is None else newton[0].size


class TestPruning:
    """The bound-and-prune search against the exhaustive first maximum."""

    def test_reports_match_exhaustive_argmax_property(self, monkeypatch):
        seen = {"retired": 0, "infeasible_cells": 0, "infeasible_grid": 0,
                "no_eavesdroppers": 0, "d_equals_h": 0}

        @settings(max_examples=40, deadline=None)
        @given(st.one_of(st.floats(-4.0, -2.0), st.floats(-9.0, -7.0),
                         st.floats(-13.5, -12.5)),
               st.one_of(st.just(-math.inf), st.floats(-4.0, -2.0)),
               st.one_of(st.just(math.pi / 4.0), st.floats(0.4, 1.2)),
               st.floats(-3.0, math.log10(0.2)),
               st.lists(st.floats(10.0, 50.0), min_size=1, max_size=6),
               st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
        # one example per case the counters below must see
        @example(-3.0, -3.0, math.pi / 4.0, -2.0, [10.0, 20.0, 40.0],
                 [0.0, 0.1, 0.3, 0.6, 1.0])
        @example(-13.0, -2.0, math.pi / 4.0, -3.0, [10.0, 30.0],
                 [0.0, 0.4, 1.0])
        @example(-3.0, -math.inf, 0.7, -2.0, [10.0, 25.0], [0.0, 1.0])
        def check(log_lu, log_le, theta_c, log_eps, hs, ds):
            p = NetworkParams(lambda_u=10 ** log_lu, lambda_e=10 ** log_le,
                              theta_c=theta_c)
            eps = 10 ** log_eps
            h_grid = np.unique(np.round(hs))
            # zone radii out to the slack radii, plus every d == h cell
            d_grid = np.unique(np.concatenate([
                np.array(ds) * 5.0 / math.sqrt(math.pi
                                               * (p.lambda_e or 1e-3)),
                h_grid]))
            for grid in (d_grid, None):
                ref = exhaustive_search(p, eps, h_grid, grid)
                for block in (1, 7, 4096):
                    monkeypatch.setattr(optimizer, "_BLOCK_CELLS", block)
                    got = (outcome(optimize_zone, p, eps, h_grid, grid)
                           if grid is not None
                           else outcome(optimize_no_zone, p, eps, h_grid))
                    assert repr(without_counters(got)) == repr(ref)
                    if isinstance(got, float):
                        seen["infeasible_grid"] += 1
                        continue
                    seen["retired"] += got.diagnostics["retired_cells"]
                    seen["infeasible_cells"] += (
                        got.diagnostics["infeasible_cells"] > 0)
            seen["no_eavesdroppers"] += p.lambda_e == 0.0
            seen["d_equals_h"] += theta_c == math.pi / 4.0

        check()
        assert all(seen.values()), seen

    @pytest.mark.parametrize("block", [1, 7, optimizer._BLOCK_CELLS])
    def test_counters_add_up_to_bracketed_cells(self, monkeypatch, block):
        monkeypatch.setattr(optimizer, "_BLOCK_CELLS", block)
        grids = [(p, 0.01, default_h_grid(p), default_d_grid(p))
                 for p in fig_sweep_params()[:3]] + oracle_configs()
        for p, eps, h_grid, d_grid in grids:
            for rep, grid in ((outcome(optimize_zone, p, eps, h_grid, d_grid),
                               d_grid),
                              (outcome(optimize_no_zone, p, eps, h_grid),
                               np.zeros(1))):
                if isinstance(rep, float):
                    continue
                assert (rep.diagnostics["newton_cells"]
                        + rep.diagnostics["retired_cells"]
                        == bracketed_cells(p, eps, h_grid, grid))

    @pytest.mark.parametrize("p", fig_sweep_params(),
                             ids=lambda p: f"{p.lambda_u:g}-{p.lambda_e:g}")
    def test_most_inside_k_cells_retired_on_fig_grids(self, p):
        h_grid, d_grid = default_h_grid(p), default_d_grid(p)
        inside_k = np.count_nonzero(
            np.tile(d_grid, h_grid.size)
            < np.repeat(h_grid / math.tan(p.theta_c), d_grid.size))
        rep = optimize_zone(p, 0.01)
        assert inside_k > 1000
        assert rep.diagnostics["retired_cells"] >= 0.9 * inside_k
        assert rep.diagnostics["newton_cells"] >= 1
