"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live).

Tolerances are fixed here, not tuned: closed forms are judged against the
seeded Monte Carlo ground truth at n = 1e5, derivations against quadrature
of their integral forms, and the optimizer against exhaustive grid oracles.
"""

import math

import numpy as np
import pytest
from oracles import estimates_agree, pc_radial, pso_radial, solve_re_bisect

from uavsec import analytic, optimizer
from uavsec.analytic import (
    pc_approx,
    pc_exact,
    pso_approx,
    pso_exact,
    pso_zone_approx,
)
from uavsec.mathkit import hypoexp_cdf, lambert_w0
from uavsec.model import (
    AllRayleigh,
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
    connection_window_radius,
)
from uavsec.montecarlo import SimConfig, sim_connection, sim_outage

BETA_T = 2.0 ** 5 - 1.0          # codeword rate 5 bps/Hz
BETA_E = 2.0 ** 1 - 1.0          # rate gap 1 bps/Hz
LAMBDA_U_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
LAMBDA_E_SWEEP = (3e-5, 1e-4, 3e-4, 1e-3, 3e-3)
N_MC = 100_000


def fig_params(lambda_u=1e-3, lambda_e=1e-3, h=10.0):
    return NetworkParams(lambda_u=lambda_u, lambda_e=lambda_e, h=h,
                         theta_c=math.pi / 4)


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: "
          f"{'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_rayleigh_model_exactness():
    hits = 0
    details = []
    for h in (10.0, 20.0):
        for lu in LAMBDA_U_GRID:
            p = fig_params(lambda_u=lu, h=h)
            w = connection_window_radius(p, BETA_T, N_MC)
            est = sim_connection(p, BETA_T, SimConfig(N_MC, w, seed=42,
                                                      model=AllRayleigh))
            cf = pc_approx(p, BETA_T)
            ok = abs(est.value - cf) <= est.half_width
            hits += ok
            details.append(f"{lu:g}/{h:g}:{'+' if ok else '-'}")
    report(1, "Rayleigh-model exactness (>=9/10 within halfwidth)",
           hits >= 9, f"{hits}/10 [{' '.join(details)}]")


def test_criterion_02_los_nlos_approximation_quality():
    worst = 0.0
    for h in (10.0, 20.0):
        for lu in LAMBDA_U_GRID:
            p = fig_params(lambda_u=lu, h=h)
            w = connection_window_radius(p, BETA_T, N_MC)
            est = sim_connection(p, BETA_T, SimConfig(N_MC, w, seed=42,
                                                      model=ExactLoSNLoS))
            worst = max(worst, abs(est.value - pc_approx(p, BETA_T)))
    report(2, "LoS/NLoS approximation quality (<=0.03 absolute)",
           worst <= 0.03, f"worst |gap| = {worst:.4f}")


def test_criterion_03_outage_approximation_regime():
    worst = 0.0
    in_regime = 0
    for le in LAMBDA_E_SWEEP:
        p = fig_params(lambda_e=le)
        est = sim_outage(p, BETA_E, None, SimConfig(N_MC, seed=7,
                                                    model=ExactLoSNLoS))
        if est.value <= 0.1:
            in_regime += 1
            worst = max(worst, abs(est.value - pso_approx(p, BETA_E)))
    report(3, "outage approximation, small-outage regime (<=0.02)",
           worst <= 0.02 and in_regime >= 2,
           f"worst |gap| = {worst:.4f} over {in_regime} in-regime points")


def test_criterion_04_zone_outage():
    worst = 0.0
    in_regime = 0
    for d in (10.0, 20.0):
        zone = GuardZone(d)
        for le in LAMBDA_E_SWEEP:
            p = fig_params(lambda_e=le)
            est = sim_outage(p, BETA_E, zone, SimConfig(N_MC, seed=11,
                                                        model=ExactLoSNLoS))
            if est.value <= 0.1:
                in_regime += 1
                worst = max(worst,
                            abs(est.value - pso_zone_approx(p, BETA_E, zone)))
    p = fig_params()
    k = p.los_radius
    jump = abs(pso_zone_approx(p, BETA_E, GuardZone(k * (1 - 1e-13)))
               - pso_zone_approx(p, BETA_E, GuardZone(k)))
    report(4, "zone outage (<=0.02 in regime; branch continuity <=1e-9)",
           worst <= 0.02 and in_regime >= 4 and jump <= 1e-9,
           f"worst |gap| = {worst:.4f} over {in_regime} points; "
           f"|jump at K| = {jump:.2e}")


def test_criterion_05_semianalytic_evaluators():
    spots = [
        ("no zone, H=10", fig_params(h=10.0), None),
        ("zone d=15<K, H=20", fig_params(h=20.0), GuardZone(15.0)),
        ("zone d=20>=K, H=10", fig_params(h=10.0), GuardZone(20.0)),
    ]
    window = 200.0
    all_ok = True
    notes = []
    for name, p, zone in spots:
        sim_cfg = SimConfig(20_000, window, seed=9, model=ExactLoSNLoS)
        conn_exact = pc_exact(p, BETA_T, n_realizations=200, window=window,
                              seed=3)
        conn_sim = sim_connection(p, BETA_T, sim_cfg)
        out_exact = pso_exact(p, BETA_E, zone, n_realizations=200,
                              window=window, seed=3)
        out_sim = sim_outage(p, BETA_E, zone, sim_cfg)
        ok = (estimates_agree(conn_exact, conn_sim)
              and estimates_agree(out_exact, out_sim))
        all_ok = all_ok and ok
        notes.append(
            f"{name}: pc {conn_exact.value:.3f}~{conn_sim.value:.3f}, "
            f"pso {out_exact.value:.3f}~{out_sim.value:.3f} "
            f"{'ok' if ok else 'MISS'}")
    report(5, "semi-analytic evaluators vs simulator (combined 95% intervals)",
           all_ok, "; ".join(notes))


def test_criterion_06_derivation_cross_checks():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        p = NetworkParams(lambda_u=10 ** rng.uniform(-4, -2),
                          lambda_e=10 ** rng.uniform(-4, -2),
                          h=rng.uniform(10.0, 50.0),
                          theta_c=rng.uniform(0.3, 1.2))
        bt = 10 ** rng.uniform(0.0, 4.0)
        be = 10 ** rng.uniform(-1.0, 2.0)
        pc_cf, pc_ref = pc_approx(p, bt), pc_radial(p, bt)
        worst = max(worst, abs(pc_cf - pc_ref) / max(pc_ref, 1e-300))
        so_cf, so_ref = pso_approx(p, be), pso_radial(p, be)
        worst = max(worst, abs(so_cf - so_ref) / max(so_ref, 1e-300))
        for frac in (rng.uniform(0.05, 0.95), rng.uniform(1.05, 3.0)):
            zone = GuardZone(frac * p.los_radius)
            z_cf = pso_zone_approx(p, be, zone)
            z_ref = pso_radial(p, be, zone.d)
            worst = max(worst, abs(z_cf - z_ref) / max(z_ref, 1e-300))
    report(6, "closed forms match radial-integral derivations (<=1e-6 rel)",
           worst <= 1e-6, f"worst relative gap = {worst:.2e}")


def test_criterion_07_optimizer_correctness():
    rng = np.random.default_rng(77)
    worst_rt = 0.0
    for _ in range(20):
        p = NetworkParams(lambda_u=10 ** rng.uniform(-4, -2), lambda_e=1e-3,
                          h=rng.uniform(10.0, 50.0))
        re = rng.uniform(0.0, 6.0)
        rt = optimizer.rt_star(p, re)
        grid = re + np.arange(0.0, 30.0, 1e-3)
        surrogate = (grid - re) * np.exp(
            -(math.pi / 2) * p.lambda_u * p.h
            * (math.sqrt(p.eta_nlos / p.eta_los) * math.pi
               * 2.0 ** (grid / 2.0) - 2.0 * p.h))
        worst_rt = max(worst_rt, abs(rt - grid[int(np.argmax(surrogate))]))

    worst_re = 0.0
    for _ in range(20):
        p = NetworkParams(lambda_u=10 ** rng.uniform(-4, -2),
                          lambda_e=10 ** rng.uniform(-4, -2),
                          h=rng.uniform(10.0, 50.0),
                          theta_c=rng.uniform(0.4, 1.2))
        zone = GuardZone(p.los_radius * rng.uniform(1.0, 4.0))
        eps = 10 ** rng.uniform(-3, -0.7)
        worst_re = max(worst_re, abs(optimizer.re_closed_zone(p, eps, zone)
                                     - solve_re_bisect(p, eps, zone)))

    worst_eq = 0.0
    for zone in (None, GuardZone(12.0), GuardZone(25.0)):
        p = fig_params()
        re = optimizer.solve_re(p, 0.01, zone)
        be = 2.0 ** re - 1.0
        pso = (pso_zone_approx(p, be, zone) if zone else pso_approx(p, be))
        worst_eq = max(worst_eq, abs(pso - 0.01))

    report(7, "optimizer correctness (argmax 1e-3; closed form 1e-6; "
              "equality 1e-6)",
           worst_rt <= 1e-3 and worst_re <= 1e-6 and worst_eq <= 1e-6,
           f"rt gap {worst_rt:.1e}, re gap {worst_re:.1e}, "
           f"equality gap {worst_eq:.1e}")


def test_criterion_08_qualitative_reproductions():
    le_sweep = (3e-5, 1e-4, 3e-4, 1e-3, 1e-2)
    lu_sweep = (1e-4, 3e-4, 1e-3, 3e-3)   # monotone range; peaks near 4e-3
    cs_z, cs_nz, d_star = [], [], []
    dominance = True
    for le in le_sweep:
        p = fig_params(lambda_e=le)
        a = optimizer.optimize_no_zone(p, 0.01)
        b = optimizer.optimize_zone(p, 0.01)
        cs_nz.append(a.cs)
        cs_z.append(b.cs)
        d_star.append(b.d)
        dominance = dominance and b.cs >= a.cs
    le_ok = (all(y <= x for x, y in zip(cs_z, cs_z[1:]))
             and all(y <= x for x, y in zip(cs_nz, cs_nz[1:]))
             and all(y <= x for x, y in zip(d_star, d_star[1:])))

    cs_zu, cs_nzu, d_star_u = [], [], []
    for lu in lu_sweep:
        p = fig_params(lambda_u=lu)
        a = optimizer.optimize_no_zone(p, 0.01)
        b = optimizer.optimize_zone(p, 0.01)
        cs_nzu.append(a.cs)
        cs_zu.append(b.cs)
        d_star_u.append(b.d)
        dominance = dominance and b.cs >= a.cs
    lu_ok = (all(y >= x for x, y in zip(cs_zu, cs_zu[1:]))
             and all(y >= x for x, y in zip(cs_nzu, cs_nzu[1:]))
             and all(y <= x for x, y in zip(d_star_u, d_star_u[1:])))

    h_ok = (optimizer.optimize_no_zone(fig_params(), 0.01).h == 10.0
            and optimizer.optimize_zone(fig_params(), 0.01).h == 10.0)
    report(8, "optimized trends (capacity/zone monotonicity, dominance, "
              "lowest altitude)",
           le_ok and lu_ok and dominance and h_ok,
           f"d*(lambda_e) = {d_star}, cs_z(lambda_e) dec {le_ok}, "
           f"cs(lambda_u) inc {lu_ok}, zone>=no-zone {dominance}, "
           f"h*=h_min {h_ok}")


def test_criterion_09_large_zone_limit():
    p = fig_params()
    d_max = optimizer.default_d_grid(p)[-1]
    ds = np.arange(0.0, d_max + 0.5, 1.0)
    res = [optimizer.solve_re(p, 0.01, GuardZone(float(d))) for d in ds]
    rts = np.array([optimizer.rt_star(p, re) for re in res])
    rss = np.array([optimizer.rs_star(p, re) for re in res])
    lim = optimizer.large_zone_limit(p)[0]

    rs_mono = bool(np.all(np.diff(rss) >= -1e-12))
    # valley-unimodal: nonincreasing then nondecreasing (either phase may be
    # empty; with the corrected codeword-rate formula the sequence is in
    # fact nonincreasing throughout)
    drops = np.diff(rts) < -1e-12
    valley_ok = not np.any(drops[np.argmin(rts):]) if len(rts) > 1 else True
    rises = np.diff(rts) > 1e-12
    unimodal = not np.any(rises[:int(np.argmin(rts))]) and valley_ok

    rel_rt = abs(rts[-1] - lim) / lim
    rel_rs = abs(rss[-1] - lim) / lim
    cs_end = analytic.stc(
        rss[-1], pc_approx(p, 2.0 ** rts[-1] - 1.0),
        analytic.effective_density(p.lambda_u, p.lambda_e,
                                   GuardZone(float(ds[-1]))))
    re_big = optimizer.solve_re(p, 0.01, GuardZone(250.0))
    big_ok = (re_big < 1e-3
              and abs(optimizer.rt_star(p, re_big) - lim) < 1e-2
              and abs(optimizer.rs_star(p, re_big) - lim) < 1e-2)
    report(9, "large-zone limit (monotone rates, 1e-2 rel convergence, "
              "vanishing capacity)",
           rs_mono and unimodal and rel_rt <= 1e-2 and rel_rs <= 1e-2
           and cs_end <= 1e-9 and big_ok,
           f"rel gaps rt {rel_rt:.1e} rs {rel_rs:.1e}; cs(D_max) = "
           f"{cs_end:.1e}; re(250m) = {re_big:.1e}")


def test_criterion_10_kernel_oracles():
    rng = np.random.default_rng(5)
    worst_z = 0.0
    for case in range(10):
        n = int(rng.integers(1, 5))
        rates = 10 ** rng.uniform(-0.5, 1.0, size=n)
        y = float(np.sum(1.0 / rates) * rng.uniform(0.3, 2.5))
        total = np.zeros(10_000_000)
        for lam in rates:
            total += rng.standard_exponential(10_000_000) / lam
        mc = float(np.mean(total < y))
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / 10_000_000)
        z = abs(hypoexp_cdf(rates, y) - mc) / se
        worst_z = max(worst_z, z)

    worst_rt = 0.0
    for w in np.linspace(-1.0, 20.0, 1000):
        worst_rt = max(worst_rt, abs(lambert_w0(w * math.exp(w)) - w))
    report(10, "kernel oracles (hypoexp MC 3 SE; Lambert roundtrip 1e-10)",
           worst_z <= 3.0 and worst_rt <= 1e-10,
           f"hypoexp worst z = {worst_z:.2f}, roundtrip worst = "
           f"{worst_rt:.1e}")
