import math

import numpy as np
import pytest

from uavsec import analytic
from uavsec.model import (
    AllRayleigh,
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
    WiretapCode,
    gains,
)
from uavsec.montecarlo import (
    SimConfig,
    _binary_estimate,
    sim_connection,
    sim_outage,
    sim_stc,
)


def params(**kw):
    base = dict(lambda_u=1e-3, lambda_e=1e-3, h=10.0)
    base.update(kw)
    return NetworkParams(**base)


class TestConnectionSim:
    def test_no_interference(self):
        est = sim_connection(params(lambda_u=0.0), 31.0,
                             SimConfig(5000, 100.0, seed=1))
        assert est.value == 1.0
        assert est.method == "monte-carlo"

    def test_deterministic(self):
        cfg = SimConfig(20_000, seed=3, model=AllRayleigh)
        a = sim_connection(params(), 31.0, cfg)
        b = sim_connection(params(), 31.0, cfg)
        assert a == b

    def test_seed_changes_estimate(self):
        a = sim_connection(params(), 31.0, SimConfig(20_000, seed=3))
        b = sim_connection(params(), 31.0, SimConfig(20_000, seed=4))
        assert a.value != b.value

    def test_matches_closed_form_under_rayleigh(self):
        p = params()
        est = sim_connection(p, 31.0, SimConfig(100_000, seed=12,
                                                model=AllRayleigh))
        assert abs(est.value - analytic.pc_approx(p, 31.0)) <= est.half_width

    def test_halfwidth_scaling(self):
        p = params()
        small = sim_connection(p, 31.0, SimConfig(25_000, seed=5))
        big = sim_connection(p, 31.0, SimConfig(100_000, seed=5))
        ratio = small.half_width / big.half_width
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_truncation_audit(self):
        # doubling the policy window moves the estimate by less than one
        # half-width
        p = params()
        from uavsec.model import connection_window_radius
        w = connection_window_radius(p, 31.0, 100_000)
        a = sim_connection(p, 31.0, SimConfig(100_000, w, seed=8))
        b = sim_connection(p, 31.0, SimConfig(100_000, 2 * w, seed=8))
        assert abs(a.value - b.value) < a.half_width

    def test_window_must_exceed_los_radius(self):
        with pytest.raises(ValueError):
            sim_connection(params(), 31.0, SimConfig(100, 5.0))


class TestOutageSim:
    def test_no_eavesdroppers(self):
        est = sim_outage(params(lambda_e=0.0), 1.0, None,
                         SimConfig(5000, seed=1))
        assert est.value == 0.0

    def test_zero_threshold_outage_iff_eavesdropper_present(self):
        p = params(lambda_e=3e-4)
        cfg = SimConfig(20_000, 80.0, seed=2)
        est = sim_outage(p, 0.0, None, cfg)
        expected = -math.expm1(-p.lambda_e * math.pi * 80.0 ** 2)
        assert abs(est.value - expected) <= 3 * est.half_width

    def test_deterministic(self):
        cfg = SimConfig(10_000, seed=6)
        a = sim_outage(params(), 1.0, None, cfg)
        b = sim_outage(params(), 1.0, None, cfg)
        assert a == b

    def test_zone_lowers_outage(self):
        p = params(lambda_e=3e-4)
        a = sim_outage(p, 1.0, None, SimConfig(30_000, seed=7))
        b = sim_outage(p, 1.0, GuardZone(15.0), SimConfig(30_000, seed=7))
        assert b.value < a.value

    def test_matches_closed_form_in_small_regime(self):
        p = params(lambda_e=1e-4)
        est = sim_outage(p, 1.0, None, SimConfig(100_000, seed=7))
        assert est.value <= 0.1
        assert abs(est.value - analytic.pso_approx(p, 1.0)) <= 0.02

    def test_zone_matches_closed_form(self):
        p = params(lambda_e=1e-4)
        zone = GuardZone(20.0)
        est = sim_outage(p, 1.0, zone, SimConfig(100_000, seed=7))
        assert abs(est.value - analytic.pso_zone_approx(p, 1.0, zone)) <= 0.02

    def test_zone_swallowing_window_still_runs(self):
        p = params(lambda_e=1e-3)
        est = sim_outage(p, 1.0, GuardZone(150.0), SimConfig(2000, seed=3))
        assert 0.0 <= est.value <= 0.05


class TestStcSim:
    def test_zero_secrecy_rate(self):
        code = WiretapCode(rt=5.0, rs=0.0)
        est = sim_stc(params(), code, None, SimConfig(2000, seed=1))
        assert est.value == 0.0

    def test_zero_radius_zone_equals_no_zone(self):
        code = WiretapCode(rt=5.0, rs=4.0)
        cfg = SimConfig(20_000, seed=9)
        a = sim_stc(params(), code, None, cfg)
        b = sim_stc(params(), code, GuardZone(0.0), cfg)
        assert a == b

    def test_matches_composed_closed_form(self):
        p = params()
        code = WiretapCode(rt=5.0, rs=4.0)
        zone = GuardZone(20.0)
        est = sim_stc(p, code, zone, SimConfig(100_000, seed=10,
                                               model=AllRayleigh))
        ref = analytic.stc(
            code.rs, analytic.pc_approx(p, code.beta_t),
            analytic.effective_density(p.lambda_u, p.lambda_e, zone))
        assert abs(est.value - ref) <= est.half_width


class TestEstimateHelpers:
    def test_wilson_fallback_near_zero(self):
        est = _binary_estimate(0, 100_000)
        assert est.value == 0.0
        assert est.half_width > 0.0
        # Wilson stays wider than the degenerate normal interval
        assert est.half_width > 1.96 * math.sqrt(0.0 / 100_000)

    def test_normal_interval_midrange(self):
        est = _binary_estimate(50_000, 100_000)
        assert est.half_width == pytest.approx(
            1.96 * math.sqrt(0.25 / 100_000), rel=1e-3)

    def test_nlos_draws_shared_between_models(self):
        p = params()
        rng = np.random.default_rng(0)
        horiz2 = rng.uniform(0.0, 200.0 ** 2, 500)
        fades = rng.standard_exponential(500)
        g_exact = gains(p, ExactLoSNLoS, horiz2 + 100.0, horiz2, fades)
        g_ray = gains(p, AllRayleigh, horiz2 + 100.0, horiz2, fades)
        nlos = horiz2 >= p.los_radius ** 2
        assert np.array_equal(g_exact[nlos], g_ray[nlos])
        los = ~nlos
        assert np.allclose(g_ray[los], g_exact[los] * fades[los])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(0)
        for bad in (math.nan, math.inf, -5.0, 0.0):
            with pytest.raises(ValueError):
                SimConfig(100, window_radius=bad)
