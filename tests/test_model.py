import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavsec.model import (
    AllRayleigh,
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
    Realization,
    WiretapCode,
    connection_window_radius,
    default_window_radius,
    link_gain,
    los_radius,
    outage_window_radius,
    rule_window_radius,
    sample_ppp,
    sir_eavesdropper,
    sir_legitimate,
)


def params(**kw):
    base = dict(lambda_u=1e-3, lambda_e=1e-3, h=10.0)
    base.update(kw)
    return NetworkParams(**base)


class TestLosRadius:
    def test_quarter_pi(self):
        assert los_radius(10.0, math.pi / 4) == pytest.approx(10.0)

    def test_third_pi(self):
        assert los_radius(10.0, math.pi / 3) == pytest.approx(10 / math.sqrt(3))

    def test_steep_angle_shrinks_disk(self):
        assert los_radius(10.0, math.pi / 2 - 1e-9) < 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            los_radius(-1.0, math.pi / 4)
        with pytest.raises(ValueError):
            los_radius(10.0, math.pi / 2)

    @given(st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=0.05, max_value=1.52))
    def test_los_iff_elevation_above_threshold(self, r, h, theta_c):
        elevation = math.asin(h / math.hypot(r, h))
        k = los_radius(h, theta_c)
        if not math.isclose(r, k, rel_tol=1e-9):
            assert (elevation > theta_c) == (r < k)


class TestDomainTypes:
    def test_network_params_validation(self):
        with pytest.raises(ValueError):
            params(lambda_u=-1.0)
        with pytest.raises(ValueError):
            params(h=5.0)            # below h_min
        with pytest.raises(ValueError):
            params(eta_nlos=2.0)     # exceeds eta_los

    def test_wiretap_code(self):
        code = WiretapCode(rt=5.0, rs=4.0)
        assert code.re == pytest.approx(1.0)
        assert code.beta_t == pytest.approx(31.0)
        assert code.beta_e == pytest.approx(1.0)
        assert WiretapCode.from_gap(5.0, 1.0) == code
        with pytest.raises(ValueError):
            WiretapCode(rt=1.0, rs=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["lambda_u", "lambda_e", "h", "theta_c",
                                     "h_max", "eta_los", "p_t"])
    def test_non_finite_params_rejected(self, key, bad):
        with pytest.raises(ValueError):
            params(**{key: bad})

    def test_guard_zone(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                GuardZone(bad)

    def test_altitude_override(self):
        p = params().with_altitude(25.0)
        assert p.h == 25.0
        assert p.lambda_u == 1e-3


class TestSamplePpp:
    def test_zero_density(self):
        rng = np.random.default_rng(0)
        assert sample_ppp(0.0, 0.0, 100.0, rng).shape == (0, 2)

    def test_mean_count(self):
        rng = np.random.default_rng(1)
        mean = 1e-3 * math.pi * 500.0 ** 2
        counts = [len(sample_ppp(1e-3, 0.0, 500.0, rng))
                  for _ in range(10_000)]
        se = math.sqrt(mean / 10_000)
        assert abs(np.mean(counts) - mean) <= 3 * se

    def test_variance_matches_mean(self):
        rng = np.random.default_rng(2)
        counts = np.array([len(sample_ppp(1e-3, 0.0, 500.0, rng))
                           for _ in range(10_000)])
        assert abs(np.var(counts) / np.mean(counts) - 1.0) <= 0.05

    def test_thin_annulus(self):
        rng = np.random.default_rng(3)
        pts = sample_ppp(1e-3, 500.0, 500.0, rng)
        assert pts.shape == (0, 2)

    def test_points_inside_annulus(self):
        rng = np.random.default_rng(4)
        pts = sample_ppp(5e-3, 50.0, 200.0, rng)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(r >= 50.0) and np.all(r < 200.0)


class TestLinkGain:
    def test_overhead_los(self):
        p = params()
        assert link_gain(0.0, 10.0, p, ExactLoSNLoS) == pytest.approx(0.01)

    def test_nlos_direct(self):
        p = params(eta_los=1.0, eta_nlos=1.0)
        k = p.los_radius
        got = link_gain(2 * k, 10.0, p, ExactLoSNLoS, fading_draw=1.0)
        assert got == pytest.approx((4 * k * k + 100.0) ** -2, rel=1e-12)
        assert got == pytest.approx(4e-6, rel=1e-9)

    def test_boundary_goes_nlos(self):
        p = params()
        k = p.los_radius
        got = link_gain(k, 10.0, p, ExactLoSNLoS, fading_draw=1.0)
        assert got == pytest.approx(p.eta_nlos * (k * k + 100.0) ** -2)

    def test_los_ignores_draw_under_exact_model(self):
        p = params()
        assert link_gain(1.0, 10.0, p, ExactLoSNLoS, fading_draw=7.0) == \
            link_gain(1.0, 10.0, p, ExactLoSNLoS, fading_draw=0.1)

    def test_los_faded_under_rayleigh(self):
        p = params()
        assert link_gain(1.0, 10.0, p, AllRayleigh, fading_draw=2.0) == \
            pytest.approx(2.0 * link_gain(1.0, 10.0, p, ExactLoSNLoS))


def fixed_fading(real, value=1.0):
    """Force every lazily-drawn fading coefficient to `value`."""
    class _Ones(dict):
        def get(self, key, default=None):
            return value
    real._fading = _Ones()


class TestSir:
    def test_no_interferers_infinite(self):
        real = Realization(interferers=np.empty((0, 2)),
                           eavesdroppers=np.array([[30.0, 0.0]]))
        p = params()
        assert sir_legitimate(real, p) == math.inf
        assert sir_eavesdropper(real, 0, p) == math.inf

    def test_single_nlos_interferer(self):
        p = params()
        real = Realization(interferers=np.array([[30.0, 0.0]]),
                           eavesdroppers=np.empty((0, 2)))
        draw = real.fading(1, 0)
        expected = (p.eta_los * 10.0 ** -2) / \
            (p.eta_nlos * draw * (30.0 ** 2 + 100.0) ** -2)
        assert sir_legitimate(real, p, ExactLoSNLoS) == pytest.approx(expected)

    def test_eta_cancels_for_nlos_pair(self):
        # eavesdropper outside K, one NLoS interferer, unit draws
        p = params()
        real = Realization(interferers=np.array([[40.0, 0.0]]),
                           eavesdroppers=np.array([[0.0, 25.0]]))
        fixed_fading(real)
        d0e2 = 25.0 ** 2 + 100.0
        due2 = 40.0 ** 2 + 25.0 ** 2 + 100.0
        assert sir_eavesdropper(real, 0, p) == pytest.approx(
            d0e2 ** -2 / due2 ** -2, rel=1e-12)

    def test_transmit_power_cancels(self):
        real = Realization(interferers=np.array([[15.0, 5.0], [80.0, 2.0]]),
                           eavesdroppers=np.array([[12.0, -3.0]]), seed=5)
        vals = []
        for p_t in (0.1, 1.0, 10.0):
            p = params(p_t=p_t)
            vals.append((sir_legitimate(real, p, ExactLoSNLoS),
                         sir_eavesdropper(real, 0, p, AllRayleigh)))
        assert vals[0] == vals[1] == vals[2]

    def test_rayleigh_signal_draw_unit_mean(self):
        draws = np.array([Realization(np.empty((0, 2)), np.empty((0, 2)),
                                      seed=9, index=i).fading(0)
                          for i in range(100_000)])
        se = float(np.std(draws)) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) <= 3 * se

    def test_fading_shared_between_models(self):
        real = Realization(interferers=np.array([[30.0, 0.0]]),
                           eavesdroppers=np.empty((0, 2)), seed=3)
        a = real.fading(1, 0)
        b = real.fading(1, 0)
        assert a == b  # cached, model-independent key

    def test_realization_sampling_deterministic(self):
        p = params()
        a = Realization.sample(p, 300.0, seed=6, index=2)
        b = Realization.sample(p, 300.0, seed=6, index=2)
        assert np.array_equal(a.interferers, b.interferers)
        assert np.array_equal(a.eavesdroppers, b.eavesdroppers)
        c = Realization.sample(p, 300.0, seed=6, index=3)
        assert not np.array_equal(a.interferers, c.interferers)

    def test_zone_restricts_eavesdroppers(self):
        p = params(lambda_e=5e-3)
        real = Realization.sample(p, 300.0, seed=1, zone=GuardZone(50.0))
        r = np.hypot(real.eavesdroppers[:, 0], real.eavesdroppers[:, 1])
        assert np.all(r >= 50.0)


class TestWindowPolicies:
    def test_rule_radius_tail_bound(self):
        p = params()
        r = rule_window_radius(p)
        k2, h2 = p.los_radius ** 2, p.h ** 2
        ratio = (k2 + h2) / (r * r + h2)
        assert ratio <= 1e-3 * (1 + 1e-9)

    def test_default_is_conservative(self):
        p = params()
        assert default_window_radius(p) >= max(2000.0, rule_window_radius(p))

    def test_connection_window_bounds(self):
        p = params()
        w = connection_window_radius(p, 31.0, 100_000)
        assert max(3 * p.los_radius, 60.0) <= w <= rule_window_radius(p)

    def test_outage_window_grows_with_small_thresholds(self):
        p = params()
        small = outage_window_radius(p, 4.0)
        big = outage_window_radius(p, 1e-4)
        assert big > small


def test_params_are_immutable():
    p = params()
    with pytest.raises(Exception):
        p.lambda_u = 5.0
