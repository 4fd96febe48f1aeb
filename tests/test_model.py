import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import gains as gains_both_branches
from oracles import pathloss as pathloss_expr

from uavsec.analytic import pc_approx
from uavsec.model import (
    AllRayleigh,
    ExactLoSNLoS,
    GuardZone,
    NetworkParams,
    connection_window_radius,
    gains,
    los_radius,
    outage_window_radius,
    pathloss,
    rng_stream,
    rule_window_radius,
    sample_ppp,
)
from uavsec.montecarlo import SimConfig, sim_outage


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["lambda_u", "lambda_e", "h", "theta_c",
                                     "h_max", "eta_los"])
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


# Scalar oracle of the channel: one link at a time, explicit positions and
# fades, its own D^-alpha arithmetic. `model.gains` must agree with it.

def link_gain(r, h, p, model, fading_draw=1.0):
    """eta*S*D^-alpha for a link of horizontal span r (ties to NLoS)."""
    d2 = r * r + h * h
    if r < los_radius(h, p.theta_c):
        s = fading_draw if model.los_faded else 1.0
        return p.eta_los * s * d2 ** (-p.alpha_los / 2.0)
    return p.eta_nlos * fading_draw * d2 ** (-p.alpha_nlos / 2.0)


def sir(p, model, interferers, fades, at=(0.0, 0.0), sig_fade=1.0):
    """SIR at ground position `at` from the transmitter above the origin:
    the typical receiver by default, an eavesdropper elsewhere; +inf
    without interferers."""
    x0, y0 = at
    signal = link_gain(math.hypot(x0, y0), p.h, p, model, sig_fade)
    interference = sum(
        link_gain(math.hypot(x - x0, y - y0), p.h, p, model, f)
        for (x, y), f in zip(interferers, fades))
    return signal / interference if interference else math.inf


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


class TestSir:
    def test_no_interferers_infinite(self):
        p = params()
        assert sir(p, ExactLoSNLoS, [], []) == math.inf
        assert sir(p, ExactLoSNLoS, [], [], at=(30.0, 0.0)) == math.inf

    def test_single_nlos_interferer(self):
        p = params()
        draw = 0.7
        expected = (p.eta_los * 10.0 ** -2) / \
            (p.eta_nlos * draw * (30.0 ** 2 + 100.0) ** -2)
        assert sir(p, ExactLoSNLoS, [(30.0, 0.0)], [draw]) == \
            pytest.approx(expected)

    def test_eta_cancels_for_nlos_pair(self):
        # eavesdropper outside K, one NLoS interferer, unit draws
        p = params()
        d0e2 = 25.0 ** 2 + 100.0
        due2 = 40.0 ** 2 + 25.0 ** 2 + 100.0
        assert sir(p, ExactLoSNLoS, [(40.0, 0.0)], [1.0],
                   at=(0.0, 25.0)) == pytest.approx(d0e2 ** -2 / due2 ** -2,
                                                    rel=1e-12)

    def test_realization_sampling_deterministic(self):
        # the per-index interferer stream of the semi-analytic evaluators
        a = sample_ppp(1e-3, 0.0, 300.0, rng_stream(6, 2))
        b = sample_ppp(1e-3, 0.0, 300.0, rng_stream(6, 2))
        assert np.array_equal(a, b)
        c = sample_ppp(1e-3, 0.0, 300.0, rng_stream(6, 3))
        assert not np.array_equal(a, c)

    def test_zone_restricts_eavesdroppers(self):
        # at beta_e = 0 an outage happens iff an eavesdropper lies in the
        # sampled annulus [d, R) (about 0.54 here, 0.76 without the zone)
        p = params(lambda_u=1e-4, lambda_e=5e-6)
        est = sim_outage(p, 0.0, GuardZone(200.0), SimConfig(20_000, 300.0,
                                                              seed=1))
        expected = -math.expm1(-p.lambda_e * math.pi
                               * (300.0 ** 2 - 200.0 ** 2))
        assert abs(est.value - expected) <= 3 * est.half_width


class TestGainsMatchOracle:
    """`model.gains` plus `np.bincount`, as the simulator sums them, against
    the scalar oracle on identical positions and fades."""

    @staticmethod
    def layouts(k):
        # (interferers, receivers): hand-placed LoS and NLoS links with
        # interferers exactly at r = K from the typical receiver and from
        # the eavesdropper at (0, 25), then random layouts
        yield (np.array([[k, 0.0], [3.0, -4.0], [60.0, 20.0], [k, 25.0]]),
               np.array([[0.0, 0.0], [0.0, 25.0], [5.0, 5.0],
                         [-80.0, 10.0]]))
        rng = np.random.default_rng(11)
        for n_u, n_rx in ((1, 2), (7, 5), (25, 10), (0, 3)):
            yield (rng.uniform(-150.0, 150.0, (n_u, 2)),
                   rng.uniform(-100.0, 100.0, (n_rx, 2)))

    @pytest.mark.parametrize("model", [ExactLoSNLoS, AllRayleigh])
    def test_sirs_match(self, model):
        p = params()
        rng = np.random.default_rng(12)
        for u, rx in self.layouts(p.los_radius):
            n_u, n_rx = len(u), len(rx)
            fades = rng.standard_exponential((n_rx, n_u))
            sig_fades = rng.standard_exponential(n_rx)
            pair_rx = np.repeat(np.arange(n_rx), n_u)
            d = u[np.tile(np.arange(n_u), n_rx)] - rx[pair_rx]
            horiz2 = d[:, 0] ** 2 + d[:, 1] ** 2
            interference = np.bincount(
                pair_rx, weights=gains(p, model, horiz2, fades.ravel()),
                minlength=n_rx)
            r2 = rx[:, 0] ** 2 + rx[:, 1] ** 2
            signal = gains(p, model, r2, sig_fades)
            for j in range(n_rx):
                want = sir(p, model, u, fades[j], rx[j], sig_fades[j])
                got = (signal[j] / interference[j] if interference[j]
                       else math.inf)
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("model", [ExactLoSNLoS, AllRayleigh])
    def test_equals_both_branch_evaluation(self, model):
        # LoS only at the LoS links changes no bit of a simulator block
        rng = np.random.default_rng(13)
        for p in (params(), params(h=40.0, alpha_los=2.5, alpha_nlos=3.0)):
            k = p.los_radius
            for n in (0, 1, 1000, 1 << 16):
                horiz2 = (rng.uniform(0.0, 3.0 * k, n) ** 2
                          if n != 1 else np.array([k * k]))   # tie: NLoS
                fades = rng.standard_exponential(n)
                want = gains_both_branches(p, model, horiz2 + p.h ** 2,
                                           horiz2, fades)
                got = gains(p, model, horiz2, fades)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 4.5])
    def test_pathloss_in_place(self, alpha):
        d2 = np.random.default_rng(14).uniform(1.0, 1e5, 999)
        out = np.empty_like(d2)
        assert pathloss(d2, alpha, out=out) is out
        assert np.array_equal(out, pathloss_expr(d2, alpha))
        assert np.array_equal(pathloss(d2, alpha), out)


class TestWindowPolicies:
    def test_rule_radius_tail_bound(self):
        p = params()
        r = rule_window_radius(p)
        k2, h2 = p.los_radius ** 2, p.h ** 2
        ratio = (k2 + h2) / (r * r + h2)
        assert ratio <= 1e-3 * (1 + 1e-9)

    def test_connection_window_bounds(self):
        p = params()
        w = connection_window_radius(p, 31.0, 100_000)
        assert max(3 * p.los_radius, 60.0) <= w <= rule_window_radius(p)

    def test_connection_window_above_floor_meets_bias_budget(self):
        # Above its floor the window is the radius where the truncation
        # bias P_c pi lambda_u c / (R^2 + H^2) is 5% of the half-width.
        p = params(lambda_u=1e-2)
        n = 10 ** 8
        w = connection_window_radius(p, 31.0, n)
        assert w == pytest.approx(150.4, abs=0.05)
        pc = pc_approx(p, 31.0)
        hw = 1.96 * math.sqrt(pc * (1.0 - pc) / n)
        c = 31.0 * p.eta_nlos * p.h ** 2 / p.eta_los
        bias = math.pi * p.lambda_u * c * pc / (w * w + p.h ** 2)
        assert bias == pytest.approx(0.05 * hw, rel=1e-12)

    def test_connection_window_capped_at_tail_radius(self):
        p = params(lambda_u=1e-2)
        assert connection_window_radius(p, 31.0, 10 ** 12) == \
            rule_window_radius(p) == pytest.approx(447.3, abs=0.05)

    def test_outage_window_grows_with_small_thresholds(self):
        p = params()
        small = outage_window_radius(p, 4.0)
        big = outage_window_radius(p, 1e-4)
        assert big > small


def test_params_are_immutable():
    p = params()
    with pytest.raises(Exception):
        p.lambda_u = 5.0
