import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ExceedanceField, pc_radial, pso_radial

from uavsec import analytic, model
from uavsec.analytic import (
    MetricEstimate,
    effective_density,
    pc_approx,
    pc_exact,
    pc_simplified,
    pso_approx,
    pso_exact,
    pso_zone_approx,
    stc,
)
from uavsec.model import GuardZone, NetworkParams


def params(**kw):
    base = dict(lambda_u=1e-3, lambda_e=1e-3, h=10.0)
    base.update(kw)
    return NetworkParams(**base)


def random_params(rng):
    return NetworkParams(
        lambda_u=10 ** rng.uniform(-4, -2),
        lambda_e=10 ** rng.uniform(-4, -2),
        h=rng.uniform(10.0, 50.0),
        theta_c=rng.uniform(0.3, 1.2),
        h_min=10.0, h_max=50.0)


class TestConnectionClosedForm:
    def test_zero_threshold(self):
        assert pc_approx(params(), 0.0) == 1.0

    def test_no_interferers(self):
        assert pc_approx(params(lambda_u=0.0), 31.0) == 1.0

    def test_monotone_in_threshold(self):
        p = params()
        vals = [pc_approx(p, bt) for bt in np.linspace(0.0, 200.0, 50)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_los_radius(self):
        # K grows as theta_c falls; wider LoS disks mean stronger interference
        thetas = np.linspace(1.4, 0.3, 50)
        vals = [pc_approx(params(theta_c=t), 31.0) for t in thetas]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_radial_integral(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_params(rng)
            bt = 10 ** rng.uniform(0.0, 4.0)
            a = pc_approx(p, bt)
            assert a == pytest.approx(pc_radial(p, bt), rel=1e-8)

    def test_requires_canonical_exponents(self):
        p = params(alpha_nlos=3.0)
        with pytest.raises(ValueError):
            pc_approx(p, 31.0)


class TestOutageClosedForm:
    def test_no_eavesdroppers(self):
        assert pso_approx(params(lambda_e=0.0), 1.0) == 0.0

    def test_huge_threshold(self):
        assert pso_approx(params(), 1e12) < 1e-10

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            pso_approx(params(), 0.0)

    def test_monotone_in_threshold(self):
        p = params()
        vals = [pso_approx(p, be) for be in 10 ** np.linspace(-2, 3, 50)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_radial_integral(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_params(rng)
            be = 10 ** rng.uniform(-1.0, 2.0)
            assert pso_approx(p, be) == pytest.approx(pso_radial(p, be),
                                                      rel=1e-6)

    def test_no_interference_means_certain_outage(self):
        assert pso_approx(params(lambda_u=0.0), 1.0) == 1.0


class TestZoneOutage:
    def test_zero_radius_reduces_exactly(self):
        p = params()
        assert pso_zone_approx(p, 1.0, GuardZone(0.0)) == pso_approx(p, 1.0)

    def test_branch_continuity_at_los_radius(self):
        for h in (10.0, 20.0, 35.0):
            p = params(h=h)
            k = p.los_radius
            below = pso_zone_approx(p, 1.0, GuardZone(k * (1 - 1e-12)))
            above = pso_zone_approx(p, 1.0, GuardZone(k))
            assert abs(below - above) <= 1e-9

    def test_no_eavesdroppers(self):
        assert pso_zone_approx(params(lambda_e=0.0), 1.0, GuardZone(5.0)) == 0.0

    def test_monotone_in_zone_radius(self):
        p = params()
        vals = [pso_zone_approx(p, 1.0, GuardZone(d))
                for d in np.linspace(0.0, 60.0, 80)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_radial_integral_below_k(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = random_params(rng)
            be = 10 ** rng.uniform(-1.0, 2.0)
            d = rng.uniform(0.0, 0.95) * p.los_radius
            assert pso_zone_approx(p, be, GuardZone(d)) == pytest.approx(
                pso_radial(p, be, d), rel=1e-6)

    def test_matches_radial_integral_above_k(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_params(rng)
            be = 10 ** rng.uniform(-1.0, 2.0)
            d = p.los_radius * rng.uniform(1.0, 3.0)
            assert pso_zone_approx(p, be, GuardZone(d)) == pytest.approx(
                pso_radial(p, be, d), rel=1e-6)


class TestSurrogateConnection:
    def test_no_interferers(self):
        assert pc_simplified(params(lambda_u=0.0), 5.0) == 1.0

    def test_exponent_root_gives_one(self):
        # altitude chosen so the two exponent terms cancel
        rt = 8.0
        h = math.pi * 0.1 * 2 ** (rt / 2.0) / 2.0
        p = params(h=h, h_min=1.0, h_max=100.0)
        assert pc_simplified(p, rt) == pytest.approx(1.0, rel=1e-12)

    def test_agrees_with_full_form_deep_in_regime(self):
        # the small-angle step needs beta_t >> (eta_los/eta_nlos)(H^2+K^2)^2/H^2,
        # i.e. rt >= ~18 at the default gain ratio; at rt = 5 the surrogate
        # overshoots by ~80% and is useful only for the argmax.
        p = params()
        for rt in (18.0, 20.0, 22.0, 24.0):
            full = pc_approx(p, 2.0 ** rt - 1.0)
            assert pc_simplified(p, rt) == pytest.approx(full, rel=0.05)
        assert pc_simplified(p, 5.0) / pc_approx(p, 31.0) > 1.5


class TestDensityAndCapacity:
    def test_effective_density_degenerate(self):
        assert effective_density(1e-3, 1e-3, GuardZone(0.0)) == 1e-3
        assert effective_density(1e-3, 0.0, GuardZone(20.0)) == 1e-3
        assert effective_density(1e-3, 1e-3, None) == 1e-3

    def test_effective_density_value(self):
        got = effective_density(1e-3, 1e-3, GuardZone(20.0))
        ref = float(mpmath.mpf("1e-3") * mpmath.exp(-mpmath.pi * mpmath.mpf("0.4")))
        assert got == pytest.approx(ref, rel=1e-12)
        assert got == pytest.approx(2.846e-4, rel=1e-3)

    def test_stc_zeros_and_product(self):
        assert stc(0.0, 0.5, 1e-3) == 0.0
        assert stc(1.0, 1.0, 1e-3) == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            stc(-1.0, 0.5, 1e-3)

    def test_stc_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rs, pc, lam = rng.uniform(0.1, 5), rng.uniform(0.1, 1), \
                rng.uniform(1e-4, 1e-2)
            assert stc(rs * 1.1, pc, lam) >= stc(rs, pc, lam)
            assert stc(rs, min(pc * 1.1, 1.0), lam) >= stc(rs, pc, lam)

    def test_q1_cache(self):
        q = model.q1(params(), 4.0)
        assert type(q) is float
        assert q == pytest.approx(1e-3 * math.pi ** 2)
        betas = np.array([0.5, 4.0, 1e6])
        assert model.q1(params(), betas).tolist() == [
            model.q1(params(), b) for b in betas.tolist()]

    def test_metric_estimate_validation(self):
        for value, hw in ((0.5, -0.1), (math.nan, math.nan), (math.nan, 0.0),
                          (0.5, math.nan), (math.inf, 0.0), (0.5, math.inf)):
            with pytest.raises(ValueError):
                MetricEstimate(value, half_width=hw)
        a = MetricEstimate(0.50, half_width=0.02)
        b = MetricEstimate(0.53, half_width=0.025)
        assert a.agrees_with(b)
        assert not a.agrees_with(MetricEstimate(0.60, half_width=0.01))


# pi lambda_u H^2 = 711.5 here, past exp's float range once the LoS-disk
# term is reached: the outage forms must saturate at 1, not raise.
OVERFLOW = dict(lambda_u=0.09206, lambda_e=1.1223e-3, h=49.598,
                theta_c=0.5790, h_min=10.0, h_max=50.0)


class TestOverflowSaturation:
    def test_direct_disk_term(self):
        p = NetworkParams(**OVERFLOW)
        assert pso_approx(p, 0.1445) == 1.0
        assert pso_zone_approx(p, 0.1445, GuardZone(5.0)) == 1.0

    def test_quadrature_disk_term(self):
        # a zone just inside K leaves a narrow annulus, the GL7 branch
        p = NetworkParams(**OVERFLOW)
        zone = GuardZone(p.los_radius * (1.0 - 1e-9))
        assert pso_zone_approx(p, 0.1445, zone) == 1.0

    def test_array_disk_term(self):
        # the optimizer's per-cell form saturates by itself too, with no
        # overflow or inf - inf under the suite's RuntimeWarning filter
        p = NetworkParams(**OVERFLOW)
        got = analytic._pso_zone_cells(p, np.full(3, 0.1445),
                                       np.full(3, p.h),
                                       np.array([0.0, 10.0, 5 * p.h]))
        assert got.tolist() == [
            pso_approx(p, 0.1445), pso_zone_approx(p, 0.1445, GuardZone(10.0)),
            pso_zone_approx(p, 0.1445, GuardZone(5 * p.h))]
        assert got[:2].tolist() == [1.0, 1.0]


density = st.floats(-8.0, -1.0).map(lambda x: 10.0 ** x)


@settings(max_examples=300, deadline=None)
@given(lambda_u=density, lambda_e=density,
       h=st.floats(1.0, 100.0),
       theta_c=st.one_of(st.floats(1e-6, 0.05),
                         st.floats(math.pi / 2 - 0.05, math.pi / 2,
                                   exclude_max=True)),
       beta=st.floats(-6.0, 6.0).map(lambda x: 10.0 ** x),
       d_kind=st.sampled_from(("zero", "K", "random")),
       frac=st.floats(0.0, 3.0))
@example(lambda_u=0.09206, lambda_e=1.1223e-3, h=49.598, theta_c=0.5790,
         beta=0.1445, d_kind="zero", frac=0.0)
@example(lambda_u=0.0921, lambda_e=1.1223e-3, h=49.0, theta_c=0.579,
         beta=97837.72254080574, d_kind="K", frac=0.0)
def test_closed_forms_are_probabilities_at_extremes(
        lambda_u, lambda_e, h, theta_c, beta, d_kind, frac):
    p = NetworkParams(lambda_u=lambda_u, lambda_e=lambda_e, h=h,
                      theta_c=theta_c, h_min=h, h_max=h)
    d = {"zero": 0.0, "K": p.los_radius,
         "random": frac * p.los_radius}[d_kind]
    for v in (pc_approx(p, beta), pso_approx(p, beta),
              pso_zone_approx(p, beta, GuardZone(d))):
        assert type(v) is float and 0.0 <= v <= 1.0, v


def connection_value(p, beta_t, pts):
    """The conditional kernel as `pc_exact` evaluates it: the typical
    receiver at the origin."""
    origin = np.zeros(1)
    return analytic._exceedance(p, beta_t, pts, origin, origin, origin,
                                analytic._scratch(1, len(pts)))[0]


def ring_mean(p, beta, pts, rs, n_angles):
    """The conditional kernel averaged over `n_angles` equally spaced
    angles on the ring of each radius in `rs`, with the points built as
    `pso_exact`'s integrand builds them."""
    phis = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    vals = analytic._exceedance(
        p, beta, pts, (rs[:, None] * np.cos(phis)).reshape(-1),
        (rs[:, None] * np.sin(phis)).reshape(-1),
        np.repeat(rs * rs, n_angles),
        analytic._scratch(rs.size * n_angles, len(pts)))
    return np.mean(vals.reshape(rs.size, n_angles), axis=1)


class TestConditionalConnectionValue:
    def test_empty_configuration(self):
        assert connection_value(params(), 31.0, np.empty((0, 2))) == 1.0

    def test_los_interferer_dominates(self):
        # any LoS interferer exceeds the threshold margin at these scales
        v = connection_value(params(), 31.0, np.array([[5.0, 0.0]]))
        assert v == 0.0

    def test_pure_nlos_matches_single_exponential(self):
        p = params()
        pts = np.array([[50.0, 0.0]])
        y = p.eta_los / (31.0 * p.h ** 2)
        rate = (50.0 ** 2 + p.h ** 2) ** 2 / p.eta_nlos
        assert connection_value(p, 31.0, pts) == pytest.approx(
            -math.expm1(-rate * y), rel=1e-12)

    def test_zero_threshold(self):
        # the guard keeps the kernel's margin S/beta_t from dividing by zero
        p = params(lambda_u=1.0)
        est = pc_exact(p, 0.0, n_realizations=4, window=10.0, seed=0)
        assert est.value == 1.0 and est.half_width == 0.0


class TestExactEvaluators:
    def test_pc_exact_no_interference(self):
        est = pc_exact(params(lambda_u=0.0), 31.0, n_realizations=10,
                       window=200.0, seed=0)
        assert est.value == 1.0
        assert est.method == "semi-analytic"

    def test_pc_exact_deterministic(self):
        p = params()
        a = pc_exact(p, 31.0, n_realizations=50, window=200.0, seed=5)
        b = pc_exact(p, 31.0, n_realizations=50, window=200.0, seed=5)
        assert a == b

    def test_pso_exact_no_eavesdroppers(self):
        est = pso_exact(params(lambda_e=0.0), 1.0, n_realizations=5,
                        window=150.0, seed=0)
        assert est.value == 0.0

    def test_pso_exact_empty_interferers(self):
        # with no interference every eavesdropper decodes, so the outage is
        # governed purely by the eavesdropper count in the window
        p = params(lambda_u=0.0, lambda_e=1e-3)
        est = pso_exact(p, 1.0, None, n_realizations=3, window=150.0, seed=1)
        expected = -math.expm1(-1e-3 * math.pi * 150.0 ** 2)
        assert est.value == pytest.approx(expected, rel=1e-4)

    def test_pso_exact_zone_reduces_outage(self):
        p = params()
        a = pso_exact(p, 1.0, None, n_realizations=8, window=150.0, seed=2)
        b = pso_exact(p, 1.0, GuardZone(25.0), n_realizations=8,
                      window=150.0, seed=2)
        assert b.value < a.value

    def test_pso_exact_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pso_exact(params(), 0.0, None, n_realizations=1)
        with pytest.raises(ValueError):
            pso_exact(params(), 1.0, GuardZone(300.0), window=200.0)

    @pytest.mark.parametrize("lambda_u", [1e-3, 1e-2])
    @pytest.mark.parametrize("h, d", [(10.0, 20.0), (20.0, 15.0)])
    def test_pso_exact_memory_bounded(self, lambda_u, h, d):
        # A realization holds one block of pairs: the kernel's two float
        # buffers and its mask (17 bytes a pair) and, on the LoS-disk
        # branch, the open rows' gathered temporaries (about 41 more).
        # Whole-batch geometry peaked at 5.7 MiB at lambda_u = 1e-3 and
        # 40 MiB at 1e-2.
        tracemalloc.start()
        try:
            pso_exact(params(lambda_u=lambda_u, h=h), 1.0, GuardZone(d),
                      n_realizations=1, window=200.0, seed=0, tol=1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * model.BLOCK_LINKS

    def test_disk_field_screens_match_direct_evaluation(self):
        # the Chernoff screens must only shortcut values that the full
        # signed-mixture evaluation reproduces to the screening tolerance
        from uavsec import mathkit
        p = params()
        rng = np.random.default_rng(14)
        pts = np.column_stack([rng.uniform(-150, 150, 80),
                               rng.uniform(-150, 150, 80)])
        rs = np.array([1.0, 4.0, 7.5, 9.5])
        fast = ring_mean(p, 1.0, pts, rs, 16)
        k2, h2 = p.los_radius ** 2, p.h ** 2
        slow = []
        for r in rs:
            vals = []
            for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
                ex, ey = r * math.cos(phi), r * math.sin(phi)
                horiz2 = (pts[:, 0] - ex) ** 2 + (pts[:, 1] - ey) ** 2
                los = horiz2 < k2
                d2 = horiz2 + h2
                i_los = float(np.sum(p.eta_los / d2[los]))
                y = p.eta_los / (r * r + h2) / 1.0 - i_los
                if y <= 0:
                    vals.append(0.0)
                elif np.count_nonzero(~los) == 0:
                    vals.append(1.0)
                else:
                    vals.append(mathkit.hypoexp_cdf(
                        d2[~los] ** 2 / p.eta_nlos, y))
            slow.append(np.mean(vals))
        np.testing.assert_allclose(fast, slow, atol=1e-8)


def _field_config(i):
    """Seeded configuration i of the kernel oracle test: network, threshold,
    interferers, angle count and 15 radii on one side of K."""
    rng = np.random.default_rng(7000 + i)
    alphas = [(2.0, 4.0)] * 5 + [(2.5, 3.0)]
    a_los, a_nlos = alphas[i % 6]
    p = NetworkParams(lambda_u=1e-3, lambda_e=1e-3,
                      h=rng.uniform(10.0, 50.0),
                      theta_c=rng.uniform(0.4, 1.2),
                      eta_nlos=10.0 ** rng.uniform(-3.0, 0.0),
                      alpha_los=a_los, alpha_nlos=a_nlos, h_max=50.0)
    k = p.los_radius
    kind = i % 8
    # Radii inside K run the hypoexponential mixture, O(n^2) per position
    # and in mpmath when the rates crowd: keep those sets small.
    disk = kind == 6 or (kind != 7 and rng.random() < 0.5)
    if kind == 0:
        n, reach = 0, 1.0
    elif kind == 1:
        n, reach = 1, rng.uniform(0.5, 3.0) * k
    elif kind == 6:                 # crowded LoS disk
        n, reach = int(rng.integers(20, 60)), rng.uniform(1.2, 2.5) * k
    elif kind == 7:                 # one radius per block at 64 angles
        n, reach = int(rng.integers(1100, 1300)), 200.0
    else:
        n = int(rng.integers(2, 40 if disk else 150))
        reach = rng.uniform(2.0, 6.0) * k
    r = reach * np.sqrt(rng.random(n))
    phi = rng.random(n) * 2.0 * math.pi
    pts = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
    n_angles = 64 if (i // 8) % 2 or kind == 7 else 1
    lo, hi = (0.0, k) if disk else (k, k + rng.uniform(1.0, 4.0) * k)
    rs = np.sort(rng.uniform(lo, hi, 15))
    beta = 10.0 ** rng.uniform(-1.5, 1.5)
    if kind == 6:
        # Threshold that leaves a margin of the order of the mean NLoS
        # interference after several LoS interferers, at the first radius:
        # LoS sums of three or more terms then reach the mixture.
        d2 = (pts[:, 0] - rs[0]) ** 2 + pts[:, 1] ** 2 + p.h ** 2
        los = d2 - p.h ** 2 < k * k
        i_los = np.sum(p.eta_los / d2[los])
        i_nlos = np.sum(p.eta_nlos / d2[~los] ** (p.alpha_nlos / 2.0))
        beta = (p.eta_los / (rs[0] ** 2 + p.h ** 2)
                / (i_los + i_nlos * rng.uniform(0.3, 3.0)))
    return p, beta, pts, n_angles, rs


class TestKernelOracle:
    """The point-wise exceedance kernel, in blocks, against the whole-batch
    radius x angle kernel it replaced (`oracles.ExceedanceField`): equal
    bit for bit."""

    N_CONFIGS = 240

    def test_field_matches_whole_batch_kernel(self, monkeypatch):
        from uavsec import mathkit
        calls = []
        cdf = mathkit.hypoexp_cdf
        monkeypatch.setattr(mathkit, "hypoexp_cdf",
                            lambda *a: calls.append(1) or cdf(*a))
        seen = set()
        for i in range(self.N_CONFIGS):
            p, beta, pts, n_angles, rs = _field_config(i)
            want = ExceedanceField(p, beta, pts, n_angles).mean_over_angles(rs)
            whole = 15 * n_angles * max(len(pts), 1)     # one block
            for budget in (model.BLOCK_LINKS, 1, whole):
                monkeypatch.setattr(analytic, "BLOCK_LINKS", budget)
                assert np.array_equal(
                    ring_mean(p, beta, pts, rs, n_angles), want), (i, budget)
            per_block = max(1, model.BLOCK_LINKS // max(len(pts), 1))
            seen.add(("blocks", min(-(-15 * n_angles // per_block), 2)))
            seen |= {("pts", min(len(pts), 2)), ("angles", n_angles)}
            horiz2 = (pts[:, 0] - rs[:, None]) ** 2 + pts[:, 1] ** 2
            if rs[0] >= p.los_radius and (horiz2 < p.los_radius ** 2).any():
                seen.add("los pairs in the product form")
        assert {("pts", 0), ("pts", 1), ("pts", 2), ("angles", 1),
                ("angles", 64), ("blocks", 1), ("blocks", 2),
                "los pairs in the product form"} <= seen
        assert len(calls) > 100         # disk rows that reach the mixture

    # Thresholds of 1e5 and more leave margins of the order of the NLoS
    # interference, so most realizations reach the mixture; 31 is the
    # benchmark's, decided by the screens.
    @pytest.mark.parametrize("lambda_u, h, beta", [
        (1e-4, 10.0, 1e6), (1e-3, 10.0, 31.0), (1e-3, 10.0, 1e5),
        (1e-3, 20.0, 1e5), (1e-2, 20.0, 31.0)])
    def test_pc_exact_matches_field_at_origin(self, lambda_u, h, beta):
        p = params(lambda_u=lambda_u, h=h)
        vals = []
        for i in range(60):
            pts = model.sample_ppp(p.lambda_u, 0.0, 200.0,
                                   model.rng_stream(4, i))
            vals.append(ExceedanceField(p, beta, pts, 1).mean_over_angles(
                np.zeros(1))[0])
        est = pc_exact(p, beta, n_realizations=60, window=200.0, seed=4)
        assert est.value == float(np.mean(vals))
        assert est.half_width == 1.96 * float(np.std(vals, ddof=1)) \
            / math.sqrt(60)
