import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (ExceedanceField, chernoff_exponents, disk_rows,
                     estimates_agree, pc_radial, pso_form, pso_radial,
                     solve_re_bisect)

from uavsec import analytic, model, montecarlo, optimizer
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

    def test_subnormal_threshold_is_zero_limit(self):
        # beta_t * eta_N / eta_L underflows to 0: the arctan term's ratio
        # is inf, and the value is the beta_t -> 0 limit, not an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pc_approx(params(), 5e-324) == 1.0


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

    @pytest.mark.parametrize("density", [math.nan, math.inf, -1.0])
    def test_effective_density_rejects_bad_transmitter_density(self,
                                                                density):
        # with no zone the density was returned as given, NaN included
        with pytest.raises(ValueError, match="^effective_density: lambda_u"):
            effective_density(density, 1e-3, None)

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
        for bad in ((1.0, math.nan, 1e-3), (1.0, 0.5, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                stc(*bad)

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
        assert estimates_agree(a, b)
        assert not estimates_agree(a, MetricEstimate(0.60, half_width=0.01))


EPS = np.finfo(float).eps

# pi lambda_u H^2 = 711.5 here, past exp's float range once the LoS-disk
# term is reached: the outage forms must saturate at 1, not raise.
OVERFLOW = dict(lambda_u=0.09206, lambda_e=1.1223e-3, h=49.598,
                theta_c=0.5790, h_min=10.0, h_max=50.0)


class TestOverflowSaturation:
    def test_direct_disk_term(self):
        # wide annuli: the disk term's closed antiderivative
        p = NetworkParams(**OVERFLOW)
        assert pso_approx(p, 0.1445) == 1.0
        assert pso_zone_approx(p, 0.1445, GuardZone(5.0)) == 1.0

    def test_quadrature_disk_term(self):
        # a zone just inside K leaves a narrow annulus: the disk term's
        # GL7 quadrature
        p = NetworkParams(**OVERFLOW)
        zone = GuardZone(p.los_radius * (1.0 - 1e-9))
        assert pso_zone_approx(p, 0.1445, zone) == 1.0

    def test_array_disk_term(self):
        # the optimizer's log-outage reads the same cell brace over arrays
        # and saturates too: `solve_re` gives the bisection oracle's gap or
        # raises with its outage, with no overflow or inf - inf escaping its
        # errstate
        p = NetworkParams(**OVERFLOW)
        for d in (0.0, 10.0, 5 * p.h):
            zone = GuardZone(d)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = optimizer.solve_re(p, 0.01, zone)
                except optimizer.InfeasibleError as exc:
                    got = exc
            try:
                ref = solve_re_bisect(p, 0.01, zone)
            except optimizer.InfeasibleError as exc:
                assert got.achieved_outage == pytest.approx(
                    exc.achieved_outage, rel=1e-12)
                continue
            assert abs(got - ref) <= 2e-12


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
    assert_matches_form(pso_approx(p, beta), p, beta, 0.0)
    assert_matches_form(pso_zone_approx(p, beta, GuardZone(d)), p, beta, d)


def assert_matches_form(got, p, beta, d):
    """`got`, the closed-form outage at zone radius d, matches the scalar
    reference `oracles.pso_form` to 1e-12 relative (1e-300 absolute) and
    lies in its class: 0, interior or 1.

    Inside the LoS disk both forms take the annulus width as s2 - s1, a
    difference of rounded numbers, and round them differently (k**2
    against k*k). So the tolerance adds four roundings of s2 relative to
    the width (K - d)(K + d) / (s1 + s2); the largest gap seen over 90,000
    draws was 0.82 of that allowance. Where it leaves the class open (a
    width near rounding level), the class is not compared."""
    ref = pso_form(p, beta, d)
    k = p.los_radius
    s1, s2 = math.hypot(p.h, d), math.hypot(p.h, k)
    width = (k - d) * (k + d) / (s1 + s2)
    rel = 1e-12 + (4.0 * EPS * s2 / width if d < k else 0.0)
    assert got == pytest.approx(ref, rel=rel, abs=1e-300)
    if rel < 1e-9:
        assert (got == 0.0, got == 1.0) == (ref == 0.0, ref == 1.0)


def test_closed_forms_match_reference_form():
    # in-range draws at d = 0, just inside K, at K and beyond, the
    # lambda_e = 0 and lambda_u = 0 returns, and saturation at 1
    rng = np.random.default_rng(16)
    for _ in range(500):
        h = rng.uniform(10.0, 50.0)
        p = NetworkParams(lambda_u=10 ** rng.uniform(-4, -2),
                          lambda_e=10 ** rng.uniform(-5, -2), h=h,
                          theta_c=rng.uniform(0.4, 1.2), h_min=h, h_max=h)
        beta = 2.0 ** rng.uniform(0.05, 12.0) - 1.0
        k = p.los_radius
        assert_matches_form(pso_approx(p, beta), p, beta, 0.0)
        for d in (0.0, k * (1.0 - 1e-9), k, rng.uniform(0.0, 3.0 * k)):
            assert_matches_form(pso_zone_approx(p, beta, GuardZone(d)), p,
                                beta, d)
    for p, beta in ((params(lambda_e=0.0), 1.0), (params(lambda_u=0.0), 1.0),
                    (NetworkParams(**OVERFLOW), 0.1445)):
        k = p.los_radius
        assert_matches_form(pso_approx(p, beta), p, beta, 0.0)
        for d in (5.0, k * (1.0 - 1e-9), k, 2.0 * k):
            assert_matches_form(pso_zone_approx(p, beta, GuardZone(d)), p,
                                beta, d)


# Every public evaluator of a threshold or a rate: the argument's name,
# and the call at argument value b.
EVALUATORS = {
    "pc_approx": ("beta_t", lambda b: pc_approx(params(), b)),
    "pso_approx": ("beta_e", lambda b: pso_approx(params(), b)),
    "pso_zone_approx": ("beta_e", lambda b: pso_zone_approx(
        params(), b, GuardZone(5.0))),
    "pc_exact": ("beta_t", lambda b: pc_exact(params(), b,
                                              n_realizations=2)),
    "pso_exact": ("beta_e", lambda b: pso_exact(params(), b,
                                                n_realizations=2)),
    "sim_connection": ("beta_t", lambda b: montecarlo.sim_connection(
        params(), b, montecarlo.SimConfig(16))),
    "sim_outage": ("beta_e", lambda b: montecarlo.sim_outage(
        params(), b, None, montecarlo.SimConfig(16))),
    "pc_simplified": ("rt", lambda b: pc_simplified(params(), b)),
    "stc": ("rs", lambda b: stc(b, 0.5, 1e-3)),
    "effective_density": ("lambda_e", lambda b: effective_density(
        1e-3, b, GuardZone(5.0))),
    "rt_star": ("re_star", lambda b: optimizer.rt_star(params(), b)),
    "rs_star": ("re_star", lambda b: optimizer.rs_star(params(), b)),
}


@pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluators_reject_out_of_domain_thresholds(monkeypatch, name, beta):
    # rejected by the function's own check of that argument, before any
    # draw: a drawn stream fails the test
    def no_draw(*args):
        raise AssertionError("drew a random stream")
    for module in (analytic, montecarlo):
        monkeypatch.setattr(module, "rng_stream", no_draw)
    arg, call = EVALUATORS[name]
    with pytest.raises(ValueError, match=f"^{name}: {arg}"):
        call(beta)


# The semi-analytic evaluators at window radius w (no zone: the zone check
# would reject w <= 0 if it ran first).
WINDOWED = {
    "pc_exact": lambda w: pc_exact(params(), 31.0, n_realizations=2,
                                   window=w),
    "pso_exact": lambda w: pso_exact(params(), 1.0, n_realizations=2,
                                     window=w),
}


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -5.0])
@pytest.mark.parametrize("name", sorted(WINDOWED))
def test_evaluators_reject_bad_windows(monkeypatch, name, window):
    def no_draw(*args):
        raise AssertionError("drew a random stream")
    monkeypatch.setattr(analytic, "rng_stream", no_draw)
    with pytest.raises(ValueError, match=f"^{name}: window"):
        WINDOWED[name](window)


def connection_value(p, beta_t, pts):
    """The conditional kernel at the typical receiver, the origin: the ring
    of radius 0 at one angle."""
    origin = np.zeros(1)
    table = analytic._ring_table(pts, np.ones(1), origin)
    return analytic._exceedance(p, beta_t, table, origin,
                                analytic._scratch(1, len(pts)))[0, 0]


def ring_mean(p, beta, pts, rs, n_angles):
    """The conditional kernel averaged over `n_angles` equally spaced
    angles on the ring of each radius in `rs`, as `pso_exact`'s integrand
    evaluates it."""
    phis = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    table = analytic._ring_table(pts, np.cos(phis), np.sin(phis))
    vals = analytic._exceedance(
        p, beta, table, rs, analytic._scratch(rs.size * n_angles, len(pts)))
    return np.mean(vals, axis=1)


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

    def test_pso_exact_tail_bound_needs_canonical_exponents(self):
        # one realization has no sampling half-width, so the half-width is
        # the truncation bound alone: the closed-form outage beyond the
        # window with exponents (2, 4), and none with other exponents
        beyond = pso_zone_approx(params(), 1.0, GuardZone(60.0))
        assert beyond > 0.0
        for p, tail in ((params(), beyond),
                        (params(alpha_los=2.5, alpha_nlos=3.5), 0.0)):
            est = pso_exact(p, 1.0, None, n_realizations=1, window=60.0,
                            seed=4, tol=1e-3)
            assert 0.0 < est.value < 1.0
            assert est.half_width == tail

    def test_pso_exact_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pso_exact(params(), 0.0, None, n_realizations=1)
        with pytest.raises(ValueError, match="^pso_exact: guard-zone"):
            pso_exact(params(), 1.0, GuardZone(300.0), window=200.0)

    @pytest.mark.parametrize("lambda_u", [1e-3, 1e-2])
    @pytest.mark.parametrize("h, d", [(10.0, 20.0), (20.0, 15.0),
                                      (10.0, None)])
    def test_pso_exact_memory_bounded(self, lambda_u, h, d):
        # A realization holds its ring table (64 angles x n interferers,
        # 8 bytes each), one block of pairs (two float buffers and a mask,
        # 17 bytes a pair), the few LoS-disk rows that the log-free screen
        # leaves to the log1p ones, and one block of the hypoexponential
        # weight tables. Measured peaks: 1.2-2.0 MiB at lambda_u = 1e-3,
        # 1.8 MiB at the zone spots and 2.4 MiB without a zone at 1e-2.
        # Whole-batch geometry peaked at 5.7 MiB at 1e-3 and 40 MiB at
        # 1e-2; whole weight tables at 40.6 MiB without a zone at 1e-2.
        zone = GuardZone(d) if d is not None else None
        tracemalloc.start()
        try:
            pso_exact(params(lambda_u=lambda_u, h=h), 1.0, zone,
                      n_realizations=1, window=200.0, seed=0, tol=1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * model.BLOCK_LINKS

    # pso_exact at the benchmark's three spots before the ring table: its
    # span rounds differently at r > 0, and only by rounding may the
    # estimates move.
    @pytest.mark.parametrize("h, d, value, half_width", [
        (10.0, None, 0.5074687760852875, 0.24165840872412536),
        (20.0, 15.0, 0.28555859534701206, 0.18771265509308568),
        (10.0, 20.0, 0.12165143946424854, 0.11639530349095886)])
    def test_pso_exact_pinned_at_benchmark_spots(self, h, d, value,
                                                 half_width):
        zone = GuardZone(d) if d is not None else None
        est = pso_exact(params(h=h, theta_c=math.pi / 4), 1.0, zone,
                        n_realizations=3, window=200.0, seed=3, tol=1e-2)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.half_width == pytest.approx(half_width, rel=1e-12,
                                               abs=0.0)

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


def _disk_block(i):
    """Seeded LoS-disk block i of the screen test: network, threshold,
    signal powers and the (row, interferer) squared distances and LoS mask
    of 64 ring points inside K. Each row's margin is set so that one of its
    two upper Chernoff exponents (log1p, or log-free without its margin)
    lands within 3 of the -23 cut, or in some rows within 1e-9 of it."""
    rng = np.random.default_rng(9100 + i)
    p = NetworkParams(lambda_u=1e-3, lambda_e=1e-3,
                      h=rng.uniform(10.0, 50.0),
                      theta_c=rng.uniform(0.4, 1.2),
                      eta_nlos=10.0 ** rng.uniform(-3.0, 0.0),
                      alpha_nlos=(4.0, 3.0)[i % 2], h_max=50.0)
    k = p.los_radius
    n = int(rng.integers(1, 60))
    r = rng.uniform(0.5, 4.0) * k * np.sqrt(rng.random(n))
    phi = rng.random(n) * 2.0 * math.pi
    pts = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
    rs = rng.uniform(0.0, k, 64)
    ex, ey = rs * np.cos(phi[0] + rs), rs * np.sin(phi[0] + rs)
    horiz2 = (pts[:, 0] - ex[:, None]) ** 2 + (pts[:, 1] - ey[:, None]) ** 2
    los = horiz2 < k * k
    d2 = horiz2 + p.h ** 2
    i_los = np.sum(np.where(los, p.eta_los / d2, 0.0), axis=1)
    rates = np.where(los, np.inf, d2 ** (p.alpha_nlos / 2.0) / p.eta_nlos)
    lam_min = np.min(rates, axis=1)
    inv = np.where(los, 0.0, 1.0 / rates)
    shift = np.where(rng.random(64) < 0.25, rng.uniform(-1e-9, 1e-9, 64),
                     rng.uniform(-3.0, 3.0, 64))
    with np.errstate(divide="ignore", invalid="ignore"):   # all-LoS rows
        log1p_part = -np.sum(np.log1p(-0.5 * lam_min[:, None] * inv), axis=1)
        free_part = lam_min * np.sum(inv, axis=1)
        part = np.where(rng.random(64) < 0.5, log1p_part, free_part)
        y = (part + 23.0 + shift) / (0.5 * lam_min)
    y = np.where(np.isfinite(y), y, rng.uniform(0.0, 1e-3, 64))
    beta = 10.0 ** rng.uniform(-1.5, 1.5)
    sig = beta * (y + i_los)
    return p, beta, sig, d2, los


class TestLogFreeScreen:
    """The log-free Chernoff screen in front of the log1p ones decides
    nothing differently: `_disk_rows` equals the log1p-only row kernel
    (`oracles.disk_rows`) bit for bit, on blocks whose rows sit near the
    screens' -23 cut."""

    def test_disk_rows_match_log1p_screens(self):
        seen = set()
        for i in range(60):
            p, beta, sig, d2, los = _disk_block(i)
            want = disk_rows(p, beta, sig, d2, los, np.empty_like(d2))
            got = analytic._disk_rows(p, beta, sig, d2, los,
                                      np.empty_like(d2))
            assert np.array_equal(got, want), i
            y = sig / beta - np.sum(np.where(los, p.eta_los / d2, 0.0),
                                    axis=1)
            n_nlos = np.count_nonzero(~los, axis=1)
            open_ = (y > 0.0) & (n_nlos > 0)
            gain = np.where(los, 0.0, model.pathloss(d2, p.alpha_nlos))
            with np.errstate(divide="ignore"):
                free = analytic._log_free_bound(
                    gain.sum(axis=1), gain.max(axis=1),
                    y / (2.0 * p.eta_nlos), d2.shape[1])
            rates = np.where(los, np.inf,
                             d2 ** (p.alpha_nlos / 2.0) / p.eta_nlos)
            upper, _ = chernoff_exponents(rates, los, y, n_nlos)
            for tag, rows in (
                    ("log-free", free < -23.0),
                    ("log1p only", (upper < -23.0) & ~(free < -23.0)),
                    ("unsettled", ~(upper < -23.0)),
                    ("log-free at the cut", np.abs(free + 23.0) < 1e-6)):
                if np.any(open_ & rows):
                    seen.add(tag)
        assert seen == {"log-free", "log1p only", "unsettled",
                        "log-free at the cut"}


@settings(max_examples=300, deadline=None)
@given(d2=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=60),
       los_share=st.floats(0.0, 0.9), eta_nlos=st.floats(1e-3, 1.0),
       alpha_nlos=st.sampled_from((3.0, 4.0)),
       y=st.floats(-12.0, 12.0).map(lambda x: 10.0 ** x))
def test_log_free_bound_never_below_log1p_exponent(d2, los_share, eta_nlos,
                                                   alpha_nlos, y):
    d2 = np.array([d2])
    los = np.arange(d2.size)[None, :] < int(los_share * d2.size)
    gain = model.pathloss(d2, alpha_nlos)
    gain[los] = 0.0
    free = analytic._log_free_bound(gain.sum(axis=1), gain.max(axis=1),
                                    np.array([y / (2.0 * eta_nlos)]),
                                    d2.size)
    rates = np.where(los, np.inf, d2 ** (alpha_nlos / 2.0) / eta_nlos)
    upper, _ = chernoff_exponents(rates, los, np.array([y]),
                                  np.count_nonzero(~los, axis=1))
    assert free[0] >= upper[0]


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
    elif kind == 7:                 # a ring split by angle into blocks
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
    """The ring exceedance kernel, in blocks, against the whole-batch
    radius x angle kernel it replaced (`oracles.ExceedanceField`). At
    r > 0 the ring table takes the squared span as |u|^2 + r proj + r^2,
    which rounds differently from the oracle's coordinate differences:
    77 of the 240 configurations differ, by at most 2.9e-11 absolute and
    9.1e-11 relative, so they must agree to rtol 1e-9. At the origin, and
    across block budgets, the kernel is equal bit for bit."""

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
            got = []
            whole = 15 * n_angles * max(len(pts), 1)     # one block
            for budget in (model.BLOCK_LINKS, 1, whole):
                monkeypatch.setattr(analytic, "BLOCK_LINKS", budget)
                got.append(ring_mean(p, beta, pts, rs, n_angles))
                assert np.array_equal(got[-1], got[0]), (i, budget)
            np.testing.assert_allclose(got[0], want, rtol=1e-9, atol=0.0,
                                       err_msg=str(i))
            per_block = max(1, model.BLOCK_LINKS // max(len(pts), 1))
            seen.add(("blocks", min(-(-15 * n_angles // per_block), 2)))
            seen |= {("pts", min(len(pts), 2)), ("angles", n_angles)}
            horiz2 = (pts[:, 0] - rs[:, None]) ** 2 + pts[:, 1] ** 2
            if rs[0] >= p.los_radius and (horiz2 < p.los_radius ** 2).any():
                seen.add("los pairs in the product form")
            if len(pts) * n_angles > model.BLOCK_LINKS:
                seen.add("ring split by angle")
        assert {("pts", 0), ("pts", 1), ("pts", 2), ("angles", 1),
                ("angles", 64), ("blocks", 1), ("blocks", 2),
                "los pairs in the product form",
                "ring split by angle"} <= seen
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
