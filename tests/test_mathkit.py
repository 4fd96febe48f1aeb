import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsec import mathkit
from uavsec.mathkit import (
    AccuracyError,
    BracketError,
    DegenerateSumError,
    bisect_root,
    hypoexp_cdf,
    integrate_radial,
    lambert_w0,
    resolve_rate_ties,
)


def conv_cdf(rates, y, nodes=80):
    """Independent oracle: CDF of a sum of exponentials by iterated
    numerical convolution (nested Gauss-Legendre), no mixture formula."""
    if y <= 0:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(nodes)

    def level(k, ys):
        if k == 0:
            return 1.0 - np.exp(-rates[0] * ys)
        t = 0.5 * ys[..., None] * (x + 1.0)
        inner = level(k - 1, ys[..., None] - t)
        return 0.5 * ys * np.sum(
            w * rates[k] * np.exp(-rates[k] * t) * inner, axis=-1)

    return float(level(len(rates) - 1, np.asarray(y, dtype=float)))


class TestLambertW:
    def test_defining_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_unit_argument_matches_bisection(self):
        # independent root of w*e^w - 1 on [0, 1]
        w = bisect_root(lambda t: t * math.exp(t) - 1.0, 0.0, 1.0, 1e-13)
        assert lambert_w0(1.0) == pytest.approx(w, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.567143, abs=1e-6)

    def test_residual_contract(self):
        for x in np.concatenate([np.linspace(-1 / math.e + 1e-12, 10, 200),
                                 10 ** np.linspace(1, 8, 50)]):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_roundtrip_grid(self):
        for w in np.linspace(-1.0, 20.0, 1000):
            x = w * math.exp(w)
            assert lambert_w0(x) == pytest.approx(w, abs=1e-10)

    @given(st.floats(min_value=-0.999, max_value=20.0))
    def test_roundtrip_property(self, w):
        x = w * math.exp(w)
        assert abs(lambert_w0(x) - w) <= 1e-8 * (1.0 + abs(w))

    def test_below_branch_point_raises(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0 / math.e - 1e-6)

    def test_matches_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for x in 10 ** np.linspace(-6, 7, 120):
            ref = float(scipy_special.lambertw(x).real)
            assert lambert_w0(float(x)) == pytest.approx(ref, rel=1e-13)

    def test_array_form_matches_scalar(self):
        x = 10 ** np.linspace(-12, 12, 500)
        w = mathkit.lambert_w0_array(x)
        ref = np.array([lambert_w0(float(v)) for v in x])
        assert np.all(np.abs(w - ref) <= 4e-16 * np.maximum(1.0, ref))
        with pytest.raises(ValueError):
            mathkit.lambert_w0_array(np.array([1.0, 0.0]))


class TestHypoexpCdf:
    def test_single_exponential(self):
        assert hypoexp_cdf([1.0], 1.0) == pytest.approx(1 - math.exp(-1),
                                                        rel=1e-14)

    def test_at_origin(self):
        assert hypoexp_cdf([1.0, 2.0], 0.0) == 0.0

    def test_two_rates(self):
        # exact two-component value 1 - 2e^-1 + e^-2
        assert hypoexp_cdf([1.0, 2.0], 1.0) == pytest.approx(
            1 - 2 * math.exp(-1) + math.exp(-2), rel=1e-13)
        assert hypoexp_cdf([1.0, 2.0], 1.0) == pytest.approx(0.3996, abs=5e-5)

    def test_empty_rates(self):
        with pytest.raises(DegenerateSumError):
            hypoexp_cdf([], 1.0)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            hypoexp_cdf([1.0, -2.0], 1.0)

    def test_convolution_oracle_small_n(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(4):
                rates = rng.uniform(0.4, 4.0, size=n)
                rates *= 1.0 + 0.01 * np.arange(n)  # keep them distinct
                for y in (0.2, 0.7, 1.7, 4.0):
                    got = hypoexp_cdf(rates, y)
                    ref = conv_cdf(rates, y)
                    assert abs(got - ref) <= 1e-6

    def test_nondecreasing_onto_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = rng.integers(1, 6)
            rates = 10 ** rng.uniform(-1, 2, size=n)
            ys = np.sort(rng.uniform(0.0, 50.0 / rates.min(), size=50))
            vals = [hypoexp_cdf(rates, y) for y in ys]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_tie_resolution(self):
        # equal rates are perturbed, not rejected, and stay near the
        # distinct-rate value nearby
        near = hypoexp_cdf([1.0, 1.0 + 1e-6], 1.0)
        tied = hypoexp_cdf([1.0, 1.0], 1.0)
        assert tied == pytest.approx(near, abs=1e-5)
        # Erlang(2, 1) CDF at 1 as the exact reference
        assert tied == pytest.approx(1 - 2 * math.exp(-1), abs=1e-6)

    def test_resolve_rate_ties_spreads_clusters(self):
        out = resolve_rate_ties(np.array([2.0, 1.0, 1.0, 1.0]))
        assert len(np.unique(out)) == 4
        gaps = np.diff(np.sort(out))
        assert np.all(gaps > 0)

    def test_large_rate_set_is_stable(self):
        # scales mimicking far-field interference: huge spread, deep tail
        rng = np.random.default_rng(2)
        d2 = 100.0 + rng.uniform(100.0, 4.0e4, size=120)
        rates = d2 ** 2 / 0.01
        total_mean = float(np.sum(1.0 / rates))
        for y in (0.1 * total_mean, total_mean, 10 * total_mean, 3e-4):
            v = hypoexp_cdf(rates, y)
            assert 0.0 <= v <= 1.0
        assert hypoexp_cdf(rates, 3e-4) == pytest.approx(1.0, abs=1e-9)

    def test_mid_cdf_against_mpmath_path(self):
        # force both evaluation paths to agree on a cancellation-prone case
        rates = np.linspace(1.0, 3.0, 25)
        y = float(np.sum(1.0 / rates))
        fast = hypoexp_cdf(rates, y)
        precise = mathkit._hypoexp_cdf_mp(resolve_rate_ties(rates), y)
        assert fast == pytest.approx(precise, abs=1e-9)


class TestBisect:
    def test_linear(self):
        assert bisect_root(lambda x: x - 2.0, 0.0, 4.0, 1e-9) == \
            pytest.approx(2.0, abs=1e-9)

    def test_exponential(self):
        assert bisect_root(lambda x: math.exp(-x) - 0.5, 0.0, 10.0, 1e-12) \
            == pytest.approx(math.log(2.0), abs=1e-11)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x + 5.0, 0.0, 1.0, 1e-9)

    def test_tol_halving_invariance(self):
        f = lambda x: math.tanh(x) - 0.3
        a = bisect_root(f, 0.0, 2.0, 1e-8)
        b = bisect_root(f, 0.0, 2.0, 5e-9)
        assert abs(a - b) <= 1e-8


class TestIntegrateRadial:
    def test_linear(self):
        assert integrate_radial(lambda r: r, 0.0, 1.0, 1e-12) == \
            pytest.approx(0.5, rel=1e-12)

    def test_breakpoint_kink(self):
        f = lambda r: np.where(r < 1.0, r, r ** 3)
        exact = 0.5 + (16.0 - 1.0) / 4.0
        val = integrate_radial(f, 0.0, 2.0, 1e-12, breakpoints=(1.0,))
        assert val == pytest.approx(exact, rel=1e-12)

    def test_budget_exhaustion_carries_estimate(self):
        f = lambda r: np.sin(1000.0 * r) ** 2
        with pytest.raises(AccuracyError) as err:
            integrate_radial(f, 0.0, 10.0, 1e-14, max_panels=3)
        assert math.isfinite(err.value.estimate)
        assert err.value.achieved > 0

    def test_zero_width(self):
        assert integrate_radial(lambda r: r, 2.0, 2.0, 1e-10) == 0.0

    def test_non_finite_bound_rejected(self):
        for b in (math.inf, math.nan):
            with pytest.raises(ValueError):
                integrate_radial(lambda r: r * np.exp(-r * r), 0.0, b, 1e-12)


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=0.2, max_value=8.0), min_size=1,
                max_size=5),
       st.floats(min_value=0.0, max_value=30.0))
def test_hypoexp_is_probability(rates, y):
    v = hypoexp_cdf(rates, y)
    assert 0.0 <= v <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3),
       st.lists(st.floats(-1e-9, 1e-9), min_size=2, max_size=5),
       st.floats(0.0, 50.0))
def test_hypoexp_clustered_rates_are_probability(base, offsets, y_scale):
    # rates within 1e-9 relative of each other take the mpmath path
    rates = [base * (1.0 + o) for o in offsets]
    v = hypoexp_cdf(rates, y_scale / base)
    assert 0.0 <= v <= 1.0
