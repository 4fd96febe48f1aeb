import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import lambert_w0_array_halley60, resolve_rate_ties_walk

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

    def test_array_form_matches_scipy(self):
        # scipy gives NaN at x = -1/e itself, where W0 = -1
        scipy_special = pytest.importorskip("scipy.special")
        x = np.concatenate([np.linspace(-1.0 / math.e, 0.0, 2000,
                                        endpoint=False),
                            -1.0 / math.e + 10 ** np.linspace(-15, -4, 100),
                            10 ** np.linspace(-12, 12, 2000)])
        w = mathkit.lambert_w0_array(x)
        ref = np.where(x == -1.0 / math.e, -1.0,
                       scipy_special.lambertw(x).real)
        near = x < -1.0 / math.e + 1e-4
        assert near.sum() >= 100 and w[0] == -1.0
        assert np.all(np.abs(w[near] - ref[near]) <= 1e-7)
        assert np.all(np.abs(w[~near] - ref[~near])
                      <= 1e-13 * np.abs(ref[~near]))

    @pytest.mark.parametrize("bad", [math.nan, -1.0 / math.e - 1e-9,
                                     -math.inf, math.inf])
    def test_array_form_rejects_outside_domain(self, bad):
        with pytest.raises(ValueError):
            mathkit.lambert_w0_array(np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError):
            lambert_w0(bad)


# Inputs on which the 60-step Halley loop never met its stopping rule
# (found among log-uniform x in [e^-5, e^60] and uniform x in [-1/e, 0]).
STUCK_LAMBERT_X = np.array([
    163487653.10105428, 2818192832352561.5, 5004686487251247.0,
    3040352051489037.5, 5415941130752252.0, 220059964.69184393,
    -0.33680184382168243, -0.2941329692838088, -0.35225899816321704,
    -0.3076743900007719, -0.36141971949509855, -0.2882379869755895])


class TestLambertWEarlyStop:
    """The Halley loop stops an element whose iterate equals the one two
    steps back, keeping the member of the cycle step 60 would hold."""

    def test_matches_60_step_oracle_bit_for_bit(self):
        rng = np.random.default_rng(2026)
        for x in (np.concatenate([np.exp(rng.uniform(-5.0, 60.0, 200_000)),
                                  STUCK_LAMBERT_X[:6]]),
                  np.concatenate([rng.uniform(-1.0 / math.e, 0.0, 50_000),
                                  -1.0 / math.e + 10 ** rng.uniform(
                                      -16.0, -1.0, 10_000),
                                  np.exp(rng.uniform(-40.0, 60.0, 10_000)),
                                  [-1.0 / math.e, 0.0], STUCK_LAMBERT_X])):
            assert np.array_equal(mathkit.lambert_w0_array(x),
                                  lambert_w0_array_halley60(x))

    def test_stuck_inputs_stop_within_a_few_steps(self, monkeypatch):
        # one np.exp per Halley step, and one for the final polish
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(a):
                calls.append(1)
                return np.exp(a)

        monkeypatch.setattr(mathkit, "np", CountingNumpy())
        for x in (STUCK_LAMBERT_X[:6], STUCK_LAMBERT_X[6:]):
            calls.clear()
            w = mathkit.lambert_w0_array(x)
            assert len(calls) - 1 <= 8
            assert np.array_equal(w, lambert_w0_array_halley60(x))


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

    @pytest.mark.parametrize("rates", [[2.0], [1.0, 3.0]])
    def test_nan_argument_rejected(self, rates):
        with pytest.raises(ValueError):
            hypoexp_cdf(rates, math.nan)

    def test_mp_fallback_pinned_on_narrow_spread_sets(self, monkeypatch):
        # Far-field NLoS rates from a narrow band of distances, y at 0.6x
        # the mean: the signed sum cancels, so each set takes the mpmath
        # path. Pinned: a change to its working precision, to the tie rule
        # or to the fallback test must fail here.
        fallbacks = []
        precise = mathkit._hypoexp_cdf_mp
        monkeypatch.setattr(mathkit, "_hypoexp_cdf_mp",
                            lambda lam, y: fallbacks.append(lam.size)
                            or precise(lam, y))
        rng = np.random.default_rng(11)
        got = []
        for n in (84, 114, 165):
            rates = (100.0 + rng.uniform(10.0, 200.0, n)) ** 2 / 0.01
            y = 0.6 * float(np.sum(1.0 / rates))
            got.append(repr((precise(np.sort(rates), y),
                             hypoexp_cdf(rates, y))))
        assert fallbacks == [84, 114, 165]
        assert got == ["(7.324028349674123e-05, 7.324028349674123e-05)",
                       "(4.464800348022044e-06, 4.464800348022044e-06)",
                       "(4.716011554842238e-08, 4.716011554842238e-08)"]

    @pytest.mark.parametrize("n", [2, 3, 128, 129, 200, 256, 257, 1500])
    def test_blocked_weights_match_full_tables(self, n):
        # one block of rows holds 2^14 entries: n <= 128 is a single
        # block, 129 spills one row, 1500 spans 150 blocks of 10 rows
        rng = np.random.default_rng(n)
        lam = resolve_rate_ties(
            (100.0 + rng.uniform(0.0, 4.0e4, size=n)) ** 2 / 0.01)
        diff = lam[None, :] - lam[:, None]
        np.fill_diagonal(diff, 1.0)
        logabs = np.log(lam)[None, :] - np.log(np.abs(diff))
        np.fill_diagonal(logabs, 0.0)
        logsum, sign = mathkit._log_weights(lam)
        assert np.array_equal(logsum, np.sum(logabs, axis=1))
        assert np.array_equal(sign, np.prod(np.sign(diff), axis=1))


def tie_laden_sets(seed: int, count: int):
    """Seeded rate sets drawn from four base values, each rate offset by a
    relative gap of 0, 5e-10 (a tie), 2e-9 (no tie) or 1e-8, then by up to
    three steps of 7e-10 (chains of near-ties)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(0, 12))
        base = rng.choice([1.0, 3.7, 2.2e-3, 1e5], size=n)
        gap = rng.choice([0.0, 5e-10, 2e-9, 1e-8], size=n)
        yield base * (1.0 + gap) * (1.0 + 7e-10 * rng.integers(0, 4, size=n))


class TestRateTies:
    @pytest.mark.parametrize("rates", [
        [], [2.0], [2.0, 1.0], [1.0, 1.0],
        [1.0, 1.0 + 5e-10], [1.0, 1.0 + 2e-9],
        [0.5, 1.0, 1.0, 4.0], [1.0, 1.0, 1.0, 0.5], [3.0] * 4 + [1.0],
        [7.0] * 5, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0],
        # chained near-ties: each neighbour gap 6e-10, end to end 2.4e-9
        list(1.0 + 6e-10 * np.arange(5)),
        [1.0, 1.0 + 5e-10, 1.0 + 2.5e-9, 1.0 + 3e-9],
    ])
    def test_matches_walk_oracle(self, rates):
        got = resolve_rate_ties(np.array(rates))
        assert np.array_equal(got, resolve_rate_ties_walk(np.array(rates)))
        assert got.size < 2 or np.all(np.diff(got) > 0.0)

    def test_matches_walk_oracle_on_seeded_sets(self):
        for rates in tie_laden_sets(23, 2000):
            assert np.array_equal(resolve_rate_ties(rates),
                                  resolve_rate_ties_walk(rates))


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

    @pytest.mark.parametrize("a, tol", [(math.nan, 1e-10), (0.0, math.nan),
                                        (0.0, 0.0)])
    def test_nan_lower_bound_or_tolerance_rejected(self, a, tol):
        # not an AccuracyError claiming a missed tolerance
        with pytest.raises(ValueError):
            integrate_radial(lambda r: r, a, 1.0, tol)

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
