import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsec import analytic, montecarlo
from uavsec.model import GuardZone, NetworkParams, gains
from uavsec.montecarlo import (
    SimConfig,
    _binary_estimate,
    _outage_windows,
    sim_connection,
    sim_outage,
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

    def test_deterministic(self):
        cfg = SimConfig(20_000, seed=3, model="rayleigh")
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
                                                model="rayleigh"))
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
        # K = h / tan(45 deg) rounds one ulp above h = 10: a 10 m window
        # is inside it
        for window in (5.0, 10.0):
            cfg = SimConfig(100, window)
            match = (f"^window_radius = {window:g} must exceed the LoS "
                     f"radius 10 m at h = 10 m$")
            with pytest.raises(ValueError, match=match):
                sim_connection(params(), 31.0, cfg)
            with pytest.raises(ValueError, match=match):
                sim_outage(params(), 1.0, None, cfg)


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

    def test_swallowing_zone_widens_windows(self):
        p = params()
        cfg = SimConfig(2000)
        assert _outage_windows(p, 1.0, cfg) == pytest.approx((64.6, 162.3),
                                                             abs=0.1)
        assert _outage_windows(p, 1.0, cfg, GuardZone(150.0)) == (200.0,
                                                                  300.0)
        # a zone inside the window leaves both windows alone
        assert (_outage_windows(p, 1.0, cfg, GuardZone(20.0))
                == _outage_windows(p, 1.0, cfg))


# Block-invariance cases. Outage: policy windows with and without a zone;
# an explicit window where lambda_u = 1e-4 leaves some eavesdroppers with no
# interferer; two full chunks plus a last chunk whose two realizations hold
# no eavesdropper; no eavesdroppers at all. Connection: two chunks under
# the policy window, an explicit window, and no links at all.
_OUTAGE_CASES = [
    (params(), None, SimConfig(300, seed=1)),
    (params(lambda_e=3e-4), GuardZone(15.0), SimConfig(1000, seed=2)),
    (params(lambda_u=1e-4), GuardZone(10.0), SimConfig(200, 80.0, seed=3)),
    (params(lambda_e=1e-5), None, SimConfig(2 * 8192 + 2, seed=4)),
    (params(lambda_e=0.0), None, SimConfig(100, seed=5)),
]
_CONNECTION_CASES = [
    (params(), SimConfig(8192 + 5, seed=6)),
    (params(lambda_u=1e-2), SimConfig(500, 100.0, seed=7)),
    (params(lambda_u=0.0), SimConfig(100, seed=8)),
]


class TestBlocks:
    @pytest.mark.parametrize("model", ["exact", "rayleigh"],
                             ids=["ExactLoSNLoS", "AllRayleigh"])
    def test_estimates_do_not_depend_on_block_size(self, monkeypatch,
                                                   model):
        runs = {}
        for links in (None, 1, 3, 1 << 40):   # None: the module's budget
            if links is not None:
                monkeypatch.setattr(montecarlo, "BLOCK_LINKS", links)
            runs[links] = [
                sim_outage(p, 1.0, zone, replace(cfg, model=model))
                for p, zone, cfg in _OUTAGE_CASES] + [
                sim_connection(p, 3.0, replace(cfg, model=model))
                for p, cfg in _CONNECTION_CASES]
        assert runs[1] == runs[3] == runs[None] == runs[1 << 40]

    def test_invariance_cases_reach_the_edges(self, monkeypatch):
        # The outage cases above hold a chunk without eavesdroppers,
        # eavesdroppers without interferers and eavesdroppers whose pairs
        # exceed a 3-pair block. `_interference` gets each eavesdropper's
        # pair count, once per chunk that has eavesdroppers.
        interference = montecarlo._interference
        sizes = []
        for p, zone, cfg in _OUTAGE_CASES:
            seen = []
            monkeypatch.setattr(
                montecarlo, "_interference",
                lambda p, los_faded, rng, s, spans, screen=None, seen=seen:
                seen.append(s) or interference(p, los_faded, rng, s, spans,
                                               screen))
            sim_outage(p, 1.0, zone, cfg)
            sizes.append(seen)
        assert len(sizes[3]) == 2 and sizes[4] == []   # of 3 and 1 chunks
        assert (sizes[2][0] == 0).any()
        assert sizes[0][0].max() > 3

    @pytest.mark.parametrize("model", ["exact", "rayleigh"],
                             ids=["ExactLoSNLoS", "AllRayleigh"])
    def test_estimates_do_not_depend_on_the_screen(self, monkeypatch,
                                                   model):
        # Screen widths 1, 3 and the module's, the screen off (gate inf),
        # and every block screened (gate 0), where the lambda_u = 1e-4
        # case's realizations hold fewer interferers than the width.
        cases = _OUTAGE_CASES + [
            (params(lambda_e=3e-3), GuardZone(20.0), SimConfig(200, seed=9))]
        k, gate = montecarlo.SCREEN_K, montecarlo.SCREEN_GATE
        runs = []
        for width, at in ((k, gate), (1, gate), (3, gate), (k, math.inf),
                          (1, 0), (k, 0)):
            monkeypatch.setattr(montecarlo, "SCREEN_K", width)
            monkeypatch.setattr(montecarlo, "SCREEN_GATE", at)
            runs.append([sim_outage(p, 1.0, zone, replace(cfg, model=model))
                         for p, zone, cfg in cases])
        assert all(run == runs[0] for run in runs[1:])

    def test_screened_sums_bound_the_exact_ones(self, monkeypatch):
        # Per eavesdropper of a dense case, the screened interference is at
        # most the exact sum: the partial sum where the screen settled it
        # (most eavesdroppers), else the sum. A sparse case screens no
        # block.
        interference = montecarlo._interference
        sums, screened_blocks = [], []

        def spy(p, los_faded, rng, s, spans, screen=None):
            def watched(*block):
                out = screen(*block)
                screened_blocks.append(out is not None)
                return out
            sums.append(interference(p, los_faded, rng, s, spans, watched))
            return sums[-1]

        monkeypatch.setattr(montecarlo, "_interference", spy)
        gate = montecarlo.SCREEN_GATE
        for at in (gate, math.inf):
            monkeypatch.setattr(montecarlo, "SCREEN_GATE", at)
            sim_outage(params(lambda_e=3e-3), 1.0, None,
                       SimConfig(200, seed=9))
        screened, exact = sums
        assert (screened <= exact).all()
        assert 0.8 < (screened < exact).mean() < 1.0
        monkeypatch.setattr(montecarlo, "SCREEN_GATE", gate)
        screened_blocks.clear()
        sim_outage(params(lambda_e=3e-5), 1.0, None, SimConfig(2000, seed=9))
        assert screened_blocks and not any(screened_blocks)

    @pytest.mark.parametrize("run, expected", [
        (lambda: sim_outage(params(lambda_u=1e-2, lambda_e=1e-2), 1.0, None,
                            SimConfig(300, seed=31)),
         "(0.23, 0.047620806277121126)"),
        (lambda: sim_outage(params(lambda_e=1e-4), 1.0, None,
                            SimConfig(20_000, seed=24)),
         "(0.0566, 0.0032025007840097764)"),
        (lambda: sim_outage(params(lambda_e=3e-4), 1.0, GuardZone(15.0),
                            SimConfig(3000, seed=22, model="rayleigh")),
         "(0.048, 0.007649385645711224)"),
        (lambda: sim_outage(params(h=20.0), 0.5, GuardZone(10.0),
                            SimConfig(1500, 80.0, seed=23)),
         "(0.5613333333333334, 0.0251119359501625)"),
        (lambda: sim_outage(params(lambda_e=3e-5), 1.0, None,
                            SimConfig(20_000, seed=28)),
         "(0.017, 0.0017915721915767102)"),
        (lambda: sim_outage(params(lambda_u=3e-3, lambda_e=3e-3, h=20.0),
                            1.0, None, SimConfig(3000, 30.0, seed=29)),
         "(0.215, 0.014700818712605217)"),
        (lambda: sim_connection(params(), 31.0, SimConfig(20_000, seed=25)),
         "(0.72445, 0.006192093553042943)"),
        (lambda: sim_connection(params(lambda_u=1e-2), 0.3,
                                SimConfig(2400, 400.0, seed=26,
                                          model="rayleigh")),
         "(0.5895833333333333, 0.019680111907048943)"),
    ], ids=["outage-2-dense-chunks", "outage-3-sparse-chunks",
            "outage-zone-rayleigh", "outage-window",
            "outage-3-chunks-mostly-without-eavesdroppers",
            "outage-mostly-los-window", "connection-3-chunks",
            "connection-2-dense-chunks-rayleigh"])
    def test_golden_streams(self, run, expected):
        # Pinned estimates: a change to chunking or draw order changes the
        # random streams, and so every simulator CSV, and must fail here.
        est = run()
        assert repr((est.value, est.half_width)) == expected

    def test_outage_memory_bounded(self):
        # Without blocks this call peaks at about 370 MiB of pair arrays.
        tracemalloc.start()
        try:
            sim_outage(params(lambda_e=3e-3), 1.0, None,
                       SimConfig(1000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_screen_memory_at_the_densest_benchmark_point(self):
        # The densest outage point of the benchmark's mc_validate workload
        # peaks at 19.1 MiB with the screen's arrays built per block (19.9
        # MiB unscreened), which bounds its share of peak RSS.
        tracemalloc.start()
        try:
            sim_outage(params(lambda_e=3e-3), 1.0, None,
                       SimConfig(4000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    @pytest.mark.parametrize("run, bound_mib", [
        # Three full chunks with eavesdroppers in about 2/3 of the
        # realizations: one chunk's kept interferers, about 13 MiB; 31 MiB
        # when a chunk's arrays outlived it and every interferer was kept.
        (lambda: sim_outage(params(lambda_e=1e-4), 1.0, None,
                            SimConfig(3 * 8192, seed=1)), 20),
        # Two chunks of about 0.93M links: one chunk's spans and a block,
        # about 10 MiB; 14.5 MiB when the chunks' spans overlapped.
        (lambda: sim_connection(params(lambda_u=1e-2), 31.0,
                                SimConfig(2 * 8192, seed=1)), 12),
    ], ids=["outage-sparse", "connection-dense"])
    def test_chunk_memory_freed_between_chunks(self, run, bound_mib):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20


@settings(max_examples=300)
@given(st.floats(-323.0, 299.0),
       st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-20.0, 0.0),
                          st.booleans()), min_size=1, max_size=40))
def test_partial_sum_never_exceeds_the_full_sum(scale, terms):
    # The screen's exactness: nonnegative terms (here subnormal to 1e300)
    # added left to right from 0 by np.bincount, as the simulators sum
    # links; any subsequence of them, in order, sums to at most the whole.
    weights = np.array([m * 10.0 ** (scale + s) for m, s, _ in terms])
    keep = np.array([k for _, _, k in terms])
    full = np.bincount(np.zeros(len(weights), int), weights=weights)
    partial = np.bincount(np.zeros(int(keep.sum()), int),
                          weights=weights[keep], minlength=1)
    assert partial[0] <= full[0]


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
        g_exact = gains(p, False, horiz2, fades)
        g_ray = gains(p, True, horiz2, fades)
        nlos = horiz2 >= p.los_radius ** 2
        assert np.array_equal(g_exact[nlos], g_ray[nlos])
        los = ~nlos
        assert np.allclose(g_ray[los], g_exact[los] * fades[los])

    def test_config_validation(self):
        for bad in (0, 100.5, 100.0):
            with pytest.raises(ValueError, match="^n_realizations = "):
                SimConfig(bad)
        with pytest.raises(ValueError, match="^n_realizations = "):
            replace(SimConfig(100), n_realizations=100.5)
        for bad in (math.nan, math.inf, -5.0, 0.0):
            with pytest.raises(ValueError):
                SimConfig(100, window_radius=bad)

    @pytest.mark.parametrize("change, message", [
        ({"model": 1}, "unknown fading model 1 (one of exact, rayleigh)"),
        ({"model": "Rayleigh"},
         "unknown fading model 'Rayleigh' (one of exact, rayleigh)"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ])
    def test_model_and_seed_checked_at_construction(self, change, message):
        with pytest.raises(ValueError) as exc:
            SimConfig(100, **change)
        assert str(exc.value) == message
        with pytest.raises(ValueError):
            replace(SimConfig(100), **change)

    def test_models_named(self):
        assert montecarlo.MODELS == ("exact", "rayleigh")
        assert SimConfig(100).model == "exact"
        assert SimConfig(100, seed=np.uint32(7), model="rayleigh").seed == 7
