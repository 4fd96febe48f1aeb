import math
import os
import subprocess
import sys
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
        # exceed a 3-pair block. Each chunk that has eavesdroppers builds
        # one `_Pairs` with each eavesdropper's pair count.
        pairs = montecarlo._Pairs
        sizes = []
        for p, zone, cfg in _OUTAGE_CASES:
            seen = []
            monkeypatch.setattr(
                montecarlo, "_Pairs",
                lambda seen=seen, **kw: seen.append(kw["lens"]) or pairs(**kw))
            sim_outage(p, 1.0, zone, cfg)
            sizes.append(seen)
        assert len(sizes[3]) == 2 and sizes[4] == []   # of 3 and 1 chunks
        assert (sizes[2][0] == 0).any()
        assert sizes[0][0].max() > 3

    @pytest.mark.parametrize("model", ["exact", "rayleigh"],
                             ids=["ExactLoSNLoS", "AllRayleigh"])
    def test_unscreened_estimates_pinned(self, monkeypatch, model):
        # With the screen off (gate inf) every chunk draws all of its fades
        # in link order, as the simulator did before the screen: these are
        # the values it gave (only the lambda_e = 1e-5 case differs between
        # the two models).
        monkeypatch.setattr(montecarlo, "SCREEN_GATE", math.inf)
        cases = _OUTAGE_CASES + [
            (params(lambda_e=3e-3), GuardZone(20.0), SimConfig(200, seed=9))]
        got = [sim_outage(p, 1.0, zone, replace(cfg, model=model))
               for p, zone, cfg in cases]
        rare = {"exact": (0.006224826071036251, 0.0012042573287190672),
                "rayleigh": (0.0062858537776150376, 0.0012101089946383434)}
        assert [(e.value, e.half_width) for e in got] == [
            (0.43, 0.05602206580006757), (0.053, 0.013885483775132173),
            (1.0, 0.009422663188633286), rare[model],
            (0.0, 0.018496749103492836), (0.22, 0.05741055363045683)]

    @pytest.mark.parametrize("model", ["exact", "rayleigh"],
                             ids=["ExactLoSNLoS", "AllRayleigh"])
    def test_estimates_do_not_depend_on_the_screen(self, monkeypatch,
                                                   model):
        # Screen widths 1, 3, SCREEN_K and 16 agree with the unscreened
        # estimate (gate inf) within 3 combined half-widths: at two dense
        # points, whose chunks every gate of 0 to 4 screens (without a
        # zone, where the leads settle about two thirds of the
        # realizations, and with one), and at a sparse one (about 2.6
        # eavesdroppers per realization), which only gate 0 screens. The
        # lead phase and the screen change which draw feeds which link and
        # which eavesdroppers are summed, not the law of the estimate.
        cfg = SimConfig(20_000, seed=11, model=model)
        for p, zone, gate in ((params(lambda_e=3e-3), None,
                               montecarlo.SCREEN_GATE),
                              (params(lambda_e=3e-3), GuardZone(20.0),
                               montecarlo.SCREEN_GATE),
                              (params(lambda_e=3e-4), None, 0)):
            monkeypatch.setattr(montecarlo, "SCREEN_GATE", math.inf)
            unscreened = sim_outage(p, 1.0, zone, cfg)
            monkeypatch.setattr(montecarlo, "SCREEN_GATE", gate)
            for width in (1, 3, montecarlo.SCREEN_K, 16):
                monkeypatch.setattr(montecarlo, "SCREEN_K", width)
                est = sim_outage(p, 1.0, zone, cfg)
                assert abs(est.value - unscreened.value) <= 3 * math.hypot(
                    est.half_width, unscreened.half_width)

    def test_screened_sums_bound_the_exact_ones(self, monkeypatch):
        # Within one dense run, per chunk: each realization's lead, its
        # eavesdropper with the largest signal (first on ties), is summed
        # first; no lead and no eavesdropper of a realization whose lead
        # decodes reaches the screen; each of the screen's near windows is
        # SCREEN_K links consecutive in x around its eavesdropper. Every
        # lead's and every open eavesdropper's sum is `gains` +
        # `np.bincount` over its links' spans and the fades it used, bit
        # for bit; the screen's fades sit at the links they were drawn
        # for, where the full sum's terms add up to the partial sum bit for
        # bit; and the partial sum is at most the full one. The screen
        # settles most wide eavesdroppers it sees. A sparse case screens no
        # chunk.
        screen, link_sums, interference = (montecarlo._screen,
                                           montecarlo._link_sums,
                                           montecarlo._interference)
        calls = []

        def spy(name, run):
            # `run`, keeping its arguments, result and every `_link_sums`
            # call it makes (arguments and sums) in `calls`
            def sums(*args):
                calls[-1]["sums"].append((args, link_sums(*args)))
                return calls[-1]["sums"][-1][1]

            def call(*args):
                calls.append({"name": name, "args": args, "sums": []})
                monkeypatch.setattr(montecarlo, "_link_sums", sums)
                calls[-1]["result"] = run(*args)
                return calls[-1]["result"]
            return call

        def joined(call):
            # a call's sums, spans and fades, over all of its blocks
            args, sums = zip(*call["sums"])
            return (np.concatenate(sums), np.concatenate([a[2] for a in args]),
                    np.concatenate([a[3] for a in args]))

        def bincount(sizes, span2, fades):
            return np.bincount(np.repeat(np.arange(len(sizes)), sizes),
                               weights=gains(p, False, span2, fades),
                               minlength=len(sizes))

        monkeypatch.setattr(montecarlo, "_screen", spy("screen", screen))
        monkeypatch.setattr(montecarlo, "_interference",
                            spy("sums", interference))
        p = params(lambda_e=3e-3)
        sim_outage(p, 1.0, None, SimConfig(200, seed=9))
        k = montecarlo.SCREEN_K
        assert calls and [c["name"] for c in calls] == [
            "sums", "screen", "sums"] * (len(calls) // 3)
        settled = []
        for lead_call, screen_call, full_call in zip(*[iter(calls)] * 3):
            pairs, rest, signal = screen_call["args"][3:6]
            lens = pairs.lens
            # Every eavesdropper has interferers, so those of one
            # realization, and only they, share their first one.
            assert (lens > 0).all()
            groups = np.split(np.arange(len(lens)),
                              np.flatnonzero(np.diff(pairs.first)) + 1)
            leads = np.array([g[np.argmax(signal[g])] for g in groups])
            lead_sums, span2, fades = joined(lead_call)
            assert np.array_equal(span2, pairs.spans(leads))
            assert np.array_equal(lead_sums,
                                  bincount(lens[leads], span2, fades))
            undecided = np.repeat(signal[leads] <= lead_sums,
                                  [len(g) for g in groups])
            undecided[leads] = False
            assert np.array_equal(rest, np.flatnonzero(undecided))
            is_open, near, near_fades = screen_call["result"]
            partial = np.concatenate([out for _, out in screen_call["sums"]])
            full, span2, fades = joined(full_call)
            rows = rest[is_open]
            sizes = lens[rows]
            assert np.array_equal(span2, pairs.spans(rows))
            assert np.array_equal(full, bincount(sizes, span2, fades))
            wide_rows = sizes > k
            for e, offsets in zip(rows[wide_rows], near):
                x = pairs.ux[pairs.first[e]:pairs.first[e] + lens[e]]
                rank = np.argsort(np.argsort(x))
                pos = np.searchsorted(np.sort(x), pairs.ex[e])
                lo = min(max(pos - k // 2, 0), lens[e] - k)
                assert np.array_equal(np.sort(rank[offsets]),
                                      np.arange(lo, lo + k))
            at = ((np.cumsum(sizes) - sizes)[wide_rows][:, None] + near)
            assert np.array_equal(fades[at], near_fades)
            opened = is_open[lens[rest] > k]
            assert np.array_equal(partial[opened], bincount(
                np.full(len(at), k), span2[at].ravel(), fades[at].ravel()))
            assert (partial[opened] <= full[wide_rows]).all()
            settled.append(~opened)
        assert 0.8 < np.concatenate(settled).mean() < 1.0
        calls.clear()
        sim_outage(params(lambda_e=3e-5), 1.0, None, SimConfig(2000, seed=9))
        assert calls and {c["name"] for c in calls} == {"sums"}

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
         "(0.564, 0.02509488779072965)"),
        (lambda: sim_outage(params(lambda_e=3e-5), 1.0, None,
                            SimConfig(20_000, seed=28)),
         "(0.017, 0.0017915721915767102)"),
        (lambda: sim_outage(params(lambda_u=3e-3, lambda_e=3e-3, h=20.0),
                            1.0, None, SimConfig(3000, 30.0, seed=29)),
         "(0.213, 0.014650911047573992)"),
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

    def test_golden_streams_in_a_fresh_process(self):
        # The outage-2-dense-chunks and connection-3-chunks cases above give
        # the same estimates in a new interpreter as in this one.
        runs = ["sim_outage(NetworkParams(lambda_u=1e-2, lambda_e=1e-2, "
                "h=10.0), 1.0, None, SimConfig(300, seed=31))",
                "sim_connection(NetworkParams(lambda_u=1e-3, lambda_e=1e-3, "
                "h=10.0), 31.0, SimConfig(20_000, seed=25))"]
        code = ("from uavsec.model import NetworkParams\n"
                "from uavsec.montecarlo import SimConfig, sim_connection, "
                "sim_outage\n" + "".join(
                    f"e = {run}\nprint(repr((e.value, e.half_width)))\n"
                    for run in runs))
        here = {"NetworkParams": NetworkParams, "SimConfig": SimConfig,
                "sim_connection": sim_connection, "sim_outage": sim_outage}
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            repr((e.value, e.half_width))
            for e in (eval(run, here) for run in runs)]

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
        # peaks at 13.2 MiB at seed 1 (15.7 MiB while the polar positions
        # outlived the pairs, 19.0 MiB when every fade was drawn up front),
        # which bounds its share of peak RSS.
        tracemalloc.start()
        try:
            sim_outage(params(lambda_e=3e-3), 1.0, None,
                       SimConfig(4000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_outage_memory_at_the_benchmark_peak_rss_point(self):
        # The dense 20 m zone point of the benchmark's mc_validate workload
        # sets its peak RSS. The lead phase passes the undecided
        # eavesdroppers to the screen as indexes into the chunk's pairs:
        # 13.9 MiB at seed 1 (16.4 MiB while the polar positions outlived
        # the pairs); copying them into pairs of their own peaked at 19.8
        # MiB.
        tracemalloc.start()
        try:
            sim_outage(params(lambda_e=3e-3), 1.0, GuardZone(20.0),
                       SimConfig(4000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

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
