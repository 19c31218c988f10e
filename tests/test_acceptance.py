"""End-to-end acceptance suite.

Every test prints one PASS/FAIL line (straight to the real stdout, so it
survives capture) and then asserts, so a full run doubles as a checklist
of the package's headline guarantees.
"""

from __future__ import annotations

import math
import shutil
import time

import numpy as np
import pytest

from facepulse import (DEFAULT_BAND, ConstantProfile, GroundTruth, HrSeries, StepProfile,
                       SynthConfig, WindowSpec, estimate_series, evaluate_sessions,
                       load_session, render_session)
from facepulse.cli import main
from facepulse.evaluate import PUBLISHED_MAE, align_groundtruth, sub51_error, sub52_mae
from facepulse.frameio import map_frames, open_session
from facepulse.pulse import build_pulse_signal, design_bandpass_taps, extract_traces
from facepulse.roi import load_box_track, place_regions
from facepulse.spectral import partition_windows

from _reference import (ref_aggregate, ref_mae, ref_sub51, ref_sub52,
                        ref_window_means)


@pytest.fixture
def check(capfd):
    """PASS/FAIL reporter that talks past pytest's output capture."""
    def _check(name: str, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
        assert ok, f"{name}: {detail}"
    return _check


def _render(tmp, name, **kwargs):
    d = tmp / name
    render_session(SynthConfig(**kwargs), d)
    return d / "session.json"


@pytest.fixture(scope="module")
def noisy_pairs(tmp_path_factory):
    """Ten seeded noisy sessions, each rendered as rgb8 and as gray8."""
    root = tmp_path_factory.mktemp("noisy")
    rgb, nir = [], []
    rates = [55.0, 63.0, 71.0, 79.0, 87.0, 95.0, 103.0, 111.0, 119.0, 127.0]
    for i, bpm in enumerate(rates):
        common = dict(hr_profile=ConstantProfile(bpm), noise_sigma=2.0,
                      illum_drift=0.05, seed=100 + i)
        rgb.append(_render(root, f"rgb{i:02d}", **common))
        nir.append(_render(root, f"nir{i:02d}", mono=True, **common))
    return rgb, nir


def test_a1_oracle_recovery(tmp_path, check):
    start = time.perf_counter()
    lengths = [5.0, 10.0, 15.0, 20.0]
    paths = [
        _render(tmp_path, f"hr{int(bpm)}", hr_profile=ConstantProfile(bpm))
        for bpm in (60.0, 72.0, 90.0, 120.0)
    ]
    report = evaluate_sessions(paths, lengths)
    elapsed = time.perf_counter() - start

    worst = {t: max(r.sub52_bpm for r in report.rows if r.window_s == t)
             for t in lengths}
    bound_ok = all(worst[t] <= 60.0 / (2.0 * t) for t in lengths)
    sub51_t10 = max(r.sub51_bpm for r in report.rows if r.window_s == 10.0)
    ok = (len(report.rows) == 16 and not report.skipped and bound_ok
          and sub51_t10 <= 1.5 and elapsed < 30.0)
    worst_txt = ", ".join(f"T={t:g}:{worst[t]:.3f}" for t in lengths)
    detail = (f"worst sub52 {worst_txt} bpm vs 60/(2T), "
              f"sub51@T=10 {sub51_t10:.3f}<=1.5, {elapsed:.1f}s<30s")
    check("A1 oracle recovery", ok, detail)


def test_a2_step_change(tmp_path, check):
    manifest_path = _render(tmp_path, "step",
                            hr_profile=StepProfile(70.0, 100.0, 30.0))
    t_switch = 30.0

    signal = load_session(open_session(manifest_path)).signal
    series5 = estimate_series(signal, WindowSpec(5.0))
    pre, post, straddle5 = [], [], []
    for s, e, bpm in zip(series5.window_start, series5.window_end, series5.bpm):
        if e <= t_switch:
            pre.append(bpm)
        elif s >= t_switch:
            post.append(bpm)
        else:
            straddle5.append(bpm)
    pre_ok = all(abs(b - 70.0) <= 4.0 for b in pre)
    post_ok = all(abs(b - 100.0) <= 4.0 for b in post)

    series20 = estimate_series(signal, WindowSpec(20.0))
    straddled = [bpm for s, e, bpm in
                 zip(series20.window_start, series20.window_end, series20.bpm)
                 if s < t_switch < e]
    mid_ok = len(straddled) == 1 and 70.0 < straddled[0] < 100.0

    ok = pre and post and pre_ok and post_ok and mid_ok
    detail = (f"T=5 pre {min(pre):.1f}..{max(pre):.1f} (70±4), "
              f"post {min(post):.1f}..{max(post):.1f} (100±4), "
              f"{len(straddle5)} straddling excluded; "
              f"T=20 straddled {straddled[0]:.1f} in (70, 100)")
    check("A2 step change", bool(ok), detail)


def test_a3_window_length_trend(noisy_pairs, check):
    rgb, _ = noisy_pairs
    report = evaluate_sessions(rgb, [5.0, 11.0])
    agg = {a.window_s: a.sub52_bpm for a in report.aggregates}
    n = {a.window_s: a.n_sessions for a in report.aggregates}
    ok = n == {5.0: 10, 11.0: 10} and agg[5.0] > agg[11.0]
    check("A3 window-length trend", ok,
           f"mean sub52 T=5 {agg[5.0]:.3f} > T=11 {agg[11.0]:.3f} bpm "
           f"(10 noisy sessions)")


def test_a4_nir_parity(noisy_pairs, check):
    rgb, nir = noisy_pairs
    means = {}
    for label, paths in (("rgb", rgb), ("nir", nir)):
        report = evaluate_sessions(paths, [10.0])
        assert report.channel == label  # from the renders' pixel format
        means[label] = report.aggregates[0].sub52_bpm
    gap = abs(means["rgb"] - means["nir"])
    check("A4 NIR replication parity", gap <= 1.5,
           f"sub52 rgb {means['rgb']:.3f} vs gray8 {means['nir']:.3f} bpm, "
           f"gap {gap:.3f}<=1.5")


def test_a5_metric_oracle(check):
    rng = np.random.default_rng(50)
    checked = 0
    worst = 0.0
    for _ in range(1000):
        n_win = int(rng.integers(1, 10))
        length = float(rng.integers(2, 20))
        est = rng.uniform(45.0, 210.0, n_win)
        starts = np.arange(n_win) * length
        series = HrSeries(window_start=starts, window_end=starts + length,
                          bpm=est)
        times, bpm = [], []
        for i in range(n_win):
            k = int(rng.integers(1, 4))
            ts = np.sort(rng.uniform(i * length, (i + 1) * length - 1e-6, k))
            times.extend(ts.tolist())
            bpm.extend(rng.uniform(45.0, 210.0, k).tolist())
        gt = GroundTruth(times=np.array(times), bpm=np.array(bpm))
        gt_means = ref_window_means(
            list(zip(times, bpm)),
            list(zip(series.window_start.tolist(), series.window_end.tolist())))

        aligned = align_groundtruth(gt, series.window_start, series.window_end)
        pairs = [
            (sub52_mae(series, aligned), ref_sub52(est.tolist(), gt_means)),
            (sub51_error(series, aligned), ref_sub51(est.tolist(), gt_means)),
            (sub52_mae(series, np.array(gt_means)), ref_mae(est.tolist(), gt_means)),
            (float(series.bpm.mean()), ref_aggregate(est.tolist())),
        ]
        for got, want in pairs:
            # relative gap with a 1 bpm floor: sub51 subtracts two
            # near-equal means, so its tiny result carries the absolute
            # rounding of the large inputs
            err = abs(got - want) / max(abs(want), 1.0)
            worst = max(worst, err)
            assert err <= 1e-12, (got, want)
        checked += len(pairs)
    check("A5 metric oracle equivalence", checked == 4000,
           f"{checked} comparisons on 1000 randomized instances, "
           f"worst gap {worst:.2e}<=1e-12 relative (floored at 1 bpm)")


def test_a6_dsp_invariants(clean72_session, tmp_path, check):
    # bandpass response at the tap level
    taps = design_bandpass_taps(30.0, 1800, DEFAULT_BAND)
    k = np.arange(len(taps))

    def gain(f):
        return abs(np.sum(taps * np.exp(-2j * np.pi * f * k / 30.0)))

    dc_db = 20 * math.log10(max(gain(0.0), 1e-300))
    mid_db = 20 * math.log10(gain(1.2))
    resp_ok = dc_db <= -40.0 and abs(mid_db) <= 1.0

    # pixel-scale invariance of the final bpm series
    manifest = open_session(clean72_session / "session.json")
    boxes = load_box_track(manifest.boxes_path, manifest.frame_count)
    values = extract_traces(map_frames(manifest),
                            *place_regions(boxes, manifest.width, manifest.height))
    # build_pulse_signal consumes the means it is given: each call gets its own
    reference = estimate_series(build_pulse_signal(values.copy(), manifest.fps, DEFAULT_BAND,
                                                   "chrom"), WindowSpec(10.0))
    scale_gap = 0.0
    for c in (0.5, 1.5):
        series = estimate_series(build_pulse_signal(c * values, manifest.fps, DEFAULT_BAND,
                                                    "chrom"), WindowSpec(10.0))
        scale_gap = max(scale_gap, float(np.max(np.abs(
            series.bpm - reference.bpm))))
    scale_ok = scale_gap <= 1e-9

    # two full synth -> estimate runs, byte identical
    files = {}
    for run in ("r1", "r2"):
        sess = tmp_path / run / "sess"
        est = tmp_path / run / "est"
        assert main(["synth", "--out", str(sess), "--duration", "20",
                     "--width", "16", "--height", "16", "--noise", "1.5",
                     "--drift", "0.02", "--seed", "42"]) == 0
        assert main(["estimate", str(sess), "--out", str(est)]) == 0
        files[run] = [(sess / "frames.raw").read_bytes(),
                      (est / "estimates.csv").read_bytes(),
                      (est / "summary.json").read_bytes()]
    determinism_ok = files["r1"] == files["r2"]

    # window-count formula over randomized integer-aligned durations
    rng = np.random.default_rng(60)
    count_ok = True
    for _ in range(400):
        fps = float(rng.integers(10, 61))
        duration = int(rng.integers(3, 300))
        length = int(rng.integers(2, duration + 1))
        hop = int(rng.integers(1, length + 1))
        _, _, count = partition_windows(int(duration * fps), fps,
                                        WindowSpec(float(length), float(hop)))
        if count != math.floor((duration - length) / hop) + 1:
            count_ok = False
            break

    ok = resp_ok and scale_ok and determinism_ok and count_ok
    check("A6 DSP invariants", ok,
           f"DC {dc_db:.1f}dB<=-40, 1.2Hz {mid_db:+.2f}dB in ±1, "
           f"scale gap {scale_gap:.1e}<=1e-9 bpm, "
           f"runs byte-identical={determinism_ok}, "
           f"window count exact over 400 draws={count_ok}")


def test_a7_performance(tmp_path, check):
    manifest_path = _render(tmp_path, "hd", width=1280, height=720,
                            hr_profile=ConstantProfile(72.0))
    try:
        start = time.perf_counter()
        series = estimate_series(load_session(open_session(manifest_path)).signal,
                                 WindowSpec(10.0))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp_path / "hd", ignore_errors=True)  # ~5 GB of frames
    mean_off = abs(float(series.bpm.mean()) - 72.0)
    check("A7 performance", elapsed < 60.0 and mean_off < 1.0,
           f"1280x720 60s session estimated in {elapsed:.1f}s<60s "
           f"(mean {mean_off:.3f} bpm off truth)")


def test_reference_figures_reported(noisy_pairs, capfd):
    # context only, never asserted: published dataset-level MAE for this
    # pipeline family on the edBB desktop benchmark
    rgb, _ = noisy_pairs
    report = evaluate_sessions(rgb, [10.0])
    ours = report.aggregates[0].sub52_bpm
    session, monitoring = PUBLISHED_MAE["5.1"][1], PUBLISHED_MAE["5.2"][1]
    with capfd.disabled():
        print(f"INFO reference (not asserted): session protocol T=10 "
              f"rgb {session['rgb'][10.0]} bpm, "
              f"nir {session['nir'][10.0]} bpm; "
              f"monitoring T=11 rgb {monitoring['rgb'][11.0]} bpm; "
              f"this synthetic run T=10 sub52 {ours:.2f} bpm", flush=True)
