from __future__ import annotations

import math
import shutil
import tracemalloc

import numpy as np
import pytest

from facepulse import (ConstantProfile, RampProfile, StepProfile, SynthConfig,
                       WindowSpec, estimate_series, evaluate_sessions, load_session,
                       parallel, parse_profile, render_session, synth)
from facepulse.errors import InputError
from facepulse.frameio import map_frames, open_session
from facepulse.synth import _channel_levels, _noisy_frames, _quantize, _render_frame


class TestProfiles:
    def test_phase_examples(self):
        # the rendered pulse phase is 2*pi times the profile's cycle count
        assert 2 * math.pi * ConstantProfile(60.0).cycles_at(1.0, 60.0) == pytest.approx(
            2 * math.pi)
        assert 2 * math.pi * ConstantProfile(72.0).cycles_at(5.0, 60.0) == pytest.approx(
            2 * math.pi * 6.0)
        step = StepProfile(60.0, 120.0, 10.0)
        assert 2 * math.pi * step.cycles_at(20.0, 60.0) == pytest.approx(2 * math.pi * 30.0)

    @pytest.mark.parametrize("profile", [
        StepProfile(70.0, 100.0, 12.5),
        RampProfile(55.0, 130.0),
        ConstantProfile(88.0),
    ])
    def test_cycles_integrate_instantaneous_rate(self, profile):
        # cycles_at must be the integral of bpm_at / 60; midpoint
        # quadrature per smooth piece so the step's jump stays clean
        duration = 40.0
        for t in (0.0, 7.3, 12.5, 39.9):
            breaks = [0.0, t]
            if isinstance(profile, StepProfile) and 0.0 < profile.t_switch < t:
                breaks.insert(1, profile.t_switch)
            expected = 0.0
            for a, b in zip(breaks, breaks[1:]):
                grid = np.linspace(a, b, 10001)
                mids = 0.5 * (grid[:-1] + grid[1:])
                rates = [profile.bpm_at(float(u), duration) / 60.0
                         for u in mids]
                expected += math.fsum(rates) * (b - a) / (len(grid) - 1)
            assert profile.cycles_at(t, duration) == pytest.approx(
                expected, abs=1e-6)

    def test_step_rate_at_switch_instant(self):
        step = StepProfile(70.0, 100.0, 30.0)
        assert step.bpm_at(29.999, 60.0) == 70.0
        assert step.bpm_at(30.0, 60.0) == 100.0

    @pytest.mark.parametrize("bad", [
        lambda: ConstantProfile(42.0),
        lambda: ConstantProfile(240.0),
        lambda: StepProfile(41.0, 100.0, 10.0),
        lambda: StepProfile(70.0, 100.0, 0.0),
        lambda: RampProfile(70.0, 300.0),
    ])
    def test_rate_bounds_exclusive(self, bad):
        with pytest.raises(InputError):
            bad()

    def test_boundary_rates_just_inside(self):
        ConstantProfile(42.01)
        ConstantProfile(239.99)
        SynthConfig(hr_profile=StepProfile(70.0, 100.0, 0.01))


class TestParseProfile:
    def test_forms(self):
        assert parse_profile("constant:72") == ConstantProfile(72.0)
        assert parse_profile("step:70,100,30") == StepProfile(70.0, 100.0, 30.0)
        assert parse_profile("ramp:60,90") == RampProfile(60.0, 90.0)

    @pytest.mark.parametrize("text", [
        "constant", "constant:", "constant:abc", "constant:60,70",
        "step:70,100", "ramp:60", "wiggle:60", "",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(InputError):
            parse_profile(text)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"width": 15}, {"height": 8}, {"fps": 0.0}, {"duration": 0.0},
        {"pulse_amplitude": 0.0}, {"pulse_amplitude": 0.11},
        {"noise_sigma": -0.1}, {"illum_drift": 1.0}, {"illum_drift": -0.2},
        {"base_color": (170.0, 120.0, 300.0)},
        {"hr_profile": StepProfile(70.0, 100.0, 60.0)},  # switch past the end
        {"duration": 0.5},  # no whole second: no groundtruth sample
        {"duration": 2.0, "fps": 0.2},  # no frame
        {"duration": math.nan}, {"fps": math.nan},
        # values render_session would render wrongly or fail on
        {"noise_sigma": math.nan}, {"noise_sigma": math.inf},
        {"width": 64.5}, {"height": 64.0}, {"seed": 1.5, "noise_sigma": 1.0},
        {"base_color": (170.0, 120.0)}, {"base_color": "abc"}, {"hr_profile": 72.0},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(InputError):
            SynthConfig(**kwargs)

    def test_frame_count(self):
        assert SynthConfig(duration=2.0, fps=10.0).frame_count == 20
        assert SynthConfig(duration=60.0).frame_count == 1800


class TestQuantize:
    def test_half_even_and_saturation(self):
        out = _quantize(np.array([0.5, 1.5, 2.5, 254.5, 255.7, -3.0]))
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 2, 2, 254, 255, 0]


class TestRendering:
    def test_groundtruth_rows_constant(self, clean72_session):
        lines = (clean72_session / "groundtruth.csv").read_text().splitlines()
        assert lines[0] == "t,bpm"
        assert len(lines) == 61
        assert lines[1] == "0.0,72.0"
        assert all(line.endswith(",72.0") for line in lines[1:])

    def test_groundtruth_rows_step(self, tmp_path):
        render_session(SynthConfig(
            width=16, height=16, duration=40.0,
            hr_profile=StepProfile(70.0, 100.0, 30.0)), tmp_path)
        rows = dict(
            line.split(",") for line in
            (tmp_path / "groundtruth.csv").read_text().splitlines()[1:])
        assert rows["29.0"] == "70.0"
        assert rows["30.0"] == "100.0"

    def test_box_track_is_static_central_block(self, clean72_session):
        text = (clean72_session / "boxes.csv").read_text()
        assert text == "frame,x,y,w,h\n*,13,13,38,38\n"

    def test_noisy_render_bitwise_deterministic(self, tmp_path):
        config = SynthConfig(width=16, height=16, duration=3.0,
                             noise_sigma=2.0, illum_drift=0.05, seed=7)
        for d in ("a", "b"):
            render_session(config, tmp_path / d)
        for name in ("frames.raw", "boxes.csv", "groundtruth.csv",
                     "session.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_default_seed_is_zero(self, tmp_path):
        for name, seed in (("default", {}), ("zero", {"seed": 0})):
            render_session(SynthConfig(width=16, height=16, duration=2.0, noise_sigma=2.0,
                                       **seed), tmp_path / name)
        assert (tmp_path / "default" / "frames.raw").read_bytes() == \
            (tmp_path / "zero" / "frames.raw").read_bytes()

    def test_sub_unit_noise_is_drawn(self, tmp_path):
        for name, sigma in (("clean", 0.0), ("noisy", 0.5)):
            render_session(SynthConfig(width=16, height=16, duration=2.0, noise_sigma=sigma),
                           tmp_path / name)
        assert (tmp_path / "clean" / "frames.raw").read_bytes() != \
            (tmp_path / "noisy" / "frames.raw").read_bytes()

    @pytest.mark.parametrize("spare, made", [(0, True), (-1, False)])
    def test_free_space_bound_is_exact(self, tmp_path, monkeypatch, spare, made):
        # 20 frames of 16x16 rgb8 and 9 bytes for each of 2 groundtruth rows
        need = 20 * 16 * 16 * 3 + 9 * 2
        usage = shutil.disk_usage(tmp_path)._replace(free=need + spare)
        monkeypatch.setattr(synth.shutil, "disk_usage", lambda path: usage)
        config = SynthConfig(width=16, height=16, fps=10.0, duration=2.0)
        if made:
            render_session(config, tmp_path / "s")
        else:
            with pytest.raises(InputError, match="needs at least"):
                render_session(config, tmp_path / "s")
        assert (tmp_path / "s").exists() == made

    def test_uniform_frame_fast_path_matches_general_path(self):
        # zero normals compose to the levels alone: frames 3 to 7 tiled
        config = SynthConfig(width=16, height=16, duration=2.0)
        tiled = b"".join(_render_frame(config, i / config.fps) for i in range(3, 8))
        assert _noisy_frames(config, 3, np.zeros((5, 16, 16, 3))).tobytes() == tiled

    def test_mono_levels_and_format(self, tmp_path):
        manifest = render_session(
            SynthConfig(width=16, height=16, duration=2.0, mono=True),
            tmp_path)
        assert manifest.pixel_format == "gray8"
        frame = map_frames(open_session(tmp_path / "session.json"))[0]
        # at t = 0 the wave is zero: every pixel sits at the base level
        base = round((170.0 + 120.0 + 100.0) / 3.0)
        assert np.all(frame == base)
        assert frame.shape == (16, 16, 1)

    @pytest.mark.parametrize("kwargs", [
        {"fps": 1e300, "duration": 1.0},
        {"duration": 1e300},
        {"width": 10**9, "height": 10**9},
        {"fps": 1e-300, "duration": 1e300},  # one frame, 1e300 groundtruth rows
    ], ids=["fps", "duration", "frame-size", "groundtruth-rows"])
    def test_larger_than_free_space_refused(self, tmp_path, kwargs):
        # refused before out_dir or any file in it is made
        with pytest.raises(InputError, match="needs at least"):
            render_session(SynthConfig(**kwargs), tmp_path / "s")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["file", "file/sub", "n" * 300],
                             ids=["file", "under-file", "long-name"])
    def test_out_dir_not_a_directory_refused(self, tmp_path, out):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        with pytest.raises(InputError, match="not a directory|name too long"):
            render_session(SynthConfig(width=16, height=16, duration=2.0), tmp_path / out)
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "kept\n"

    def test_levels_follow_harmonic_and_drift(self):
        # mono base level 130: at 2.5 s the 0.1 Hz drift peaks and a 72 bpm
        # pulse completes its third cycle
        config = SynthConfig(illum_drift=0.2, mono=True)
        assert _channel_levels(config, 2.5)[0] == pytest.approx(130.0 * 1.2)
        # an eighth of a 60 bpm cycle: the fundamental is sin(pi/4), the harmonic 1
        config = SynthConfig(hr_profile=ConstantProfile(60.0), second_harmonic=True, mono=True)
        assert _channel_levels(config, 0.125)[0] == pytest.approx(
            130.0 * (1.0 + 0.02 * (math.sqrt(0.5) + 0.3)))

    def test_channel_depth_ordering(self):
        config = SynthConfig()
        quarter_cycle = 60.0 / 72.0 / 4.0  # wave peak of the default profile
        levels = _channel_levels(config, quarter_cycle)
        r, g, b = levels / np.array([170.0, 120.0, 100.0])
        assert g - 1.0 == pytest.approx(0.02, rel=1e-3)
        assert (r - 1.0) / (g - 1.0) == pytest.approx(0.5, rel=1e-3)
        assert (b - 1.0) / (g - 1.0) == pytest.approx(0.3, rel=1e-3)


class TestRenderHeap:
    """tracemalloc peak of a 2 s noisy render on 2 workers: the block being
    composed, the next one being drawn, and the composed block's pixels."""

    # 640x480: a frame is a block alone, two of normals (7.4 MB each) and
    # one of pixels (0.9 MB), under the 22.8 MB of one frame composed out
    # of place; 64x64: two 10-frame blocks of normals (0.98 MB each) and
    # one of pixels (0.12 MB)
    @pytest.mark.parametrize("width, height, limit_mb", [(640, 480, 22.8), (64, 64, 2.15)])
    def test_peak(self, monkeypatch, tmp_path, width, height, limit_mb):
        monkeypatch.setattr(parallel, "WORKERS", 2)
        config = SynthConfig(width=width, height=height, duration=2.0, noise_sigma=2.0)
        tracemalloc.start()
        try:
            render_session(config, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6


class TestClosure:
    def test_constant_rate_recovered_at_all_windows(self, clean72_session):
        # end-to-end closure: the rendered pulse comes back out of the
        # estimator well inside half a spectral bin at every window length
        report = evaluate_sessions([clean72_session / "session.json"],
                                   [5.0, 10.0, 15.0, 20.0])
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.sub52_bpm <= 60.0 / (2.0 * row.window_s)
        by_window = {r.window_s: r for r in report.rows}
        assert by_window[10.0].sub51_bpm <= 1.5

    def test_drift_rejected(self, tmp_path):
        base = dict(duration=30.0, hr_profile=ConstantProfile(66.0))
        means = []
        for name, drift in (("still", 0.0), ("drift", 0.1)):
            d = tmp_path / name
            render_session(SynthConfig(illum_drift=drift, **base), d)
            series = estimate_series(load_session(open_session(d)).signal,
                                     WindowSpec(10.0))
            means.append(float(series.bpm.mean()))
        assert abs(means[0] - means[1]) < 1.0

    def test_mono_matches_rgb(self, tmp_path):
        base = dict(duration=30.0, hr_profile=ConstantProfile(78.0))
        means = []
        for name, mono in (("rgb", False), ("mono", True)):
            d = tmp_path / name
            render_session(SynthConfig(mono=mono, **base), d)
            series = estimate_series(load_session(open_session(d)).signal,
                                     WindowSpec(10.0))
            means.append(float(series.bpm.mean()))
        assert abs(means[0] - means[1]) < 1.0
        assert means[0] == pytest.approx(78.0, abs=1.0)

    def test_second_harmonic_keeps_fundamental(self, tmp_path):
        render_session(SynthConfig(duration=30.0, second_harmonic=True,
                                   hr_profile=ConstantProfile(66.0)), tmp_path)
        series = estimate_series(load_session(open_session(tmp_path)).signal,
                                 WindowSpec(10.0))
        assert float(series.bpm.mean()) == pytest.approx(66.0, abs=2.0)
