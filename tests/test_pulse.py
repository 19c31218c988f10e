from __future__ import annotations

import json

import numpy as np
import pytest

from facepulse import (BandLimits, DEFAULT_BAND, RawTrace, RoiLayout, bandpass,
                       build_pulse_signal, combine_channels,
                       design_bandpass_taps, detrend, fuse_rois,
                       load_box_track, map_frames, normalize_segment,
                       open_session)
from facepulse.errors import (AllFramesInvalidError, InputError,
                              LengthMismatchError, NonPositiveMeanError,
                              SignalTooShortError, WindowTooShortError,
                              ZeroVarianceError)
from facepulse.pulse import REDUCE_BLOCK_FRAMES, extract_traces
from facepulse.roi import place_regions

from _reference import ref_roi_means


def _region_mean(pixels: np.ndarray, rect) -> tuple[float, float, float]:
    """Trace channels of one 16x16 frame whose three regions are all `rect`,
    placed on a full-frame box by a layout of sixteenths."""
    frac = tuple(v / 16 for v in rect)
    trace = extract_traces(pixels[None], np.array([[0.0, 0.0, 16.0, 16.0]]),
                           10.0, RoiLayout(frac, frac, frac))
    assert np.array_equal(trace.values[0, 1:], trace.values[0, :2])
    return tuple(trace.values[0, 0].tolist())


def _response(taps: np.ndarray, freq: float, fps: float) -> float:
    """Filter gain at freq from the tap values alone (direct DFT sum)."""
    k = np.arange(len(taps))
    return abs(np.sum(taps * np.exp(-2j * np.pi * freq * k / fps)))


def _fit_amplitude(signal: np.ndarray, freq: float, fps: float) -> float:
    t = np.arange(len(signal)) / fps
    basis = np.column_stack([np.sin(2 * np.pi * freq * t),
                             np.cos(2 * np.pi * freq * t)])
    coef, *_ = np.linalg.lstsq(basis, signal, rcond=None)
    return float(np.hypot(*coef))


class TestSpatialMean:
    def test_exact_mean(self):
        pixels = np.zeros((16, 16, 3), dtype=np.uint8)
        pixels[0:2, 0:2, 1] = [[10, 20], [30, 40]]
        r, g, b = _region_mean(pixels, (0, 0, 2, 2))
        assert g == 25.0
        assert r == 0.0 and b == 0.0

    def test_constant_frame(self):
        pixels = np.full((16, 16, 3), 77, dtype=np.uint8)
        assert _region_mean(pixels, (3, 4, 5, 6)) == (77.0, 77.0, 77.0)

    def test_replicated_planes_agree(self):
        # a gray8 plane is reduced once and its mean fills all three channels
        rng = np.random.default_rng(1)
        plane = rng.integers(0, 256, (16, 16, 1), dtype=np.uint8)
        r, g, b = _region_mean(plane, (2, 2, 8, 8))
        assert r == g == b == plane[2:10, 2:10].mean()

    def test_degenerate_rois(self):
        pixels = np.zeros((16, 16, 3), dtype=np.uint8)
        pixels[14:, 14:] = 8
        # a region past the frame edge is clamped to the 2x2 inside it
        assert _region_mean(pixels, (14, 14, 4, 4)) == (8.0, 8.0, 8.0)
        # below MIN_ROI_AREA the frame is degenerate, and it is the only one
        with pytest.raises(AllFramesInvalidError):
            _region_mean(pixels, (0, 0, 1, 2))


def _session(directory):
    manifest = open_session(directory / "session.json")
    boxes = load_box_track(directory / "boxes.csv", manifest.frame_count)
    return map_frames(manifest), boxes, manifest.fps


class TestExtractTraces:
    def test_static_box_all_valid(self, tiny_session):
        trace = extract_traces(*_session(tiny_session))
        assert len(trace) == 20
        assert trace.valid.all()
        assert trace.values.shape == (20, 3, 3)
        assert np.all((trace.values >= 0) & (trace.values <= 255))

    def test_box_count_mismatch(self, tiny_session):
        frames, boxes, fps = _session(tiny_session)
        with pytest.raises(LengthMismatchError):
            extract_traces(frames, boxes[:-1], fps)

    def test_degenerate_frame_interpolated(self, tiny_session):
        frames, boxes, fps = _session(tiny_session)
        boxes[10] = (-300.0, -300.0, 30.0, 30.0)
        trace = extract_traces(frames, boxes, fps)
        assert not trace.valid[10] and trace.valid[9] and trace.valid[11]
        expected = 0.5 * (trace.values[9] + trace.values[11])
        assert np.allclose(trace.values[10], expected, rtol=0, atol=1e-12)

    def test_all_frames_degenerate(self, tiny_session):
        frames, boxes, fps = _session(tiny_session)
        boxes[:] = (-300.0, -300.0, 30.0, 30.0)
        with pytest.raises(AllFramesInvalidError):
            extract_traces(frames, boxes, fps)

    @staticmethod
    def _assert_matches_reference(frames, boxes):
        trace = extract_traces(frames, boxes, 30.0)
        rects, valid = place_regions(boxes, frames.shape[2], frames.shape[1])
        expected = ref_roi_means(frames.tolist(), rects.tolist())
        assert np.array_equal(trace.valid, valid)
        for i in np.flatnonzero(valid):
            for r in range(3):
                means = expected[i][r]
                assert trace.values[i, r].tolist() == means * (3 // len(means))

    def test_reduction_matches_reference(self):
        # every frame has its own rects: in the first half only y and h
        # move, in the second only x and w; frames 20-24 leave the frame
        rng = np.random.default_rng(9)
        n = 60
        rgb = rng.integers(0, 256, (n, 24, 32, 3), dtype=np.uint8)
        alternate = 5 * (np.arange(n // 2) % 2) + rng.uniform(0, 2, n // 2)
        boxes = np.tile([6.0, 4.0, 16.0, 14.0], (n, 1))
        boxes[:n // 2, 1], boxes[:n // 2, 3] = alternate, rng.uniform(12, 16, n // 2)
        boxes[n // 2:, 0], boxes[n // 2:, 2] = alternate, rng.uniform(12, 20, n // 2)
        boxes[20:25, 0] = 40.0
        rects, valid = place_regions(boxes, 32, 24)
        assert (rects[1:] != rects[:-1]).any(axis=(1, 2)).all()
        assert not valid[20:25].any() and valid.sum() == n - 5
        self._assert_matches_reference(rgb, boxes)
        self._assert_matches_reference(rgb[..., 1:2].copy(), boxes)

    def test_reduction_crosses_block_edges(self):
        n = 2 * REDUCE_BLOCK_FRAMES + 7
        rgb = np.random.default_rng(10).integers(0, 256, (n, 20, 20, 3),
                                                 dtype=np.uint8)
        self._assert_matches_reference(rgb, np.tile([2.5, 1.0, 15.0, 17.0], (n, 1)))


class TestNormalize:
    def test_formula(self):
        out = normalize_segment(np.array([100.0, 110.0, 90.0]))
        assert np.allclose(out, [0.0, 0.1, -0.1], rtol=0, atol=1e-15)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        seg = rng.uniform(50, 200, 400)
        assert np.allclose(normalize_segment(seg), normalize_segment(7.3 * seg),
                           rtol=0, atol=1e-12)

    def test_errors(self):
        with pytest.raises(NonPositiveMeanError):
            normalize_segment(np.zeros(10))
        with pytest.raises(SignalTooShortError):
            normalize_segment(np.array([1.0]))


class TestDetrend:
    def test_constant_to_zero(self):
        out = detrend(np.full(300, 5.0), 30.0, 1.5)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_ramp_interior(self):
        slope = 0.02
        # 45-sample window is symmetric, a ramp cancels exactly
        out = detrend(slope * np.arange(600), 30.0, 1.5)
        assert np.allclose(out[45:-45], 0.0, atol=1e-9)
        # a 30-sample window sits half a sample off centre and leaves
        # a -slope/2 residue
        out = detrend(slope * np.arange(600), 30.0, 1.0)
        assert np.allclose(out[31:-31], -0.5 * slope, atol=1e-9)

    def test_sinusoid_response_matches_kernel_dft(self):
        # independent oracle: the moving-average kernel's frequency
        # response, evaluated directly, predicts the output amplitude
        fps, freq, window_s = 30.0, 1.2, 1.0
        w = round(window_s * fps)
        offsets = np.arange(-((w - 1) // 2), w // 2 + 1)
        h_ma = np.mean(np.exp(2j * np.pi * freq * offsets / fps))
        expected = abs(1.0 - h_ma)
        t = np.arange(1800) / fps
        out = detrend(np.sin(2 * np.pi * freq * t), fps, window_s)
        measured = _fit_amplitude(out[w:-w], freq, fps)
        assert measured == pytest.approx(expected, abs=1e-3)
        assert 0.8 <= measured <= 1.2

    def test_dc_removal_idempotent(self):
        once = detrend(np.full(200, 3.0), 30.0, 1.5)
        twice = detrend(once, 30.0, 1.5)
        assert np.allclose(once, twice, atol=1e-9)
        assert np.allclose(twice, 0.0, atol=1e-9)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            detrend(np.ones(100), 30.0, 0.05)


class TestBandpass:
    def test_tap_count_and_symmetry(self):
        taps = design_bandpass_taps(30.0)
        assert len(taps) == 171
        assert len(taps) % 2 == 1
        assert np.allclose(taps, taps[::-1], atol=1e-15)

    def test_frequency_response_bounds(self):
        taps = design_bandpass_taps(30.0)
        assert _response(taps, 0.0, 30.0) <= 10 ** (-40 / 20)
        db_tol = (10 ** (-1 / 20), 10 ** (1 / 20))
        assert db_tol[0] <= _response(taps, 1.2, 30.0) <= db_tol[1]
        for freq in np.linspace(1.25 * 0.7, 0.8 * 4.0, 25):
            assert db_tol[0] <= _response(taps, freq, 30.0) <= db_tol[1]
        assert _response(taps, 6.0, 30.0) <= 0.1

    def test_dc_input_rejected(self):
        out = bandpass(np.ones(600), 30.0)
        assert np.max(np.abs(out)) <= 0.01

    def test_inband_tone_preserved(self):
        t = np.arange(900) / 30.0
        out = bandpass(np.sin(2 * np.pi * 1.2 * t), 30.0)
        amp = _fit_amplitude(out[100:-100], 1.2, 30.0)
        assert 0.89 <= amp <= 1.12

    def test_out_of_band_tone_suppressed(self):
        t = np.arange(900) / 30.0
        out = bandpass(np.sin(2 * np.pi * 6.0 * t), 30.0)
        assert _fit_amplitude(out[100:-100], 6.0, 30.0) <= 0.1

    def test_output_mean_negligible(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            signal = rng.normal(rng.uniform(-5, 5), 1.0, 500)
            out = bandpass(signal, 30.0)
            assert abs(out.mean()) <= 1e-6 * np.max(np.abs(out))

    def test_signal_shorter_than_filter(self):
        with pytest.raises(SignalTooShortError):
            bandpass(np.ones(100), 30.0)

    def test_band_above_nyquist(self):
        with pytest.raises(InputError):
            bandpass(np.ones(600), 7.0, BandLimits(0.7, 4.0))


class TestCombine:
    def test_green_and_intensity(self):
        rng = np.random.default_rng(4)
        window = rng.normal(0, 1, (50, 3))
        assert np.array_equal(combine_channels(window, "green"), window[:, 1])
        assert np.allclose(combine_channels(window, "intensity"),
                           window.mean(axis=1), atol=1e-15)

    def test_chrom_algebra_oracle(self):
        # with R, G, B modulated at 0.5x, 1x, 0.3x of a common pulse,
        # X = -0.5 a s and Y = 1.3 a s, so the projection is exactly -a s
        t = np.arange(300) / 30.0
        s = np.sin(2 * np.pi * 1.2 * t)
        a = 0.02
        window = np.column_stack([0.5 * a * s, a * s, 0.3 * a * s])
        out = combine_channels(window, "chrom")
        assert np.allclose(out, -a * s, rtol=0, atol=1e-12)

    def test_chrom_replicated_channels_collapse(self):
        s = np.sin(np.linspace(0, 20, 200))
        window = np.column_stack([s, s, s])
        with pytest.raises(ZeroVarianceError):
            combine_channels(window, "chrom")

    def test_chrom_zero_variance_y(self):
        with pytest.raises(ZeroVarianceError):
            combine_channels(np.zeros((50, 3)), "chrom")

    def test_green_selector_passthrough(self):
        t = np.arange(200) / 30.0
        g = 0.05 * np.sin(2 * np.pi * 1.0 * t)
        window = np.column_stack([np.zeros_like(g), g, np.zeros_like(g)])
        assert np.array_equal(combine_channels(window, "green"), g)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            combine_channels(np.zeros((50, 3)), "pca")


class TestFuse:
    def test_identical_signals(self):
        s = np.sin(np.linspace(0, 20, 300)) + 0.3
        fused = fuse_rois([s, s, s], 30.0)
        assert np.allclose(fused.samples, s - s.mean(), atol=1e-12)

    def test_cancellation(self):
        s = np.sin(np.linspace(0, 20, 300))
        fused = fuse_rois([s, -s, np.zeros_like(s)], 30.0)
        assert np.allclose(fused.samples, 0.0, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            fuse_rois([np.zeros(10), np.zeros(11), np.zeros(10)], 30.0)

    def test_fusion_improves_snr(self):
        fps, n = 30.0, 600
        freq = 1.2  # exact DFT bin: 1.2 = 24 * 30 / 600
        t = np.arange(n) / fps
        s = np.sin(2 * np.pi * freq * t)
        rng = np.random.default_rng(5)
        noisy = 0.2 * s + rng.normal(0, 1.0, n)

        def snr(x):
            proj = np.abs(np.sum(x * np.exp(-2j * np.pi * freq * t))) ** 2
            total = np.sum(x ** 2) * n
            return proj / (total - proj)

        fused = fuse_rois([s, s, noisy], fps)
        assert snr(fused.samples) > snr(noisy)


class TestBuildPulseSignal:
    def _trace(self, n=600, fps=30.0) -> RawTrace:
        t = np.arange(n) / fps
        values = np.zeros((n, 3, 3))
        depths = (0.5, 1.0, 0.3)
        bases = (170.0, 120.0, 100.0)
        pulse = np.sin(2 * np.pi * 1.2 * t)
        for r in range(3):
            roi_gain = 1.0 + 0.02 * r
            for c in range(3):
                values[:, r, c] = bases[c] * roi_gain * (
                    1.0 + 0.02 * depths[c] * pulse)
        return RawTrace(fps=fps, values=values)

    def test_zero_mean_invariant(self):
        signal = build_pulse_signal(self._trace())
        assert abs(signal.samples.mean()) <= 1e-9 * np.max(np.abs(signal.samples))

    def test_chrom_falls_back_on_replicated_channels(self):
        trace = self._trace()
        trace.values[:, :, 0] = trace.values[:, :, 1]
        trace.values[:, :, 2] = trace.values[:, :, 1]
        chrom = build_pulse_signal(trace, method="chrom")
        intensity = build_pulse_signal(trace, method="intensity")
        assert np.allclose(chrom.samples, intensity.samples, atol=1e-12)

    def test_mono_replication_equivalence(self):
        # intensity on three replicated channels must equal the single
        # plane pushed through the same chain directly
        trace = self._trace()
        for c in (0, 2):
            trace.values[:, :, c] = trace.values[:, :, 1]
        via_pipeline = build_pulse_signal(trace, method="intensity")

        region_signals = []
        for r in range(3):
            s = normalize_segment(trace.values[:, r, 1])
            s = detrend(s, trace.fps, 1.5)
            region_signals.append(bandpass(s, trace.fps, DEFAULT_BAND))
        direct = fuse_rois(region_signals, trace.fps)
        scale = np.max(np.abs(direct.samples))
        assert np.allclose(via_pipeline.samples, direct.samples,
                           rtol=0, atol=1e-12 * max(scale, 1.0))


class TestPixelScaleInvariance:
    def _write_scaled_session(self, tmp_path, pixels: np.ndarray, tag: str):
        d = tmp_path / tag
        d.mkdir()
        (d / "frames.raw").write_bytes(pixels.astype(np.uint8).tobytes())
        (d / "boxes.csv").write_text("frame,x,y,w,h\n*,0,0,16,16\n")
        (d / "session.json").write_text(json.dumps({
            "width": 16, "height": 16, "fps": 10.0, "pixel_format": "rgb8",
            "frame_count": len(pixels), "frames": "frames.raw",
            "boxes": "boxes.csv"}))
        return d

    def _signal(self, session_dir, method):
        trace = extract_traces(*_session(session_dir))
        return build_pulse_signal(trace, method=method)

    @pytest.mark.parametrize("method", ["green", "intensity", "chrom"])
    def test_scaling_pixels_leaves_signal_unchanged(self, tmp_path, method):
        # even pixel values in [40, 120] survive x0.5 and x1.5 without
        # quantisation error, so the frame-level invariance is exact
        rng = np.random.default_rng(6)
        base = 2 * rng.integers(20, 61, size=(200, 16, 16, 3))
        reference = self._signal(
            self._write_scaled_session(tmp_path, base, "c10"), method)
        for c, tag in ((0.5, "c05"), (1.5, "c15")):
            scaled = self._signal(
                self._write_scaled_session(tmp_path, c * base, tag), method)
            atol = 1e-9 * np.max(np.abs(reference.samples))
            assert np.allclose(scaled.samples, reference.samples,
                               rtol=0, atol=atol)
