from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from facepulse import BandLimits, DEFAULT_BAND, PipelineParams, load_session, open_session
from facepulse import evaluate, parallel, pulse, roi
from facepulse.errors import (AllFramesInvalidError, FlatSignalError, InputError,
                              NonPositiveMeanError, SignalTooShortError,
                              WindowTooShortError)
from facepulse.frameio import map_frames, open_session
from facepulse.pulse import (COMBINE_METHODS, DETREND_WINDOW_S, REDUCE_BLOCK_FRAMES,
                             bandpass, build_pulse_signal,
                             combine_channels, design_bandpass_taps, detrend,
                             extract_traces, normalize_segment)
from facepulse.roi import load_box_track, place_regions

from _reference import (ref_bandpass, ref_bandpass_taps, ref_combine_region, ref_detrend,
                        ref_roi_means)


def _traces(frames: np.ndarray, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """extract_traces over the regions roi.place_regions places for a box
    track in those frames, and the mask: (values, valid)."""
    rects, valid = place_regions(boxes, frames.shape[2], frames.shape[1])
    return extract_traces(frames, rects, valid), valid


def _region_mean(pixels: np.ndarray, rect) -> tuple[float, ...]:
    """Trace channels of one 16x16 frame whose three regions are all `rect`,
    placed on a full-frame box by region fractions of sixteenths."""
    frac = tuple(v / 16 for v in rect)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roi, "REGION_FRACTIONS", (frac, frac, frac))
        values, _ = _traces(pixels[None], np.array([[0.0, 0.0, 16.0, 16.0]]))
    assert np.array_equal(values[1:], values[:2])
    return tuple(values[0, :, 0].tolist())


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
        # a gray8 plane is reduced once into the trace's one channel
        rng = np.random.default_rng(1)
        plane = rng.integers(0, 256, (16, 16, 1), dtype=np.uint8)
        assert _region_mean(plane, (2, 2, 8, 8)) == (plane[2:10, 2:10].mean(),)

    def test_degenerate_rois(self):
        pixels = np.zeros((16, 16, 3), dtype=np.uint8)
        pixels[14:, 14:] = 8
        # a region past the frame edge is clamped to the 2x2 inside it
        assert _region_mean(pixels, (14, 14, 4, 4)) == (8.0, 8.0, 8.0)
        # below MIN_ROI_AREA the frame is degenerate, and it is the only one
        with pytest.raises(AllFramesInvalidError):
            _region_mean(pixels, (0, 0, 1, 2))


def _raw_trace(values: np.ndarray) -> np.ndarray:
    """A (3, C, n) trace of float64 means, as extract_traces builds it."""
    return np.asarray(values, dtype=np.float64)


def _session(directory):
    manifest = open_session(directory / "session.json")
    boxes = load_box_track(directory / "boxes.csv", manifest.frame_count)
    return map_frames(manifest), boxes


class TestExtractTraces:
    def test_static_box_all_valid(self, tiny_session):
        values, valid = _traces(*_session(tiny_session))
        assert valid.shape == (20,) and valid.all()
        assert values.shape == (3, 3, 20) and values.dtype == np.float64
        assert np.all((values >= 0) & (values <= 255))

    def test_degenerate_frame_interpolated(self, tiny_session):
        frames, boxes = _session(tiny_session)
        boxes[10] = (-300.0, -300.0, 30.0, 30.0)
        values, valid = _traces(frames, boxes)
        assert not valid[10] and valid[9] and valid[11]
        expected = 0.5 * (values[..., 9] + values[..., 11])
        assert np.allclose(values[..., 10], expected, rtol=0, atol=1e-12)

    def test_all_frames_degenerate(self, tiny_session):
        frames, boxes = _session(tiny_session)
        boxes[:] = (-300.0, -300.0, 30.0, 30.0)
        with pytest.raises(AllFramesInvalidError):
            _traces(frames, boxes)

    @staticmethod
    def _assert_matches_reference(frames, boxes):
        values, valid = _traces(frames, boxes)
        rects, placed = place_regions(boxes, frames.shape[2], frames.shape[1])
        expected = ref_roi_means(frames.tolist(), rects.tolist())
        assert np.array_equal(valid, placed)
        for i in np.flatnonzero(valid):
            for r in range(3):
                assert values[r, :, i].tolist() == expected[i][r]

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

    @pytest.mark.parametrize("gather_bytes", [pulse.GATHER_BYTES, 200, 64])
    def test_reduction_mixes_sliced_and_gathered_runs(self, monkeypatch, mixed_runs,
                                                      gather_bytes):
        # runs shorter than REDUCE_BLOCK_FRAMES are gathered in one piece
        # per region and rect size, or, with regions of 8 to 20 pixels, in
        # pieces of 3 to 8 rgb8 frames (200 bytes); at 64 bytes rgb8 is
        # gathered 1 or 2 frames at a time and gray8 3 to 8
        monkeypatch.setattr(pulse, "GATHER_BYTES", gather_bytes)
        frames, boxes, run_lengths = mixed_runs
        rects, valid = place_regions(boxes, 32, 24)
        starts = np.flatnonzero(np.r_[True, (rects[1:] != rects[:-1]).any(axis=(1, 2))])
        assert np.diff(np.append(starts, len(boxes))).tolist() == run_lengths
        assert np.flatnonzero(~valid).tolist() == [56, 57, 58, 60]
        self._assert_matches_reference(frames, boxes)
        self._assert_matches_reference(frames[..., 1:2].copy(), boxes)

    @pytest.mark.parametrize("track, calls", [(1, 9), (2, 4)], ids=["static", "moving"])
    def test_tall_regions_match_reference(self, monkeypatch, tall_gray, track, calls):
        # 35 frames of 240-255 with cheek regions over 257 rows: on one
        # worker the static box is sliced in 3 blocks per region, the
        # moving one gathered in one call per cheek and two for the
        # forehead (2070 bytes a frame); both paths sum through _patch_sums
        monkeypatch.setattr(parallel, "WORKERS", 1)
        heights = []
        patch_sums = pulse._patch_sums

        def counting(patch):
            heights.append(patch.shape[1])
            return patch_sums(patch)

        monkeypatch.setattr(pulse, "_patch_sums", counting)
        self._assert_matches_reference(tall_gray[0], tall_gray[track])
        assert len(heights) == calls and max(heights) > 257


class TestPatchSums:
    @pytest.mark.parametrize("rows", [256, 257, 258, 515, 600])
    @pytest.mark.parametrize("bpp", [3, 1])
    @pytest.mark.parametrize("fill", ["max", "random"])
    def test_exact_at_chunk_edges(self, rows, bpp, fill):
        # 257 rows of 255 fill a uint16 exactly: one more row wraps an
        # unchunked uint16 sum, and the chunked one stays exact
        shape = (2, rows, 5, bpp)
        if fill == "max":
            patch = np.full(shape, 255, dtype=np.uint8)
        else:
            patch = np.random.default_rng(rows).integers(0, 256, shape, dtype=np.uint8)
        exact = patch.sum(axis=(1, 2), dtype=np.int64)
        sums = pulse._patch_sums(patch)
        assert sums.dtype == np.uint64 and sums.tolist() == exact.tolist()
        if fill == "max":
            unchunked = patch.sum(axis=1, dtype=np.uint16).sum(axis=1, dtype=np.int64)
            assert np.array_equal(unchunked, exact) == (rows <= 257)


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
        # a trace too short to normalise is shorter than the bandpass
        # filter, which build_pulse_signal designs before any row is read
        for n in (1, 2, 170):
            with pytest.raises(SignalTooShortError, match=f"{n} samples shorter"):
                build_pulse_signal(_raw_trace(np.zeros((3, 3, n))), 30.0, DEFAULT_BAND,
                                   "chrom")


# frame rates for the reference comparisons: odd and even detrend
# windows, a window rounded half to even (7.5 at 5 fps) and NTSC's rate
_REFERENCE_FPS = [5.0, 10.0, 20.0, 29.97, 30.0]
# (fps, band) pairs from 5 to 60 fps, each band below Nyquist
_TAP_CASES = [(fps, band) for fps in (5.0, 10.0, 12.5, 29.97, 30.0, 60.0)
              for band in (DEFAULT_BAND, BandLimits(0.5, 2.0)) if band.f_hi < fps / 2]
_TAP_IDS = [f"{fps:g}fps-{band.f_lo:g}-{band.f_hi:g}Hz" for fps, band in _TAP_CASES]


def _reference_signal(n: int, fps: float) -> np.ndarray:
    """A normalised trace: pulse, slow drift, noise and an offset."""
    t = np.arange(n) / fps
    noise = np.random.default_rng(n).standard_normal(n)
    return 0.02 * np.sin(2 * np.pi * 1.2 * t) + 0.01 * t + 0.003 * noise + 0.05


class TestDetrend:
    def test_constant_to_zero(self):
        out = detrend(np.full(300, 5.0), 30.0)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_ramp_interior(self):
        slope = 0.02
        # 45-sample window (fps 30) is symmetric, a ramp cancels exactly
        out = detrend(slope * np.arange(600), 30.0)
        assert np.allclose(out[45:-45], 0.0, atol=1e-9)
        # a 30-sample window (fps 20) sits half a sample off centre and
        # leaves a -slope/2 residue
        out = detrend(slope * np.arange(600), 20.0)
        assert np.allclose(out[31:-31], -0.5 * slope, atol=1e-9)

    def test_sinusoid_response_matches_kernel_dft(self):
        # independent oracle: the moving-average kernel's frequency
        # response, evaluated directly, predicts the output amplitude
        fps, freq = 20.0, 1.2
        w = round(DETREND_WINDOW_S * fps)
        offsets = np.arange(-((w - 1) // 2), w // 2 + 1)
        h_ma = np.mean(np.exp(2j * np.pi * freq * offsets / fps))
        expected = abs(1.0 - h_ma)
        t = np.arange(1800) / fps
        out = detrend(np.sin(2 * np.pi * freq * t), fps)
        measured = _fit_amplitude(out[w:-w], freq, fps)
        assert measured == pytest.approx(expected, abs=1e-3)
        assert 0.8 <= measured <= 1.2

    def test_dc_removal_idempotent(self):
        once = detrend(np.full(200, 3.0), 30.0)
        twice = detrend(once, 30.0)
        assert np.allclose(once, twice, atol=1e-9)
        assert np.allclose(twice, 0.0, atol=1e-9)

    @pytest.mark.parametrize("fps", _REFERENCE_FPS)
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 44, 46, 600])
    def test_matches_reference(self, fps, n):
        """Every sample, edges and signals shorter than the window
        included, matches a per-sample fsum mean within 1e-12 of
        max|signal| (1.2e-14 at most over these cases)."""
        signal = _reference_signal(n, fps)
        expected = ref_detrend(signal.tolist(), fps, DETREND_WINDOW_S)
        assert np.max(np.abs(detrend(signal, fps) - expected)) <= 1e-12 * np.max(np.abs(signal))

    # w = 30 samples at 20 fps, 45 at 30 fps.  At n = w - 1 no window is
    # full, at n = w one is and each longer signal adds one: these lengths
    # cross where detrend starts taking full windows from the running sum
    # in one pass, with edge windows at both ends
    @pytest.mark.parametrize("fps, w", [(20.0, 30), (30.0, 45)])
    @pytest.mark.parametrize("dn", [-2, -1, 0, 1, 2])
    def test_matches_reference_around_window_length(self, fps, w, dn):
        assert round(DETREND_WINDOW_S * fps) == w
        signal = _reference_signal(w + dn, fps)
        expected = ref_detrend(signal.tolist(), fps, DETREND_WINDOW_S)
        assert np.max(np.abs(detrend(signal, fps) - expected)) <= 1e-12 * np.max(np.abs(signal))

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            # 1.5 s at 1 fps rounds to a 2-sample window
            detrend(np.ones(100), 1.0)


# peak float64 rows of one call on 9000 samples (tracemalloc), the result
# included: detrend 2.06 from one running-sum buffer and its result (7.94
# with n-length index arrays and a concatenated running sum), and
# normalize_segment 1.00 dividing then subtracting in place (2.00 before)
@pytest.mark.parametrize("stage, rows", [(lambda x: detrend(x, 30.0), 2.5),
                                         (normalize_segment, 1.5)],
                         ids=["detrend", "normalize_segment"])
def test_peak_heap_rows(stage, rows):
    signal = _reference_signal(9000, 30.0)
    stage(signal)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        stage(signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * signal.nbytes


class TestBandpass:
    def test_tap_count_and_symmetry(self):
        taps = design_bandpass_taps(30.0, 600, DEFAULT_BAND)
        assert len(taps) == 171
        assert len(taps) % 2 == 1
        assert np.allclose(taps, taps[::-1], atol=1e-15)

    def test_frequency_response_bounds(self):
        taps = design_bandpass_taps(30.0, 600, DEFAULT_BAND)
        assert _response(taps, 0.0, 30.0) <= 10 ** (-40 / 20)
        db_tol = (10 ** (-1 / 20), 10 ** (1 / 20))
        assert db_tol[0] <= _response(taps, 1.2, 30.0) <= db_tol[1]
        for freq in np.linspace(1.25 * 0.7, 0.8 * 4.0, 25):
            assert db_tol[0] <= _response(taps, freq, 30.0) <= db_tol[1]
        assert _response(taps, 6.0, 30.0) <= 0.1

    def test_dc_input_rejected(self):
        out = bandpass(np.ones(600), design_bandpass_taps(30.0, 600, DEFAULT_BAND))
        assert np.max(np.abs(out)) <= 0.01

    def test_inband_tone_preserved(self):
        t = np.arange(900) / 30.0
        out = bandpass(np.sin(2 * np.pi * 1.2 * t),
                       design_bandpass_taps(30.0, 900, DEFAULT_BAND))
        amp = _fit_amplitude(out[100:-100], 1.2, 30.0)
        assert 0.89 <= amp <= 1.12

    def test_out_of_band_tone_suppressed(self):
        t = np.arange(900) / 30.0
        out = bandpass(np.sin(2 * np.pi * 6.0 * t),
                       design_bandpass_taps(30.0, 900, DEFAULT_BAND))
        assert _fit_amplitude(out[100:-100], 6.0, 30.0) <= 0.1

    def test_output_mean_negligible(self):
        rng = np.random.default_rng(3)
        taps = design_bandpass_taps(30.0, 500, DEFAULT_BAND)
        for _ in range(20):
            signal = rng.normal(rng.uniform(-5, 5), 1.0, 500)
            out = bandpass(signal, taps)
            assert abs(out.mean()) <= 1e-6 * np.max(np.abs(out))

    @pytest.mark.parametrize("fps", _REFERENCE_FPS)
    @pytest.mark.parametrize("extra", [0, 1, 300])
    def test_matches_reference(self, fps, extra):
        """Every sample, the reflected edges included, of a signal as long
        as the filter or longer matches a direct fsum over the reflected
        signal within 1e-12 of max|signal| (1.6e-16 at most here)."""
        n = len(design_bandpass_taps(fps, 10**6, DEFAULT_BAND)) + extra
        signal, taps = _reference_signal(n, fps), design_bandpass_taps(fps, n, DEFAULT_BAND)
        expected = ref_bandpass(signal.tolist(), taps.tolist())
        assert np.max(np.abs(bandpass(signal, taps) - expected)) <= 1e-12 * np.max(np.abs(signal))

    @pytest.mark.parametrize("fps, band", _TAP_CASES, ids=_TAP_IDS)
    def test_taps_match_reference(self, fps, band):
        """The taps match the windowed-sinc Hamming design re-derived with
        math alone: the same odd length, and every tap within 1e-12 of
        the largest (2.8e-16 at most over these cases)."""
        taps = design_bandpass_taps(fps, 10**6, band)
        expected = np.array(ref_bandpass_taps(fps, band.f_lo, band.f_hi))
        assert len(taps) == len(expected) and len(taps) % 2 == 1
        assert np.max(np.abs(taps - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("fps, band", _TAP_CASES, ids=_TAP_IDS)
    @pytest.mark.parametrize("extra", [0, 300])
    def test_filter_matches_reference_taps(self, fps, band, extra):
        """bandpass on design_bandpass_taps matches ref_bandpass on
        ref_bandpass_taps, so the filter is checked without a tap from
        the package: within 1e-12 of max|signal| (2.3e-16 at most here)."""
        expected_taps = ref_bandpass_taps(fps, band.f_lo, band.f_hi)
        signal = _reference_signal(len(expected_taps) + extra, fps)
        out = bandpass(signal, design_bandpass_taps(fps, len(signal), band))
        expected = ref_bandpass(signal.tolist(), expected_taps)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(signal))

    def test_signal_shorter_than_filter(self):
        with pytest.raises(SignalTooShortError, match="100 samples shorter than the 171-tap"):
            design_bandpass_taps(30.0, 100, DEFAULT_BAND)
        assert len(design_bandpass_taps(30.0, 171, DEFAULT_BAND)) == 171

    def test_huge_filter_refused_before_its_taps(self):
        # 1.2e302 taps are compared with the signal, never allocated, and
        # quoted in short form
        with pytest.raises(SignalTooShortError,
                           match=r"100 samples shorter than the 1\.2e\+302-tap filter$"):
            design_bandpass_taps(30.0, 100, BandLimits(1e-300, 4.0))

    def test_band_above_nyquist(self, tiny_session, monkeypatch):
        # load_session refuses the band before any frame is mapped or reduced
        def no_frames(*args):
            raise AssertionError("frames read before the band was checked")

        monkeypatch.setattr(evaluate, "map_frames", no_frames)
        monkeypatch.setattr(evaluate, "extract_traces", no_frames)
        with pytest.raises(InputError, match="upper edge 5.0 Hz must be below Nyquist 5.0 Hz"):
            load_session(open_session(tiny_session), PipelineParams(BandLimits(0.7, 5.0)))


def _combine(window: np.ndarray, method: str) -> np.ndarray:
    """combine_channels on one region given as an (n, 3) R,G,B window."""
    return combine_channels(window.T, method)


class TestCombine:
    def test_green_and_intensity(self):
        # green is the conditioned G row of each region, intensity the
        # mean of the three conditioned rows
        trace = _raw_trace(np.random.default_rng(4).uniform(90, 110, (3, 3, 300)))
        green = build_pulse_signal(trace, 30.0, DEFAULT_BAND, "green")
        assert np.array_equal(green.samples, _expected(trace, "green"))
        intensity = build_pulse_signal(trace, 30.0, DEFAULT_BAND, "intensity")
        assert np.allclose(intensity.samples, _expected(trace, "intensity"),
                           rtol=0, atol=1e-15)

    def test_chrom_algebra_oracle(self):
        # with R, G, B modulated at 0.5x, 1x, 0.3x of a common pulse,
        # X = -0.5 a s and Y = 1.3 a s, so the projection is exactly -a s
        t = np.arange(300) / 30.0
        s = np.sin(2 * np.pi * 1.2 * t)
        a = 0.02
        window = np.column_stack([0.5 * a * s, a * s, 0.3 * a * s])
        out = _combine(window, "chrom")
        assert np.allclose(out, -a * s, rtol=0, atol=1e-12)

    def test_chrom_replicated_channels_collapse(self):
        # the projection collapses, so the region falls back to intensity
        s = np.sin(np.linspace(0, 20, 200))
        window = np.column_stack([s, s, s])
        assert np.array_equal(_combine(window, "chrom"),
                              _combine(window, "intensity"))

    def test_chrom_zero_variance_y(self):
        # Y = 1.5R + G - 1.5B is constant here, so chrom falls back to intensity
        g = np.sin(np.linspace(0, 20, 50))
        window = np.column_stack([g, np.zeros_like(g), g])
        assert np.array_equal(_combine(window, "chrom"),
                              _combine(window, "intensity"))
        assert np.array_equal(_combine(np.zeros((50, 3)), "chrom"), np.zeros(50))

    def test_green_selector_passthrough(self):
        # green reads G alone, so zero R and B channels are never
        # normalised; chrom and intensity read them and fail
        t = np.arange(300) / 30.0
        g = 100.0 * (1.0 + 0.05 * np.sin(2 * np.pi * 1.0 * t))
        values = np.zeros((3, 3, 300))
        values[:, 1] = g
        trace = _raw_trace(values)
        direct = np.mean([_chain(g)] * 3, axis=0)
        assert np.array_equal(build_pulse_signal(trace, 30.0, DEFAULT_BAND, "green").samples,
                              direct - direct.mean())
        for method in ("intensity", "chrom"):
            with pytest.raises(NonPositiveMeanError):
                build_pulse_signal(trace, 30.0, DEFAULT_BAND, method)

    def test_single_channel_passes_through(self):
        # each region's one conditioned row is its signal, whatever the method
        trace = _raw_trace(np.random.default_rng(7).normal(100, 1, (3, 1, 300)))
        direct = np.mean([_chain(row) for row in trace[:, 0]], axis=0)
        for method in ("green", "intensity", "chrom"):
            assert np.array_equal(build_pulse_signal(trace, 30.0, DEFAULT_BAND, method).samples,
                                  direct - direct.mean())

    @pytest.mark.parametrize("method", ["green", "intensity", "chrom"])
    def test_one_row_returned_as_is(self, method):
        # a gray8 region, or the G row under green, is its own series
        row = np.random.default_rng(9).normal(0.0, 1.0, 300)
        assert combine_channels(row[None], method).tobytes() == row.tobytes()

    def test_unknown_method(self):
        with pytest.raises(InputError):
            PipelineParams(combine="pca")


def _chain(row: np.ndarray, fps: float = 30.0) -> np.ndarray:
    """normalize -> detrend -> bandpass on one series, called directly."""
    taps = design_bandpass_taps(fps, len(row), DEFAULT_BAND)
    return bandpass(detrend(normalize_segment(row), fps), taps)


def _expected(values: np.ndarray, method: str) -> np.ndarray:
    """The pulse signal of a (3, 3, n) trace from the reference combine:
    every row conditioned by _chain, each region combined by
    ref_combine_region, the regions averaged and made zero-mean."""
    conditioned = [[_chain(row) for row in region] for region in values]
    fused = np.mean([ref_combine_region(np.array(c), method) for c in conditioned],
                    axis=0)
    return fused - fused.mean()


def _mono_trace(*regions: np.ndarray) -> np.ndarray:
    """One-channel trace with the given per-region series."""
    return _raw_trace(np.stack(regions)[:, None, :])


class TestFuse:
    def test_identical_signals(self):
        s = 100.0 + np.sin(np.linspace(0, 20, 300)) + 0.3
        fused = build_pulse_signal(_mono_trace(s, s, s), 30.0, DEFAULT_BAND, "chrom")
        direct = _chain(s)
        assert np.allclose(fused.samples, direct - direct.mean(), atol=1e-12)

    def test_cancellation(self):
        s = np.sin(2 * np.pi * 1.2 * np.arange(300) / 30.0)
        fused = build_pulse_signal(_mono_trace(100.0 + s, 100.0 - s, np.full(300, 100.0)),
                                   30.0, DEFAULT_BAND, "chrom")
        assert np.allclose(fused.samples, 0.0, atol=1e-12)

    def test_fusion_improves_snr(self):
        fps, n = 30.0, 600
        freq = 1.2  # exact DFT bin: 1.2 = 24 * 30 / 600
        t = np.arange(n) / fps
        s = 100.0 + np.sin(2 * np.pi * freq * t)
        rng = np.random.default_rng(5)
        noisy = 100.0 + 0.2 * np.sin(2 * np.pi * freq * t) + rng.normal(0, 1.0, n)

        def snr(x):
            proj = np.abs(np.sum(x * np.exp(-2j * np.pi * freq * t))) ** 2
            total = np.sum(x ** 2) * n
            return proj / (total - proj)

        fused = build_pulse_signal(_mono_trace(s, s, noisy), 30.0, DEFAULT_BAND, "chrom")
        alone = build_pulse_signal(_mono_trace(noisy, noisy, noisy), 30.0, DEFAULT_BAND, "chrom")
        assert snr(fused.samples) > snr(alone.samples)


class TestBuildPulseSignal:
    def _trace(self, n=600, fps=30.0) -> np.ndarray:
        t = np.arange(n) / fps
        values = np.zeros((3, 3, n))
        depths = (0.5, 1.0, 0.3)
        bases = (170.0, 120.0, 100.0)
        pulse = np.sin(2 * np.pi * 1.2 * t)
        for r in range(3):
            roi_gain = 1.0 + 0.02 * r
            for c in range(3):
                values[r, c] = bases[c] * roi_gain * (
                    1.0 + 0.02 * depths[c] * pulse)
        return _raw_trace(values)

    def test_zero_mean_invariant(self):
        signal = build_pulse_signal(self._trace(), 30.0, DEFAULT_BAND, "chrom")
        assert abs(signal.samples.mean()) <= 1e-9 * np.max(np.abs(signal.samples))

    def test_chrom_falls_back_on_replicated_channels(self):
        trace = self._trace()
        trace[:, 0] = trace[:, 1]
        trace[:, 2] = trace[:, 1]
        chrom = build_pulse_signal(trace, 30.0, DEFAULT_BAND, "chrom")
        intensity = build_pulse_signal(trace, 30.0, DEFAULT_BAND, "intensity")
        assert np.allclose(chrom.samples, intensity.samples, atol=1e-12)

    def test_chrom_fallback_is_per_region(self):
        # only region 1 has replicated channels: it alone falls back
        trace = self._trace()
        trace += np.random.default_rng(8).normal(0.0, 0.5, trace.shape)
        trace[1, 0] = trace[1, 2] = trace[1, 1]
        conditioned = np.array([[_chain(row) for row in region]
                                for region in trace])
        chrom = [combine_channels(region, "chrom") for region in conditioned]
        intensity = [combine_channels(region, "intensity") for region in conditioned]
        assert np.array_equal(chrom[1], intensity[1])
        for r in (0, 2):
            assert not np.allclose(chrom[r], intensity[r])
            assert np.array_equal(chrom[r], ref_combine_region(conditioned[r], "chrom"))
        for method in ("intensity", "chrom"):
            expected = [ref_combine_region(region, method) for region in conditioned]
            assert np.array_equal([combine_channels(region, method) for region in conditioned],
                                  expected)
        for method in ("green", "chrom"):
            assert np.array_equal(build_pulse_signal(trace, 30.0, DEFAULT_BAND, method).samples,
                                  _expected(trace, method))

    def test_mono_replication_equivalence(self):
        # a one-channel (gray8) trace must equal its plane pushed through
        # the same chain directly, for every combine method
        gray = self._trace()[:, 1:2]
        direct = np.mean([_chain(gray[r, 0]) for r in range(3)], axis=0)
        for method in ("green", "intensity", "chrom"):
            via_pipeline = build_pulse_signal(_raw_trace(gray), 30.0, DEFAULT_BAND, method)
            assert np.array_equal(via_pipeline.samples, direct - direct.mean())

    @pytest.mark.parametrize("channels, method, calls", [
        (3, "green", 3), (3, "intensity", 9), (3, "chrom", 9),
        (1, "green", 3), (1, "intensity", 3), (1, "chrom", 3)])
    def test_conditions_only_read_channels(self, monkeypatch, channels, method, calls):
        # each row is normalised once, read in place from the trace
        values = self._trace()
        trace = _raw_trace(values if channels == 3 else values[:, 1:2])
        rows = []

        def counting(segment):
            rows.append(segment)
            return normalize_segment(segment)

        monkeypatch.setattr(pulse, "normalize_segment", counting)
        build_pulse_signal(trace, 30.0, DEFAULT_BAND, method)
        assert len(rows) == calls
        assert all(np.shares_memory(row, values) for row in rows)
        if calls == 3:
            assert [row.tolist() for row in rows] == values[:, 1].tolist()


class TestFlatSignal:
    @pytest.mark.parametrize("channels", [3, 1])
    @pytest.mark.parametrize("level", [128.0, 255.0])
    def test_constant_trace(self, channels, level):
        # every read row normalises to exactly zero, so the fused signal
        # is zero and no window has a peak to find
        trace = _raw_trace(np.full((3, channels, 300), level))
        for method in COMBINE_METHODS:
            with pytest.raises(FlatSignalError, match="signal is constant at 0:"):
                build_pulse_signal(trace, 30.0, DEFAULT_BAND, method)

    def test_only_the_read_channels_count(self):
        # a flat G channel leaves green without a pulse, not chrom
        values = np.random.default_rng(11).uniform(90, 110, (3, 3, 300))
        values[:, 1] = 120.0
        trace = _raw_trace(values)
        with pytest.raises(FlatSignalError):
            build_pulse_signal(trace, 30.0, DEFAULT_BAND, "green")
        assert build_pulse_signal(trace, 30.0, DEFAULT_BAND, "chrom").samples.any()


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
        values, _ = _traces(*_session(session_dir))
        return build_pulse_signal(values, 10.0, DEFAULT_BAND, method)

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
