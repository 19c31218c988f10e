from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from facepulse import (DEFAULT_BAND, BandLimits, HrSeries, PulseSignal, WindowSpec,
                       estimate_series, parallel)
from facepulse.errors import (EmptyBandError, FlatSignalError, InputError,
                              SessionTooShortError)
from facepulse.evaluate import sub51_error
from facepulse.spectral import (SPECTRUM_BLOCK_BYTES, ZERO_PAD_FACTOR,
                                _next_pow2, partition_windows)

from _reference import ref_block_rows, ref_hr_series


def _tone(freq: float, duration: float, fps: float = 30.0) -> np.ndarray:
    t = np.arange(int(round(duration * fps))) / fps
    return np.sin(2 * np.pi * freq * t)


def _bpm(samples: np.ndarray, length: float, fps: float = 30.0,
         band: BandLimits = DEFAULT_BAND) -> np.ndarray:
    """estimate_series over non-overlapping windows of `length` seconds."""
    return estimate_series(PulseSignal(fps, samples, band), WindowSpec(length)).bpm


class TestWindowSpec:
    def test_hop_defaults_to_length(self):
        spec = WindowSpec(10.0)
        assert spec.hop == 10.0

    def test_explicit_hop(self):
        spec = WindowSpec(10.0, 2.0)
        assert spec.hop == 2.0

    @pytest.mark.parametrize("length,hop", [(0.0, None), (-5.0, None),
                                            (10.0, 0.0), (10.0, -1.0),
                                            (10.0, 11.0)])
    def test_rejects_bad_geometry(self, length, hop):
        with pytest.raises(InputError):
            WindowSpec(length, hop)

    @pytest.mark.parametrize("length, hop, name", [("10", None, "length"), (10.0, "1", "hop"),
                                                   (None, None, "length")])
    def test_rejects_non_numbers(self, length, hop, name):
        with pytest.raises(InputError, match=f"^window {name} must be a real number in .*, not "):
            WindowSpec(length, hop)

    def test_stores_floats(self):
        spec = WindowSpec(10, 2)
        assert (type(spec.length), type(spec.hop)) == (float, float)
        assert spec == WindowSpec(10.0, 2.0)


class TestPulseSignal:
    """A pulse signal is checked once, when it is constructed."""

    @pytest.mark.parametrize("fps, samples, band, error", [
        (30.0, np.full(900, np.nan), DEFAULT_BAND, InputError),
        (30.0, np.r_[_tone(1.2, 30.0)[:-1], np.inf], DEFAULT_BAND, InputError),
        (30.0, np.zeros(900), DEFAULT_BAND, FlatSignalError),
        (30.0, np.full(900, 7.5), DEFAULT_BAND, FlatSignalError),
        (30.0, np.stack([_tone(1.2, 30.0)] * 2), DEFAULT_BAND, InputError),
        (-30.0, _tone(1.2, 30.0), DEFAULT_BAND, InputError),
        (30.0, _tone(1.2, 30.0), (0.7, 4.0), InputError),
        (30.0, np.array([]), DEFAULT_BAND, SessionTooShortError),
        (30.0, ["x", "y"], DEFAULT_BAND, InputError),
        (30.0, [10**400], BandLimits(), InputError),
        (30.0, np.array([1 + 1j, 2, 3 + 5j]), DEFAULT_BAND, InputError),
        (30.0, np.array(["1", "2", "3"]), DEFAULT_BAND, InputError),
        (30.0, ["1", "2", "3"], DEFAULT_BAND, InputError),
        (30.0, np.array([b"1", b"2", b"3"]), DEFAULT_BAND, InputError),
        (30.0, np.array([True, False, True]), DEFAULT_BAND, InputError),
        (30.0, [True, False, True], DEFAULT_BAND, InputError),
        (30.0, np.array([1.0, 2.0, None], dtype=object), DEFAULT_BAND, InputError),
    ], ids=["all-nan", "one-inf", "zero", "constant", "2-d", "negative-fps",
            "band-tuple", "empty", "text", "int-beyond-float", "complex", "numeric-text-array",
            "numeric-text-list", "bytes", "bool-array", "bool-list", "object-none"])
    def test_refused_on_construction(self, fps, samples, band, error):
        with pytest.raises(error) as caught:
            PulseSignal(fps, samples, band)
        assert caught.type is error

    @pytest.mark.parametrize("convert", [list, lambda a: np.rint(100.0 * a).astype(np.int64)],
                             ids=["list", "int"])
    def test_samples_stored_as_float64(self, convert):
        # converted once: the bpm bits are those of the float64 array
        given = convert(_tone(1.2, 30.0))
        signal = PulseSignal(30.0, given, DEFAULT_BAND)
        assert signal.samples.dtype == np.float64
        expected = np.asarray(given, dtype=np.float64)
        assert np.array_equal(signal.samples, expected)
        assert (estimate_series(signal, WindowSpec(10.0)).bpm.tolist()
                == _bpm(expected, 10.0).tolist())

    def test_float64_samples_not_copied(self):
        samples = _tone(1.2, 30.0)
        assert PulseSignal(30.0, samples, DEFAULT_BAND).samples is samples


class TestPartitionWindows:
    """partition_windows gives (win, hop, count) in samples; window k
    spans [k * hop, k * hop + win)."""

    def test_trailing_partial_discarded(self):
        # 125 s at 20 s windows: the last 5 s never form a window, and
        # the sixth window ends at 3600
        win, hop, count = partition_windows(125 * 30, 30.0, WindowSpec(20.0))
        assert (win, hop, count) == (600, 600, 6)
        assert (count - 1) * hop + win == 3600

    def test_exact_cover(self):
        assert partition_windows(900, 30.0, WindowSpec(10.0)) == (300, 300, 3)

    def test_overlapping_hop(self):
        assert partition_windows(1800, 30.0, WindowSpec(10.0, 2.0)) == (300, 60, 26)

    def test_too_short(self):
        with pytest.raises(SessionTooShortError):
            partition_windows(299, 30.0, WindowSpec(10.0))

    def test_matches_stepping_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            fps = float(rng.integers(5, 61))
            n = int(rng.integers(1, 4000))
            length = float(rng.uniform(0.2, 40.0))
            hop = float(rng.uniform(0.1, length))
            spec = WindowSpec(length, hop)
            win = int(round(length * fps))
            hop_n = int(round(hop * fps))
            if win < 2 or hop_n < 1:
                continue
            expected = []
            s = 0
            while s + win <= n:
                expected.append([s, s + win])
                s += hop_n
            if not expected:
                with pytest.raises(SessionTooShortError):
                    partition_windows(n, fps, spec)
            else:
                got_win, got_hop, count = partition_windows(n, fps, spec)
                assert [[s, s + got_win] for s in range(0, count * got_hop, got_hop)] \
                    == expected

    def test_count_formula_on_aligned_draws(self):
        # with integer seconds everywhere the window count reduces to
        # floor((duration - length) / hop) + 1
        rng = np.random.default_rng(11)
        for _ in range(200):
            fps = float(rng.integers(10, 61))
            duration = int(rng.integers(5, 200))
            length = int(rng.integers(2, duration + 1))
            hop = int(rng.integers(1, length + 1))
            _, _, count = partition_windows(int(duration * fps), fps,
                                            WindowSpec(float(length), float(hop)))
            assert count == math.floor((duration - length) / hop) + 1


class TestPeriodogram:
    """The windowed spectrum, seen through the bpm it yields."""

    def test_peak_bin_at_tone_frequency(self):
        # bins are fps / padded Hz apart: 300 samples pad to 4096
        bin_bpm = 60.0 * 30.0 / (ZERO_PAD_FACTOR * _next_pow2(300))
        assert bin_bpm == 60.0 * 30.0 / 4096
        assert abs(_bpm(_tone(1.2, 20.0), 20.0)[0] - 72.0) <= bin_bpm

    def test_matches_direct_dft(self):
        # the same peak from a direct DFT sum at every bin k * fps / padded
        rng = np.random.default_rng(12)
        fps, n = 30.0, 150
        samples = rng.normal(0, 1, n)
        padded = ZERO_PAD_FACTOR * _next_pow2(n)
        freqs = np.arange(padded // 2 + 1) * fps / padded
        windowed = (samples - samples.mean()) * np.hanning(n)
        m = np.arange(n)
        power = np.abs(np.exp(-2j * np.pi * np.outer(np.arange(len(freqs)), m)
                              / padded) @ windowed) ** 2
        k = np.flatnonzero((freqs >= 0.7) & (freqs <= 4.0))
        k = k[np.argmax(power[k])]
        p_lo, p0, p_hi = power[k - 1:k + 2]
        shift = 0.5 * (p_lo - p_hi) / (p_lo - 2.0 * p0 + p_hi)
        expected = 60.0 * (freqs[k] + min(max(shift, -0.5), 0.5) * fps / padded)
        assert _bpm(samples, n / fps)[0] == pytest.approx(expected, rel=1e-9)

    def test_constant_input_has_no_power(self):
        # the mean is removed first, so every bin of the one constant
        # window is zero and the tie rule picks the first in-band bin,
        # unrefined; the trailing sample, which fills no window, keeps
        # the signal from being flat
        assert _bpm(np.append(np.full(300, 7.5), 8.5), 10.0)[0] == 60.0 * 96 * 30.0 / 4096

    def test_white_noise_peak_spread_report(self):
        # no assertion beyond band membership: the in-band argmax of
        # white noise is a sanity report, printed for the log
        bpms = _bpm(np.random.default_rng(0).normal(0, 1, 150 * 300), 10.0)
        assert len(bpms) == 150
        assert np.all((bpms >= 42.0) & (bpms <= 240.0))
        print(f"white-noise peaks: mean {bpms.mean():.1f} bpm, "
              f"std {bpms.std():.1f} bpm")


class TestPeakBpm:
    def test_long_window_tone(self):
        assert _bpm(_tone(1.2, 20.0), 20.0)[0] == pytest.approx(72.0, abs=0.5)

    def test_short_window_tone(self):
        assert _bpm(_tone(1.25, 10.0), 10.0)[0] == pytest.approx(75.0, abs=1.5)

    def test_equal_peaks_resolve_to_lower_frequency(self):
        # a constant window ties every bin: the first in-band one,
        # 0.703125 Hz (bin 96 of 4096 at 30 fps), wins in each of the two
        assert _bpm(np.repeat([7.5, 8.5], 300), 10.0).tolist() == [60.0 * 96 * 30.0 / 4096] * 2

    def test_refinement_clamped_to_band(self):
        # a tone just outside the band peaks at the edge bin, and the
        # refinement toward it is clamped back to the band
        assert _bpm(_tone(0.6, 5.0), 5.0)[0] == 42.0
        assert _bpm(_tone(4.1, 5.0), 5.0)[0] == 240.0

    @pytest.mark.parametrize("freq, edge", [(0.5, 42.0), (4.2, 240.0)])
    def test_convex_flank_steps_toward_outer_peak(self, freq, edge):
        # further out, the edge bin sits on a convex flank of the tone's
        # peak (p_lo - 2 p0 + p_hi > 0): the vertex is a minimum, so the
        # step is half a bin outward and the clamp pins the band edge
        # (the vertex rule gave 42.63 and 239.50 bpm)
        samples = _tone(freq, 5.0)
        assert _bpm(samples, 5.0)[0] == edge
        assert ref_hr_series(samples, 30.0, 150, 150)[2] == [edge]

    def test_no_bins_in_band(self):
        # the nearest bins of 10 s windows at 30 fps are 0.6958 and 0.7031 Hz
        with pytest.raises(EmptyBandError):
            _bpm(_tone(1.2, 20.0), 10.0, band=BandLimits(0.7, 0.70001))

    def test_nyquist_bin_left_out(self):
        # at this fps rfftfreq puts the top bin a rounding step below
        # fps / 2, so a band edge can pass the Nyquist check and still
        # hold it; that bin has no neighbour above for the refinement
        fps = 51.357993441419865
        freqs = np.fft.rfftfreq(8 * 64, 1.0 / fps)
        f_hi = np.nextafter(fps / 2, 0.0)
        assert freqs[-2] < freqs[-1] <= f_hi < fps / 2
        band = BandLimits(0.5 * (freqs[-2] + freqs[-1]), f_hi)
        with pytest.raises(EmptyBandError):
            _bpm(np.random.default_rng(13).normal(0, 1, 154), 1.0, fps, band)

    def test_band_above_nyquist(self):
        with pytest.raises(InputError, match="below Nyquist 3.5 Hz"):
            _bpm(_tone(1.2, 20.0, fps=7.0), 10.0, fps=7.0)


class TestEstimateSeries:
    def test_tone_recovered_per_window(self):
        signal = PulseSignal(fps=30.0, samples=_tone(1.2, 60.0), band=DEFAULT_BAND)
        series = estimate_series(signal, WindowSpec(10.0))
        assert len(series) == 6
        assert (series.window_start[0], series.window_end[0]) == (0.0, 10.0)
        assert (series.window_start[-1], series.window_end[-1]) == (50.0, 60.0)
        assert np.allclose(series.bpm, 72.0, atol=0.5)

    def test_amplitude_invariant_bitwise(self):
        samples = _tone(1.1, 40.0)
        a = estimate_series(PulseSignal(30.0, samples, DEFAULT_BAND), WindowSpec(5.0))
        b = estimate_series(PulseSignal(30.0, 2.0 * samples, DEFAULT_BAND), WindowSpec(5.0))
        assert a.bpm.tolist() == b.bpm.tolist()

    def test_window_must_hold_two_cycles(self):
        signal = PulseSignal(fps=30.0, samples=_tone(1.2, 60.0), band=DEFAULT_BAND)
        with pytest.raises(InputError):
            estimate_series(signal, WindowSpec(2.0))

    def test_search_band_is_the_signals(self):
        # a 1.5 Hz tone is outside 0.7-1.2 Hz: its peak is looked for, and
        # clamped, in the band the signal carries
        samples = _tone(1.5, 30.0)
        narrow = _bpm(samples, 10.0, band=BandLimits(0.7, 1.2))
        assert len(narrow) == 3 and np.all((narrow >= 42.0) & (narrow <= 72.0))
        assert _bpm(samples, 10.0) == pytest.approx([90.0] * 3, abs=1e-3)

    def test_signal_shorter_than_window(self):
        signal = PulseSignal(fps=30.0, samples=_tone(1.2, 3.0), band=DEFAULT_BAND)
        with pytest.raises(SessionTooShortError):
            estimate_series(signal, WindowSpec(5.0))

    def test_frequency_step_tracked(self):
        # phase-continuous switch from 70 to 100 bpm at t = 30 s
        fps, t_switch = 30.0, 30.0
        t = np.arange(1800) / fps
        f1, f2 = 70.0 / 60.0, 100.0 / 60.0
        phase = np.where(t < t_switch, f1 * t, f1 * t_switch + f2 * (t - t_switch))
        series = estimate_series(PulseSignal(fps, np.sin(2 * np.pi * phase), DEFAULT_BAND),
                                 WindowSpec(5.0))
        for start, bpm in zip(series.window_start, series.bpm):
            expected = 70.0 if start < t_switch else 100.0
            assert bpm == pytest.approx(expected, abs=4.0)


ROWS_10S = ref_block_rows(300, SPECTRUM_BLOCK_BYTES)  # 10 s windows at 30 fps


# 7, 8 and 9 windows fill part of one block; ROWS_10S - 1, ROWS_10S and
# ROWS_10S + 1 are one below, at and one above a block
@pytest.mark.parametrize("n_windows", sorted({1, 7, 8, 9, ROWS_10S - 1, ROWS_10S,
                                              ROWS_10S + 1, 8701}))
@pytest.mark.parametrize("hop", [1, 3, 300])
def test_blocked_windows_match_per_window_reference(n_windows, hop):
    # 10 s windows at 30 fps are 300 samples; the hop is given in samples
    fps, win = 30.0, 300
    rng = np.random.default_rng(n_windows + hop)
    n = win + (n_windows - 1) * hop + int(rng.integers(0, hop))
    samples = _tone(1.3, n / fps) + rng.normal(0.0, 1.0, n)
    spec = WindowSpec(10.0, None if hop == win else hop / fps)
    series = estimate_series(PulseSignal(fps, samples, DEFAULT_BAND), spec)
    starts, ends, bpm = ref_hr_series(samples, fps, win, hop)
    assert len(series) == n_windows
    assert np.array_equal(series.window_start, starts)
    assert np.array_equal(series.window_end, ends)
    assert np.array_equal(series.bpm, bpm)


@pytest.mark.parametrize("win, n_windows", [(300, 8701), (600, 40), (150, 3), (4500, 2)])
def test_blocks_sized_in_bytes(monkeypatch, win, n_windows):
    # every rfft call fills at most SPECTRUM_BLOCK_BYTES of spectrum,
    # whatever the window length (one window when a single spectrum is
    # larger), in ref_block_rows windows (fewer for the last block, or
    # for fewer windows than that)
    shapes = []
    rfft = np.fft.rfft

    def recording(a, n=None, axis=-1, norm=None, out=None):
        shapes.append((a.shape, out.nbytes))
        return rfft(a, n, axis, norm, out)

    monkeypatch.setattr(np.fft, "rfft", recording)
    samples = np.random.default_rng(win).normal(0, 1, win + n_windows - 1)
    estimate_series(PulseSignal(30.0, samples, DEFAULT_BAND), WindowSpec(win / 30.0, 1 / 30.0))
    rows = min(ref_block_rows(win, SPECTRUM_BLOCK_BYTES), n_windows)
    # worker threads may interleave their calls
    assert sorted((s[0] for s, _ in shapes), reverse=True) == (
        [rows] * (n_windows // rows) + ([n_windows % rows] if n_windows % rows else []))
    assert all(s[1] == win for s, _ in shapes)
    assert all(nbytes <= max(SPECTRUM_BLOCK_BYTES, nbytes // s[0]) for s, nbytes in shapes)


# peak bytes per window of estimate_series alone on one worker, 9000
# samples at a 1-frame hop (8701 windows), the fixed block buffers
# included: 90.7 with each block's peaks refined in the block loop, 108.6
# when every window's peak bin and three powers were kept until it ended
SERIES_HEAP_BYTES_PER_WINDOW = 100


def test_peak_heap_per_window(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 1)
    signal = PulseSignal(30.0, np.random.default_rng(9).normal(0, 1, 9000), DEFAULT_BAND)
    spec = WindowSpec(10.0, 1 / 30.0)
    estimate_series(signal, spec)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        series = estimate_series(signal, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 8701
    assert peak <= SERIES_HEAP_BYTES_PER_WINDOW * len(series)


class TestSessionMean:
    def test_exact_mean(self):
        series = HrSeries(window_start=np.array([0.0, 10.0, 20.0]),
                          window_end=np.array([10.0, 20.0, 30.0]),
                          bpm=np.array([70.0, 74.0, 75.0]))
        # the session protocol compares the exact mean of the estimates
        assert sub51_error(series, np.full(3, 73.0)) == 0.0
        assert sub51_error(series, np.full(3, 70.0)) == 3.0
