from __future__ import annotations

import math

import numpy as np
import pytest

from facepulse import (BandLimits, HrSeries, PulseSignal, WindowSpec,
                       estimate_series)
from facepulse.errors import EmptyBandError, InputError, SessionTooShortError
from facepulse.spectral import (WINDOW_BLOCK, ZERO_PAD_FACTOR, Spectrum,
                                _next_pow2, partition_windows, peak_bpm,
                                periodogram, session_mean)

from _reference import ref_hr_series


def _tone(freq: float, duration: float, fps: float = 30.0) -> np.ndarray:
    t = np.arange(int(round(duration * fps))) / fps
    return np.sin(2 * np.pi * freq * t)


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


class TestPartitionWindows:
    def test_trailing_partial_discarded(self):
        # 125 s at 20 s windows: the last 5 s never form a window
        windows = partition_windows(125 * 30, 30.0, WindowSpec(20.0))
        assert len(windows) == 6
        assert windows[0].tolist() == [0, 600]
        assert windows[-1].tolist() == [3000, 3600]

    def test_exact_cover(self):
        windows = partition_windows(900, 30.0, WindowSpec(10.0))
        assert windows.tolist() == [[0, 300], [300, 600], [600, 900]]

    def test_overlapping_hop(self):
        windows = partition_windows(1800, 30.0, WindowSpec(10.0, 2.0))
        assert len(windows) == 26
        assert windows[1].tolist() == [60, 360]

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
                assert partition_windows(n, fps, spec).tolist() == expected

    def test_count_formula_on_aligned_draws(self):
        # with integer seconds everywhere the window count reduces to
        # floor((duration - length) / hop) + 1
        rng = np.random.default_rng(11)
        for _ in range(200):
            fps = float(rng.integers(10, 61))
            duration = int(rng.integers(5, 200))
            length = int(rng.integers(2, duration + 1))
            hop = int(rng.integers(1, length + 1))
            windows = partition_windows(int(duration * fps), fps,
                                        WindowSpec(float(length), float(hop)))
            assert len(windows) == math.floor((duration - length) / hop) + 1


class TestPeriodogram:
    def test_peak_bin_at_tone_frequency(self):
        spectrum = periodogram(_tone(1.2, 20.0), 30.0)
        f_max = spectrum.freqs[np.argmax(spectrum.power)]
        bin_width = spectrum.freqs[1] - spectrum.freqs[0]
        assert abs(f_max - 1.2) <= bin_width

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(0, 1, 150)
        fps = 30.0
        spectrum = periodogram(samples, fps)
        padded = ZERO_PAD_FACTOR * _next_pow2(len(samples))
        assert len(spectrum.freqs) == padded // 2 + 1
        windowed = (samples - samples.mean()) * np.hanning(len(samples))
        m = np.arange(len(samples))
        for k in (0, 3, 17, 101, padded // 2):
            x_k = np.sum(windowed * np.exp(-2j * np.pi * k * m / padded))
            assert spectrum.power[k] == pytest.approx(abs(x_k) ** 2,
                                                      rel=1e-9, abs=1e-12)
            assert spectrum.freqs[k] == pytest.approx(k * fps / padded)

    def test_constant_input_has_no_power(self):
        spectrum = periodogram(np.full(300, 7.5), 30.0)
        assert np.max(spectrum.power) <= 1e-12 * max(np.max(spectrum.power), 1.0)
        assert spectrum.power[0] <= 1e-20

    def test_white_noise_peak_spread_report(self):
        # no assertion beyond band membership: the in-band argmax of
        # white noise is a sanity report, printed for the log
        bpms = []
        for seed in range(150):
            rng = np.random.default_rng(seed)
            spectrum = periodogram(rng.normal(0, 1, 300), 30.0)
            bpms.append(peak_bpm(spectrum))
        bpms = np.array(bpms)
        assert np.all((bpms >= 42.0) & (bpms <= 240.0))
        print(f"white-noise peaks: mean {bpms.mean():.1f} bpm, "
              f"std {bpms.std():.1f} bpm")


class TestPeakBpm:
    def test_long_window_tone(self):
        assert peak_bpm(periodogram(_tone(1.2, 20.0), 30.0)) == pytest.approx(
            72.0, abs=0.5)

    def test_short_window_tone(self):
        assert peak_bpm(periodogram(_tone(1.25, 10.0), 30.0)) == pytest.approx(
            75.0, abs=1.5)

    def test_equal_peaks_resolve_to_lower_frequency(self):
        freqs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        power = np.array([0.0, 0.0, 5.0, 0.0, 5.0, 0.0])
        assert peak_bpm(Spectrum(freqs=freqs, power=power)) == 60.0

    def test_refinement_clamped_to_band(self):
        freqs = np.array([0.6, 0.7, 0.8])
        power = np.array([10.5, 11.0, 10.0])
        assert peak_bpm(Spectrum(freqs=freqs, power=power)) == 42.0
        freqs = np.array([3.9, 4.0, 4.1])
        power = np.array([10.0, 11.0, 10.5])
        assert peak_bpm(Spectrum(freqs=freqs, power=power)) == 240.0

    def test_no_bins_in_band(self):
        spectrum = Spectrum(freqs=np.array([0.0, 5.0, 10.0]),
                            power=np.ones(3))
        with pytest.raises(EmptyBandError):
            peak_bpm(spectrum)
        with pytest.raises(EmptyBandError):
            peak_bpm(Spectrum(freqs=np.array([0.0, 1.0, 2.0]), power=np.ones(3)),
                     BandLimits(2.1, 2.9))


class TestEstimateSeries:
    def test_tone_recovered_per_window(self):
        signal = PulseSignal(fps=30.0, samples=_tone(1.2, 60.0))
        series = estimate_series(signal, WindowSpec(10.0))
        assert len(series) == 6
        assert (series.window_start[0], series.window_end[0]) == (0.0, 10.0)
        assert (series.window_start[-1], series.window_end[-1]) == (50.0, 60.0)
        assert np.allclose(series.bpm, 72.0, atol=0.5)

    def test_amplitude_invariant_bitwise(self):
        samples = _tone(1.1, 40.0)
        a = estimate_series(PulseSignal(30.0, samples), WindowSpec(5.0))
        b = estimate_series(PulseSignal(30.0, 2.0 * samples), WindowSpec(5.0))
        assert a.bpm.tolist() == b.bpm.tolist()

    def test_window_must_hold_two_cycles(self):
        signal = PulseSignal(fps=30.0, samples=_tone(1.2, 60.0))
        with pytest.raises(InputError):
            estimate_series(signal, WindowSpec(2.0))

    def test_signal_shorter_than_window(self):
        signal = PulseSignal(fps=30.0, samples=_tone(1.2, 3.0))
        with pytest.raises(SessionTooShortError):
            estimate_series(signal, WindowSpec(5.0))

    def test_frequency_step_tracked(self):
        # phase-continuous switch from 70 to 100 bpm at t = 30 s
        fps, t_switch = 30.0, 30.0
        t = np.arange(1800) / fps
        f1, f2 = 70.0 / 60.0, 100.0 / 60.0
        phase = np.where(t < t_switch, f1 * t, f1 * t_switch + f2 * (t - t_switch))
        series = estimate_series(PulseSignal(fps, np.sin(2 * np.pi * phase)),
                                 WindowSpec(5.0))
        for start, bpm in zip(series.window_start, series.bpm):
            expected = 70.0 if start < t_switch else 100.0
            assert bpm == pytest.approx(expected, abs=4.0)


@pytest.mark.parametrize("n_windows", [1, WINDOW_BLOCK - 1, WINDOW_BLOCK,
                                       WINDOW_BLOCK + 1, 8701])
@pytest.mark.parametrize("hop", [1, 3, 300])
def test_blocked_windows_match_per_window_reference(n_windows, hop):
    # 10 s windows at 30 fps are 300 samples; the hop is given in samples
    fps, win = 30.0, 300
    rng = np.random.default_rng(n_windows + hop)
    n = win + (n_windows - 1) * hop + int(rng.integers(0, hop))
    samples = _tone(1.3, n / fps) + rng.normal(0.0, 1.0, n)
    spec = WindowSpec(10.0, None if hop == win else hop / fps)
    series = estimate_series(PulseSignal(fps, samples), spec)
    starts, ends, bpm = ref_hr_series(samples, fps, win, hop)
    assert len(series) == n_windows
    assert np.array_equal(series.window_start, starts)
    assert np.array_equal(series.window_end, ends)
    assert np.array_equal(series.bpm, bpm)


class TestSessionMean:
    def test_exact_mean(self):
        series = HrSeries(window_start=np.array([0.0, 10.0, 20.0]),
                          window_end=np.array([10.0, 20.0, 30.0]),
                          bpm=np.array([70.0, 74.0, 75.0]),
                          window_spec=WindowSpec(10.0))
        assert session_mean(series) == 73.0
