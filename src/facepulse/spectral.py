"""Windowed spectral heart-rate estimation.

The conditioned pulse signal is cut into fixed-length windows; each
window's dominant in-band frequency (Hann-windowed, zero-padded DFT,
quadratic peak refinement) becomes one bpm estimate.  Windows are
estimated WINDOW_BLOCK at a time, along the last (time) axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyBandError,
    InputError,
    SessionTooShortError,
)
from .pulse import DEFAULT_BAND, BandLimits, PulseSignal

ZERO_PAD_FACTOR = 8

# windows per periodogram call: bounds the (WINDOW_BLOCK, padded) spectrum
# intermediates while amortising the per-call overhead
WINDOW_BLOCK = 8


@dataclass(frozen=True)
class WindowSpec:
    """Window length and hop in seconds; hop defaults to the length
    (non-overlapping windows)."""

    length: float
    hop: float | None = None

    def __post_init__(self):
        hop = self.length if self.hop is None else self.hop
        object.__setattr__(self, "hop", hop)
        if self.length <= 0:
            raise InputError(f"window length must be positive, got {self.length}")
        if not 0 < hop <= self.length:
            raise InputError(f"hop must satisfy 0 < hop <= length, got {hop}")


@dataclass(frozen=True)
class Spectrum:
    freqs: np.ndarray
    power: np.ndarray


@dataclass(frozen=True, eq=False)
class HrSeries:
    """One bpm estimate per window, as parallel arrays: window bounds in
    seconds and the estimate in bpm."""

    window_start: np.ndarray
    window_end: np.ndarray
    bpm: np.ndarray
    window_spec: WindowSpec

    def __len__(self) -> int:
        return len(self.bpm)


def partition_windows(n_samples: int, fps: float, spec: WindowSpec) -> np.ndarray:
    """(n_windows, 2) start/end sample indices of every full window;
    trailing partial samples are discarded.  Raises SessionTooShortError
    if no window fits."""
    span = spec.length * fps
    # an infinite product fits no signal and would overflow int(); a
    # finite one is compared with n_samples below, before any allocation
    if math.isinf(span):
        raise SessionTooShortError(
            f"{n_samples} samples cannot fit one {spec.length:g} s window "
            f"at {fps:g} fps")
    win = int(round(span))
    hop = int(round(spec.hop * fps))
    if win < 2:
        raise InputError(f"window of {win} samples ({spec.length} s at {fps} fps) too short")
    if hop < 1:
        raise InputError(f"hop of {spec.hop} s is below one sample at {fps} fps")
    if n_samples < win:
        raise SessionTooShortError(
            f"{n_samples} samples cannot fit one {win}-sample window")
    starts = np.arange((n_samples - win) // hop + 1) * hop
    return np.column_stack((starts, starts + win))


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def periodogram(samples: np.ndarray, fps: float) -> Spectrum:
    """Hann-windowed, zero-padded magnitude-squared DFT along the last axis.

    The segment mean is removed before windowing so a flat input has no
    off-DC leakage; padding to 8x the next power of two gives a bin
    spacing of fps / padded_length Hz.  The last axis holds at least 2
    samples, as partition_windows guarantees.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[-1]
    windowed = (samples - samples.mean(axis=-1, keepdims=True)) * np.hanning(n)
    padded = ZERO_PAD_FACTOR * _next_pow2(n)
    spectrum = np.fft.rfft(windowed, padded, axis=-1)
    return Spectrum(
        freqs=np.fft.rfftfreq(padded, 1.0 / fps),
        power=np.abs(spectrum) ** 2,
    )


def peak_bpm(spectrum: Spectrum, band: BandLimits = DEFAULT_BAND) -> float | np.ndarray:
    """Dominant in-band frequency as bpm, for every power row.

    Argmax of power over [f_lo, f_hi] (ties resolve to the lower
    frequency), refined by a quadratic fit through the peak bin and its
    neighbours, clamped back to the band.  A 1-D power gives a float.
    """
    freqs, power = spectrum.freqs, spectrum.power
    in_band = np.flatnonzero((freqs >= band.f_lo) & (freqs <= band.f_hi))
    if in_band.size == 0:
        raise EmptyBandError(
            f"no spectrum bins inside {band.f_lo}..{band.f_hi} Hz")
    k = in_band[np.argmax(power[..., in_band], axis=-1)]
    f_peak = freqs[k]
    n_bins = power.shape[-1]
    if n_bins >= 3:
        inner = np.clip(k, 1, n_bins - 2)
        p_lo, p0, p_hi = (np.take_along_axis(power, (inner + d)[..., None], -1)[..., 0]
                          for d in (-1, 0, 1))
        denom = p_lo - 2.0 * p0 + p_hi
        refine = (k == inner) & (denom != 0.0)
        shift = np.divide(0.5 * (p_lo - p_hi), denom, out=np.zeros_like(denom),
                          where=refine)
        f_peak = np.where(refine, f_peak + np.clip(shift, -0.5, 0.5) * (freqs[1] - freqs[0]),
                          f_peak)
    bpm = np.clip(60.0 * f_peak, band.bpm_lo, band.bpm_hi)
    return float(bpm) if bpm.ndim == 0 else bpm


def estimate_series(signal: PulseSignal, spec: WindowSpec,
                    band: BandLimits = DEFAULT_BAND) -> HrSeries:
    """One bpm estimate per window of an already-conditioned pulse signal."""
    min_len = 2.0 / band.f_lo
    if spec.length < min_len:
        raise InputError(
            f"window of {spec.length} s holds fewer than two cycles at "
            f"{band.f_lo} Hz; need at least {min_len:.2f} s")
    samples = np.asarray(signal.samples, dtype=np.float64)
    bounds = partition_windows(len(samples), signal.fps, spec)
    windows = sliding_window_view(samples, int(bounds[0, 1] - bounds[0, 0]))
    bpm = np.empty(len(bounds))
    for lo in range(0, len(bounds), WINDOW_BLOCK):
        block = windows[bounds[lo:lo + WINDOW_BLOCK, 0]]
        bpm[lo:lo + len(block)] = peak_bpm(periodogram(block, signal.fps), band)
    return HrSeries(window_start=bounds[:, 0] / signal.fps,
                    window_end=bounds[:, 1] / signal.fps,
                    bpm=bpm, window_spec=spec)


def session_mean(series: HrSeries) -> float:
    """Arithmetic mean of the window estimates; a series has at least one."""
    return float(series.bpm.mean())
