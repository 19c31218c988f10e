"""Pulse-signal extraction and conditioning.

Turns a frame array plus face-box track into one clean pulse waveform:
spatial means per region and channel, then per-channel normalisation,
moving-average detrending and zero-phase FIR bandpass, a channel
combination step (green / intensity / chrominance), and finally fusion
of the three regions into a single zero-mean signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    AllFramesInvalidError,
    InputError,
    LengthMismatchError,
    NonPositiveMeanError,
    SignalTooShortError,
    WindowTooShortError,
    ZeroVarianceError,
)
from .roi import DEFAULT_LAYOUT, RoiLayout, place_regions

COMBINE_METHODS = ("green", "intensity", "chrom")

# frames per reduction call: bounds the uint32 row-sum intermediate to
# REDUCE_BLOCK_FRAMES x region width x bpp values
REDUCE_BLOCK_FRAMES = 64

DEFAULT_DETREND_WINDOW_S = 1.5


@dataclass(frozen=True)
class BandLimits:
    """Pulse band in Hz; defaults cover 42-240 bpm."""

    f_lo: float = 0.7
    f_hi: float = 4.0

    def __post_init__(self):
        if not 0 < self.f_lo < self.f_hi:
            raise InputError(
                f"band limits must satisfy 0 < f_lo < f_hi, got {self.f_lo}..{self.f_hi}")

    def check_nyquist(self, fps: float) -> None:
        if self.f_hi >= fps / 2:
            raise InputError(
                f"band upper edge {self.f_hi} Hz must be below Nyquist {fps / 2} Hz")

    @property
    def bpm_lo(self) -> float:
        return 60.0 * self.f_lo

    @property
    def bpm_hi(self) -> float:
        return 60.0 * self.f_hi


DEFAULT_BAND = BandLimits()


@dataclass
class RawTrace:
    """Per-frame spatial means, shape (n_frames, 3 regions, 3 channels)."""

    fps: float
    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[1:] != (3, 3):
            raise InputError(f"trace must have shape (n, 3, 3), got {self.values.shape}")
        if self.valid is None:
            self.valid = np.ones(len(self.values), dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PulseSignal:
    """Filtered, zero-mean pulse waveform."""

    fps: float
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)


def extract_traces(frames: np.ndarray, boxes: np.ndarray, fps: float,
                   layout: RoiLayout = DEFAULT_LAYOUT) -> RawTrace:
    """Spatial-mean trace of every region and channel for every frame.

    frames is a (n, height, width, bpp) uint8 array, as returned by
    frameio.map_frames, and boxes the (n, 4) face-box track.  Each run
    of consecutive frames with identical rects is reduced in blocks of
    REDUCE_BLOCK_FRAMES; a gray8 mean fills all three channels.
    Degenerate frames are interpolated from their valid neighbours so
    the trace keeps exactly one entry per frame.
    """
    n, height, width, _ = frames.shape
    if len(boxes) != n:
        raise LengthMismatchError(f"box track has {len(boxes)} entries for {n} frames")
    rects, valid = place_regions(boxes, width, height, layout)
    values = np.zeros((n, 3, 3), dtype=np.float64)
    starts = np.flatnonzero(np.r_[True, (rects[1:] != rects[:-1]).any(axis=(1, 2))])
    for a, b in zip(starts, np.append(starts[1:], n)):
        if not valid[a]:
            continue
        for r, (x, y, w, h) in enumerate(rects[a].tolist()):
            for lo in range(a, b, REDUCE_BLOCK_FRAMES):
                patch = frames[lo:min(lo + REDUCE_BLOCK_FRAMES, b), y:y + h, x:x + w]
                # exact integer sums: a uint32 column holds 2**24 rows of 255
                sums = patch.sum(axis=1, dtype=np.uint32).sum(axis=1, dtype=np.uint64)
                values[lo:lo + len(sums), r] = sums / (w * h)
    if not valid.any():
        raise AllFramesInvalidError("every frame produced a degenerate region set")
    if not valid.all():
        good = np.flatnonzero(valid)
        bad = np.flatnonzero(~valid)
        for r in range(3):
            for c in range(3):
                values[bad, r, c] = np.interp(bad, good, values[good, r, c])
    return RawTrace(fps=fps, values=values, valid=valid)


def normalize_segment(segment: np.ndarray) -> np.ndarray:
    """Divide by the segment mean and subtract one: zero-mean, scale-free."""
    segment = np.asarray(segment, dtype=np.float64)
    if len(segment) < 2:
        raise SignalTooShortError(f"segment of {len(segment)} samples; need at least 2")
    mean = segment.mean()
    if mean <= 0:
        raise NonPositiveMeanError(f"segment mean {mean} is not positive")
    return segment / mean - 1.0


def detrend(signal: np.ndarray, fps: float,
            cutoff_window: float = DEFAULT_DETREND_WINDOW_S) -> np.ndarray:
    """Subtract a centred moving average of round(cutoff_window * fps)
    samples; edges average over the shorter window that fits."""
    signal = np.asarray(signal, dtype=np.float64)
    w = int(round(cutoff_window * fps))
    if w < 3:
        raise WindowTooShortError(
            f"detrend window of {w} samples ({cutoff_window} s at {fps} fps); need >= 3")
    n = len(signal)
    idx = np.arange(n)
    lo = np.clip(idx - (w - 1) // 2, 0, n)
    hi = np.clip(idx + w // 2 + 1, 0, n)
    csum = np.concatenate(([0.0], np.cumsum(signal)))
    moving = (csum[hi] - csum[lo]) / (hi - lo)
    return signal - moving


def design_bandpass_taps(fps: float, band: BandLimits = DEFAULT_BAND) -> np.ndarray:
    """Windowed-sinc (Hamming) bandpass taps, round(4 * fps / f_lo) long,
    forced odd so the group delay is an integer; gain normalised to one
    at the centre of the band."""
    band.check_nyquist(fps)
    n_taps = int(round(4.0 * fps / band.f_lo))
    if n_taps % 2 == 0:
        n_taps += 1
    m = np.arange(n_taps) - (n_taps - 1) / 2

    def ideal_lowpass(fc: float) -> np.ndarray:
        return 2.0 * fc / fps * np.sinc(2.0 * fc * m / fps)

    taps = (ideal_lowpass(band.f_hi) - ideal_lowpass(band.f_lo)) * np.hamming(n_taps)
    f_center = 0.5 * (band.f_lo + band.f_hi)
    gain = np.abs(np.sum(taps * np.exp(-2j * np.pi * f_center * m / fps)))
    return taps / gain


def bandpass(signal: np.ndarray, fps: float, band: BandLimits = DEFAULT_BAND) -> np.ndarray:
    """Zero-phase FIR bandpass: single forward convolution on a
    reflect-padded copy, trimmed with the integer group delay, residual
    mean removed so DC is rejected regardless of edge transients."""
    signal = np.asarray(signal, dtype=np.float64)
    taps = design_bandpass_taps(fps, band)
    n, n_taps = len(signal), len(taps)
    if n < n_taps:
        raise SignalTooShortError(
            f"signal of {n} samples shorter than the {n_taps}-tap filter")
    delay = (n_taps - 1) // 2
    padded = np.pad(signal, delay, mode="reflect")
    out = np.convolve(padded, taps, mode="same")[delay:delay + n]
    return out - out.mean()


def combine_channels(window: np.ndarray, method: str = "chrom") -> np.ndarray:
    """Collapse an (n, 3) array of conditioned R,G,B series into one series.

    green picks G, intensity averages the three, chrom projects onto the
    X - (std X / std Y) * Y chrominance axis with X = 3R - 2G and
    Y = 1.5R + G - 1.5B.  Raises ZeroVarianceError when the chrominance
    projection collapses (replicated channels); callers fall back to
    intensity.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != 3:
        raise InputError(f"expected an (n, 3) channel window, got {window.shape}")
    if method == "green":
        return window[:, 1].copy()
    if method == "intensity":
        return window.mean(axis=1)
    if method != "chrom":
        raise InputError(f"unknown combine method {method!r}; use one of {COMBINE_METHODS}")
    r, g, b = window[:, 0], window[:, 1], window[:, 2]
    x = 3.0 * r - 2.0 * g
    y = 1.5 * r + g - 1.5 * b
    sx, sy = x.std(), y.std()
    if sy == 0.0:
        raise ZeroVarianceError("chrominance Y component has zero variance")
    out = x - (sx / sy) * y
    if out.std() <= 1e-9 * (sx + sy):
        raise ZeroVarianceError(
            "chrominance projection collapsed (X and Y proportional; replicated channels?)")
    return out


def fuse_rois(signals: Iterable[np.ndarray], fps: float) -> PulseSignal:
    """Pointwise mean of the per-region signals, mean-subtracted."""
    arrays = [np.asarray(s, dtype=np.float64) for s in signals]
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise LengthMismatchError(f"region signals differ in length: {sorted(lengths)}")
    fused = np.mean(arrays, axis=0)
    return PulseSignal(fps=fps, samples=fused - fused.mean())


def build_pulse_signal(trace: RawTrace, band: BandLimits = DEFAULT_BAND,
                       method: str = "chrom",
                       detrend_window: float = DEFAULT_DETREND_WINDOW_S) -> PulseSignal:
    """Full conditioning chain for one session trace.

    Per region: normalise each channel, detrend, bandpass, then combine
    channels; the three region signals are fused at the end.  A chrom
    request that collapses on degenerate input falls back to intensity.
    """
    region_signals = []
    for r in range(3):
        chans = np.empty((len(trace), 3), dtype=np.float64)
        for c in range(3):
            s = normalize_segment(trace.values[:, r, c])
            s = detrend(s, trace.fps, detrend_window)
            chans[:, c] = bandpass(s, trace.fps, band)
        try:
            combined = combine_channels(chans, method)
        except ZeroVarianceError:
            combined = combine_channels(chans, "intensity")
        region_signals.append(combined)
    return fuse_rois(region_signals, trace.fps)
