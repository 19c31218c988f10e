"""Pulse-signal extraction and conditioning.

Turns a frame array plus face-box track into one clean pulse waveform:
spatial means per region and channel, then per-channel normalisation,
moving-average detrending and zero-phase FIR bandpass, a channel
combination step (green / intensity / chrominance), and finally fusion
of the three regions into a single zero-mean signal.  Every stage keeps
time on the last axis: a trace is (regions, channels, frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AllFramesInvalidError,
    InputError,
    NonPositiveMeanError,
    SignalTooShortError,
    WindowTooShortError,
)
from .parallel import run_spans
from .roi import place_regions

COMBINE_METHODS = ("green", "intensity", "chrom")

# frames per sliced reduction call, per worker: bounds each worker's
# uint32 row-sum intermediate to REDUCE_BLOCK_FRAMES x region width x bpp
# values.  16 for the heap: on 900 640x480 rgb8 frames with a static box,
# one thread at 64 peaks at 0.34 MB (tracemalloc, extract_traces alone); 2
# workers at 64, 32 and 16 peak at 0.35-0.53, 0.39 and 0.31 MB, in about
# the same time (0.038-0.040 s against 0.054 s on one thread)
REDUCE_BLOCK_FRAMES = 16

# the frames are split across worker threads only when the reduction
# calls average at least this many ROI bytes: on 600 rgb8 frames (2-core
# x86-64 VM), 2 workers took 0.65-0.99x the time of one at 68-423 kB per
# call (static boxes, 320x240 and up) and 1.04-2.2x at 0.2-52 kB (a box
# that moves every frame, or smaller frames)
SPLIT_MIN_CALL_BYTES = 64 * 1024

# ROI bytes per gather of frames from short runs.  Capped for the heap: on
# the 8487 gathered frames of a 64x64 rgb8 session whose box moves (9000
# frames), one gather per region and size raises extract_traces' own
# tracemalloc peak to 6.70 MB; at 16, 64 and 256 KiB it is 2.29, 2.34
# and 2.60 MB, and 64 KiB takes 0.049-0.055 s
# against 0.057-0.062 s at 16 KiB (2-core x86-64 VM).  A run whose frames
# hold GATHER_BYTES or more of regions is sliced instead: gathered one
# frame at a time, a 1280x720 rgb8 box that moves every frame took
# 1.05-1.25x the sliced time
GATHER_BYTES = 64 * 1024

DETREND_WINDOW_S = 1.5

# the bandpass filter spans this many periods of the band's lower edge
FILTER_PERIODS = 4.0


@dataclass(frozen=True)
class BandLimits:
    """Pulse band in Hz; defaults cover 42-240 bpm."""

    f_lo: float = 0.7
    f_hi: float = 4.0

    def __post_init__(self):
        if not 0 < self.f_lo < self.f_hi:
            raise InputError(
                f"band limits must satisfy 0 < f_lo < f_hi, got {self.f_lo}..{self.f_hi}")

    @property
    def bpm_lo(self) -> float:
        return 60.0 * self.f_lo

    @property
    def bpm_hi(self) -> float:
        return 60.0 * self.f_hi

    def check_below_nyquist(self, fps: float) -> None:
        if self.f_hi >= fps / 2:
            raise InputError(f"band upper edge {self.f_hi} Hz must be below Nyquist {fps / 2} Hz")


DEFAULT_BAND = BandLimits()


@dataclass
class RawTrace:
    """Per-frame spatial means, shape (3 regions, C channels, n_frames);
    C is 3 for rgb8 and 1 for gray8."""

    fps: float
    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[0] != 3 or \
                self.values.shape[1] not in (1, 3):
            raise InputError(
                f"trace must have shape (3, 1 or 3, n), got {self.values.shape}")
        if self.valid is None:
            self.valid = np.ones(len(self), dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)

    def __len__(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class PulseSignal:
    """Filtered, zero-mean pulse waveform."""

    fps: float
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)


def extract_traces(frames: np.ndarray, boxes: np.ndarray, fps: float) -> RawTrace:
    """Spatial-mean trace of every region and channel for every frame.

    frames is a (n, height, width, bpp) uint8 array, as returned by
    frameio.map_frames, and boxes the (n, 4) track that roi.load_box_track
    fills to one row per frame.  A run of consecutive frames with
    identical rects that holds REDUCE_BLOCK_FRAMES or more frames, or
    GATHER_BYTES or more of regions per frame, is sliced in blocks of
    REDUCE_BLOCK_FRAMES, with the frame axis split across
    parallel.WORKERS threads when the blocks average SPLIT_MIN_CALL_BYTES
    or more.  The frames of the other runs are gathered, one call per
    region, rect size and GATHER_BYTES.  A gray8 trace has one channel.
    Degenerate frames are interpolated from their valid neighbours so
    the trace keeps exactly one entry per frame.
    """
    n, height, width, bpp = frames.shape
    rects, valid = place_regions(boxes, width, height)
    values = np.zeros((3, bpp, n), dtype=np.float64)
    starts = np.flatnonzero(np.r_[True, (rects[1:] != rects[:-1]).any(axis=(1, 2))])
    lengths = np.diff(np.append(starts, n))
    frame_bytes = bpp * (rects[starts, :, 2] * rects[starts, :, 3]).sum(axis=1)
    sliced = valid[starts] & ((lengths >= REDUCE_BLOCK_FRAMES) | (frame_bytes >= GATHER_BYTES))
    run_lo, run_hi = starts[sliced], starts[sliced] + lengths[sliced]

    def reduce_span(lo: int, hi: int) -> None:
        # runs are cut at the span edges; the sums are exact, so the cut
        # does not change a bit
        a_cut, b_cut = np.maximum(run_lo, lo), np.minimum(run_hi, hi)
        inside = a_cut < b_cut
        for a, b in zip(a_cut[inside].tolist(), b_cut[inside].tolist()):
            for r, (x, y, w, h) in enumerate(rects[a].tolist()):
                for f in range(a, b, REDUCE_BLOCK_FRAMES):
                    patch = frames[f:min(f + REDUCE_BLOCK_FRAMES, b), y:y + h, x:x + w]
                    # exact integer sums: a uint32 column holds 2**24 rows of 255
                    sums = patch.sum(axis=1, dtype=np.uint32).sum(axis=1, dtype=np.uint64)
                    values[r, :, f:f + len(sums)] = (sums / (w * h)).T

    if run_lo.size:
        calls = 3 * (-(-lengths[sliced] // REDUCE_BLOCK_FRAMES)).sum()
        roi_bytes = (frame_bytes[sliced] * lengths[sliced]).sum()
        run_spans(n, reduce_span, split=bool(roi_bytes >= SPLIT_MIN_CALL_BYTES * calls))
    gathered = np.flatnonzero(np.repeat(valid[starts] & ~sliced, lengths))
    if gathered.size:
        _gather_means(frames, rects, gathered, values)
    if not valid.any():
        raise AllFramesInvalidError("every frame produced a degenerate region set")
    if not valid.all():
        good = np.flatnonzero(valid)
        bad = np.flatnonzero(~valid)
        for row in values.reshape(-1, n):
            row[bad] = np.interp(bad, good, row[good])
    return RawTrace(fps=fps, values=values, valid=valid)


def _gather_means(frames: np.ndarray, rects: np.ndarray, idx: np.ndarray,
                  values: np.ndarray) -> None:
    """Write the region means of frames idx into values[..., idx]: one
    gather of at most GATHER_BYTES per region and rect size, whose
    integer sums are exact like the sliced path's."""
    bpp = frames.shape[-1]
    for r in range(3):
        x, y, w, h = rects[idx, r].T
        order = np.lexsort((h, w))
        cuts = np.flatnonzero(np.diff(w[order]) | np.diff(h[order])) + 1
        for group in np.split(order, cuts):
            gw, gh = int(w[group[0]]), int(h[group[0]])
            # (n, y, x, h, w, bpp): a gathered patch keeps the frame's layout
            windows = np.moveaxis(sliding_window_view(frames, (gh, gw), axis=(1, 2)), 3, -1)
            step = max(1, GATHER_BYTES // (bpp * gw * gh))
            for s in range(0, len(group), step):
                g = group[s:s + step]
                patch = windows[idx[g], y[g], x[g]]
                sums = patch.sum(axis=1, dtype=np.uint32).sum(axis=1, dtype=np.uint64)
                values[r][:, idx[g]] = (sums / (gw * gh)).T


def normalize_segment(segment: np.ndarray) -> np.ndarray:
    """Divide by the segment mean and subtract one: zero-mean, scale-free."""
    segment = np.asarray(segment, dtype=np.float64)
    if len(segment) < 2:
        raise SignalTooShortError(f"segment of {len(segment)} samples; need at least 2")
    mean = segment.mean()
    if mean <= 0:
        raise NonPositiveMeanError(f"segment mean {mean} is not positive")
    return segment / mean - 1.0


def detrend(signal: np.ndarray, fps: float) -> np.ndarray:
    """Subtract a centred moving average of round(DETREND_WINDOW_S * fps)
    samples; edges average over the shorter window that fits."""
    signal = np.asarray(signal, dtype=np.float64)
    n = len(signal)
    # any window of 2n + 1 or more samples averages the whole signal at
    # every index, so a longer one is cut (to 2n + 3, at least 3) before
    # int() can overflow
    w = int(round(min(DETREND_WINDOW_S * fps, 2 * n + 3)))
    if w < 3:
        raise WindowTooShortError(
            f"detrend window of {w} samples ({DETREND_WINDOW_S} s at {fps} fps); need >= 3")
    idx = np.arange(n)
    lo = np.clip(idx - (w - 1) // 2, 0, n)
    hi = np.clip(idx + w // 2 + 1, 0, n)
    csum = np.concatenate(([0.0], np.cumsum(signal)))
    moving = (csum[hi] - csum[lo]) / (hi - lo)
    return signal - moving


def design_bandpass_taps(fps: float, n: int,
                         band: BandLimits = DEFAULT_BAND) -> np.ndarray:
    """Windowed-sinc (Hamming) bandpass taps for a signal of n samples,
    round(FILTER_PERIODS * fps / f_lo) long, forced odd so the group delay
    is an integer; gain normalised to one at the centre of the band.
    Raises InputError if f_hi is not below Nyquist and SignalTooShortError
    if the filter is longer than the signal."""
    band.check_below_nyquist(fps)
    # the tap count is compared with the signal before the taps are
    # allocated; an infinite count never reaches round()
    span = FILTER_PERIODS * fps / band.f_lo
    if math.isinf(span):
        raise SignalTooShortError(f"signal of {n} samples shorter than an unbounded filter")
    n_taps = round(span) | 1
    if n < n_taps:
        raise SignalTooShortError(f"signal of {n} samples shorter than the {n_taps}-tap filter")
    m = np.arange(n_taps) - (n_taps - 1) / 2

    def ideal_lowpass(fc: float) -> np.ndarray:
        return 2.0 * fc / fps * np.sinc(2.0 * fc * m / fps)

    taps = (ideal_lowpass(band.f_hi) - ideal_lowpass(band.f_lo)) * np.hamming(n_taps)
    f_center = 0.5 * (band.f_lo + band.f_hi)
    gain = np.abs(np.sum(taps * np.exp(-2j * np.pi * f_center * m / fps)))
    return taps / gain


def bandpass(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-phase FIR bandpass with taps from design_bandpass_taps: single
    forward convolution on a reflect-padded copy, trimmed with the integer
    group delay, residual mean removed so DC is rejected regardless of
    edge transients."""
    n = len(signal)
    delay = (len(taps) - 1) // 2
    padded = np.pad(signal, delay, mode="reflect")
    out = np.convolve(padded, taps, mode="same")[delay:delay + n]
    return out - out.mean()


def combine_channels(x: np.ndarray, method: str = "chrom") -> np.ndarray:
    """Collapse conditioned (regions, C, n) channel series to (regions, n).

    method is one of COMBINE_METHODS, which PipelineParams checks.
    A single channel (C == 1) passes through for every method.  For
    C == 3 (R, G, B): green picks G, intensity averages the three, chrom
    projects onto the X - (std X / std Y) * Y chrominance axis with
    X = 3R - 2G and Y = 1.5R + G - 1.5B.  A region whose Y has zero
    variance or whose projection collapses (replicated channels) gets
    intensity instead.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] == 1:
        return x[:, 0].copy()
    if method == "green":
        return x[:, 1].copy()
    intensity = x.mean(axis=1)
    if method == "intensity":
        return intensity
    r, g, b = x[:, 0], x[:, 1], x[:, 2]
    cx = 3.0 * r - 2.0 * g
    cy = 1.5 * r + g - 1.5 * b
    sx, sy = cx.std(axis=-1), cy.std(axis=-1)
    ratio = np.divide(sx, sy, out=np.zeros_like(sx), where=sy != 0.0)
    chrom = cx - ratio[:, None] * cy
    collapsed = (sy == 0.0) | (chrom.std(axis=-1) <= 1e-9 * (sx + sy))
    return np.where(collapsed[:, None], intensity, chrom)


def build_pulse_signal(trace: RawTrace, band: BandLimits = DEFAULT_BAND,
                       method: str = "chrom") -> PulseSignal:
    """Full conditioning chain for one session trace.

    Each region/channel row is normalised, detrended and bandpassed on
    its own, the channels of each region are combined, and the region
    signals are fused by their mean, which is then made zero-mean.
    """
    rows = trace.values.reshape(-1, len(trace))
    taps = design_bandpass_taps(trace.fps, len(trace), band)
    conditioned = np.empty_like(rows)
    for row, out in zip(rows, conditioned):
        out[:] = bandpass(detrend(normalize_segment(row), trace.fps), taps)
    fused = combine_channels(conditioned.reshape(trace.values.shape), method).mean(axis=0)
    return PulseSignal(fps=trace.fps, samples=fused - fused.mean())
