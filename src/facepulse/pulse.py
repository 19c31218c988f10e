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
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AllFramesInvalidError,
    FlatSignalError,
    InputError,
    NonPositiveMeanError,
    SessionTooShortError,
    SignalTooShortError,
    WindowTooShortError,
)
from .frameio import require_real, require_type, short_number, short_text
from .parallel import run_spans

# the rgb8 channels (R, G, B) each combine method reads; gray8's one is read by all
COMBINE_CHANNELS = {"green": slice(1, 2), "intensity": slice(0, 3), "chrom": slice(0, 3)}
COMBINE_METHODS = tuple(COMBINE_CHANNELS)

# frames per sliced reduction call, per worker: bounds each worker's
# uint16 row-sum intermediate to REDUCE_BLOCK_FRAMES x region width x bpp
# values.  16 for the heap: on 900 640x480 rgb8 frames with a static box,
# one thread at 64, 32 and 16 peaks at 0.16, 0.12 and 0.10 MB
# (tracemalloc, extract_traces alone, given placed rects) and 2 workers
# at 0.26, 0.19 and 0.15 MB, in about the same time at each size
# (medians 0.026-0.030 s on 2 workers, 0.044-0.048 s on one thread;
# 2-core x86-64 VM)
REDUCE_BLOCK_FRAMES = 16

# ROI bytes per gather of frames from short runs.  Capped for the heap: on
# the 8487 gathered frames of a 64x64 rgb8 session whose box moves (9000
# frames), one gather per region and size raises extract_traces' own
# tracemalloc peak to 4.83 MB; at 16, 64 and 256 KiB it is 1.11, 1.11
# and 1.37 MB, and 16 and 64 KiB take about the same time (0.031-0.052
# and 0.031-0.042 s; 2-core x86-64 VM)
GATHER_BYTES = 64 * 1024

# rows per uint16 partial sum: 257 rows of 255 fit in 16 bits exactly.
# Summed through uint16, 16-frame 200x180 rgb8 patches took 0.44x the
# uint32 time (2-core x86-64 VM)
_U16_ROWS = np.iinfo(np.uint16).max // 255

DETREND_WINDOW_S = 1.5

# the bandpass filter spans this many periods of the band's lower edge
FILTER_PERIODS = 4.0


@dataclass(frozen=True)
class BandLimits:
    """Pulse band in Hz; defaults cover 42-240 bpm."""

    f_lo: float = 0.7
    f_hi: float = 4.0

    def __post_init__(self):
        lo = require_real(self.f_lo, "band lower edge", 0, math.inf)
        object.__setattr__(self, "f_lo", lo)
        object.__setattr__(self, "f_hi", require_real(self.f_hi, "band upper edge", lo, math.inf))

    @property
    def bpm_lo(self) -> float:
        return 60.0 * self.f_lo

    @property
    def bpm_hi(self) -> float:
        return 60.0 * self.f_hi

    def check_below_nyquist(self, fps: float) -> None:
        if self.f_hi >= fps / 2:
            raise InputError(f"band upper edge {self.f_hi} Hz must be below Nyquist {fps / 2} Hz")

    def check_two_cycles(self, length: float) -> None:
        min_len = 2.0 / self.f_lo
        if length < min_len:
            raise InputError(
                f"window of {length} s holds fewer than two cycles at "
                f"{self.f_lo} Hz; need at least {min_len:.3g} s")


DEFAULT_BAND = BandLimits()


@dataclass(frozen=True)
class PipelineParams:
    band: BandLimits = DEFAULT_BAND
    combine: str = "chrom"  # a gray8 session's one channel is read by every method

    def __post_init__(self):
        require_type(self.band, BandLimits, "band")
        if self.combine not in COMBINE_METHODS:
            raise InputError(f"unknown combine method {short_text(self.combine)}; "
                             f"use one of {COMBINE_METHODS}")


@dataclass(frozen=True, eq=False)
class PulseSignal:
    """Zero-mean pulse waveform and the band it was filtered to, checked when made."""

    fps: float
    samples: np.ndarray
    band: BandLimits

    def __post_init__(self):
        object.__setattr__(self, "fps", require_real(self.fps, "fps", 0, math.inf))
        require_type(self.band, BandLimits, "band").check_below_nyquist(self.fps)
        try:  # a float64 array is kept, not copied
            samples = np.asarray(self.samples)
            if samples.dtype.kind in "bcSUmM":  # each would convert to float64 silently
                raise InputError(f"samples must be real numbers, not {samples.dtype.name}")
            object.__setattr__(self, "samples", samples.astype(np.float64, copy=False))
        except (TypeError, ValueError) as exc:
            raise InputError(f"samples are not numbers: {exc}") from None
        except OverflowError:  # an int beyond the float range
            raise InputError("samples must be finite, not NaN or infinite") from None
        if self.samples.ndim != 1:
            raise InputError(f"samples must be one-dimensional, got shape {self.samples.shape}")
        if not np.isfinite(self.samples).all():
            raise InputError("samples must be finite, not NaN or infinite")
        if self.samples.size == 0:
            raise SessionTooShortError("a pulse signal needs at least one sample")
        if self.samples.min() == self.samples.max():
            raise FlatSignalError(f"the pulse signal is constant at {self.samples[0]:g}: no pulse")


def extract_traces(frames: np.ndarray, rects: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Spatial-mean trace of every region and channel for every frame.

    frames is a (n, height, width, bpp) uint8 array, as returned by
    frameio.map_frames, and rects and valid the (n, 3, 4) regions and
    (n,) mask that roi.place_regions places in those frames.  Returns the
    float64 (3 regions, bpp channels, n) means.  A run of consecutive
    frames with identical rects that holds REDUCE_BLOCK_FRAMES or more
    frames is cut into blocks of at most REDUCE_BLOCK_FRAMES, and the
    blocks are split across parallel.WORKERS threads.  The frames of
    shorter runs are gathered, one call per region, rect size and
    GATHER_BYTES of regions (at least one frame).  Degenerate frames,
    False in the mask, are interpolated from their valid neighbours so the
    trace keeps exactly one entry per frame.
    """
    n, bpp = len(frames), frames.shape[-1]
    values = np.zeros((3, bpp, n), dtype=np.float64)
    starts = np.flatnonzero(np.r_[True, (rects[1:] != rects[:-1]).any(axis=(1, 2))])
    lengths = np.diff(np.append(starts, n))
    sliced = valid[starts] & (lengths >= REDUCE_BLOCK_FRAMES)
    # (first, end) frames of each block, cut from the sliced runs
    blocks = [(f, min(f + REDUCE_BLOCK_FRAMES, a + k))
              for a, k in zip(starts[sliced].tolist(), lengths[sliced].tolist())
              for f in range(a, a + k, REDUCE_BLOCK_FRAMES)]

    def reduce_blocks(lo: int, hi: int) -> None:
        for a, b in blocks[lo:hi]:
            for r, (x, y, w, h) in enumerate(rects[a].tolist()):
                sums = _patch_sums(frames[a:b, y:y + h, x:x + w])
                values[r, :, a:b] = (sums / (w * h)).T

    run_spans(len(blocks), reduce_blocks)
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
    return values


def _patch_sums(patch: np.ndarray) -> np.ndarray:
    """Exact (k, bpp) uint64 sums of a (k, h, w, bpp) uint8 patch: uint16
    sums of at most _U16_ROWS rows at a time, then uint64 sums over the
    width and the row chunks."""
    return sum(np.add.reduce(patch[:, y:y + _U16_ROWS], axis=1, dtype=np.uint16)
               .sum(axis=1, dtype=np.uint64) for y in range(0, patch.shape[1], _U16_ROWS))


def _gather_means(frames: np.ndarray, rects: np.ndarray, idx: np.ndarray,
                  values: np.ndarray) -> None:
    """Write the region means of frames idx into values[..., idx]: one
    gather of at most GATHER_BYTES per region and rect size, whose
    integer sums are exact like the sliced path's."""
    bpp = frames.shape[-1]
    for r in range(3):
        # sorted on the size columns; x and y are read per chunk, so no
        # (k, 4) copy of the rects is made
        w, h = rects[idx, r, 2], rects[idx, r, 3]
        order = np.lexsort((h, w))
        w = w[order]
        h = h[order]
        cuts = np.flatnonzero((w[1:] != w[:-1]) | (h[1:] != h[:-1])) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(order)]):
            gw, gh = int(w[lo]), int(h[lo])
            # (n, y, x, h, w, bpp): a gathered patch keeps the frame's layout
            windows = np.moveaxis(sliding_window_view(frames, (gh, gw), axis=(1, 2)), 3, -1)
            step = max(1, GATHER_BYTES // (bpp * gw * gh))
            for s in range(lo, hi, step):
                f = idx[order[s:min(s + step, hi)]]
                sums = _patch_sums(windows[f, rects[f, r, 1], rects[f, r, 0]])
                values[r][:, f] = (sums / (gw * gh)).T


def normalize_segment(segment: np.ndarray) -> np.ndarray:
    """Divide by the segment mean and subtract one: zero-mean, scale-free."""
    mean = segment.mean()
    if mean <= 0:
        raise NonPositiveMeanError(f"segment mean {mean} is not positive")
    out = segment / mean
    out -= 1.0
    return out


def detrend(signal: np.ndarray, fps: float) -> np.ndarray:
    """Subtract a centred moving average of round(DETREND_WINDOW_S * fps)
    samples; edges average over the shorter window that fits."""
    n = len(signal)
    # any window of 2n + 1 or more samples averages the whole signal at
    # every index, so a longer one is cut (to 2n + 3, at least 3) before
    # int() can overflow
    w = int(round(min(DETREND_WINDOW_S * fps, 2 * n + 3)))
    if w < 3:
        raise WindowTooShortError(
            f"detrend window of {w} samples ({DETREND_WINDOW_S} s at {fps} fps); need >= 3")
    before, after = (w - 1) // 2, w // 2 + 1  # a window is [i - before, i + after)
    csum = np.zeros(n + 1)
    np.cumsum(signal, out=csum[1:])
    # the m full windows, samples before .. before + m - 1, in one pass;
    # only the fewer than w edge samples take index arrays
    m = max(n + 1 - w, 0)
    moving = np.empty(n)
    inner = np.subtract(csum[w:], csum[:m], out=moving[before:before + m])
    inner /= w
    idx = np.r_[0:min(before, n), before + m:n]
    lo = np.clip(idx - before, 0, n)
    hi = np.clip(idx + after, 0, n)
    moving[idx] = (csum[hi] - csum[lo]) / (hi - lo)
    return np.subtract(signal, moving, out=moving)


def design_bandpass_taps(fps: float, n: int, band: BandLimits) -> np.ndarray:
    """Windowed-sinc (Hamming) bandpass taps for a signal of n samples,
    round(FILTER_PERIODS * fps / f_lo) long, forced odd so the group delay
    is an integer; gain normalised to one at the centre of the band, whose
    upper edge load_session has checked to lie below Nyquist.  Raises
    SignalTooShortError if the filter is longer than the signal."""
    # the tap count is compared with the signal before the taps are
    # allocated; an infinite count never reaches round()
    span = FILTER_PERIODS * fps / band.f_lo
    if math.isinf(span):
        raise SignalTooShortError(f"signal of {n} samples shorter than an unbounded filter")
    n_taps = round(span) | 1
    if n < n_taps:
        raise SignalTooShortError(
            f"signal of {n} samples shorter than the {short_number(n_taps)}-tap filter")
    m = np.arange(n_taps) - (n_taps - 1) / 2

    def ideal_lowpass(fc: float) -> np.ndarray:
        return 2.0 * fc / fps * np.sinc(2.0 * fc * m / fps)

    taps = (ideal_lowpass(band.f_hi) - ideal_lowpass(band.f_lo)) * np.hamming(n_taps)
    f_center = 0.5 * (band.f_lo + band.f_hi)
    gain = np.abs(np.sum(taps * np.exp(-2j * np.pi * f_center * m / fps)))
    return taps / gain


def bandpass(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-phase FIR bandpass with taps from design_bandpass_taps: single
    forward convolution, "valid" outputs only, on a copy reflect-padded by
    the integer group delay, residual mean removed so DC is rejected
    regardless of edge transients."""
    delay = (len(taps) - 1) // 2
    out = np.convolve(np.pad(signal, delay, mode="reflect"), taps, mode="valid")
    out -= out.mean()
    return out


def combine_channels(rows: np.ndarray, method: str) -> np.ndarray:
    """Collapse one region's conditioned (k, n) channel rows, the ones the
    method reads, to that region's (n,) series.

    One row (gray8, or G under green) is the series as it is.  Of three
    R, G, B rows, intensity is their mean; chrom projects onto the
    X - (std X / std Y) * Y chrominance axis with X = 3R - 2G and
    Y = 1.5R + G - 1.5B, and falls back to intensity when Y has zero
    variance or the projection collapses (replicated channels).
    """
    if len(rows) == 1:
        return rows[0]
    intensity = rows.mean(axis=0)
    if method == "intensity":
        return intensity
    r, g, b = rows
    cx, cy = 3.0 * r - 2.0 * g, 1.5 * r + g - 1.5 * b
    sx, sy = cx.std(), cy.std()
    if sy == 0.0:
        return intensity
    chrom = cx - sx / sy * cy
    return intensity if chrom.std() <= 1e-9 * (sx + sy) else chrom


def build_pulse_signal(values: np.ndarray, fps: float, band: BandLimits,
                       method: str) -> PulseSignal:
    """Full conditioning chain for the (3, C, n) means extract_traces
    returns, which it consumes.

    One region at a time, each channel row the method reads
    (COMBINE_CHANNELS of rgb8, gray8's one channel) is normalised,
    detrended and bandpassed in place, and combine_channels collapses the
    region's rows to its series.  The regions are fused by their mean,
    then made zero-mean; PulseSignal refuses a flat one, as read channels
    that never change leave it.
    """
    if values.shape[1] == 3:
        values = values[:, COMBINE_CHANNELS[method]]  # a view: no copy
    taps = design_bandpass_taps(fps, values.shape[-1], band)
    fused = np.zeros(values.shape[-1])
    for region in values:
        for row in region:
            row[:] = bandpass(detrend(normalize_segment(row), fps), taps)
        # summed from 0.0 in region order: the bits of regions.mean(axis=0)
        fused += combine_channels(region, method)
    fused /= len(values)
    fused -= fused.mean()
    return PulseSignal(fps=fps, samples=fused, band=band)
