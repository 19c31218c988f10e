"""Windowed spectral heart-rate estimation.

The conditioned pulse signal is cut into fixed-length windows; each
window's dominant in-band frequency (Hann-windowed, zero-padded DFT,
quadratic peak refinement) becomes one bpm estimate.  Windows are
estimated in blocks whose spectra fill SPECTRUM_BLOCK_BYTES, along the
last (time) axis, each worker reusing one set of block buffers; long
runs of long transforms are split across parallel.WORKERS threads.
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
from .parallel import run_spans
from .pulse import DEFAULT_BAND, BandLimits, PulseSignal

ZERO_PAD_FACTOR = 8

# bytes of the (rows, padded // 2 + 1) complex spectrum block each
# worker fills per rfft call: rows = this // (16 * bins), at least 1 and
# at most the window count, so the per-worker heap does not grow with
# the window length: 15 rows of 10 s windows at 30 fps (4096 points).
# On 9000 samples at a 1-frame hop, estimate_series' own tracemalloc
# peak is 1.28 MB on one thread and 1.99 MB on 2 workers (1.07 and 1.40
# MB with 8-window blocks), below build_session_signal's 2.75 MB
SPECTRUM_BLOCK_BYTES = 512 * 1024

# the blocks are split across worker threads only for transforms of at
# least SPLIT_MIN_PADDED points and at least SPLIT_MIN_WINDOWS windows:
# at 30 fps and a 1-frame hop (2-core x86-64 VM), 2 workers took
# 0.62-0.95x the time of one at 4096 and 8192 points (9-20 s windows,
# 1501 windows and up) and 1.1-1.4x at 2048 (5 and 7 s), and 1.2-1.6x
# on 6 to 291 windows of 10 s
SPLIT_MIN_PADDED = 4096
SPLIT_MIN_WINDOWS = 512


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


def estimate_series(signal: PulseSignal, spec: WindowSpec,
                    band: BandLimits = DEFAULT_BAND) -> HrSeries:
    """One bpm estimate per window of an already-conditioned pulse signal.

    Each window has its mean removed and a Hann taper applied, and is
    zero-padded to 8x the next power of two, so bins are fps / padded Hz
    apart.  The in-band power peak (ties resolve to the lower frequency)
    is refined by a quadratic fit through the peak bin and its
    neighbours, shifted by at most half a bin, and clamped to the band.
    Where the fit has no maximum (a band-edge bin on the flank of a peak
    outside the band), the shift is half a bin toward the larger
    neighbour, so such a peak is clamped to the band edge.
    """
    min_len = 2.0 / band.f_lo
    if spec.length < min_len:
        raise InputError(
            f"window of {spec.length} s holds fewer than two cycles at "
            f"{band.f_lo} Hz; need at least {min_len:.2f} s")
    band.check_below_nyquist(signal.fps)
    samples = np.asarray(signal.samples, dtype=np.float64)
    bounds = partition_windows(len(samples), signal.fps, spec)
    n = int(bounds[0, 1] - bounds[0, 0])
    padded = ZERO_PAD_FACTOR * _next_pow2(n)
    freqs = np.fft.rfftfreq(padded, 1.0 / signal.fps)
    # f_lo > 0 and f_hi < fps / 2 leave a bin on each side of the band for
    # the refinement; the Nyquist bin is kept out in case rounding puts it
    # inside the band
    in_band = np.flatnonzero((freqs[:-1] >= band.f_lo) & (freqs[:-1] <= band.f_hi))
    if in_band.size == 0:
        raise EmptyBandError(
            f"no spectrum bins inside {band.f_lo}..{band.f_hi} Hz")
    lo, hi = in_band[0] - 1, in_band[-1] + 2
    taper = np.hanning(n)
    # window starts are arange * step, so a block of windows is a basic
    # strided slice of this view
    windows = sliding_window_view(samples, n)
    n_windows = len(bounds)
    step = int(bounds[1, 0] - bounds[0, 0]) if n_windows > 1 else 1
    bins = padded // 2 + 1
    rows = max(1, min(SPECTRUM_BLOCK_BYTES // (16 * bins), n_windows))
    # per window, the peak bin and the power there and one bin each side;
    # the refinement runs once over all windows after the blocks
    peak_bin = np.empty(n_windows, dtype=np.intp)
    peak_power = np.empty((n_windows, 3))

    def estimate_blocks(first: int, last: int) -> None:
        block = np.empty((rows, n))
        spectrum = np.empty((rows, bins), dtype=np.complex128)
        power = np.empty((rows, hi - lo))
        for a in range(first * rows, min(last * rows, n_windows), rows):
            m = min(rows, n_windows - a)
            src = windows[a * step:(a + m - 1) * step + 1:step]
            b, p = block[:m], power[:m]
            # each row's mean sums along the contiguous time axis, as a
            # single window's mean does
            np.subtract(src, src.mean(axis=-1, keepdims=True), out=b)
            b *= taper
            np.abs(np.fft.rfft(b, padded, axis=-1, out=spectrum[:m])[:, lo:hi], out=p)
            p *= p
            k = np.argmax(p[:, 1:-1], axis=-1)
            peak_bin[a:a + m] = k
            peak_power[a:a + m] = np.take_along_axis(p, k[:, None] + np.arange(3), -1)

    run_spans(-(-n_windows // rows), estimate_blocks,
              split=padded >= SPLIT_MIN_PADDED and n_windows >= SPLIT_MIN_WINDOWS)
    p_lo, p0, p_hi = peak_power.T
    denom = p_lo - 2.0 * p0 + p_hi
    # denom >= 0: the parabola has no maximum to refine to
    shift = np.divide(0.5 * (p_lo - p_hi), denom, out=0.5 * np.sign(p_hi - p_lo),
                      where=denom < 0.0)
    f_peak = freqs[lo + 1 + peak_bin] + np.clip(shift, -0.5, 0.5) * (freqs[1] - freqs[0])
    bpm = np.clip(60.0 * f_peak, band.bpm_lo, band.bpm_hi)
    return HrSeries(window_start=bounds[:, 0] / signal.fps,
                    window_end=bounds[:, 1] / signal.fps,
                    bpm=bpm, window_spec=spec)


def session_mean(series: HrSeries) -> float:
    """Arithmetic mean of the window estimates; a series has at least one."""
    return float(series.bpm.mean())
