"""Windowed spectral heart-rate estimation.

The conditioned pulse signal is cut into fixed-length windows; each
window's dominant in-band frequency (Hann-windowed, zero-padded DFT,
quadratic peak refinement) becomes one bpm estimate.  Windows are
estimated in blocks whose spectra fill SPECTRUM_BLOCK_BYTES, along the
last (time) axis, RFFT_ROWS windows per rfft call; each block's peaks
are refined where they are found, and the blocks are split across
parallel.WORKERS threads, each worker reusing one set of block buffers.
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
from .frameio import require_real, require_type, short_number
from .parallel import run_spans
from .pulse import PulseSignal

ZERO_PAD_FACTOR = 8

# bytes of a block's (rows, padded // 2 + 1) complex spectra: a block is
# rows = this // (16 * bins) windows, at least 1 and at most the window
# count, so the per-worker heap does not grow with the window length: 15
# rows of 10 s windows at 30 fps (4096 points)
SPECTRUM_BLOCK_BYTES = 512 * 1024

# rows per rfft call, each worker's one spectrum buffer.  On 9000 samples
# at a 1-frame hop one thread took 190 ms with one call per block, 195
# with 8 rows, 208 with 4 and 216 with 7-row blocks (medians of 25;
# 2-core x86-64 VM); estimate_series' own tracemalloc peak is 0.52 MB
# there, 0.97 MB on 2 workers (0.79 and 1.50 with one call per block)
RFFT_ROWS = 8


@dataclass(frozen=True)
class WindowSpec:
    """Window length and hop in seconds, stored as floats; hop defaults
    to the length (non-overlapping windows)."""

    length: float
    hop: float | None = None

    def __post_init__(self):
        length = require_real(self.length, "window length", 0, math.inf)
        hop = length if self.hop is None else require_real(self.hop, "window hop", 0, length, "(]")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "hop", hop)


@dataclass(frozen=True, eq=False)
class HrSeries:
    """One bpm estimate per window, as parallel arrays: window bounds in
    seconds and the estimate in bpm."""

    window_start: np.ndarray
    window_end: np.ndarray
    bpm: np.ndarray

    def __len__(self) -> int:
        return len(self.bpm)


def partition_windows(n_samples: int, fps: float, spec: WindowSpec) -> tuple[int, int, int]:
    """(win, hop, count) in samples of the full windows from sample 0;
    trailing partial samples are discarded.  The window holds at least
    four samples, as the two-cycle and PulseSignal's Nyquist checks
    leave it.  Raises InputError for a hop below one sample, then
    SessionTooShortError if no window fits."""
    # round() gives 0 exactly when the product is at most 0.5
    if spec.hop * fps <= 0.5:
        raise InputError(f"hop of {spec.hop} s is below one sample at {fps} fps")
    span = spec.length * fps
    # an infinite product fits no signal and would overflow int(); a
    # finite one is compared with n_samples below, before any allocation
    if math.isinf(span):
        raise SessionTooShortError(
            f"{n_samples} samples cannot fit one {spec.length:g} s window "
            f"at {fps:g} fps")
    win = int(round(span))
    hop = int(round(spec.hop * fps))
    if n_samples < win:
        raise SessionTooShortError(
            f"{n_samples} samples cannot fit one {short_number(win)}-sample window")
    return win, hop, (n_samples - win) // hop + 1


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def estimate_series(signal: PulseSignal, spec: WindowSpec) -> HrSeries:
    """One bpm estimate per window of a conditioned signal, within signal.band.

    Each window has its mean removed and a Hann taper applied, and is
    zero-padded to 8x the next power of two, so bins are fps / padded Hz
    apart.  The in-band power peak (ties resolve to the lower frequency)
    is refined by a quadratic fit through the peak bin and its
    neighbours, shifted by at most half a bin, and clamped to the band.
    Where the fit has no maximum (a band-edge bin on the flank of a peak
    outside the band), the shift is half a bin toward the larger
    neighbour, so such a peak is clamped to the band edge only when the
    edge bin lies within half a bin of it; otherwise it reads half a bin
    beyond the edge bin, inside the band.
    """
    require_type(signal, PulseSignal, "signal")
    require_type(spec, WindowSpec, "spec")
    band = signal.band
    band.check_two_cycles(spec.length)
    win, hop, count = partition_windows(len(signal.samples), signal.fps, spec)
    padded = ZERO_PAD_FACTOR * _next_pow2(win)
    freqs = np.fft.rfftfreq(padded, 1.0 / signal.fps)
    # f_lo > 0 and f_hi < fps / 2 leave a bin on each side of the band for
    # the refinement; the Nyquist bin is kept out in case rounding puts it
    # inside the band
    in_band = np.flatnonzero((freqs[:-1] >= band.f_lo) & (freqs[:-1] <= band.f_hi))
    if in_band.size == 0:
        raise EmptyBandError(
            f"no spectrum bins inside {band.f_lo}..{band.f_hi} Hz")
    lo, hi = in_band[0] - 1, in_band[-1] + 2
    taper = np.hanning(win)
    # every full window, a basic strided view: a block is a slice of it
    windows = sliding_window_view(signal.samples, win)[::hop]
    bins = padded // 2 + 1
    rows = max(1, min(SPECTRUM_BLOCK_BYTES // (16 * bins), count))
    blocks = range(0, count, rows)  # the first window of each block
    step = freqs[1] - freqs[0]
    # flat offsets into a (rows, hi - lo) power block of each row's first
    # three bins: adding a row's inner-column peak k gives the peak bin
    # and one bin each side
    near = np.arange(rows)[:, None] * (hi - lo) + np.arange(3)
    bpm = np.empty(count)

    def estimate_blocks(first: int, last: int) -> None:
        block = np.empty((rows, win))
        spectrum = np.empty((min(RFFT_ROWS, rows), bins), dtype=np.complex128)
        power = np.empty((rows, hi - lo))
        for a in blocks[first:last]:
            m = min(rows, count - a)
            src, b, p = windows[a:a + m], block[:m], power[:m]
            # each row's mean sums along the contiguous time axis, as a
            # single window's mean does
            np.subtract(src, src.mean(axis=-1, keepdims=True), out=b)
            b *= taper
            for s in range(0, m, len(spectrum)):
                sub = b[s:s + len(spectrum)]
                np.abs(np.fft.rfft(sub, padded, axis=-1, out=spectrum[:len(sub)])[:, lo:hi],
                       out=p[s:s + len(sub)])
            p *= p
            # each block's peaks are refined and clamped where they are found
            k = np.argmax(p[:, 1:-1], axis=-1)
            p_lo, p0, p_hi = p.ravel().take(near[:m] + k[:, None]).T
            denom = p_lo - 2.0 * p0 + p_hi
            # denom >= 0: the parabola has no maximum to refine to
            shift = np.divide(0.5 * (p_lo - p_hi), denom, out=0.5 * np.sign(p_hi - p_lo),
                              where=denom < 0.0)
            f_peak = freqs[lo + 1 + k] + shift.clip(-0.5, 0.5) * step
            (60.0 * f_peak).clip(band.bpm_lo, band.bpm_hi, out=bpm[a:a + m])

    run_spans(len(blocks), estimate_blocks)
    starts = np.arange(count) * hop
    return HrSeries(starts / signal.fps, (starts + win) / signal.fps, bpm)
