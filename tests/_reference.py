"""Independent brute-force reference implementations.

Deliberately written without vectorisation across windows, regions or
frames and without any import from the package, so the fast
implementations are checked against separately derived arithmetic.  The
metric references use only the standard library; the spectral and
combine references make the same numpy calls on one window or one
region at a time, so the batched code must match them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def ref_mae(est: list[float], gt: list[float]) -> float:
    assert len(est) == len(gt) and est
    return math.fsum(abs(e - g) for e, g in zip(est, gt)) / len(est)


def ref_window_means(samples: list[tuple[float, float]],
                     windows: list[tuple[float, float]]) -> list[float]:
    out = []
    for start, end in windows:
        inside = [bpm for t, bpm in samples if start <= t < end]
        assert inside, (start, end)
        out.append(math.fsum(inside) / len(inside))
    return out


def ref_sub51(est: list[float], gt_means: list[float]) -> float:
    return abs(math.fsum(est) / len(est) - math.fsum(gt_means) / len(gt_means))


def ref_sub52(est: list[float], gt_means: list[float]) -> float:
    return ref_mae(est, gt_means)


def ref_aggregate(values: list[float]) -> float:
    assert values
    return math.fsum(values) / len(values)


def ref_roi_means(frames: list, rects: list) -> list[list[list[float]]]:
    """Per-frame mean of each channel inside each (x, y, w, h) rect.

    frames[i][row][col] is a list of channel values and rects[i] the
    frame's list of rects; pixels are summed one at a time as integers.
    """
    out = []
    for frame, frame_rects in zip(frames, rects):
        regions = []
        for x, y, w, h in frame_rects:
            sums = [0] * len(frame[0][0])
            for row in frame[y:y + h]:
                for pixel in row[x:x + w]:
                    for c, value in enumerate(pixel):
                        sums[c] += value
            regions.append([s / (w * h) if w * h else math.nan for s in sums])
        out.append(regions)
    return out


def ref_hr_series(samples: np.ndarray, fps: float, win: int, hop: int,
                  f_lo: float = 0.7, f_hi: float = 4.0
                  ) -> tuple[list[float], list[float], list[float]]:
    """Window starts and ends in seconds and bpm, one window at a time:
    mean removal, Hann window, rfft zero-padded to 8x the next power of
    two, in-band argmax (first of equal peaks), quadratic refinement
    clamped to half a bin (half a bin toward the larger neighbour where
    the parabola has no maximum), bpm clamped to the band."""
    padded = 8 * (1 << (win - 1).bit_length())
    freqs = np.fft.rfftfreq(padded, 1.0 / fps).tolist()
    in_band = [k for k, f in enumerate(freqs) if f_lo <= f <= f_hi]
    starts, ends, bpms = [], [], []
    for start in range(0, len(samples) - win + 1, hop):
        segment = samples[start:start + win]
        windowed = (segment - segment.mean()) * np.hanning(win)
        power = (np.abs(np.fft.rfft(windowed, padded)) ** 2).tolist()
        k = in_band[0]
        for i in in_band:
            if power[i] > power[k]:
                k = i
        f_peak = freqs[k]
        if 0 < k < len(power) - 1:
            denom = power[k - 1] - 2.0 * power[k] + power[k + 1]
            if denom < 0.0:
                shift = 0.5 * (power[k - 1] - power[k + 1]) / denom
            elif power[k + 1] != power[k - 1]:
                shift = 0.5 if power[k + 1] > power[k - 1] else -0.5
            else:
                shift = 0.0
            f_peak += min(max(shift, -0.5), 0.5) * (freqs[1] - freqs[0])
        starts.append(start / fps)
        ends.append((start + win) / fps)
        bpms.append(min(max(60.0 * f_peak, 60.0 * f_lo), 60.0 * f_hi))
    return starts, ends, bpms


def ref_block_rows(win: int, block_bytes: int) -> int:
    """Windows of `win` samples per spectral block: as many complex128
    spectra of 8x the next power of two points as fill block_bytes, at
    least one."""
    bins = 8 * (1 << (win - 1).bit_length()) // 2 + 1
    return max(1, block_bytes // (16 * bins))


def ref_window_means_masked(times: np.ndarray, bpm: np.ndarray,
                            starts: list[float], ends: list[float]
                            ) -> list[float]:
    """Mean reference bpm per [start, end) window, one boolean mask each."""
    return [float(bpm[(times >= s) & (times < e)].mean())
            for s, e in zip(starts, ends)]


def ref_combine_region(chans: np.ndarray, method: str) -> np.ndarray:
    """One region's (3, n) R,G,B rows collapsed to one series; chrom
    falls back to intensity when Y is flat or the projection collapses."""
    r, g, b = chans
    intensity = (r + g + b) / 3.0
    if method == "green":
        return g
    if method == "intensity":
        return intensity
    x = 3.0 * r - 2.0 * g
    y = 1.5 * r + g - 1.5 * b
    sx, sy = x.std(), y.std()
    if sy == 0.0:
        return intensity
    out = x - (sx / sy) * y
    return intensity if out.std() <= 1e-9 * (sx + sy) else out
