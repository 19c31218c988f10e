"""Independent brute-force reference implementations.

Deliberately written without vectorisation across windows, regions or
frames and without any import from the package, so the fast
implementations are checked against separately derived arithmetic.  The
metric, detrend, bandpass and tap references use only the standard library,
so the fast code matches them within rounding; the placement and box
track references use it too, and work out each rect or box alone with
the fast code's arithmetic, so they match exactly.  The spectral and
combine references make the same numpy calls on one window or one
region at a time, so the batched code must match them bit for bit; the
noisy render reference draws one frame's normals at a time, so the
blocked renderer must match it byte for byte.
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


def ref_place_regions(boxes: list, frame_w: int, frame_h: int, fractions: list,
                      min_area: int) -> tuple[list, list[bool]]:
    """Per box (x, y, w, h), one (x, y, w, h) rect per (dx, dy, dw, dh)
    fraction: start x + dx * w and size dw * w, each rounded half-to-even
    by Python's round(), the start and the end clamped to the frame, the
    same along y.  A box is valid when every rect holds min_area pixels."""
    rects, valid = [], []
    for x, y, w, h in boxes:
        box_rects = []
        for fx, fy, fw, fh in fractions:
            x0, y0 = round(x + fx * w), round(y + fy * h)
            x1, y1 = x0 + round(fw * w), y0 + round(fh * h)
            x0, x1 = (min(max(v, 0), frame_w) for v in (x0, x1))
            y0, y1 = (min(max(v, 0), frame_h) for v in (y0, y1))
            box_rects.append([x0, y0, x1 - x0, y1 - y0])
        rects.append(box_rects)
        valid.append(all(rw * rh >= min_area for _, _, rw, rh in box_rects))
    return rects, valid


def ref_box_track(anchors: list, frame_count: int) -> list[list[float]]:
    """One x, y, w, h box per frame from (frame index, box) anchors in
    increasing frame order, a frame at a time: a lone ("*", box) anchor is
    copied to every frame, a frame on an anchor or outside the annotated
    span copies the nearest anchor, and a frame i between the anchors
    (ka, a) and (kb, b) gets (b - a) * ((i - ka) / (kb - ka)) + a."""
    if anchors[0][0] == "*":
        return [list(anchors[0][1]) for _ in range(frame_count)]
    track = []
    for i in range(frame_count):
        if i <= anchors[0][0]:
            track.append(list(anchors[0][1]))
        elif i >= anchors[-1][0]:
            track.append(list(anchors[-1][1]))
        else:
            (ka, a), (kb, b) = next((lo, hi) for lo, hi in zip(anchors, anchors[1:])
                                    if lo[0] <= i < hi[0])
            track.append([(vb - va) * ((i - ka) / (kb - ka)) + va for va, vb in zip(a, b)])
    return track


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


def ref_detrend(signal: list[float], fps: float, window_s: float) -> list[float]:
    """Each sample less the mean of the round(window_s * fps) samples
    centred on it, (w - 1) // 2 before and w // 2 after, cut to the ones
    the signal holds: a per-sample math.fsum over the truncated window."""
    w, n = round(window_s * fps), len(signal)
    out = []
    for i, x in enumerate(signal):
        inside = signal[max(0, i - (w - 1) // 2):min(n, i + w // 2 + 1)]
        out.append(x - math.fsum(inside) / len(inside))
    return out


def ref_bandpass(signal: list[float], taps: list[float]) -> list[float]:
    """Convolution of the taps with the signal reflected (edge sample not
    repeated) by the group delay at both ends, one direct math.fsum per
    output sample, centred so each output lines up with its input; then
    the mean of the outputs removed."""
    n, delay = len(signal), (len(taps) - 1) // 2
    assert delay < n

    def reflected(k: int) -> float:
        return signal[-k if k < 0 else 2 * (n - 1) - k if k >= n else k]

    out = [math.fsum(t * reflected(i + delay - j) for j, t in enumerate(taps))
           for i in range(n)]
    mean = math.fsum(out) / n
    return [y - mean for y in out]


def ref_bandpass_taps(fps: float, f_lo: float, f_hi: float,
                      periods: float = 4.0) -> list[float]:
    """Windowed-sinc bandpass taps, one at a time with math alone:
    round(periods * fps / f_lo) taps, made odd by adding one; the ideal
    lowpass at f_hi less the one at f_lo, times a Hamming window, scaled
    to unit gain at the band centre."""
    n = round(periods * fps / f_lo)
    if n % 2 == 0:
        n += 1
    half = (n - 1) / 2

    def lowpass(fc: float, m: float) -> float:
        x = 2.0 * fc * m / fps
        return 2.0 * fc / fps * (1.0 if x == 0 else math.sin(math.pi * x) / (math.pi * x))

    taps = [(lowpass(f_hi, k - half) - lowpass(f_lo, k - half))
            * (0.54 - 0.46 * math.cos(2.0 * math.pi * k / (n - 1))) for k in range(n)]
    w = 2.0 * math.pi * 0.5 * (f_lo + f_hi) / fps
    gain = math.hypot(math.fsum(t * math.cos(w * (k - half)) for k, t in enumerate(taps)),
                      math.fsum(t * math.sin(w * (k - half)) for k, t in enumerate(taps)))
    return [t / gain for t in taps]


def ref_render_frames(levels: list, height: int, width: int, sigma: float,
                      seed: int) -> bytes:
    """Noisy frames one at a time: frame i is levels[i], one value per
    channel, plus sigma times one standard_normal((height, width,
    channels)) draw from a PCG64 stream seeded with seed, rounded
    half-to-even and saturated to 8 bits."""
    rng = np.random.default_rng(seed)
    frames = []
    for level in levels:
        pixels = level + sigma * rng.standard_normal((height, width, len(level)))
        frames.append(np.clip(np.round(pixels), 0.0, 255.0).astype(np.uint8).tobytes())
    return b"".join(frames)
