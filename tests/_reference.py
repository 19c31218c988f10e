"""Independent brute-force reference implementations of the metrics.

Deliberately written without numpy vectorisation or any import from the
package, so the fast implementations are checked against separately
derived arithmetic.
"""

from __future__ import annotations

import math


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
