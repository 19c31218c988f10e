"""Face-box driven region-of-interest geometry.

The three measurement regions (forehead, left cheek, right cheek) are
placed at fixed ratios of the tracked face box.  Face boxes come from a
sidecar CSV so any external detector can feed the pipeline; gaps in the
track are filled by linear interpolation.  Boxes are one (frames, 4)
array of x, y, w, h, and regions are placed for every frame at once.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np

from .errors import (
    EmptyTrackError,
    InputError,
    NonMonotonicIndicesError,
)
from .frameio import parse_finite, require_file

MIN_ROI_AREA = 4

# region offsets and sizes as fractions of the face box (dx, dy, dw, dh):
# forehead, left cheek, right cheek
REGION_FRACTIONS = (
    (0.25, 0.05, 0.50, 0.15),
    (0.15, 0.50, 0.20, 0.20),
    (0.65, 0.50, 0.20, 0.20),
)


def place_regions(boxes: np.ndarray, frame_w: int,
                  frame_h: int) -> tuple[np.ndarray, np.ndarray]:
    """Place the three measurement rectangles for every face box.

    Returns integer (x, y, w, h) rects of shape (n, 3, 4) in forehead,
    left cheek, right cheek order, rounded half-to-even and clamped to
    the frame, and a (n,) mask that is False where any clamped rectangle
    falls below MIN_ROI_AREA pixels.
    """
    frac = np.array(REGION_FRACTIONS)
    rects = np.empty((len(boxes), len(frac), 4), dtype=np.int64)
    # x then y, each through the same two (n, 3) scratch arrays: the
    # rounded start and end of every region, then clamped to the frame
    start, end = np.empty((2, *rects.shape[:2]))
    for axis, limit in ((0, frame_w), (1, frame_h)):
        pos, size = boxes[:, None, axis], boxes[:, None, axis + 2]
        # sizes are positive, so coordinates near the float limit can
        # only overflow to +inf, which the clamp moves to the frame edge
        with np.errstate(over="ignore"):
            np.multiply(frac[:, axis], size, out=start)
            np.add(pos, start, out=start)
            np.rint(start, out=start)
            np.multiply(frac[:, axis + 2], size, out=end)
            np.rint(end, out=end)
            np.add(start, end, out=end)
        np.clip(start, 0, limit, out=start)
        np.clip(end, 0, limit, out=end)
        rects[..., axis] = start
        rects[..., axis + 2] = np.subtract(end, start, out=end)
    valid = (rects[..., 2] * rects[..., 3] >= MIN_ROI_AREA).all(axis=1)
    return rects, valid


def _parse_row(row: list[str], path: Path, line_no: int) -> tuple[int | None, list[float]]:
    if len(row) != 5:
        raise InputError(f"{path}:{line_no}: expected 5 columns, got {len(row)}")
    idx_field = row[0].strip()
    coords = [parse_finite(v, f"{path}:{line_no}: box coordinate") for v in row[1:]]
    if idx_field == "*":
        return None, coords
    try:
        return int(idx_field), coords
    except ValueError as exc:
        raise InputError(f"{path}:{line_no}: bad frame index {idx_field!r}") from exc


def load_box_track(boxes_path: str | os.PathLike, frame_count: int) -> np.ndarray:
    """Load the face-box CSV and fill it to one x, y, w, h row per frame.

    Frames without an annotation get a box linearly interpolated between
    the nearest annotated neighbours (copied from the nearest one at the
    track's ends).  A single row with frame index "*" applies to every
    frame.  Returns a (frame_count, 4) float64 array.
    """
    boxes_path = Path(boxes_path)
    require_file(boxes_path, "box track")
    try:
        with open(boxes_path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{boxes_path}: {exc}") from exc
    if rows and rows[0][0].strip().lower() == "frame":
        rows = rows[1:]
    if not rows:
        raise EmptyTrackError(f"{boxes_path}: no box rows")

    parsed = [_parse_row(row, boxes_path, i + 1) for i, row in enumerate(rows)]
    anchors = np.array([coords for _, coords in parsed])

    if any(idx is None for idx, _ in parsed):
        if len(parsed) != 1:
            raise InputError(
                f"{boxes_path}: a '*' row must be the only row, got {len(parsed)} rows")
        track = np.tile(anchors[0], (frame_count, 1))
    else:
        keys = np.array([idx for idx, _ in parsed])
        back = np.flatnonzero(np.diff(keys) <= 0)
        if back.size:
            raise NonMonotonicIndicesError(
                f"{boxes_path}: frame indices must be strictly increasing "
                f"({keys[back[0]]} then {keys[back[0] + 1]})")
        if keys[0] < 0 or keys[-1] >= frame_count:
            raise InputError(
                f"{boxes_path}: frame indices must lie in [0, {frame_count}), "
                f"got range [{keys[0]}, {keys[-1]}]")
        # k is the first anchor at or past each frame; frames on an anchor
        # or outside the annotated span copy the nearest anchor, k1, and
        # frames between two anchors interpolate
        frames = np.arange(frame_count)
        k = np.searchsorted(keys, frames)
        k1 = np.minimum(k, len(keys) - 1)
        track = anchors[k1]
        inner = np.flatnonzero((k > 0) & (keys[k1] > frames))
        i, i0, i1 = frames[inner], keys[k1[inner] - 1], keys[k1[inner]]
        a, b = anchors[k1[inner] - 1], anchors[k1[inner]]
        track[inner] = a + (b - a) * ((i - i0) / (i1 - i0))[:, None]

    bad = np.flatnonzero((track[:, 2] <= 0) | (track[:, 3] <= 0))
    if bad.size:
        w, h = track[bad[0], 2:]
        raise InputError(
            f"{boxes_path}: face box at frame {bad[0]} must have positive size, "
            f"got {w:g}x{h:g}")
    return track
