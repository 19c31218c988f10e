from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from facepulse.errors import (EmptyTrackError, InputError, MissingFileError,
                              NonMonotonicIndicesError)
from facepulse.roi import MIN_ROI_AREA, REGION_FRACTIONS, load_box_track, place_regions


def _place(*box):
    """Rects and validity of one face box (x, y, w, h) in a 1280x720 frame."""
    rects, valid = place_regions(np.array([box], dtype=np.float64), 1280, 720)
    return rects[0].tolist(), bool(valid[0])


def test_derive_rois_reference_box():
    rects, valid = _place(100, 100, 200, 200)
    forehead, left_cheek, right_cheek = rects
    assert forehead == [150, 110, 100, 30]
    assert left_cheek == [130, 200, 40, 40]
    assert right_cheek == [230, 200, 40, 40]
    assert valid


def test_derive_rois_clamped_at_frame_edge():
    rects, valid = _place(1130, 100, 200, 200)
    assert valid
    for x, y, w, h in rects:
        assert x >= 0 and y >= 0
        assert x + w <= 1280
        assert y + h <= 720
        assert w * h >= 4
    # the right cheek pokes past the frame edge and gets trimmed
    assert rects[2] == [1260, 200, 20, 40]


def test_derive_rois_degenerate_box():
    assert not _place(0, 0, 2, 2)[1]
    # overflow to +inf clamps to the right edge: degenerate, no warning
    assert not _place(1e308, 10, 1e308, 40)[1]


def test_facebox_requires_positive_size(tmp_path):
    with pytest.raises(InputError, match="frame 0 must have positive size"):
        load_box_track(_write_track(tmp_path, "*,10,10,0,50\n"), 5)
    with pytest.raises(InputError, match="frame 4 must have positive size"):
        load_box_track(_write_track(tmp_path, "0,10,10,50,50\n4,10,10,50,-1\n"), 5)


def test_translation_equivariance():
    # integer coordinates and sizes in multiples of 20 keep every ratio
    # product integral, so placement rounding is exact
    rng = np.random.default_rng(7)
    w, h = 20 * rng.integers(1, 9, 200), 20 * rng.integers(1, 9, 200)
    x, y = rng.integers(0, 200, 200), rng.integers(0, 200, 200)
    dx, dy = rng.integers(1, 100, 200), rng.integers(1, 100, 200)
    base, _ = place_regions(np.column_stack((x, y, w, h)).astype(float), 4000, 4000)
    moved, _ = place_regions(np.column_stack((x + dx, y + dy, w, h)).astype(float),
                             4000, 4000)
    assert np.array_equal(moved[..., 0] - base[..., 0], np.repeat(dx[:, None], 3, 1))
    assert np.array_equal(moved[..., 1] - base[..., 1], np.repeat(dy[:, None], 3, 1))
    assert np.array_equal(moved[..., 2:], base[..., 2:])


def test_scale_covariance():
    rng = np.random.default_rng(8)
    w, h = 20 * rng.integers(1, 9, 200), 20 * rng.integers(1, 9, 200)
    corner = np.full(200, 50)
    base, _ = place_regions(np.column_stack((corner, corner, w, h)).astype(float),
                            4000, 4000)
    doubled, _ = place_regions(
        np.column_stack((corner, corner, 2 * w, 2 * h)).astype(float), 4000, 4000)
    assert np.array_equal(doubled[..., 2:], 2 * base[..., 2:])


def _jittered_boxes(n: int, seed: int) -> np.ndarray:
    """n face boxes jittering around the middle of a 64x64 frame, some
    of them partly off it."""
    rng = np.random.default_rng(seed)
    return np.column_stack((rng.normal(16, 8, n), rng.normal(16, 8, n),
                            rng.normal(32, 4, n), rng.normal(32, 4, n)))


def test_matches_per_region_reference():
    # Python's round() is half-to-even, like the placement
    boxes = _jittered_boxes(500, 9)
    boxes[::7, :2] = np.round(boxes[::7, :2] * 2) / 2  # ties at .5
    rects, valid = place_regions(boxes, 64, 48)
    for (x, y, w, h), box_rects, ok in zip(boxes.tolist(), rects.tolist(), valid):
        expected = []
        for fx, fy, fw, fh in REGION_FRACTIONS:
            x0, y0 = round(x + fx * w), round(y + fy * h)
            x1, y1 = x0 + round(fw * w), y0 + round(fh * h)
            x0, x1 = (min(max(v, 0), 64) for v in (x0, x1))
            y0, y1 = (min(max(v, 0), 48) for v in (y0, y1))
            expected.append([x0, y0, x1 - x0, y1 - y0])
        assert box_rects == expected
        assert ok == all(w * h >= MIN_ROI_AREA for _, _, w, h in expected)


def test_peak_heap_within_twice_output():
    # scratch space is two (n, 3) float arrays reused for x and y
    boxes = _jittered_boxes(9000, 10)
    tracemalloc.start()
    try:
        rects, valid = place_regions(boxes, 64, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (rects.nbytes + valid.nbytes)


def _write_track(tmp_path, text):
    path = tmp_path / "boxes.csv"
    path.write_text(text)
    return path


def test_track_linear_interpolation_midpoint(tmp_path):
    path = _write_track(tmp_path, "frame,x,y,w,h\n0,10,10,50,50\n4,18,10,50,50\n")
    track = load_box_track(path, 5)
    assert track.shape == (5, 4) and track.dtype == np.float64
    assert track[2].tolist() == [14, 10, 50, 50]


def test_track_static_broadcast(tmp_path):
    path = _write_track(tmp_path, "frame,x,y,w,h\n*,100,100,200,200\n")
    track = load_box_track(path, 7)
    assert track.shape == (7, 4)
    for box in track:
        assert box.tolist() == [100, 100, 200, 200]


def test_track_edge_copy_and_exact_anchors(tmp_path):
    path = _write_track(tmp_path, "frame,x,y,w,h\n2,10,20,30,40\n5,40,20,30,40\n")
    track = load_box_track(path, 8)
    for i in (0, 1):
        assert track[i, 0] == 10
    for i in (6, 7):
        assert track[i, 0] == 40
    assert track[2, 0] == 10 and track[5, 0] == 40
    assert track[3, 0] == 20 and track[4, 0] == 30


def test_track_empty(tmp_path):
    with pytest.raises(EmptyTrackError):
        load_box_track(_write_track(tmp_path, "frame,x,y,w,h\n"), 5)


def test_track_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        load_box_track(tmp_path / "nope.csv", 5)


def test_track_non_monotonic(tmp_path):
    path = _write_track(tmp_path, "0,1,1,5,5\n3,1,1,5,5\n3,2,2,5,5\n")
    with pytest.raises(NonMonotonicIndicesError):
        load_box_track(path, 5)


def test_track_star_must_be_alone(tmp_path):
    path = _write_track(tmp_path, "*,1,1,5,5\n3,2,2,5,5\n")
    with pytest.raises(InputError):
        load_box_track(path, 5)


def test_track_index_out_of_range(tmp_path):
    path = _write_track(tmp_path, "0,1,1,5,5\n9,2,2,5,5\n")
    with pytest.raises(InputError):
        load_box_track(path, 5)


def test_track_malformed_row(tmp_path):
    for text in ("0,1,1,5\n", "0,1,1,5,x\n", "*,13,13,nan,38\n",
                 "*,13,13,inf,38\n", "0,1,-inf,5,5\n", "0,nan,1,5,5\n2,1,1,5,5\n"):
        with pytest.raises(InputError):
            load_box_track(_write_track(tmp_path, text), 5)
