from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from facepulse.errors import (EmptyTrackError, InputError, MissingFileError,
                              NonMonotonicIndicesError)
from facepulse.roi import MIN_ROI_AREA, REGION_FRACTIONS, load_box_track, place_regions

from _reference import ref_box_track, ref_place_regions


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


def _boxes_in(frame_w: int, frame_h: int, n: int, seed: int) -> np.ndarray:
    """n face boxes jittering around the middle of a frame_w x frame_h
    frame, half its height across: every 7th with its corner on a half
    pixel and every 5th of whole even size, which put rounding ties in
    the region starts and sizes, and every 11th moved off the frame."""
    rng = np.random.default_rng(seed)
    side = frame_h / 2
    boxes = np.column_stack((rng.normal(frame_w / 2 - side / 2, side / 4, n),
                             rng.normal(frame_h / 4, side / 4, n),
                             np.abs(rng.normal(side, side / 8, (2, n))).T + 1))
    boxes[::7, :2] = np.round(boxes[::7, :2] * 2) / 2
    boxes[::5, 2:] = 2 * np.round(boxes[::5, 2:] / 2)
    boxes[::11, 0] -= frame_w  # left of the frame
    boxes[1::11, 0] += frame_w  # right of it
    boxes[2::11, 1] += frame_h  # below it
    return boxes


def test_matches_per_region_reference():
    # uint8 rects up to 255 px, uint16 from 256
    for frame_w, frame_h in ((64, 48), (255, 200), (256, 200), (1280, 720)):
        boxes = _boxes_in(frame_w, frame_h, 500, 9)
        rects, valid = place_regions(boxes, frame_w, frame_h)
        expected, expected_valid = ref_place_regions(boxes.tolist(), frame_w, frame_h,
                                                     REGION_FRACTIONS, MIN_ROI_AREA)
        assert rects.tolist() == expected
        assert valid.tolist() == expected_valid
        assert not all(expected_valid) and any(expected_valid)


@pytest.mark.parametrize("side, dtype", [(255, np.uint8), (256, np.uint16),
                                         (70_000, np.uint32)])
def test_rects_in_narrowest_type(side, dtype):
    # the longer side sets the type, whichever axis it is
    box = np.array([[10.0, 10.0, 200.0, 120.0]])
    assert place_regions(box, side, 16)[0].dtype == dtype
    assert place_regions(box, 16, side)[0].dtype == dtype


@pytest.mark.parametrize("frame_side, box_side", [(200, 80), (2000, 1280)])
def test_area_does_not_wrap_in_rect_type(frame_side, box_side):
    # the cheeks are 16x16 in a uint8 frame and 256x256 in a uint16 one:
    # their area, 2**8 or 2**16, would wrap to 0 in the rect type
    rects, valid = place_regions(np.array([[0.0, 0.0, box_side, box_side]]),
                                 frame_side, frame_side)
    assert rects[0, 1:, 2:].tolist() == [[box_side // 5] * 2] * 2
    assert valid.tolist() == [True]


# peak bytes per frame of place_regions alone, at n = 9000: two (n, 3)
# float64 scratch arrays reused for x and y, the rects, the int64 areas
# and the masks; 99.0 with uint8 rects (64x64) and 110.8 with uint16
# rects (640x480), 171.3 when the rects were int64
PLACE_HEAP_BYTES_PER_FRAME = 125


def test_peak_heap_per_frame():
    boxes = _boxes_in(64, 64, 9000, 10)
    for frame_w, frame_h in ((64, 64), (640, 480)):
        tracemalloc.start()
        try:
            place_regions(boxes, frame_w, frame_h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PLACE_HEAP_BYTES_PER_FRAME * len(boxes), (frame_w, frame_h, peak)


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


def _uneven_boxes(keys: list[int], seed: int) -> list:
    """(key, box) anchors whose coordinates use every mantissa bit."""
    rng = random.Random(seed)
    return [(k, [rng.uniform(-20, 40), rng.uniform(-20, 40), rng.uniform(5, 60),
                 rng.uniform(5, 60)]) for k in keys]


@pytest.mark.parametrize("anchors, frame_count", [
    ([("*", [3.25, 4.5, 20.75, 30.125])], 6),
    ([(3, [1.5, 2.25, 10.0, 12.5])], 8),
    # anchors at both ends and inside, gaps of 1 to 7 frames
    (_uneven_boxes([0, 1, 3, 6, 10, 15, 21, 28], 1), 29),
    # frames before the first anchor and after the last
    (_uneven_boxes([4, 9, 11, 18], 2), 24),
    ([(2, [0.1, 1 / 3, 7.7, 9.9]), (5, [-0.3, 2 / 3, 8.8, 10.1])], 7),
], ids=["star", "one-anchor", "gaps-1-to-7", "outside-span", "thirds"])
def test_track_matches_reference(tmp_path, anchors, frame_count):
    """The filled track equals the frame-by-frame reference bit for bit."""
    text = "".join(f"{k},{','.join(map(repr, box))}\n" for k, box in anchors)
    track = load_box_track(_write_track(tmp_path, text), frame_count)
    assert np.array_equal(track, np.array(ref_box_track(anchors, frame_count)))


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


@pytest.mark.parametrize("text, line", [
    ("frame,x,y,w,h\n0,1,1,40,abc\n", 2),
    ("\n  ,\nframe,x,y,w,h\n0,1,1,40,40\n\n1,1,1,40\n", 6),
    ("frame,x,y,w,h\n0,1,1,40,40\nx1,1,1,40,40\n", 3),
], ids=["header", "blank-rows", "frame-index"])
def test_track_error_names_file_line(tmp_path, text, line):
    # blank rows and the header count as lines of the file
    with pytest.raises(InputError, match=rf"boxes\.csv:{line}: "):
        load_box_track(_write_track(tmp_path, text), 5)
