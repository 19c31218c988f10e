"""Metamorphic relations over the session chain.

ROI sums are exact integers, so some input transformations have an
exact expected output: the pulse signal of the transformed session is
byte-identical to the original's.  Where conditioning averages equal
channels, the relation holds to a stated rounding tolerance.  Each relation writes both sessions to
disk and loads them through `load_session`, so the manifest, box-track
and frame readers are part of the chain under test.

Region starts are rounded half-to-even, so a box shift moves its regions
by exactly that shift only when the shift is even (README stage 2).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facepulse import (PipelineParams, RampProfile, SynthConfig, WindowSpec, estimate_series,
                       load_session, open_session, render_session)
from facepulse.pulse import COMBINE_METHODS

FPS = 10.0
FRAMES = 60  # 6 s at 10 fps: longer than the 57-tap bandpass filter


def _write_session(root: Path, frames: np.ndarray, boxes: np.ndarray,
                   fps: float = FPS) -> Path:
    """A session directory holding (n, h, w, bpp) uint8 frames and one
    integer x, y, w, h box row per frame."""
    root.mkdir()
    n, height, width, bpp = frames.shape
    frames.tofile(root / "frames.raw")
    rows = "".join(f"{i},{x},{y},{w},{h}\n" for i, (x, y, w, h) in enumerate(boxes.tolist()))
    (root / "boxes.csv").write_text("frame,x,y,w,h\n" + rows)
    (root / "session.json").write_text(json.dumps({
        "width": width, "height": height, "fps": fps,
        "pixel_format": "rgb8" if bpp == 3 else "gray8", "frame_count": n,
        "frames": "frames.raw", "boxes": "boxes.csv"}))
    return root


def _signal(session: Path, combine: str) -> np.ndarray:
    return load_session(open_session(session), PipelineParams(combine=combine)).signal.samples


@st.composite
def scenes(draw) -> tuple[int, int, np.ndarray]:
    """Frame width, height and an integer box track of FRAMES rows: up to
    four boxes inside the frame, each held for a run of frames, so both
    the sliced (long runs) and the gathered (short runs) reduction run.
    Boxes of at least 8x8 keep every region inside the box and at least
    MIN_ROI_AREA pixels large."""
    width, height = draw(st.integers(16, 40)), draw(st.integers(16, 40))

    def box() -> tuple[int, int, int, int]:
        w, h = draw(st.integers(8, width)), draw(st.integers(8, height))
        return draw(st.integers(0, width - w)), draw(st.integers(0, height - h)), w, h

    choices = [box() for _ in range(draw(st.integers(1, 4)))]
    cuts = draw(st.lists(st.integers(1, FRAMES - 1), max_size=6, unique=True))
    run = np.searchsorted(sorted(cuts), np.arange(FRAMES), side="right")
    return width, height, np.array([choices[r % len(choices)] for r in run])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(scene=scenes(), seed=st.integers(0, 2**32 - 1))
def test_gray8_equals_replicated_rgb8_under_green(scene, seed):
    width, height, boxes = scene
    gray = np.random.default_rng(seed).integers(0, 256, (FRAMES, height, width, 1),
                                                dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        mono = _write_session(Path(tmp) / "gray", gray, boxes)
        rgb = _write_session(Path(tmp) / "rgb", np.repeat(gray, 3, axis=-1), boxes)
        assert _signal(mono, "green").tobytes() == _signal(rgb, "green").tobytes()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(scene=scenes(), seed=st.integers(0, 2**32 - 1),
       combine=st.sampled_from(["intensity", "chrom"]))
def test_gray8_matches_replicated_rgb8(scene, seed, combine):
    """intensity averages three equal conditioned channels, and chrom
    falls back to intensity on them, so the two signals agree to rounding:
    an NIR camera recorded as rgb8 reads like gray8."""
    width, height, boxes = scene
    gray = np.random.default_rng(seed).integers(0, 256, (FRAMES, height, width, 1),
                                                dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        mono = _write_session(Path(tmp) / "gray", gray, boxes)
        rgb = _write_session(Path(tmp) / "rgb", np.repeat(gray, 3, axis=-1), boxes)
        a, b = _signal(mono, combine), _signal(rgb, combine)
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(scene=scenes(), seed=st.integers(0, 2**32 - 1),
       bpp=st.sampled_from([1, 3]), combine=st.sampled_from(COMBINE_METHODS),
       shift=st.tuples(st.integers(0, 8), st.integers(0, 8)),
       margin=st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_even_shift_into_larger_canvas(scene, seed, bpp, combine, shift, margin):
    """Frames pasted at an even (dx, dy) into a larger canvas, with the
    box track moved by the same offset, give the same signal."""
    width, height, boxes = scene
    dx, dy = 2 * shift[0], 2 * shift[1]
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, (FRAMES, height, width, bpp), dtype=np.uint8)
    # the canvas around the pasted frames is noise too, which no region reads
    canvas = rng.integers(0, 256, (FRAMES, height + dy + margin[1],
                                   width + dx + margin[0], bpp), dtype=np.uint8)
    canvas[:, dy:dy + height, dx:dx + width] = frames
    with tempfile.TemporaryDirectory() as tmp:
        small = _write_session(Path(tmp) / "small", frames, boxes)
        large = _write_session(Path(tmp) / "large", canvas, boxes + [dx, dy, 0, 0])
        assert _signal(small, combine).tobytes() == _signal(large, combine).tobytes()


@pytest.mark.parametrize("mono", [False, True], ids=["rgb8", "gray8"])
def test_time_reversal(tmp_path, mono):
    """Frames and box track played backwards give the signal and the
    window estimates backwards, to rounding.  It holds only when the box
    is given at every frame (interpolated anchors round differently once
    reversed), the detrend window is odd (45 samples at 30 fps) and
    (n - window) is a multiple of the hop (1800 - 300 samples, 30 apart)."""
    config = SynthConfig(width=48, height=40, hr_profile=RampProfile(60.0, 110.0),
                         noise_sigma=2.0, mono=mono)
    render_session(config, tmp_path / "synth")
    frames = np.fromfile(tmp_path / "synth" / "frames.raw", dtype=np.uint8).reshape(
        config.frame_count, config.height, config.width, -1)
    i = np.arange(config.frame_count)
    boxes = np.column_stack([9 + i // 7 % 3, 7 + i // 11 % 3, np.full_like(i, 29),
                             np.full_like(i, 24)])
    forward = _write_session(tmp_path / "forward", frames, boxes, config.fps)
    backward = _write_session(tmp_path / "backward", frames[::-1], boxes[::-1], config.fps)
    spec = WindowSpec(10.0, 1.0)
    for combine in COMBINE_METHODS:
        a, b = (load_session(open_session(s), PipelineParams(combine=combine)).signal
                for s in (forward, backward))
        assert np.max(np.abs(a.samples - b.samples[::-1])) <= 1e-12 * np.max(np.abs(a.samples))
        bpm_a, bpm_b = estimate_series(a, spec).bpm, estimate_series(b, spec).bpm
        assert len(bpm_a) == 51
        assert np.max(np.abs(bpm_a - bpm_b[::-1])) <= 1e-9
