from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from facepulse import ConstantProfile, SynthConfig, render_session
from facepulse.pulse import REDUCE_BLOCK_FRAMES


@pytest.fixture(scope="session")
def tiny_session(tmp_path_factory) -> Path:
    """Small noiseless gray-free session for fast frame-io tests:
    16x16 rgb8, 10 fps, 2 s."""
    out = tmp_path_factory.mktemp("tiny")
    render_session(SynthConfig(width=16, height=16, fps=10.0, duration=2.0), out)
    return out


@pytest.fixture(scope="session")
def clean72_session(tmp_path_factory) -> Path:
    """Noiseless constant 72 bpm session at defaults (64x64, 30 fps, 60 s)."""
    out = tmp_path_factory.mktemp("clean72")
    render_session(SynthConfig(hr_profile=ConstantProfile(72.0)), out)
    return out


@pytest.fixture
def mixed_runs() -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Random 32x24 rgb8 frames, their box track and its run lengths.

    The track holds runs of identical rects of REDUCE_BLOCK_FRAMES - 1,
    REDUCE_BLOCK_FRAMES and REDUCE_BLOCK_FRAMES + 1 frames and of 1
    frame, two adjacent short runs whose rects differ in size, and a
    3-frame and a 1-frame run of degenerate frames (off the frame's
    right and bottom edges) among short runs.
    """
    runs = (
        (REDUCE_BLOCK_FRAMES - 1, (6.0, 4.0, 16.0, 14.0)),
        (REDUCE_BLOCK_FRAMES, (7.0, 4.0, 16.0, 14.0)),
        (REDUCE_BLOCK_FRAMES + 1, (6.0, 5.0, 16.0, 14.0)),
        (1, (6.0, 4.0, 16.0, 14.0)),
        (1, (7.0, 4.0, 16.0, 14.0)),
        (1, (6.0, 4.0, 16.0, 14.0)),
        (3, (6.0, 4.0, 20.0, 16.0)),
        (2, (5.0, 3.0, 12.0, 18.0)),
        (3, (40.0, 4.0, 16.0, 14.0)),
        (1, (7.0, 4.0, 16.0, 14.0)),
        (1, (6.0, 40.0, 16.0, 14.0)),
        (1, (7.0, 5.0, 16.0, 14.0)),
        (REDUCE_BLOCK_FRAMES - 1, (6.0, 4.0, 16.0, 14.0)),
    )
    boxes = np.concatenate([np.tile(box, (k, 1)) for k, box in runs])
    frames = np.random.default_rng(23).integers(0, 256, (len(boxes), 24, 32, 3),
                                                dtype=np.uint8)
    return frames, boxes, [k for k, _ in runs]


@pytest.fixture(scope="session")
def tall_gray() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2 * REDUCE_BLOCK_FRAMES + 3 random 20x1400 gray8 frames of
    240-255, a static and a moving box track.

    The static box covers the frame, so its cheek regions are 280 rows
    tall; the moving box shifts down one row a frame with cheeks 276
    rows tall.  Either way a cheek column sums to over 65535, which a
    uint16 sum of more than 257 rows would wrap.
    """
    n = 2 * REDUCE_BLOCK_FRAMES + 3
    frames = np.random.default_rng(24).integers(240, 256, (n, 1400, 20, 1),
                                                dtype=np.uint8)
    static = np.tile([0.0, 0.0, 20.0, 1400.0], (n, 1))
    moving = np.tile([0.0, 0.0, 20.0, 1380.0], (n, 1))
    moving[:, 1] = np.arange(n)
    return frames, static, moving
