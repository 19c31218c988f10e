from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from facepulse.errors import (FrameReadError, MalformedManifestError,
                              MissingFileError, SizeMismatchError)
from facepulse.frameio import SessionManifest, map_frames, open_session


def _write_session(tmp_path: Path, *, width=16, height=16, fps=10.0,
                   pixel_format="gray8", frame_count=1, frames=None,
                   extra=None, drop=None) -> Path:
    manifest = {
        "width": width, "height": height, "fps": fps,
        "pixel_format": pixel_format, "frame_count": frame_count,
        "frames": "frames.raw", "boxes": "boxes.csv",
    }
    manifest.update(extra or {})
    for key in drop or ():
        manifest.pop(key)
    bpp = 3 if pixel_format == "rgb8" else 1
    if frames is None:
        frames = bytes(int(width * height) * bpp * frame_count)
    (tmp_path / "frames.raw").write_bytes(frames)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(manifest))
    return path


def test_open_session_size_arithmetic(tmp_path):
    path = _write_session(tmp_path, width=64, height=64, fps=30.0,
                          pixel_format="gray8", frame_count=90,
                          frames=bytes(368640))
    frames = map_frames(open_session(path))
    assert frames.shape == (90, 64, 64, 1)


def test_manifest_fields_and_relative_paths(tiny_session):
    m = open_session(tiny_session / "session.json")
    assert (m.width, m.height, m.fps) == (16, 16, 10.0)
    assert m.pixel_format == "rgb8"
    assert m.frame_count == 20
    assert m.frames_path == tiny_session / "frames.raw"
    assert m.boxes_path == tiny_session / "boxes.csv"
    assert m.groundtruth_path == tiny_session / "groundtruth.csv"
    assert m.frame_bytes == 16 * 16 * 3
    assert m.duration == 2.0


@pytest.mark.parametrize("extra,drop,message", [
    ({"codec": "h264"}, None, "unknown"),
    (None, ["fps"], "missing"),
    ({"pixel_format": "rgb16"}, None, "pixel_format"),
    ({"width": 8}, None, r"width .* \[16, inf\), got 8\.0"),
    ({"fps": 0}, None, "fps"),
    ({"frame_count": 0}, None, "frame_count"),
    ({"fps": float("nan")}, None, "fps"),
    ({"fps": float("inf")}, None, "fps"),
    ({"width": 64.9}, None, "width"),
    ({"frame_count": 1.5}, None, "frame_count"),
    ({"height": "sixteen"}, None, "height"),
    (None, ["boxes"], "missing.*boxes"),
    # manifest numbers are JSON numbers, not strings or booleans
    ({"fps": True}, None, r"fps must be a real number in \(0, inf\), not bool"),
    ({"fps": "30"}, None, r"fps must be a real number in \(0, inf\), not str"),
    ({"width": "16"}, None, r"width must be a real number in \[16, inf\), not str"),
    ({"width": True}, None, r"width must be a real number in \[16, inf\), not bool"),
    ({"frame_count": "360"}, None, r"frame_count must be a real number in \[1, inf\), not str"),
])
def test_manifest_rejected(tmp_path, extra, drop, message):
    path = _write_session(tmp_path, extra=extra, drop=drop)
    with pytest.raises(MalformedManifestError, match=f"^{re.escape(str(path))}: .*{message}"):
        open_session(path)


def test_manifest_whole_floats_and_int_fps_accepted(tmp_path):
    m = open_session(_write_session(tmp_path, width=16.0, fps=10))
    assert (m.width, m.fps) == (16, 10.0)
    assert (type(m.width), type(m.fps)) == (int, float)


def test_manifest_invalid_json(tmp_path):
    path = tmp_path / "session.json"
    path.write_text("{not json")
    with pytest.raises(MalformedManifestError):
        open_session(path)


def test_manifest_not_an_object(tmp_path):
    path = tmp_path / "session.json"
    path.write_text("[]")
    with pytest.raises(MalformedManifestError, match="manifest must be a JSON object"):
        open_session(path)


def test_missing_manifest(tmp_path):
    with pytest.raises(MissingFileError):
        open_session(tmp_path / "session.json")


def test_missing_frames_file(tmp_path):
    path = _write_session(tmp_path)
    (tmp_path / "frames.raw").unlink()
    with pytest.raises(MissingFileError):
        open_session(path)


def test_size_mismatch_one_byte_short(tmp_path):
    path = _write_session(tmp_path, frame_count=2,
                          frames=bytes(2 * 16 * 16 - 1))
    with pytest.raises(SizeMismatchError):
        open_session(path)


def test_rgb8_deinterleave(tmp_path):
    rng = np.random.default_rng(42)
    pixels = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    pixels[0, 0] = (10, 20, 30)
    pixels[0, 1] = (40, 50, 60)
    path = _write_session(tmp_path, pixel_format="rgb8",
                          frames=pixels.tobytes())
    frame = map_frames(open_session(path))[0]
    assert frame.shape == (16, 16, 3)
    assert frame.dtype == np.uint8
    assert np.array_equal(frame, pixels)
    assert [frame[0, 0, c] for c in range(3)] == [10, 20, 30]
    assert [frame[0, 1, c] for c in range(3)] == [40, 50, 60]


def test_gray8_single_plane(tmp_path):
    rng = np.random.default_rng(43)
    plane = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    path = _write_session(tmp_path, frames=plane.tobytes())
    frames = map_frames(open_session(path))
    assert frames.shape == (1, 16, 16, 1)
    assert np.array_equal(frames[0, :, :, 0], plane)


def test_frames_in_order(tiny_session):
    m = open_session(tiny_session / "session.json")
    frames = map_frames(m)
    raw = m.frames_path.read_bytes()
    assert len(frames) == 20
    for i, frame in enumerate(frames):
        assert frame.tobytes() == raw[i * m.frame_bytes:(i + 1) * m.frame_bytes]
    assert not frames.flags.writeable


def test_stream_determinism(tiny_session):
    def read_all():
        return np.array(map_frames(open_session(tiny_session / "session.json")))

    assert np.array_equal(read_all(), read_all())


def test_short_read_names_frame_index(tmp_path):
    # manifest deliberately built by hand so the eager size check is
    # bypassed and the map-time failure path is reachable
    (tmp_path / "frames.raw").write_bytes(bytes(2 * 256))
    manifest = SessionManifest(width=16, height=16, fps=10.0,
                               pixel_format="gray8", frame_count=3,
                               frames_path=tmp_path / "frames.raw",
                               boxes_path=tmp_path / "boxes.csv")
    with pytest.raises(FrameReadError,
                       match=r"frames\.raw: cannot map 768 bytes \(3 frames of "
                             r"256\), file has 512"):
        map_frames(manifest)


def test_synth_roundtrip_bitwise(tmp_path):
    # noisy render re-read through the ingest path must reproduce the
    # exact pixel arrays the generator computed
    from facepulse import SynthConfig, render_session
    from facepulse.synth import _channel_levels, _quantize

    config = SynthConfig(width=16, height=16, fps=10.0, duration=2.0,
                         noise_sigma=3.0, seed=11)
    render_session(config, tmp_path)
    rng = np.random.default_rng(11)
    frames = map_frames(open_session(tmp_path / "session.json"))
    for i, frame in enumerate(frames):
        levels = _channel_levels(config, i / 10.0)
        noise = 3.0 * rng.standard_normal((16, 16, 3))
        assert np.array_equal(frame, _quantize(levels + noise))
