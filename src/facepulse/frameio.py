"""Raw frame ingest.

Sessions are stored as a headerless concatenation of raw frames plus a
JSON sidecar manifest.  rgb8 frames are interleaved R,G,B per pixel,
row-major; gray8 frames are one byte per pixel.  The frames file is
memory-mapped as one (frames, height, width, bytes per pixel) array, so
gray8 stays a single plane.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FrameReadError,
    InputError,
    MalformedManifestError,
    MissingFileError,
    SizeMismatchError,
)

BYTES_PER_PIXEL = {"rgb8": 3, "gray8": 1}

_MANIFEST_KEYS = {"width", "height", "fps", "pixel_format", "frame_count",
                  "frames", "boxes", "groundtruth"}
_REQUIRED_KEYS = {"width", "height", "fps", "pixel_format", "frame_count", "frames"}

MIN_FRAME_DIM = 16


@dataclass(frozen=True)
class SessionManifest:
    width: int
    height: int
    fps: float
    pixel_format: str  # "rgb8" | "gray8"
    frame_count: int
    frames_path: Path
    boxes_path: Path | None = None
    groundtruth_path: Path | None = None

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * BYTES_PER_PIXEL[self.pixel_format]

    @property
    def duration(self) -> float:
        return self.frame_count / self.fps


def parse_finite(value, what: str, error: type[InputError] = InputError,
                 integral: bool = False) -> float | int:
    """Read one sidecar number: finite, and a whole number when integral.

    Anything else raises `error` with a message that starts with `what`,
    so NaN, infinities and fractional sizes never reach the arrays.
    """
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{what}: {exc}") from exc
    if not math.isfinite(number) or (integral and not number.is_integer()):
        kind = "a whole number" if integral else "a finite number"
        raise error(f"{what} must be {kind}, got {value!r}")
    return int(number) if integral else number


def _parse_manifest(manifest_path: Path) -> SessionManifest:
    try:
        raw = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise MalformedManifestError(f"{manifest_path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedManifestError(f"{manifest_path}: manifest must be a JSON object")

    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise MalformedManifestError(
            f"{manifest_path}: unknown manifest keys {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise MalformedManifestError(
            f"{manifest_path}: missing manifest keys {sorted(missing)}")

    def number(key: str, integral: bool = False):
        return parse_finite(raw[key], f"{manifest_path}: {key}",
                            MalformedManifestError, integral)

    width = number("width", integral=True)
    height = number("height", integral=True)
    fps = number("fps")
    frame_count = number("frame_count", integral=True)
    pixel_format = raw["pixel_format"]
    if pixel_format not in BYTES_PER_PIXEL:
        raise MalformedManifestError(
            f"{manifest_path}: pixel_format must be one of {sorted(BYTES_PER_PIXEL)}, "
            f"got {pixel_format!r}")
    if width < MIN_FRAME_DIM or height < MIN_FRAME_DIM:
        raise MalformedManifestError(
            f"{manifest_path}: frame dimensions must be at least "
            f"{MIN_FRAME_DIM}x{MIN_FRAME_DIM}, got {width}x{height}")
    if fps <= 0:
        raise MalformedManifestError(f"{manifest_path}: fps must be positive, got {fps}")
    if frame_count < 1:
        raise MalformedManifestError(
            f"{manifest_path}: frame_count must be at least 1, got {frame_count}")

    base = manifest_path.parent

    def _resolve(key: str) -> Path | None:
        value = raw.get(key)
        if value is None:
            return None
        if not isinstance(value, str) or not value:
            raise MalformedManifestError(f"{manifest_path}: {key} must be a file name")
        return base / value

    frames_path = _resolve("frames")
    assert frames_path is not None
    return SessionManifest(
        width=width,
        height=height,
        fps=fps,
        pixel_format=pixel_format,
        frame_count=frame_count,
        frames_path=frames_path,
        boxes_path=_resolve("boxes"),
        groundtruth_path=_resolve("groundtruth"),
    )


def open_session(manifest_path: str | os.PathLike) -> SessionManifest:
    """Validate a session's manifest and the size of its frames file.

    Raises MissingFileError, MalformedManifestError, or SizeMismatchError
    before any frame is read.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingFileError(f"manifest not found: {manifest_path}")
    manifest = _parse_manifest(manifest_path)
    if not manifest.frames_path.is_file():
        raise MissingFileError(f"frames file not found: {manifest.frames_path}")
    expected = manifest.frame_count * manifest.frame_bytes
    actual = manifest.frames_path.stat().st_size
    if actual != expected:
        raise SizeMismatchError(
            f"{manifest.frames_path}: expected {expected} bytes "
            f"({manifest.frame_count} frames of {manifest.frame_bytes}), got {actual}")
    return manifest


def map_frames(manifest: SessionManifest) -> np.memmap:
    """Read-only view of every frame, shape (frames, height, width, bpp).

    bpp is 3 (R,G,B) for rgb8 and 1 for gray8.  Pages are read on first
    touch; the frames file must not shrink while the view is alive.
    Raises FrameReadError when the file cannot be mapped, e.g. when it
    holds fewer bytes than the manifest describes.
    """
    m = manifest
    shape = (m.frame_count, m.height, m.width, BYTES_PER_PIXEL[m.pixel_format])
    try:
        return np.memmap(m.frames_path, dtype=np.uint8, mode="r", shape=shape)
    except (ValueError, OSError) as exc:
        actual = m.frames_path.stat().st_size if m.frames_path.is_file() else 0
        raise FrameReadError(
            f"{m.frames_path}: cannot map {m.frame_count * m.frame_bytes} bytes "
            f"({m.frame_count} frames of {m.frame_bytes}), file has {actual}: "
            f"{exc}") from exc
