"""Session files: the manifest, the raw frames and the CSV sidecars.

Sessions are stored as a headerless concatenation of raw frames plus a
JSON sidecar manifest.  rgb8 frames are interleaved R,G,B per pixel,
row-major; gray8 frames are one byte per pixel.  The frames file is
memory-mapped as one (frames, height, width, bytes per pixel) array, so
gray8 stays a single plane.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, get_args

import numpy as np

from .errors import (
    FrameReadError,
    InputError,
    MalformedManifestError,
    MissingFileError,
    SizeMismatchError,
)

BYTES_PER_PIXEL = {"rgb8": 3, "gray8": 1}

# file name of the manifest inside a session directory
MANIFEST_NAME = "session.json"

_MANIFEST_KEYS = {"width", "height", "fps", "pixel_format", "frame_count",
                  "frames", "boxes", "groundtruth"}
_REQUIRED_KEYS = _MANIFEST_KEYS - {"groundtruth"}

MIN_FRAME_DIM = 16


@dataclass(frozen=True)
class SessionManifest:
    width: int
    height: int
    fps: float
    pixel_format: str  # "rgb8" | "gray8"
    frame_count: int
    frames_path: Path
    boxes_path: Path
    groundtruth_path: Path | None = None

    def __post_init__(self):
        for name, lower in (("width", MIN_FRAME_DIM), ("height", MIN_FRAME_DIM),
                            ("frame_count", 1)):
            value = getattr(self, name)
            if not require_real(value, name, lower, math.inf, "[)").is_integer():
                raise InputError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "fps", require_real(self.fps, "fps", 0, math.inf))
        if require_type(self.pixel_format, str, "pixel_format") not in BYTES_PER_PIXEL:
            raise InputError(f"pixel_format must be one of {sorted(BYTES_PER_PIXEL)}, "
                             f"got {short_text(self.pixel_format)}")

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * BYTES_PER_PIXEL[self.pixel_format]

    @property
    def duration(self) -> float:
        return self.frame_count / self.fps

    @property
    def size_text(self) -> str:  # for messages, in short form
        return (f"{short_number(self.frame_count * self.frame_bytes)} bytes "
                f"({short_number(self.frame_count)} frames of {short_number(self.frame_bytes)})")


def parse_finite(value: str, what: str) -> float:
    """Read one number from text, a CLI argument or a CSV cell: a finite
    float, or InputError with a message that starts with `what`, so NaN
    and infinities never reach the arrays."""
    try:
        number = float(value)
    except ValueError as exc:
        raise InputError(f"{what} must be a finite number, got {short_text(value)}") from exc
    if not math.isfinite(number):  # the float, not the text, which may run to any length
        raise InputError(f"{what} must be a finite number, got {number}")
    return number


def short_number(value) -> str:
    """A number for a message to 15 significant digits, 1e+300 for a 301-digit one;
    one beyond the float range, where .15g raises OverflowError, as the float limit."""
    return f"{min(max(value, -sys.float_info.max), sys.float_info.max):.15g}"


def short_text(value) -> str:
    """repr(value) for a message, a text or list from outside input: its
    first 32 bytes in UTF-8, no character cut, and "..." when it is longer."""
    text = repr(value).encode()
    return text.decode() if len(text) <= 32 else text[:32].decode(errors="ignore") + "..."


def require_type(value, kind, what: str):
    """value, when it is an instance of kind (a class or a union of
    classes); otherwise InputError "{what} must be a {kind}, not {type}".
    A bool is refused unless kind is bool: isinstance takes it for an int."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    names = [k.__name__ for k in get_args(kind) or (kind,)]
    name = ", ".join(names[:-1]) + " or " * (len(names) > 1) + names[-1]
    article = "an" if name[0].lower() in "aeiou" else "a"
    raise InputError(f"{what} must be {article} {name}, not {type(value).__name__}")


def require_real(value, what: str, lower: float, upper: float, bounds: str = "()") -> float:
    """A real-number setting as a float, inside the interval from lower to
    upper, each end open or closed as bounds reads: "()", "[)", "(]" or
    "[]".  Anything else, a bool, NaN and an int beyond the float range
    included, raises InputError "{what} must be a real number in
    {interval}, ..." ending in the float it got or the type it was not.
    An open end at math.inf refuses infinity."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # its text could run to thousands of digits
            got = "not an int beyond the float range"
        else:
            if ((lower < number or bounds[0] == "[" and number == lower)
                    and (number < upper or bounds[1] == "]" and number == upper)):
                return number
            got = f"got {number!r}"
    else:
        got = f"not {type(value).__name__}"
    raise InputError(f"{what} must be a real number in "
                     f"{bounds[0]}{lower!r}, {upper!r}{bounds[1]}, {got}")


def as_path(value, what: str) -> Path:
    """value as a Path, when it is a str or os.PathLike; refused with
    InputError before Path() could raise a bare TypeError."""
    return Path(require_type(value, str | os.PathLike, what))


def require_file(path: Path, what: str) -> None:
    """Raise MissingFileError unless path names an existing file; a lookup
    that fails with OSError (e.g. ENAMETOOLONG) is bad input as well."""
    try:
        found = path.is_file()
    except OSError as exc:
        raise MissingFileError(f"{what} not found: {path} ({exc.strerror})") from exc
    if not found:
        raise MissingFileError(f"{what} not found: {path}")


def nearest_existing(path: Path, what: str) -> Path:
    """The nearest existing part of path, itself or a parent; InputError
    naming what when it is not a directory or a lookup fails (OSError)."""
    try:
        nearest = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:
        raise InputError(f"{what} {path}: {exc.strerror}") from exc
    if not nearest.is_dir():
        raise InputError(f"{what} {path}: {nearest} exists and is not a directory")
    return nearest


def read_csv_rows(path: Path, what: str, header: str,
                  columns: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (file line, cells) of each row of a CSV sidecar, skipping
    rows whose cells are all blank and a first row whose first cell is
    `header`.  A file that is not valid text or CSV raises InputError at
    once; a row without `columns` cells raises it when reached, so with
    the caller's own row checks the first bad row of the file is named."""
    require_file(path, what)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if rows and rows[0][1][0].strip().lower() == header:
        del rows[0]
    for line, row in rows:
        if len(row) != columns:
            raise InputError(f"{path}:{line}: expected {columns} columns, got {len(row)}")
        yield line, row


def _parse_manifest(manifest_path: Path) -> SessionManifest:
    try:
        raw = json.loads(manifest_path.read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # bad JSON or bytes, deep nesting
        raise MalformedManifestError(f"{manifest_path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedManifestError(f"{manifest_path}: manifest must be a JSON object")

    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise MalformedManifestError(
            f"{manifest_path}: unknown manifest keys {short_text(sorted(unknown))}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise MalformedManifestError(
            f"{manifest_path}: missing manifest keys {sorted(missing)}")

    base = manifest_path.parent

    def _resolve(key: str) -> Path | None:
        value = raw.get(key)
        if value is None and key not in _REQUIRED_KEYS:
            return None
        if not isinstance(value, str) or not value:
            raise MalformedManifestError(f"{manifest_path}: {key} must be a file name")
        return base / value

    paths = [_resolve(key) for key in ("frames", "boxes", "groundtruth")]
    try:
        return SessionManifest(raw["width"], raw["height"], raw["fps"], raw["pixel_format"],
                               raw["frame_count"], *paths)
    except InputError as exc:
        raise MalformedManifestError(f"{manifest_path}: {exc}") from exc


def _manifest_path(source: str | os.PathLike) -> Path:
    """The manifest of a session given as its directory or as the manifest
    itself.  A lookup that fails with OSError (e.g. ENAMETOOLONG) is taken
    as "not a directory", so require_file reports the path as missing."""
    path = as_path(source, "session path")
    try:
        return path / MANIFEST_NAME if path.is_dir() else path
    except OSError:
        return path


def session_id(source: str | os.PathLike) -> str:
    """A session's name: its directory's name when given as the directory
    or as the MANIFEST_NAME inside it, otherwise the manifest's stem.
    The path is made absolute first, so "." is named like its directory."""
    path = Path(os.path.abspath(_manifest_path(source)))
    return path.parent.name if path.name == MANIFEST_NAME else path.stem


def open_session(source: str | os.PathLike) -> SessionManifest:
    """Validate a session's manifest and the size of its frames file.

    source is the session directory or its manifest path.  Raises
    MissingFileError, MalformedManifestError, or SizeMismatchError
    before any frame is read.
    """
    manifest_path = _manifest_path(source)
    require_file(manifest_path, "manifest")
    manifest = _parse_manifest(manifest_path)
    require_file(manifest.frames_path, "frames file")
    actual = manifest.frames_path.stat().st_size
    if actual != manifest.frame_count * manifest.frame_bytes:
        raise SizeMismatchError(
            f"{manifest.frames_path}: expected {manifest.size_text}, got {actual}")
    return manifest


def map_frames(manifest: SessionManifest) -> np.ndarray:
    """Read-only view of every frame, shape (frames, height, width, bpp).

    bpp is 3 (R,G,B) for rgb8 and 1 for gray8.  The view is a plain
    ndarray over a memory map, which its base keeps open, so slicing it
    runs no np.memmap hooks.  Pages are read on first touch; the frames
    file must not shrink while the view is alive.
    Raises FrameReadError when the file cannot be mapped, e.g. when it
    holds fewer bytes than the manifest describes.
    """
    m = manifest
    shape = (m.frame_count, m.height, m.width, BYTES_PER_PIXEL[m.pixel_format])
    try:
        return np.memmap(m.frames_path, dtype=np.uint8, mode="r",
                         shape=shape).view(np.ndarray)
    except (ValueError, OSError) as exc:
        actual = m.frames_path.stat().st_size if m.frames_path.is_file() else 0
        raise FrameReadError(
            f"{m.frames_path}: cannot map {m.size_text}, file has {actual}: "
            f"{exc}") from exc
