"""Golden output digests: every run of a fixed matrix against committed bytes.

The matrix (``cases``) runs ``cli.main`` from one working directory with
relative paths, at ``parallel.WORKERS`` 1 and 2.  Each run's exit code
and the SHA-256 of its stdout, its stderr and every file it writes are
compared with ``tests/golden.json``, which also holds the numpy version
and machine the digests were made on.  A6 and the rerun tests compare a
run with itself; this compares it with the committed outputs, so a
change that moves one output byte fails here.

The sessions are small and noise-free, with a fixed spatial texture
added to every frame so that each region's mean depends on where the
region is placed: rgb8 and gray8, at 64x64, 255x200 and 256x200 (rects
held on either side of the uint8/uint16 boundary), each with the synth
static box and with a moving box.  That box starts off the frame's left
edge (and at 64x64 runs off its right and bottom edges), is interpolated
between anchors on every other frame, and puts its regions' edges on
half-pixel ties.  One 24 s 64x64 session of each format, without the
texture, is swept at both protocols' lengths, so that its report prints
every published figure of its channel.  A change that means to move
outputs rewrites the digests with

    PYTHONPATH=src python tests/update_golden.py

and lists each moved digest in CHANGES.md with the reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from facepulse import SynthConfig, parallel, render_session
from facepulse.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

FORMATS = ("rgb8", "gray8")
SIZES = ((64, 64), (255, 200), (256, 200))
FPS, DURATION = 10.0, 12.0
# both protocols' lengths, swept over sessions that hold a 20 s window
ALL_LENGTHS, LONG_DURATION = "5,7,9,10,11,13,15,17,19,20", 24.0
TEXTURE = 20  # the texture's largest step from the rendered level, either way

ESTIMATE_FLAGS = {
    "default": [],
    "hop1": ["--hop", str(1 / FPS)],
    "green7": ["--window", "7", "--hop", "2.5", "--combine", "green"],
}
SYNTH_FLAGS = {
    "defaults": [],
    "step": ["--profile", "step:70,100,1"],
    "ramp-noise": ["--profile", "ramp:60,90", "--noise", "2", "--seed", "4"],
    "mono-drift": ["--mono", "--drift", "0.05", "--amplitude", "0.05"],
    "harmonic": ["--second-harmonic", "--base-color", "150,110,90", "--fps", "20"],
}


def _moving_track(width: int, height: int, frames: int) -> str:
    """Anchors on every other frame, so the frames between interpolate:
    x steps 0.5 px a frame from off the left edge, and y 0.25 px, on
    half-pixel positions that the regions' fractions keep as ties."""
    w, h = 20 * max(1, width // 40), 20 * max(1, height // 30)
    rows = [f"{i},{i / 2 - width // 8 - 0.5:g},{height // 10 + i / 4:g},{w},{h}"
            for i in range(0, frames, 2)]
    return "frame,x,y,w,h\n" + "\n".join(rows) + "\n"


def build_sessions(root: Path) -> dict[str, list[str]]:
    """Render the sessions under root/s and return their relative paths
    by pixel format."""
    by_format = {}
    for fmt in FORMATS:
        by_format[fmt] = []
        for width, height in SIZES:
            name = f"s/{fmt}-{width}x{height}"
            manifest = render_session(SynthConfig(
                width=width, height=height, fps=FPS, duration=DURATION,
                mono=fmt == "gray8"), root / f"{name}-static")
            frames_path = manifest.frames_path
            frames = np.fromfile(frames_path, np.uint8).reshape(manifest.frame_count, height,
                                                                width, -1)
            texture = np.random.default_rng(width + height).integers(
                -TEXTURE, TEXTURE + 1, frames.shape[1:], dtype=np.int16)
            (frames + texture).astype(np.uint8).tofile(frames_path)
            shutil.copytree(root / f"{name}-static", root / f"{name}-moving")
            (root / f"{name}-moving" / "boxes.csv").write_text(
                _moving_track(width, height, manifest.frame_count))
            by_format[fmt] += [f"{name}-static", f"{name}-moving"]
        render_session(SynthConfig(width=64, height=64, fps=FPS, duration=LONG_DURATION,
                                   mono=fmt == "gray8"), root / f"s/{fmt}-long")
    (root / "s" / "refused").mkdir()
    (root / "s" / "refused" / "session.json").write_text("{}")
    return by_format


def cases(by_format: dict[str, list[str]]) -> dict[str, list[str]]:
    """Each run of the matrix by name; each writes into ./out."""
    runs = {f"synth/{name}": ["synth", "--out", "out", *flags]
            for name, flags in SYNTH_FLAGS.items()}
    for fmt, sessions in by_format.items():
        for session in sessions:
            for name, flags in ESTIMATE_FLAGS.items():
                runs[f"estimate/{session[2:]}/{name}"] = ["estimate", session, "--out", "out",
                                                          *flags]
        runs[f"sweep-10/{fmt}"] = ["sweep", *sessions, "--out", "out", "--lengths", "10"]
        runs[f"sweep/{fmt}"] = ["sweep", *sessions, "--out", "out"]
        runs[f"sweep-all/{fmt}"] = ["sweep", f"s/{fmt}-long", "--out", "out",
                                    "--lengths", ALL_LENGTHS]
    # exit 1: no session opens; exit 2: every session is too short
    runs["refused/sweep-none-opens"] = ["sweep", "s/missing", "s/refused", "--out", "out"]
    runs["refused/sweep-too-short"] = ["sweep", *by_format["gray8"][:2], "--lengths", "20",
                                       "--out", "out"]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(runs: dict[str, list[str]]) -> dict[str, dict[str, object]]:
    """Each run's exit code and the digests of its stdout, stderr and
    written files, run from the directory that build_sessions filled."""
    digests = {}
    for name, argv in runs.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        record = {"exit": rc, "stdout": _sha(out.getvalue().encode()),
                  "stderr": _sha(err.getvalue().encode())}
        written = sorted(p for p in Path("out").rglob("*") if p.is_file())
        record |= {p.as_posix(): _sha(p.read_bytes()) for p in written}
        digests[name] = record
        shutil.rmtree("out", ignore_errors=True)
    return digests


def moved_keys(old: dict, new: dict) -> list[str]:
    """Each "run key" whose record differs between old and new, where the
    key is exit, stdout, stderr or a written file's path; a run or key
    that only one side holds is listed too."""
    return [f"{run} {key}" for run in sorted(old.keys() | new.keys())
            for key in sorted(old.get(run, {}).keys() | new.get(run, {}).keys())
            if old.get(run, {}).get(key) != new.get(run, {}).get(key)]


def environment() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


@pytest.fixture(scope="module")
def matrix(tmp_path_factory) -> tuple[Path, dict[str, list[str]]]:
    root = tmp_path_factory.mktemp("golden")
    return root, cases(build_sessions(root))


@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_match_golden(matrix, monkeypatch, workers):
    """Every run's exit code, stdout, stderr and files hash to golden.json."""
    golden = json.loads(GOLDEN.read_text())
    made, running = {k: golden[k] for k in environment()}, environment()
    assert made == running, (f"golden.json was made with {made}, this is {running}; "
                             f"rewrite it with tests/update_golden.py")
    root, runs = matrix
    monkeypatch.chdir(root)
    monkeypatch.setattr(parallel, "WORKERS", workers)
    moved = moved_keys(golden["runs"], run_matrix(runs))
    assert not moved, "outputs moved from golden.json:\n  " + "\n  ".join(moved)


def test_moving_track_sits_on_ties():
    """The moving box starts off the frame, and its regions' start
    coordinates fall on half pixels, which rounding decides."""
    rows = [list(map(float, r.split(",")[1:])) for r in
            _moving_track(64, 64, 120).splitlines()[1:]]
    boxes = np.array(rows)
    assert boxes[0, 0] < 0 < boxes[-1, 0] + boxes[-1, 2] - 64
    assert ((boxes[:, 0] + 0.25 * boxes[:, 2]) % 1 == 0.5).all()
