"""CLI robustness: mutated sidecar files, edited pixels, out-of-range
numbers and odd argument text.

Whatever the sidecars, the frames or the flags hold, `main()`
returns 0, 1 or 2 and prints at most one `error:` line, and no number it
writes is NaN or infinite.  Skip notes (`#` lines of a report CSV, `error` strings of a
report JSON) quote the offending input on purpose, so only the numbers
are checked there.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facepulse.cli import main
from facepulse.pulse import COMBINE_METHODS

SIDECARS = ("session.json", "boxes.csv", "groundtruth.csv")
MANIFEST_KEYS = ("width", "height", "fps", "pixel_format", "frame_count",
                 "frames", "boxes", "groundtruth", "extra")
_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_DELETE = object()  # a manifest mutation that removes its key


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """16x16 rgb8 session, 10 fps, 12 s: long enough for the bandpass
    filter and two 5 s windows, so unmutated it is scored end to end."""
    root = tmp_path_factory.mktemp("fuzz")
    out = root / "s"
    assert main(["synth", "--out", str(out), "--duration", "12", "--fps", "10",
                 "--width", "16", "--height", "16"]) == 0
    assert _run(["sweep", str(out), "--out", str(root / "e"),
                 "--lengths", "5"]) == (0, "")
    return out


def _apply(session: Path, mutation: tuple) -> None:
    kind, name, *rest = mutation
    path = session / name
    if kind == "json":
        key, value = rest
        # an earlier text or bytes mutation may have left no JSON object
        # to edit: the manifest stays as it is, for the program to reject
        try:
            manifest = json.loads(path.read_text())
        except (ValueError, RecursionError):  # undecodable bytes or JSON
            return
        if not isinstance(manifest, dict):
            return
        if value is _DELETE:
            manifest.pop(key, None)
        else:
            manifest[key] = value
        path.write_text(json.dumps(manifest))
    elif kind == "text":
        path.write_text(rest[0])
    else:  # bytes written over the file at a position
        pos, data = rest
        raw = path.read_bytes()
        pos %= len(raw) + 1
        path.write_bytes(raw[:pos] + data + raw[pos + len(data):])


def _assert_finite_outputs(out: Path) -> None:
    def refuse(constant):
        raise AssertionError(f"non-finite {constant} written")

    for path in out.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=refuse)
        elif path.suffix == ".csv":
            for line in path.read_text().splitlines():
                if not line.startswith("#"):
                    assert not _NONFINITE.search(line), f"{path.name}: {line}"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _error_lines(err: str) -> int:
    return sum(line.startswith("error:") for line in err.splitlines())


def _check_session(session: Path, out: Path, *flags: str) -> None:
    for command, length in (("estimate", "--window"), ("sweep", "--lengths")):
        rc, err = _run([command, str(session), "--out", str(out / command),
                        length, "5", *flags])
        assert rc in (0, 1, 2)
        assert _error_lines(err) == (rc != 0)
        _assert_finite_outputs(out / command)


_wild = st.one_of(st.floats(), st.integers(-2**70, 2**70),
                  st.sampled_from([1e308, -1e308, 5e-324, 0.0]))
_json_values = st.one_of(_wild, st.text(max_size=6), st.none(), st.booleans(),
                         st.lists(st.integers(0, 9), max_size=2), st.just(_DELETE))
_cell = st.one_of(_wild.map(str), st.text(max_size=4), st.just("*"))


def _csv(header: str, rows) -> st.SearchStrategy[str]:
    """Rows of cells joined into a CSV text, with or without its header."""
    return st.tuples(st.booleans(), rows).map(lambda t: "\n".join(
        ([header] if t[0] else []) + [",".join(map(str, r)) for r in t[1]]) + "\n")


# plausible tracks and series reach the signal chain; wild cells probe
# the parsers
_box_track = st.lists(
    st.tuples(st.integers(0, 119), st.floats(-20, 40), st.floats(-20, 40),
              st.floats(0.1, 20), st.floats(0.1, 20)),
    min_size=1, max_size=5, unique_by=lambda r: r[0]).map(sorted)
_gt_series = st.lists(st.tuples(st.floats(-2, 14), st.floats(21, 249)),
                      min_size=1, max_size=20, unique_by=lambda r: r[0]).map(sorted)
_wild_rows = st.lists(st.lists(_cell, min_size=1, max_size=6), max_size=6)

_mutation = st.one_of(
    st.tuples(st.just("json"), st.just("session.json"),
              st.sampled_from(MANIFEST_KEYS), _json_values),
    st.tuples(st.just("json"), st.just("session.json"), st.just("fps"),
              st.floats(1, 1000)),
    st.tuples(st.just("text"), st.just("boxes.csv"),
              _csv("frame,x,y,w,h", st.one_of(_box_track, _wild_rows))),
    st.tuples(st.just("text"), st.just("groundtruth.csv"),
              _csv("t,bpm", st.one_of(_gt_series, _wild_rows))),
    st.tuples(st.just("bytes"), st.sampled_from(SIDECARS), st.integers(0, 400),
              st.binary(min_size=1, max_size=3)),
)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(mutations=st.lists(_mutation, min_size=1, max_size=2))
@example(mutations=[("json", "session.json", "fps", 1e308)])
@example(mutations=[("json", "session.json", "fps", 1e-300)])
@example(mutations=[("bytes", "boxes.csv", 20, b"\xff")])
@example(mutations=[("bytes", "groundtruth.csv", 12, b"\xff")])
@example(mutations=[("bytes", "session.json", 3, b"\xff")])
@example(mutations=[("text", "boxes.csv", "*,2,2,10," + "1" * 200_000 + "\n")])
@example(mutations=[("text", "groundtruth.csv", "0," + "7" * 200_000 + "\n")])
@example(mutations=[("text", "session.json", "[" * 100_000 + "]" * 100_000)])
def test_mutated_sidecars(base, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        session = Path(tmp) / "s"
        shutil.copytree(base, session)
        for mutation in mutations:
            _apply(session, mutation)
        _check_session(session, Path(tmp) / "out")


@pytest.fixture(scope="module")
def pixel_bases(tmp_path_factory) -> dict[str, Path]:
    """16x16 rgb8 and gray8 sessions like `base`, whose frames the pixel
    fuzz edits."""
    root = tmp_path_factory.mktemp("pixels")
    for fmt, flags in (("rgb8", []), ("gray8", ["--mono"])):
        assert main(["synth", "--out", str(root / fmt), "--duration", "12",
                     "--fps", "10", "--width", "16", "--height", "16",
                     *flags]) == 0
    return {fmt: root / fmt for fmt in ("rgb8", "gray8")}


def _edit_pixels(frames: np.ndarray, edit: tuple) -> None:
    """Apply one pixel edit in place to (n, height, width, channels) frames."""
    kind, *args = edit
    if kind == "constant":  # every pixel of every frame at one level
        frames[...] = args[0]
    elif kind == "saturate":  # a stretch of frames at full scale
        start, length = args
        frames[start:start + length] = 255
    elif kind == "zero_channel":
        frames[..., args[0] % frames.shape[-1]] = 0
    elif kind == "constant_region":  # one rectangle at one level throughout
        x, y, w, h, level = args
        frames[:, y:y + h, x:x + w] = level
    else:  # a frozen stretch: one frame repeated
        start, length = args
        frames[start:start + length] = frames[start]


_pixel_edit = st.one_of(
    st.tuples(st.just("constant"), st.integers(0, 255)),
    st.tuples(st.just("saturate"), st.integers(0, 119), st.integers(1, 120)),
    st.tuples(st.just("zero_channel"), st.integers(0, 2)),
    st.tuples(st.just("constant_region"), st.integers(0, 15), st.integers(0, 15),
              st.integers(1, 16), st.integers(1, 16), st.integers(0, 255)),
    st.tuples(st.just("frozen"), st.integers(0, 119), st.integers(2, 120)),
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(fmt=st.sampled_from(["rgb8", "gray8"]), method=st.sampled_from(COMBINE_METHODS),
       edits=st.lists(_pixel_edit, min_size=1, max_size=2))
@example(fmt="rgb8", method="chrom", edits=[("constant", 128)])
@example(fmt="gray8", method="chrom", edits=[("constant", 255)])
@example(fmt="rgb8", method="green", edits=[("zero_channel", 2)])
@example(fmt="rgb8", method="intensity", edits=[("zero_channel", 0)])
@example(fmt="rgb8", method="chrom", edits=[("constant_region", 0, 0, 16, 8, 90)])
@example(fmt="gray8", method="intensity", edits=[("frozen", 20, 60)])
def test_edited_pixels(pixel_bases, fmt, method, edits):
    with tempfile.TemporaryDirectory() as tmp:
        session = Path(tmp) / "s"
        shutil.copytree(pixel_bases[fmt], session)
        raw = session / "frames.raw"
        frames = np.fromfile(raw, dtype=np.uint8).reshape(120, 16, 16, -1)
        for edit in edits:
            _edit_pixels(frames, edit)
        frames.tofile(raw)
        _check_session(session, Path(tmp) / "out", "--combine", method)


# argv with {s} for the session, {base} for an unmutated one, {long}
# for LONG and {file} for an existing regular file, the expected exit code
# and a mutation of the session; argv without its own --out gets one.
# The synth commands, and a bad --out, must fail before they write anything
LONG = "n" * 300  # over the 255-byte file-name limit: lookups fail, ENAMETOOLONG
HUGE_INT = 10**400  # beyond the float range: float() raises OverflowError
HUGE_FPS = ("json", "session.json", "fps", 1e308)
HUGE_INTS = [("json", "session.json", key, HUGE_INT)
             for key in ("fps", "width", "height", "frame_count")]
NULL_FRAMES = ("json", "session.json", "frames", None)
LONG_FRAMES, LONG_BOXES, LONG_GT = (("json", "session.json", key, LONG)
                                    for key in ("frames", "boxes", "groundtruth"))
LIST_FORMAT = ("json", "session.json", "pixel_format", [])
DICT_FORMAT = ("json", "session.json", "pixel_format", {})
# (mutation, test id) pairs: a list, as a list or dict value is unhashable
MUTATION_IDS = [(HUGE_FPS, "fps=1e308"), (NULL_FRAMES, "frames=null"),
                (LONG_FRAMES, "frames=long"), (LONG_BOXES, "boxes=long"),
                (LONG_GT, "groundtruth=long"), (LIST_FORMAT, "pixel_format=[]"),
                (DICT_FORMAT, "pixel_format={}")] + [
                (m, f"{m[2]}=10**400") for m in HUGE_INTS]
REPRODUCERS = [
    (["estimate", "{s}", "--window", "inf"], 1),
    (["sweep", "{s}", "--lengths", "inf"], 1),
    (["estimate", "{s}", "--hop", "nan"], 1),
    (["sweep", "{s}", "--lengths", "5,inf"], 1),
    (["sweep", "{s}", "--lengths", "0,10"], 1),
    (["estimate", "{s}", "--hop", "0.001"], 1),  # below one sample at 10 fps
    (["estimate", "{s}", "--band", "0.7:nan"], 1),
    (["synth", "--fps", "nan"], 1),
    (["synth", "--fps", "1e308"], 1),
    (["synth", "--duration", "inf"], 1),
    (["synth", "--duration", "nan"], 1),
    (["synth", "--noise", "nan"], 1),
    (["synth", "--noise", "inf"], 1),
    (["synth", "--base-color", "nan,1,1"], 1),
    (["synth", "--base-color", "1,2"], 1),
    (["synth", "--base-color", "1,2,3,4"], 1),
    (["synth", "--profile", "constant:nan"], 1),
    (["synth", "--amplitude", "inf"], 1),
    (["synth", "--drift", "nan"], 1),
    (["sweep", "{s}", "--lengths", "nan"], 1),
    (["sweep", "{s}", "--lengths", ","], 1),
    (["synth", "--profile", "step:60,70,nan"], 1),
    (["synth", "--seed", "-1", "--noise", "1"], 1),
    (["synth", "--duration", "0.01"], 1),
    (["synth", "--fps", "1e300", "--duration", "1"], 1),  # more frames than disk
    (["synth", "--width", "{huge}"], 1),  # more bytes than disk, beyond the float range
    (["synth", "--out", "{file}"], 1),
    (["synth", "--out", "{file}/sub"], 1),
    (["synth", "--out", "{s}/{long}"], 1),
    (["estimate", "{s}", "--window", "1e308"], 2),
    (["sweep", "{s}", "--lengths", "1e308"], 2),
    # the 10 s window holds fewer than two cycles of the band's lower edge
    (["estimate", "{s}", "--band", "1e-300:4"], 1),
    (["estimate", "{s}", "--band", "1e-7:4"], 1),
    (["estimate", "{s}"], 2, HUGE_FPS),
    (["sweep", "{s}", "--lengths", "10"], 2, HUGE_FPS),
    *((["estimate", "{s}"], 1, m) for m in HUGE_INTS),
    *((["sweep", "{s}", "--lengths", "10"], 1, m) for m in HUGE_INTS),
    (["estimate", "{s}"], 1, NULL_FRAMES),
    (["estimate", "{s}"], 1, LONG_FRAMES),
    (["estimate", "{s}"], 1, LONG_BOXES),
    (["estimate", "{s}"], 1, LONG_GT),
    (["estimate", "{s}"], 1, LIST_FORMAT),
    (["estimate", "{s}"], 1, DICT_FORMAT),
    (["estimate", "{s}/{long}"], 1),
    # the bad session is skipped and the good one scored
    (["sweep", "{s}", "{base}", "--lengths", "10"], 0, LONG_GT),
    (["estimate", "{s}", "--out", "{file}"], 1),
    (["estimate", "{s}", "--out", "{file}/sub"], 1),
    (["estimate", "{s}", "--out", "{s}/{long}"], 1),
    (["sweep", "{s}", "--out", "{file}"], 1),
    (["sweep", "{s}", "--out", "{file}/sub"], 1),
]


@pytest.mark.parametrize("case", REPRODUCERS, ids=[
    " ".join([a for a in c[0] if a != "{s}"]
             + [name for m in c[2:] for known, name in MUTATION_IDS if known == m])
    for c in REPRODUCERS])
def test_bad_numbers_exit_cleanly(base, tmp_path, case):
    argv, code, *mutations = case
    # the copy's name differs from base's: two sessions may not share an id
    session, out, file = tmp_path / "mutated", tmp_path / "out", tmp_path / "file"
    shutil.copytree(base, session)
    file.write_text("kept\n")
    for mutation in mutations:
        _apply(session, mutation)
    own_out = "--out" in argv
    argv = [a.format(s=session, base=base, long=LONG, file=file, huge=HUGE_INT)
            for a in argv]
    if not own_out:
        argv += ["--out", str(out)]
    before = sorted(tmp_path.rglob("*"))
    rc, err = _run(argv)
    assert rc == code
    assert _error_lines(err) == (rc != 0) and "Traceback" not in err
    if argv[0] == "synth" or own_out:
        assert sorted(tmp_path.rglob("*")) == before
        assert file.read_text() == "kept\n"
    else:
        _assert_finite_outputs(out)
    if code == 0:
        report = json.loads((out / "report_rgb.json").read_text())
        assert report["sessions"]
        assert [(s["window_s"], s["error"].split(":")[0])
                for s in report["skipped"]] == [(None, "MissingFileError")]


def test_two_cycle_refusal_is_short(base, tmp_path):
    """The `--band 1e-300:4` reproducer's refusal prints the needed window
    length to 3 significant digits, not as a 301-digit number."""
    rc, err = _run(["estimate", str(base), "--band", "1e-300:4",
                    "--out", str(tmp_path / "out")])
    assert rc == 1
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(line.encode()) < 200 and "need at least 2e+300 s" in line


# outside input that makes a refusal quote a huge number: each is
# quoted to 15 significant digits, and one beyond the float range as the
# float limit
HUGE_WIDTH, HUGE_HEIGHT, HUGE_FPS_1E300 = (("json", "session.json", key, 1e300)
                                           for key in ("width", "height", "fps"))
HUGE_INDEX = ("text", "boxes.csv", "frame,x,y,w,h\n0,4,4,8,8\n" + "1" * 400 + ",4,4,8,8\n")
HUGE_ORDER = ("text", "boxes.csv",
              "frame,x,y,w,h\n" + "2" * 400 + ",4,4,8,8\n" + "1" * 400 + ",4,4,8,8\n")
HUGE_CELL = ("text", "boxes.csv", "frame,x,y,w,h\n0," + "1" * 2000 + ",4,8,8\n")
FLOAT_MAX = "1.79769313486232e+308"


@pytest.mark.parametrize("argv, code, quoted, mutations", [
    (["estimate", "{s}", "--window", "1e290"], 2, "cannot fit one 1e+291-sample window", ()),
    (["sweep", "{s}", "--lengths", "1e290"], 2, "cannot fit one 1e+291-sample window", ()),
    (["synth", "--fps", "1e300", "--duration", "1"], 1, "needs at least 1.23e+304 bytes", ()),
    (["estimate", "{s}"], 1, "expected 5.76e+303 bytes (120 frames of 4.8e+301)",
     (HUGE_WIDTH,)),
    (["estimate", "{s}"], 1, f"expected {FLOAT_MAX} bytes (120 frames of {FLOAT_MAX})",
     (HUGE_WIDTH, HUGE_HEIGHT)),
    (["estimate", "{s}"], 2, "120 samples cannot fit one 1e+301-sample window",
     (HUGE_FPS_1E300,)),
    (["estimate", "{s}"], 1, f"got range [0, {FLOAT_MAX}]", (HUGE_INDEX,)),
    (["estimate", "{s}"], 1, f"increasing ({FLOAT_MAX} then {FLOAT_MAX})", (HUGE_ORDER,)),
    (["estimate", "{s}"], 1, "box coordinate must be a finite number, got inf", (HUGE_CELL,)),
], ids=["estimate", "sweep", "synth", "width", "width-height", "fps", "frame-index",
        "frame-order", "box-cell"])
def test_huge_count_refusal_is_short(base, tmp_path, monkeypatch, argv, code, quoted,
                                     mutations):
    """A number worked out from a huge flag or read from a session's files
    is quoted in short form: the error line, the sweep skip note and
    its report_rgb.csv row stay under 200 bytes."""
    session, out = base, tmp_path / "out"
    if mutations:
        # a relative path keeps the quoted file names short wherever
        # tmp_path lies
        monkeypatch.chdir(tmp_path)
        session = Path("s")
        shutil.copytree(base, session)
        for mutation in mutations:
            _apply(session, mutation)
    rc, err = _run([a.format(s=session) for a in argv] + ["--out", str(out)])
    assert rc == code
    lines = [line for line in err.splitlines() if line.startswith(("error:", "note:"))]
    if argv[0] == "sweep":
        lines += [line for line in (out / "report_rgb.csv").read_text().splitlines()
                  if line.startswith("# skipped,")]
    assert len(lines) == (3 if argv[0] == "sweep" else 1)
    assert all(len(line.encode()) < 200 for line in lines)
    # the skip note and row quote the count; sweep's error line does not
    assert sum(quoted in line for line in lines) == (2 if argv[0] == "sweep" else 1)


# outside text that a refusal quotes: each is cut to its first 32
# characters, the opening quote or bracket included
LONG_INDEX = ("text", "boxes.csv", "frame,x,y,w,h\n" + "1" * 5000 + ",4,4,8,8\n")
LONG_CELL = ("text", "boxes.csv", "frame,x,y,w,h\n0," + "x" * 3000 + ",4,8,8\n")
LONG_FORMAT = ("json", "session.json", "pixel_format", "p" * 3000)
LONG_KEY = ("json", "session.json", "k" * 3000, 1)


@pytest.mark.parametrize("command", [["estimate"], ["sweep", "--lengths", "10"]],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("mutation, quoted", [
    (LONG_INDEX, "bad frame index '" + "1" * 31 + "..."),
    (LONG_CELL, "box coordinate must be a finite number, got '" + "x" * 31 + "..."),
    (LONG_FORMAT, "pixel_format must be one of ['gray8', 'rgb8'], got '" + "p" * 31 + "..."),
    (LONG_KEY, "unknown manifest keys ['" + "k" * 30 + "..."),
], ids=["frame-index", "box-cell", "pixel-format", "manifest-key"])
def test_long_text_refusal_is_short(base, tmp_path, monkeypatch, command, mutation, quoted):
    """Text from a session's files that a refusal quotes is cut short: the
    error and note lines and sweep's report_rgb.csv skip row stay under
    200 bytes.  A bad manifest stops sweep before it writes a report."""
    monkeypatch.chdir(tmp_path)  # a relative path keeps the file names short
    session = Path("s")
    shutil.copytree(base, session)
    _apply(session, mutation)
    rc, err = _run([*command, str(session), "--out", "out"])
    assert rc == 1
    lines = [line for line in err.splitlines() if line.startswith(("error:", "note:"))]
    if command[0] == "sweep" and mutation[1] == "boxes.csv":
        lines += [line for line in Path("out/report_rgb.csv").read_text().splitlines()
                  if line.startswith("# skipped,")]
    assert _error_lines(err) == 1
    assert all(len(line.encode()) < 200 for line in lines)
    assert any(quoted in line for line in lines)


# flag text that a refusal quotes: cut the same way
LONG_ARG = "x" * 3000


@pytest.mark.parametrize("argv, quoted", [
    (["estimate", "{s}", "--band", LONG_ARG + ":4"], "bad band '" + "x" * 31 + "..."),
    (["sweep", "{s}", "--lengths", "5," + LONG_ARG], "bad lengths '5," + "x" * 29 + "..."),
    (["synth", "--profile", "ramp:" + LONG_ARG], "bad profile 'ramp:" + "x" * 26 + "..."),
    (["synth", "--base-color", "1,2," + LONG_ARG], "bad base color '1,2," + "x" * 27 + "..."),
], ids=["estimate-band", "sweep-lengths", "synth-profile", "synth-base-color"])
def test_long_argument_refusal_is_short(base, tmp_path, monkeypatch, argv, quoted):
    """A flag's text that a refusal quotes is cut short: exit 1 with one
    error line, and every stderr line stays under 200 bytes."""
    monkeypatch.chdir(tmp_path)
    rc, err = _run([a.format(s=base) for a in argv] + ["--out", "out"])
    assert rc == 1 and _error_lines(err) == 1
    assert all(len(line.encode()) < 200 for line in err.splitlines())
    assert quoted in err


# flag text that no setting holds: long, non-ASCII, empty, not a number
# or beyond the float range, and negative zero
ODD_TEXT = ["x" * 3000, "é" * 3000, "héllo ☃ 日本", "", "nan", "1e400", "-0", "inf"]
USABLE = "usable"  # a flag given its usable value, from USABLE_VALUES
# each subcommand's flags with a usable value (None: a flag that takes
# none), and the fewest and most sessions it is given; synth renders 2 s
# of 16x16 frames unless a drawn flag changes that
USABLE_VALUES = {
    "synth": {"--out": "out", "--profile": "ramp:60,80", "--duration": "2",
              "--fps": "10", "--width": "16", "--height": "16", "--base-color": "170,120,100",
              "--amplitude": "0.01", "--noise": "1", "--drift": "0.05", "--seed": "1",
              "--mono": None, "--second-harmonic": None},
    "estimate": {"--out": "out", "--window": "5", "--hop": "2.5", "--band": "0.7:4",
                 "--combine": "green"},
    "sweep": {"--out": "out", "--lengths": "5,6", "--band": "0.7:4", "--combine": "green"},
}
SESSION_COUNTS = {"synth": (0, 0), "estimate": (1, 1), "sweep": (1, 2)}
SYNTH_SMALL = ["--width", "16", "--height", "16", "--fps", "10", "--duration", "2"]
# the sessions a drawn argv may name
SESSIONS = ("tiny", "base", "refused", "missing")


@pytest.fixture(scope="module")
def named_sessions(base, tiny_session, tmp_path_factory) -> dict[str, str]:
    """conftest's tiny session, the 12 s `base`, a session whose manifest
    is refused, under a name of over 30 bytes, one that is missing, and
    one missing under a 250-byte name (a directory name may hold 255)."""
    root = tmp_path_factory.mktemp("argv")
    refused = root / "a-session-whose-manifest-is-refused"
    refused.mkdir()
    (refused / "session.json").write_text("{}")
    return {"tiny": str(tiny_session), "base": str(base), "refused": str(refused),
            "missing": str(root / "missing"), "missing-long": str(root / ("m" * 250))}


_argv = st.sampled_from(sorted(USABLE_VALUES)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.lists(st.sampled_from(SESSIONS), min_size=SESSION_COUNTS[command][0],
             max_size=SESSION_COUNTS[command][1], unique=True),
    st.dictionaries(st.sampled_from(sorted(USABLE_VALUES[command])),
                    st.sampled_from([USABLE, *ODD_TEXT]), max_size=3)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(drawn=_argv)
@example(drawn=("sweep", ["refused"], {"--lengths": "10"}))
@example(drawn=("sweep", ["refused", "missing"], {"--out": "é" * 3000, "--lengths": "10"}))
# its skip note names it once
@example(drawn=("sweep", ["tiny", "missing-long"], {"--lengths": "10"}))
@example(drawn=("synth", [], {"--width": "x" * 3000}))
@example(drawn=("synth", [], {"--mono": "é" * 3000}))
@example(drawn=("synth", [], {"--base-color": "é" * 3000}))  # quoted twice, in short form
@example(drawn=("estimate", ["base"], {"--combine": "é" * 3000}))
@example(drawn=("sweep", ["base"], {"--lengths": "x" * 3000}))
@example(drawn=("estimate", ["base"], {"--window": USABLE}))
def test_argv_exits_cleanly(named_sessions, drawn):
    """Any argv of a subcommand exits 0, 1 or 2 with at most one error
    line, and every stderr line stays under 200 bytes plus the length of
    the paths given (the sessions and --out)."""
    command, sessions, flags = drawn
    sessions = [named_sessions[s] for s in sessions]
    values = {flag: USABLE_VALUES[command][flag] if value == USABLE else value
              for flag, value in flags.items()}
    argv = [command, *sessions, "--out", "out", *(SYNTH_SMALL if command == "synth" else [])]
    for flag, value in values.items():
        # odd text after a flag that takes no value is an argument the
        # subcommand does not take
        argv += [flag] if value is None else [flag, value]
    paths = [*sessions, values.get("--out", "out")]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
        rc, err = _run(argv)
    assert rc in (0, 1, 2)
    assert _error_lines(err) == (rc != 0) and "Traceback" not in err
    budget = 200 + sum(len(p.encode()) for p in paths)
    assert all(len(line.encode()) < budget for line in err.splitlines())
