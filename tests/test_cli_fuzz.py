"""CLI robustness: mutated sidecar files and out-of-range numbers.

Whatever the sidecars or the numeric flags hold, `main()` returns 0, 1 or
2 and prints at most one `error:` line, and no number it writes is NaN or
infinite.  Skip notes (`#` lines of a report CSV, `error` strings of a
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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facepulse.cli import main

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
    assert _run(["evaluate", str(out), "--out", str(root / "e"),
                 "--window", "5"]) == (0, "")
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


def _check_session(session: Path, out: Path) -> None:
    for command in ("estimate", "evaluate"):
        rc, err = _run([command, str(session), "--out", str(out / command),
                        "--window", "5"])
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


# argv with {s} for the session, {base} for an unmutated one, {long}
# for LONG and {file} for an existing regular file, the expected exit code
# and a mutation of the session; argv without its own --out gets one.
# The synth commands, and a bad --out, must fail before they write anything
LONG = "n" * 300  # over the 255-byte file-name limit: lookups fail, ENAMETOOLONG
HUGE_FPS = ("json", "session.json", "fps", 1e308)
NULL_FRAMES = ("json", "session.json", "frames", None)
LONG_FRAMES, LONG_BOXES, LONG_GT = (("json", "session.json", key, LONG)
                                    for key in ("frames", "boxes", "groundtruth"))
MUTATION_IDS = {HUGE_FPS: "fps=1e308", NULL_FRAMES: "frames=null",
                LONG_FRAMES: "frames=long", LONG_BOXES: "boxes=long",
                LONG_GT: "groundtruth=long"}
REPRODUCERS = [
    (["estimate", "{s}", "--window", "inf"], 1),
    (["evaluate", "{s}", "--window", "inf"], 1),
    (["estimate", "{s}", "--hop", "nan"], 1),
    (["sweep", "{s}", "--lengths", "5,inf"], 1),
    (["estimate", "{s}", "--band", "0.7:nan"], 1),
    (["synth", "--fps", "nan"], 1),
    (["synth", "--fps", "1e308"], 1),
    (["synth", "--duration", "inf"], 1),
    (["synth", "--duration", "nan"], 1),
    (["synth", "--noise", "nan"], 1),
    (["synth", "--noise", "inf"], 1),
    (["synth", "--base-color", "nan,1,1"], 1),
    (["synth", "--profile", "step:60,70,nan"], 1),
    (["synth", "--seed", "-1", "--noise", "1"], 1),
    (["estimate", "{s}", "--window", "1e308"], 2),
    (["evaluate", "{s}", "--window", "1e308"], 2),
    (["sweep", "{s}", "--lengths", "1e308"], 2),
    (["estimate", "{s}", "--band", "1e-300:4"], 2),
    (["estimate", "{s}", "--band", "1e-7:4"], 2),
    (["estimate", "{s}"], 2, HUGE_FPS),
    (["evaluate", "{s}"], 2, HUGE_FPS),
    (["estimate", "{s}"], 1, NULL_FRAMES),
    (["estimate", "{s}"], 1, LONG_FRAMES),
    (["estimate", "{s}"], 1, LONG_BOXES),
    (["estimate", "{s}"], 1, LONG_GT),
    (["estimate", "{s}/{long}"], 1),
    # the bad session is skipped and the good one scored
    (["evaluate", "{s}", "{base}"], 0, LONG_GT),
    (["estimate", "{s}", "--out", "{file}"], 1),
    (["estimate", "{s}", "--out", "{file}/sub"], 1),
    (["estimate", "{s}", "--out", "{s}/{long}"], 1),
    (["evaluate", "{s}", "--out", "{file}"], 1),
    (["evaluate", "{s}", "--out", "{file}/sub"], 1),
    (["sweep", "{s}", "--out", "{file}"], 1),
    (["sweep", "{s}", "--out", "{file}/sub"], 1),
]


@pytest.mark.parametrize("case", REPRODUCERS, ids=[
    " ".join([a for a in c[0] if a != "{s}"] + [MUTATION_IDS[m] for m in c[2:]])
    for c in REPRODUCERS])
def test_bad_numbers_exit_cleanly(base, tmp_path, case):
    argv, code, *mutations = case
    session, out, file = tmp_path / "s", tmp_path / "out", tmp_path / "file"
    shutil.copytree(base, session)
    file.write_text("kept\n")
    for mutation in mutations:
        _apply(session, mutation)
    own_out = "--out" in argv
    argv = [a.format(s=session, base=base, long=LONG, file=file) for a in argv]
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
        report = json.loads((out / "report.json").read_text())
        assert report["sessions"]
        assert [(s["window_s"], s["error"].split(":")[0])
                for s in report["skipped"]] == [(None, "MissingFileError")]

