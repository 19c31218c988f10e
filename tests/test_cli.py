from __future__ import annotations

import argparse
import codecs
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from facepulse import SynthConfig, cli, evaluate, parallel, pulse, render_session, spectral
from facepulse.cli import main


def _lines(path):
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def cli_session(tmp_path_factory):
    """60 s, 72 bpm rgb8 session rendered through the synth command."""
    out = tmp_path_factory.mktemp("cli") / "clean72"
    rc = main(["synth", "--out", str(out), "--width", "16", "--height", "16"])
    assert rc == 0
    return out


def _pair(root, *flags):
    """Two quick 20 s sessions for the report commands."""
    for name, hr in (("s01", "66"), ("s02", "84")):
        rc = main(["synth", "--out", str(root / name), "--duration", "20",
                   "--width", "16", "--height", "16", "--profile", f"constant:{hr}", *flags])
        assert rc == 0
    return [str(root / "s01"), str(root / "s02")]


@pytest.fixture(scope="module")
def short_pair(tmp_path_factory):
    return _pair(tmp_path_factory.mktemp("pair"))


@pytest.fixture(scope="module")
def mono_pair(tmp_path_factory):
    """short_pair rendered as gray8, the near-infrared stand-in."""
    return _pair(tmp_path_factory.mktemp("mono"), "--mono")


class TestSynthCommand:
    def test_writes_session_files(self, tmp_path, capsys):
        out = tmp_path / "sess"
        rc = main(["synth", "--out", str(out), "--duration", "2",
                   "--width", "16", "--height", "16"])
        assert rc == 0
        for name in ("session.json", "frames.raw", "boxes.csv",
                     "groundtruth.csv"):
            assert (out / name).is_file()
        assert "wrote 60 rgb8 frames" in capsys.readouterr().out

    def test_hr_out_of_range(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--profile", "constant:500"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "42" in err and "240" in err

    def test_hr_flag_is_a_usage_error(self, tmp_path, capsys):
        # the constant profile is --profile constant:BPM; --hr is gone
        out = tmp_path / "sess"
        rc = main(["synth", "--out", str(out), "--hr", "70"])
        assert rc == 1
        assert "unrecognized arguments: --hr 70" in capsys.readouterr().err
        assert not out.exists()

    def test_step_profile_and_mono(self, tmp_path):
        out = tmp_path / "mono"
        rc = main(["synth", "--out", str(out), "--duration", "4",
                   "--width", "16", "--height", "16", "--mono",
                   "--profile", "step:70,100,2"])
        assert rc == 0
        manifest = json.loads((out / "session.json").read_text())
        assert manifest["pixel_format"] == "gray8"


# peak heap of a 1-frame-hop estimate, in (3, 3, n) trace bytes, once the
# scratch sized by design is shrunk (test_dense_hop_heap_per_frame):
# 2.51 since conditioning works in place in the means, where region
# placement sets the peak and conditioning is at 2.00; 2.55 when
# conditioning set it with its own region and channel rows.  Earlier
# figures: 2.82-2.83 and 3.25-3.27 while detrend held more rows; with no
# gc.collect() before the op, so that a collection of cyclic garbage
# during it could lower them by up to 0.3 traces, 3.52-3.55 with int64
# rects, where placement set the peak, and 4.78-4.94 when conditioning
# held a second trace while the box track and the rects lived on.  The
# bound leaves over 9 % to the first
DENSE_HOP_HEAP_TRACES = 2.75

# the same for estimate on a static box at the default hop
# (test_static_heap_per_frame): 2.45 since conditioning works in place,
# where region placement sets the peak and conditioning is at 1.92; 2.47
# when conditioning set it; 2.84-2.85 and 3.28 while detrend held more
# rows.  With no gc.collect() before the op: 3.37-3.49 with int64 rects,
# where placement set it.  The rects alone are 0.17 traces in uint8, 1.33
# in int64
STATIC_HEAP_TRACES = 2.75


def _small_scratch(monkeypatch) -> None:
    """One worker, 16 KiB spectrum blocks and 4 KiB gathers: the scratch
    whose size is fixed shrinks, so a heap peak is what grows with frames
    and windows."""
    monkeypatch.setattr(parallel, "WORKERS", 1)
    monkeypatch.setattr(spectral, "SPECTRUM_BLOCK_BYTES", 16 * 1024)
    monkeypatch.setattr(pulse, "GATHER_BYTES", 4 * 1024)


def _peak_heap(argv) -> int:
    """Peak traced bytes of main(argv), run once before to keep first-call
    allocations out of the peak.  Cyclic garbage is collected before the
    traced run, as the bench does before each op, so that where the
    collector next runs, and what it frees, does not hang on the tests
    run before."""
    assert main(argv) == 0
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_hop_heap_per_frame(tmp_path, monkeypatch, capsys):
    """estimate at a 1-frame hop on a box that moves and leaves the frame
    peaks within DENSE_HOP_HEAP_TRACES times its trace's bytes, with
    small scratch."""
    _small_scratch(monkeypatch)
    session = tmp_path / "moving"
    config = SynthConfig(width=32, height=32, duration=60.0, noise_sigma=0.5, seed=3)
    render_session(config, session)
    n = config.frame_count
    rng = np.random.default_rng(5)
    anchors = np.append(np.arange(0, n - 1, 15), n - 1)
    x = 6 + 2 * np.sin(anchors / 40) + rng.normal(0, 0.5, len(anchors))
    y = 6 + 2 * np.cos(anchors / 40) + rng.normal(0, 0.5, len(anchors))
    x[len(x) // 2:len(x) // 2 + 4] = 50.0  # off the frame: degenerate regions
    w, h = 20 + rng.normal(0, 0.5, (2, len(anchors)))
    (session / "boxes.csv").write_text("frame,x,y,w,h\n" + "".join(
        f"{f},{a:.2f},{b:.2f},{c:.2f},{d:.2f}\n" for f, a, b, c, d in zip(anchors, x, y, w, h)))
    peak = _peak_heap(["estimate", str(session), "--out", str(tmp_path / "out"),
                       "--hop", repr(1 / config.fps)])
    assert "over 1501 windows" in capsys.readouterr().out
    assert peak <= DENSE_HOP_HEAP_TRACES * 3 * 3 * n * 8


def test_static_heap_per_frame(tmp_path, monkeypatch):
    """estimate on a 64x64 rgb8 session with a static `*` box peaks
    within STATIC_HEAP_TRACES times its trace's bytes, with small scratch."""
    _small_scratch(monkeypatch)
    session = tmp_path / "static"
    config = SynthConfig(width=64, height=64, duration=60.0, noise_sigma=0.5, seed=3)
    render_session(config, session)
    assert (session / "boxes.csv").read_text().splitlines()[1].startswith("*,")
    peak = _peak_heap(["estimate", str(session), "--out", str(tmp_path / "out")])
    assert peak <= STATIC_HEAP_TRACES * 3 * 3 * config.frame_count * 8


class TestEstimateCommand:
    def test_outputs(self, cli_session, tmp_path, capsys):
        out = tmp_path / "est"
        rc = main(["estimate", str(cli_session), "--out", str(out)])
        assert rc == 0
        rows = _lines(out / "estimates.csv")
        assert rows[0] == "window_start_s,window_end_s,bpm"
        assert len(rows) == 7
        for row in rows[1:]:
            assert float(row.split(",")[2]) == pytest.approx(72.0, abs=0.5)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"session_mean_bpm", "n_windows", "window_s"}
        assert summary["n_windows"] == 6
        assert summary["session_mean_bpm"] == pytest.approx(72.0, abs=0.5)
        compare = _lines(out / "compare.csv")
        assert compare[0] == "window_start_s,window_end_s,gt_bpm,est_bpm"
        assert compare[1].startswith("0,10,72.000000,")
        assert "session mean 72" in capsys.readouterr().out

    def test_overlapping_windows(self, cli_session, tmp_path):
        out = tmp_path / "hop"
        rc = main(["estimate", str(cli_session), "--out", str(out),
                   "--window", "10", "--hop", "2"])
        assert rc == 0
        estimates = [r.split(",") for r in _lines(out / "estimates.csv")[1:]]
        assert len(estimates) == 26
        # compare.csv repeats each window's bounds and bpm string
        compare = [r.split(",") for r in _lines(out / "compare.csv")[1:]]
        assert [c[:2] + c[3:] for c in compare] == estimates

    def test_manifest_path_accepted(self, cli_session, tmp_path):
        rc = main(["estimate", str(cli_session / "session.json"),
                   "--out", str(tmp_path / "viafile")])
        assert rc == 0

    def test_missing_boxes_file(self, tmp_path, capsys):
        out = tmp_path / "sess"
        main(["synth", "--out", str(out), "--duration", "10",
              "--width", "16", "--height", "16"])
        (out / "boxes.csv").unlink()
        rc = main(["estimate", str(out), "--out", str(tmp_path / "est")])
        assert rc == 1
        assert "MissingFile" in capsys.readouterr().err

    @pytest.mark.parametrize("name,old,new,error", [
        ("boxes.csv", "*,3,3,10,10", "*,3,3,nan,10", "InputError"),
        ("boxes.csv", "*,3,3,10,10", "*,3,3,inf,10", "InputError"),
        ("session.json", '"fps": 30.0', '"fps": NaN', "MalformedManifest"),
        ("session.json", '"width": 16', '"width": 16.5', "MalformedManifest"),
        ("groundtruth.csv", "1.0,72.0", "1.0,nan", "InputError"),
    ])
    def test_non_finite_sidecar_number_exits_1(self, cli_session, tmp_path,
                                                capsys, name, old, new, error):
        session = tmp_path / "sess"
        shutil.copytree(cli_session, session)
        text = (session / name).read_text()
        assert old in text
        (session / name).write_text(text.replace(old, new))
        rc = main(["estimate", str(session), "--out", str(tmp_path / "est")])
        assert rc == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_byte_order_mark_read_as_text(self, cli_session, tmp_path, capsys):
        # spreadsheet and smartwatch exports often start with a UTF-8 BOM
        session = tmp_path / "bom"
        shutil.copytree(cli_session, session)
        for name in ("groundtruth.csv", "boxes.csv", "session.json"):
            path = session / name
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        runs = []
        for source in (cli_session, session):
            out = tmp_path / f"est-{source.name}"
            assert main(["estimate", str(source), "--out", str(out)]) == 0
            runs.append([capsys.readouterr().out] + [
                (out / name).read_bytes()
                for name in ("estimates.csv", "compare.csv", "summary.json")])
        assert runs[0] == runs[1]

    def test_window_without_groundtruth_skips_compare(self, cli_session, tmp_path,
                                                      capsys):
        # groundtruth ends at 30 s: the later windows hold no sample, and the
        # compare.csv of an earlier run into the same --out goes
        session = tmp_path / "sess"
        shutil.copytree(cli_session, session)
        out = tmp_path / "est"
        assert main(["estimate", str(session), "--out", str(out)]) == 0
        assert (out / "compare.csv").exists()
        gt = session / "groundtruth.csv"
        gt.write_text("\n".join(_lines(gt)[:31]) + "\n")
        assert main(["estimate", str(session), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["estimates.csv", "summary.json"]
        assert "skipping compare.csv" in capsys.readouterr().err

    def test_no_groundtruth_removes_earlier_compare(self, cli_session, tmp_path, capsys):
        # a manifest that names no groundtruth writes no compare.csv, silently,
        # and leaves none behind from an earlier run into the same --out
        session = tmp_path / "sess"
        shutil.copytree(cli_session, session)
        out = tmp_path / "est"
        assert main(["estimate", str(session), "--out", str(out)]) == 0
        assert (out / "compare.csv").exists()
        manifest = json.loads((session / "session.json").read_text())
        del manifest["groundtruth"]
        (session / "session.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["estimate", str(session), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["estimates.csv", "summary.json"]
        assert capsys.readouterr().err == ""

    def test_empty_window_note_is_short(self, cli_session, tmp_path, capsys):
        # groundtruth ends at 9 s: at a 0.1 s hop over 400 windows hold no
        # sample, and the note counts them, naming the first and the last
        session = tmp_path / "sess"
        shutil.copytree(cli_session, session)
        gt = session / "groundtruth.csv"
        gt.write_text("\n".join(_lines(gt)[:11]) + "\n")
        out = tmp_path / "est"
        assert main(["estimate", str(session), "--out", str(out), "--hop", "0.1"]) == 0
        [note] = capsys.readouterr().err.splitlines()
        assert note == ("note: skipping compare.csv: 410 of 501 windows without groundtruth "
                        "samples, from [9.1, 19.1) to [50, 60)")
        assert len(note.encode()) < 200 + len(str(session)) + len(str(out))

    def test_session_shorter_than_filter(self, tmp_path, capsys):
        out = tmp_path / "blip"
        main(["synth", "--out", str(out), "--duration", "4",
              "--width", "16", "--height", "16"])
        rc = main(["estimate", str(out), "--out", str(tmp_path / "est"),
                   "--window", "4"])
        assert rc == 2
        assert "SignalTooShort" in capsys.readouterr().err

    def test_bad_band_argument(self, cli_session, tmp_path, capsys):
        rc = main(["estimate", str(cli_session), "--out", str(tmp_path),
                   "--band", "nonsense"])
        assert rc == 1
        assert "bad band" in capsys.readouterr().err

    def test_missing_required_out(self, cli_session, capsys):
        rc = main(["estimate", str(cli_session)])
        assert rc == 1
        assert "usage:" in capsys.readouterr().err


class TestEvaluateCommand:
    """Scoring sessions against their groundtruth, as sweep does at one
    window length."""

    def test_report_files(self, short_pair, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = main(["sweep", *short_pair, "--out", str(out), "--lengths", "10"])
        assert rc == 0
        assert (out / "report_rgb.csv").is_file()
        payload = json.loads((out / "report_rgb.json").read_text())
        assert len(payload["sessions"]) == 2
        assert payload["dataset"][0]["n_sessions"] == 2
        for row in payload["sessions"]:
            assert row["sub52_bpm"] <= 1.5
        stdout = capsys.readouterr().out
        assert "T=10s sub51=" in stdout

    def test_channel_label(self, mono_pair, tmp_path, capsys):
        # gray8 sessions are labelled nir, and quote the NIR figures
        out = tmp_path / "rep"
        assert main(["sweep", *mono_pair, "--out", str(out), "--lengths", "15"]) == 0
        payload = json.loads((out / "report_nir.json").read_text())
        assert payload["channel"] == "nir"
        assert payload["reference_mae_bpm"] == {"session": {"15": 7.08},
                                                "monitoring": {"15": 9.67}}
        assert {line.split(",")[1] for line in _lines(out / "report_nir.csv")[1:]} == {"nir"}
        assert sorted(p.name for p in out.iterdir()) == ["report_nir.csv", "report_nir.json"]
        capsys.readouterr()

    def test_channel_flag_is_a_usage_error(self, short_pair, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = main(["sweep", *short_pair, "--out", str(out), "--lengths", "10",
                   "--channel", "rgb"])
        assert rc == 1
        assert "unrecognized arguments: --channel rgb" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_pixel_formats_exit_1(self, short_pair, mono_pair, tmp_path,
                                        monkeypatch, capsys):
        # refused before any frame is read: one session of each format is named
        def no_frames(manifest):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(evaluate, "map_frames", no_frames)
        rgb = tmp_path / "rgb"
        shutil.copytree(short_pair[1], rgb)
        out = tmp_path / "rep"
        rc = main(["sweep", *mono_pair, str(rgb), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: InputError: sessions mix pixel formats: rgb is rgb8, s01 is gray8\n")
        assert not out.exists()

    def test_no_session_opens_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "session.json").write_text("{}")
        out = tmp_path / "rep"
        rc = main(["sweep", str(tmp_path / "missing"), str(bad), "--out", str(out),
                   "--lengths", "10"])
        assert rc == 1
        # the first session in id order is quoted, once
        assert capsys.readouterr().err == (
            "error: InputError: no session could be opened; "
            f"MalformedManifestError: {bad / 'session.json'}: missing manifest keys "
            "['boxes', 'fps', 'frame_count', 'frames', 'height', 'pixel_format', "
            "'width']\n")
        assert sorted(tmp_path.rglob("*")) == [bad, bad / "session.json"]

    @pytest.mark.parametrize("twice", ["{s}", "{s}/session.json"])
    def test_session_named_twice_exits_1(self, short_pair, tmp_path, capsys, twice):
        # one session scored twice would count twice in the dataset means
        s01, s02 = short_pair
        out = tmp_path / "rep"
        rc = main(["sweep", s01, twice.format(s=s01), s02, "--out", str(out),
                   "--lengths", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        # the message quotes both paths as given, not as resolved
        assert f"InputError: session s01 is named twice: {s01} and {twice.format(s=s01)}\n" in err
        assert not out.exists()

    def test_all_windows_unscored_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sess"
        main(["synth", "--out", str(out), "--duration", "20",
              "--width", "16", "--height", "16"])
        gt = _lines(out / "groundtruth.csv")
        (out / "groundtruth.csv").write_text("\n".join(gt[:3]) + "\n")
        rep = tmp_path / "rep"
        rc = main(["sweep", str(out), "--out", str(rep), "--lengths", "10"])
        assert rc == 2
        assert "note: skipped" in capsys.readouterr().err
        # the report is still written, with the skip recorded
        assert any(line.startswith("# skipped,")
                   for line in _lines(rep / "report_rgb.csv"))
        assert json.loads((rep / "report_rgb.json").read_text())["sessions"] == []

    def test_nan_groundtruth_skips_session(self, cli_session, tmp_path,
                                           capsys):
        # every skip is bad input, so the run exits 1
        session = tmp_path / "sess"
        shutil.copytree(cli_session, session)
        gt = session / "groundtruth.csv"
        gt.write_text(gt.read_text().replace("1.0,72.0", "1.0,nan"))
        rep = tmp_path / "rep"
        rc = main(["sweep", str(session), "--out", str(rep), "--lengths", "10"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "=nan" not in captured.out
        assert "must be a finite number" in captured.err
        assert json.loads((rep / "report_rgb.json").read_text())["dataset"] == []

    def test_bad_input_and_processing_skips_exit_2(self, cli_session,
                                                   tmp_path, capsys):
        # one session skipped for bad input, one for a processing failure
        bad = tmp_path / "bad"
        shutil.copytree(cli_session, bad)
        gt = bad / "groundtruth.csv"
        gt.write_text(gt.read_text().replace("1.0,72.0", "1.0,nan"))
        short = tmp_path / "short"
        shutil.copytree(cli_session, short)
        gt = short / "groundtruth.csv"
        gt.write_text("\n".join(gt.read_text().splitlines()[:3]) + "\n")
        rep = tmp_path / "rep"
        rc = main(["sweep", str(bad), str(short), "--out", str(rep), "--lengths", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "must be a finite number" in err
        assert "EmptyWindowGtError" in err
        payload = json.loads((rep / "report_rgb.json").read_text())
        assert [s["session"] for s in payload["skipped"]] == ["bad", "short"]
        assert all(set(s) == {"session", "window_s", "error"}
                   for s in payload["skipped"])


class TestGroundtruthReadFirst:
    """A session's groundtruth is checked before any frame is reduced."""

    @pytest.fixture
    def bad_gt_session(self, cli_session, tmp_path, monkeypatch):
        session = tmp_path / "sess"
        shutil.copytree(cli_session, session)
        gt = session / "groundtruth.csv"
        gt.write_text(gt.read_text().replace("1.0,72.0", "1,abc"))

        def no_frames(*args):
            raise AssertionError("frames reduced before the groundtruth was read")

        # the name load_session calls
        monkeypatch.setattr(evaluate, "extract_traces", no_frames)
        return session

    @pytest.mark.parametrize("argv", [["estimate"], ["sweep", "--lengths", "10"]],
                             ids=lambda argv: argv[0])
    def test_malformed_groundtruth_exits_1(self, bad_gt_session, tmp_path, capsys,
                                           argv):
        rc = main([*argv, str(bad_gt_session), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "groundtruth.csv:3: bpm" in capsys.readouterr().err

    def test_malformed_groundtruth_beats_long_window(self, bad_gt_session, tmp_path,
                                                     capsys):
        # a 100 s window on the 60 s session would be a processing failure
        rc = main(["estimate", str(bad_gt_session), "--out", str(tmp_path / "out"),
                   "--window", "100"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "groundtruth.csv:3: bpm" in err and "SessionTooShort" not in err


class TestShortWindowRefusedFirst:
    """A window shorter than two cycles of the band's lower edge is
    refused before any session is opened."""

    @pytest.mark.parametrize("argv", [
        ["estimate", "{s1}", "--window", "2"],
        ["sweep", "{s1}", "{s2}", "--lengths", "2,10"],
    ], ids=["estimate", "sweep"])
    def test_exits_1_before_frames(self, short_pair, tmp_path, monkeypatch, capsys,
                                   argv):
        def no_frames(*args):
            raise AssertionError("frames reduced before the window was checked")

        monkeypatch.setattr(evaluate, "extract_traces", no_frames)
        out = tmp_path / "out"
        s1, s2 = short_pair
        rc = main([a.format(s1=s1, s2=s2) for a in argv] + ["--out", str(out)])
        assert rc == 1
        assert ("InputError: window of 2.0 s holds fewer than two cycles at 0.7 Hz"
                in capsys.readouterr().err)
        assert not out.exists()


class TestWindowsPartitionedFirst:
    """A hop below one sample and a session shorter than one window are
    refused with the spectral stage's messages and exit codes, before any
    frame is mapped."""

    @pytest.mark.parametrize("argv, code, message", [
        (["--hop", "0.001"], 1, "InputError: hop of 0.001 s is below one sample at 30.0 fps"),
        (["--window", "100"], 2,
         "SessionTooShortError: 1800 samples cannot fit one 3000-sample window"),
    ], ids=["hop", "window"])
    def test_refused_before_frames(self, cli_session, tmp_path, monkeypatch, capsys, argv,
                                   code, message):
        def no_frames(manifest):
            raise AssertionError("frames mapped before the windows were partitioned")

        monkeypatch.setattr(evaluate, "map_frames", no_frames)
        out = tmp_path / "out"
        assert main(["estimate", str(cli_session), "--out", str(out), *argv]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("duration, argv", [
        ("5", ["--hop", "0.001"]),  # 150 samples, shorter than the 171-tap filter
        ("60", ["--window", "1e308", "--hop", "0.001"]),  # a window no session fits
    ], ids=["short-session", "huge-window"])
    def test_bad_hop_is_bad_input(self, tmp_path, capsys, duration, argv):
        """A hop below one sample is bad input (exit 1), reported ahead of
        a window or filter longer than the session (exit 2)."""
        session, out = tmp_path / "s", tmp_path / "out"
        assert main(["synth", "--out", str(session), "--duration", duration,
                     "--width", "16", "--height", "16"]) == 0
        capsys.readouterr()
        assert main(["estimate", str(session), "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err == (
            "error: InputError: hop of 0.001 s is below one sample at 30.0 fps\n")


def _short_session(out, *flags):
    """A 20 s 16x16 session rendered by the synth command."""
    assert main(["synth", "--out", str(out), "--duration", "20",
                 "--width", "16", "--height", "16", *flags]) == 0
    return out


class TestPixelContent:
    def test_zero_blue_channel(self, tmp_path, capsys):
        # green reads G alone; chrom and intensity read the zero B plane
        session = _short_session(tmp_path / "s", "--base-color", "170,120,0")
        pixels = np.fromfile(session / "frames.raw", dtype=np.uint8).reshape(-1, 3)
        assert not pixels[:, 2].any() and pixels[:, :2].all()
        out = tmp_path / "green"
        assert main(["estimate", str(session), "--out", str(out),
                     "--combine", "green"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["session_mean_bpm"] == pytest.approx(72.0, abs=0.5)
        capsys.readouterr()
        for method in ("chrom", "intensity"):
            rc = main(["estimate", str(session), "--out", str(tmp_path / method),
                       "--combine", method])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "NonPositiveMeanError" in err

    @pytest.mark.parametrize("level", [128, 255])
    @pytest.mark.parametrize("mono", [False, True], ids=["rgb8", "gray8"])
    def test_constant_frames_have_no_pulse(self, tmp_path, capsys, mono, level):
        session = _short_session(tmp_path / "s", *(["--mono"] if mono else []))
        raw = session / "frames.raw"
        raw.write_bytes(bytes([level]) * raw.stat().st_size)
        out = tmp_path / "est"
        assert main(["estimate", str(session), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "FlatSignalError" in err
        assert not out.exists()
        rep = tmp_path / "rep"
        assert main(["sweep", str(session), "--out", str(rep), "--lengths", "10"]) == 2
        report = rep / f"report_{'nir' if mono else 'rgb'}.json"
        skipped = json.loads(report.read_text())["skipped"]
        assert [(s["window_s"], s["error"].split(":")[0]) for s in skipped] == [
            (None, "FlatSignalError")]


class TestSweepCommand:
    def test_default_monitoring_protocol(self, short_pair, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", *short_pair, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report_rgb.json").read_text())
        assert [d["window_s"] for d in payload["dataset"]] == [
            5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0, 20.0]

    def test_session_protocol(self, short_pair, tmp_path):
        out = tmp_path / "sweep51"
        rc = main(["sweep", *short_pair, "--out", str(out),
                   "--lengths", "5,10,15,20"])
        assert rc == 0
        payload = json.loads((out / "report_rgb.json").read_text())
        assert [d["window_s"] for d in payload["dataset"]] == [
            5.0, 10.0, 15.0, 20.0]

    def test_lengths_override(self, short_pair, tmp_path):
        out = tmp_path / "sweeplen"
        rc = main(["sweep", *short_pair, "--out", str(out),
                   "--lengths", "5,10"])
        assert rc == 0
        payload = json.loads((out / "report_rgb.json").read_text())
        assert [d["window_s"] for d in payload["dataset"]] == [5.0, 10.0]

    def test_rerun_byte_identical(self, short_pair, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["sweep", *short_pair, "--out", str(out),
                       "--lengths", "5,10"])
            assert rc == 0
            outs.append(out)
        for name in ("report_rgb.csv", "report_rgb.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_subcommands_are_synth_estimate_sweep(short_pair, tmp_path, capsys):
    """sweep is the one report command: evaluate is refused as an unknown
    command, exit 1, before anything is written."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["synth", "estimate", "sweep"]
    assert main(["evaluate", *short_pair, "--out", str(tmp_path / "out")]) == 1
    assert "invalid choice: 'evaluate'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_parser_built_once(tmp_path, monkeypatch, capsys):
    """main parses with the one parser built at import: a parser built per
    call would outlive it in reference cycles, for the collector to free."""
    def no_parser():
        raise AssertionError("a parser was built")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    argv = ["estimate", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
    gc.collect()
    gc.disable()  # no collection may run inside the call
    try:
        assert main(argv) == 1
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
    assert capsys.readouterr().err.startswith("error: MissingFileError: manifest not found")


@pytest.mark.parametrize("module", ["facepulse", "facepulse.cli"])
def test_module_entry_point(module, tmp_path):
    """python -m runs main and exits with its code: 0 for a small synth, 1
    with one error line for a missing session, 2 for a session shorter
    than the bandpass filter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    done = run("synth", "--out", "s", "--width", "16", "--height", "16", "--duration", "2")
    assert done.returncode == 0, done.stderr
    done = run("estimate", "missing", "--out", "est")
    assert done.returncode == 1 and done.stderr.count("error:") == 1
    done = run("estimate", "s", "--out", "est", "--window", "2", "--band", "1:4")
    assert done.returncode == 2 and "SignalTooShortError" in done.stderr


def test_os_error_exits_2(tmp_path, monkeypatch, capsys):
    # an OSError that no reader turned into a FacePulseError, such as a
    # full disk while writing, is a processing failure
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "render_session", full_disk)
    assert main(["synth", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
