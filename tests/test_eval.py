from __future__ import annotations

import csv
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from facepulse import (ConstantProfile, EvalReport, GroundTruth, HrSeries, PipelineParams,
                       SynthConfig, evaluate, evaluate_sessions, load_groundtruth,
                       render_session, write_report_csv, write_report_json)
from facepulse.cli import main
from facepulse.errors import EmptyWindowGtError, InputError, MissingFileError
from facepulse.frameio import map_frames, open_session
from facepulse.evaluate import (CHANNELS, PROTOCOL_LENGTHS, PUBLISHED_MAE,
                                AggregateResult, align_groundtruth, session_id, sub51_error,
                                sub52_mae)

from _reference import (ref_aggregate, ref_mae, ref_sub51, ref_sub52,
                        ref_window_means, ref_window_means_masked)
from test_cli_fuzz import LONG


def _series(bpms, length=10.0):
    starts = np.arange(len(bpms)) * length
    return HrSeries(window_start=starts, window_end=starts + length,
                    bpm=np.asarray(bpms, dtype=np.float64))


def _intervals(series):
    return list(zip(series.window_start.tolist(), series.window_end.tolist()))


def _align(gt, intervals):
    starts, ends = zip(*intervals)
    return align_groundtruth(gt, starts, ends)


def _gt(times, bpm):
    return GroundTruth(times=np.asarray(times, dtype=np.float64),
                       bpm=np.asarray(bpm, dtype=np.float64))


class TestLoadGroundtruth:
    def test_reads_with_and_without_header(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("t,bpm\n0.0,70\n1.0,72\n")
        gt = load_groundtruth(p)
        assert gt.times.tolist() == [0.0, 1.0]
        assert gt.bpm.tolist() == [70.0, 72.0]
        p.write_text("0.0,70\n1.0,72\n")
        assert load_groundtruth(p).bpm.tolist() == [70.0, 72.0]

    def test_rates_just_inside_range_kept(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("0.0,20.5\n1.0,249.5\n")
        assert load_groundtruth(p).bpm.tolist() == [20.5, 249.5]

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_groundtruth(tmp_path / "nope.csv")

    @pytest.mark.parametrize("body", ["\nt,bpm\n0.0,70\n1.0,72\n",
                                      "t,bpm\n0.0,70\n  \n1.0,72\n"],
                             ids=["blank-line-before-header", "whitespace-row"])
    def test_blank_rows_skipped(self, tmp_path, body):
        p = tmp_path / "gt.csv"
        p.write_text(body)
        gt = load_groundtruth(p)
        assert gt.times.tolist() == [0.0, 1.0]
        assert gt.bpm.tolist() == [70.0, 72.0]

    @pytest.mark.parametrize("body", [
        "0.0,70,extra\n",            # wrong column count
        "0.0,abc\n",                 # non-numeric
        "1.0,70\n1.0,72\n",          # times not strictly increasing
        "0.0,70\n1.0,12\n",          # rate at or below 20
        "0.0,70\n1.0,250\n",         # rate at or above 250
        "0.0,70\n1.0,20\n",          # rate at the lower edge
        "t,bpm\n",                   # no samples
        "0.0,70\n1.0,nan\n",         # non-finite rate
        "0.0,inf\n",                 # non-finite rate
        "nan,70\n",                  # non-finite time
    ])
    def test_rejects_malformed(self, tmp_path, body):
        p = tmp_path / "gt.csv"
        p.write_text(body)
        with pytest.raises(InputError):
            load_groundtruth(p)


class TestAlign:
    def test_mean_within_window(self):
        gt = _gt([0.0, 1.0, 2.0], [70.0, 72.0, 74.0])
        assert _align(gt, [(0.0, 3.0)]).tolist() == [72.0]

    def test_end_boundary_excluded(self):
        gt = _gt([0.0, 1.0, 2.0, 3.0], [70.0, 72.0, 74.0, 90.0])
        assert _align(gt, [(0.0, 3.0)]).tolist() == [72.0]
        assert _align(gt, [(0.0, 2.0)]).tolist() == [71.0]

    def test_all_empty_windows_listed(self):
        gt = _gt([0.0], [70.0])
        with pytest.raises(EmptyWindowGtError) as err:
            _align(gt, [(0.0, 1.0), (5.0, 10.0), (10.0, 15.0)])
        assert "[5, 10)" in str(err.value)
        assert "[10, 15)" in str(err.value)


@pytest.mark.parametrize("n_windows", [1, 7, 8, 9, 8701])
@pytest.mark.parametrize("hop", [1, 3, 300])
def test_align_matches_masked_reference(n_windows, hop):
    # windows as estimate_series lays them out: 10 s at 30 fps, hop in
    # samples.  Reference samples are 0.005-0.0055 s apart for about 10 s,
    # 0.005-0.05 s for 20 s and 0.045-0.05 s for 20 s, then 0.1-1.5 s, so a
    # window holds from 6 to about 1900 of them (past numpy's 128-element
    # pairwise block) and neighbouring windows hold different counts; one
    # more window holds a single sample
    fps, win = 30.0, 300
    starts = np.arange(n_windows) * hop / fps
    ends = (np.arange(n_windows) * hop + win) / fps
    rng = np.random.default_rng(n_windows * hop)
    gaps = np.concatenate([rng.uniform(0.005, 0.0055, 1900), rng.uniform(0.005, 0.05, 730),
                           rng.uniform(0.045, 0.05, 420),
                           rng.uniform(0.1, 1.5, int(ends[-1] / 0.1) + 2)])
    times = np.cumsum(gaps)
    times = times[times < ends[-1] + 1.0]
    single = len(times) // 2
    starts = np.append(starts, times[single])
    ends = np.append(ends, times[single + 1])
    gt = _gt(times, rng.uniform(45, 210, len(times)))
    expected = ref_window_means_masked(gt.times, gt.bpm, starts.tolist(),
                                       ends.tolist())
    assert np.array_equal(align_groundtruth(gt, starts, ends), expected)


class TestMae:
    # the monitoring protocol's MAE, given the aligned reference
    def test_example(self):
        assert sub52_mae(_series([70.0, 75.0, 80.0]),
                         np.array([72.0, 75.0, 78.0])) == pytest.approx(4.0 / 3.0)
        assert sub52_mae(_series([70.0, 75.0]), np.array([70.0, 75.0])) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(20)
        a, b = rng.uniform(40, 180, 50), rng.uniform(40, 180, 50)
        assert sub52_mae(_series(a), b) == sub52_mae(_series(b), a)
        assert sub52_mae(_series(a), b) == pytest.approx(
            ref_mae(a.tolist(), b.tolist()), rel=1e-12)


class TestProtocols:
    def test_worked_example(self):
        series = _series([70.0, 80.0])
        gt = _gt([0.0, 5.0, 10.0, 15.0], [71.0, 73.0, 76.0, 78.0])
        aligned = _align(gt, _intervals(series))
        assert aligned.tolist() == [72.0, 77.0]
        assert sub52_mae(series, aligned) == 2.5
        assert sub51_error(series, aligned) == 0.5

    def test_matches_bruteforce_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n_win = int(rng.integers(1, 12))
            length = float(rng.integers(2, 20))
            series = _series(rng.uniform(45, 210, n_win), length)
            times = np.sort(rng.uniform(0, n_win * length, 60))
            times = times[np.diff(times, prepend=-1.0) > 1e-6]
            gt = _gt(times, rng.uniform(45, 210, len(times)))
            samples = list(zip(gt.times.tolist(), gt.bpm.tolist()))
            try:
                gt_means = ref_window_means(samples, _intervals(series))
            except AssertionError:
                with pytest.raises(EmptyWindowGtError):
                    _align(gt, _intervals(series))
                continue
            est = series.bpm.tolist()
            aligned = _align(gt, _intervals(series))
            assert sub52_mae(series, aligned) == pytest.approx(
                ref_sub52(est, gt_means), rel=1e-12)
            assert sub51_error(series, aligned) == pytest.approx(
                ref_sub51(est, gt_means), rel=1e-12, abs=1e-12)

    def test_session_error_never_exceeds_monitoring_error(self):
        # |mean a - mean b| <= mean |a - b|
        rng = np.random.default_rng(22)
        for _ in range(200):
            n_win = int(rng.integers(1, 15))
            series = _series(rng.uniform(45, 210, n_win), 5.0)
            gt = _gt(np.arange(0, n_win * 5.0, 1.0),
                     rng.uniform(45, 210, n_win * 5))
            aligned = _align(gt, _intervals(series))
            assert sub51_error(series, aligned) <= sub52_mae(series, aligned) + 1e-12


class TestAggregate:
    # evaluate_sessions' dataset rows: unweighted means across sessions
    def test_mean(self, eval_sessions, monkeypatch):
        sub51 = iter([8.0, 10.0])
        sub52 = iter([1.0, 4.0])
        monkeypatch.setattr(evaluate, "sub51_error", lambda series, aligned: next(sub51))
        monkeypatch.setattr(evaluate, "sub52_mae", lambda series, aligned: next(sub52))
        (agg,) = evaluate_sessions(eval_sessions, [10.0]).aggregates
        assert (agg.sub51_bpm, agg.sub52_bpm, agg.n_sessions) == (9.0, 2.5, 2)

    def test_matches_reference(self, eval_sessions, monkeypatch):
        values = iter(np.random.default_rng(23).uniform(0, 20, 4).tolist())
        monkeypatch.setattr(evaluate, "sub51_error", lambda series, aligned: next(values))
        report = evaluate_sessions(eval_sessions, [5.0, 10.0])
        for agg in report.aggregates:
            rows = [r.sub51_bpm for r in report.rows if r.window_s == agg.window_s]
            assert agg.sub51_bpm == pytest.approx(ref_aggregate(rows), rel=1e-12)
        assert ref_mae([70.0, 75.0, 80.0],
                       [72.0, 75.0, 78.0]) == pytest.approx(4.0 / 3.0)


def test_session_id(tmp_path, monkeypatch):
    assert session_id("/data/subj03/session.json") == "subj03"
    assert session_id("/data/recording7.json") == "recording7"
    # a directory is named by its whole name, dots and all, as its manifest
    # is, and so is the current directory
    (tmp_path / "s.1").mkdir()
    assert session_id(tmp_path / "s.1") == "s.1"
    assert session_id(str(tmp_path / "s.1" / "session.json")) == "s.1"
    monkeypatch.chdir(tmp_path / "s.1")
    assert [session_id(p) for p in (".", "session.json", "../s.1")] == ["s.1"] * 3


def test_reference_tables_complete():
    # 4 session lengths and 9 monitoring lengths, for each of 2 channels
    assert CHANNELS == ("rgb", "nir")
    assert PROTOCOL_LENGTHS == {
        "5.1": (5.0, 10.0, 15.0, 20.0),
        "5.2": (5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0, 20.0)}
    assert [key for key, _ in PUBLISHED_MAE.values()] == ["session", "monitoring"]
    for protocol, (_, by_channel) in PUBLISHED_MAE.items():
        assert tuple(by_channel) == CHANNELS
        for figures in by_channel.values():
            assert tuple(figures) == PROTOCOL_LENGTHS[protocol]
    session, monitoring = PUBLISHED_MAE["5.1"][1], PUBLISHED_MAE["5.2"][1]
    assert session["rgb"][10.0] == 5.99
    assert session["nir"][15.0] == 7.08
    assert monitoring["rgb"][5.0] == 13.45
    assert monitoring["nir"][13.0] == 9.70


@pytest.fixture(scope="module")
def eval_sessions(tmp_path_factory):
    root = tmp_path_factory.mktemp("evalset")
    paths = []
    for name, bpm in (("hr84", 84.0), ("hr66", 66.0)):
        d = root / name
        d.mkdir()
        render_session(SynthConfig(width=16, height=16, duration=20.0,
                                   hr_profile=ConstantProfile(bpm)), d)
        paths.append(d / "session.json")
    return paths


class TestEvaluateSessions:
    def test_rows_and_aggregates(self, eval_sessions):
        report = evaluate_sessions(eval_sessions, [5.0, 10.0])
        assert [r.session for r in report.rows] == ["hr66", "hr66",
                                                    "hr84", "hr84"]
        assert report.skipped == ()
        by_window = {r.window_s: r.n_windows for r in report.rows
                     if r.session == "hr66"}
        assert by_window == {5.0: 4, 10.0: 2}
        for agg in report.aggregates:
            rows = [r for r in report.rows if r.window_s == agg.window_s]
            assert agg.n_sessions == 2
            assert agg.sub51_bpm == pytest.approx(
                np.mean([r.sub51_bpm for r in rows]), rel=1e-12, abs=1e-15)
            assert agg.sub52_bpm == pytest.approx(
                np.mean([r.sub52_bpm for r in rows]), rel=1e-12, abs=1e-15)

    def test_no_lengths(self, eval_sessions):
        with pytest.raises(InputError, match="no window lengths given"):
            evaluate_sessions(eval_sessions, [])

    def test_unknown_channel_refused(self, eval_sessions):
        # the channel comes from the sessions' pixel format: a label given
        # by position or by name is refused
        with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
            evaluate_sessions(eval_sessions, [10.0], "nir")
        with pytest.raises(TypeError, match="unexpected keyword argument 'channel'"):
            evaluate_sessions(eval_sessions, [10.0], channel="nir")

    def test_channel_from_pixel_format(self, eval_sessions, tmp_path, monkeypatch):
        mono = tmp_path / "mono"
        render_session(SynthConfig(width=16, height=16, duration=20.0, mono=True), mono)
        assert evaluate_sessions(eval_sessions, [10.0]).channel == "rgb"
        # a session that fails to open is skipped, and does not count
        report = evaluate_sessions([mono, tmp_path / "missing"], [10.0])
        assert report.channel == "nir"
        assert [(s.session, s.window_s) for s in report.skipped] == [("missing", None)]
        # a mixed set is refused before any frame is read

        def no_frames(manifest):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(evaluate, "map_frames", no_frames)
        with pytest.raises(InputError, match=re.escape(
                "sessions mix pixel formats: hr66 is rgb8, mono is gray8") + "$"):
            evaluate_sessions([mono, *eval_sessions], [10.0])

    def test_no_session_opens(self, tmp_path):
        # the first session in id order is quoted, once
        message = (f"no session could be opened; MissingFileError: "
                   f"manifest not found: {tmp_path / 'a'}")
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            evaluate_sessions([tmp_path / "b", tmp_path / "a"], [10.0])
        with pytest.raises(InputError, match="^no sessions given$"):
            evaluate_sessions([], [10.0])

    @pytest.mark.parametrize("second", ["s1", "s1/session.json"])
    def test_session_named_twice_refused_before_opening(self, tmp_path, second):
        # none of these paths exists, so the refusal comes before any is opened
        first, other = tmp_path / "a" / "s1", tmp_path / "b" / "s2"
        message = f"session s1 is named twice: {first} and {tmp_path / 'a' / second}"
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            evaluate_sessions([first, other, tmp_path / "a" / second], [10.0])

    @pytest.mark.parametrize("path", ["plain", Path("plain")], ids=["str", "Path"])
    def test_single_path_refused(self, path):
        # not looped over as the characters of a name
        with pytest.raises(InputError, match="list of paths"):
            evaluate_sessions(path, [10.0])

    @pytest.mark.parametrize("lengths, message", [
        (10.0, "lengths must be a list of seconds, not 10.0"),
        ("10", "lengths must be a list of seconds, not '10'"),
        (["x"], "window length must be a real number in (0, inf), not str"),
        ([2.0, 10.0], "window of 2.0 s holds fewer than two cycles at 0.7 Hz"),
    ], ids=["number", "str", "str-length", "short"])
    def test_bad_lengths_refused_before_opening(self, tmp_path, lengths, message):
        # the session does not exist, so the refusal comes before it is opened
        with pytest.raises(InputError, match=re.escape(message)):
            evaluate_sessions([tmp_path / "s1"], lengths)

    def test_dotted_directories_named_whole(self, eval_sessions, tmp_path):
        # a directory's id is its whole name, as its manifest's is: two
        # dotted directories both score, and a directory given with its
        # manifest is refused, quoting both arguments as given
        dirs = [tmp_path / "s.1", tmp_path / "s.2"]
        for path, d in zip(eval_sessions, dirs):
            shutil.copytree(path.parent, d)
        report = evaluate_sessions(dirs, [10.0])
        assert [r.session for r in report.rows] == ["s.1", "s.2"]
        assert report.skipped == ()
        twice = [str(dirs[0]), f"{dirs[0]}/session.json"]
        message = f"session s.1 is named twice: {twice[0]} and {twice[1]}"
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            evaluate_sessions(twice, [10.0])

    def test_over_long_name_skipped_as_missing(self, eval_sessions, tmp_path):
        # a name over the file-name limit fails its lookups with OSError
        report = evaluate_sessions([eval_sessions[0], tmp_path / LONG], [10.0])
        assert [r.session for r in report.rows] == ["hr84"]
        (skip,) = report.skipped
        assert (skip.session, skip.window_s, skip.exit_code) == (LONG, None, 1)
        assert skip.error.startswith("MissingFileError: manifest not found: ")

    def test_overlong_window_skipped_per_length(self, eval_sessions):
        report = evaluate_sessions(eval_sessions, [5.0, 30.0])
        assert {a.window_s for a in report.aggregates} == {5.0}
        assert {(s.session, s.window_s) for s in report.skipped} == {
            ("hr66", 30.0), ("hr84", 30.0)}
        for s in report.skipped:
            assert "SessionTooShort" in s.error

    def test_missing_groundtruth_skips_session(self, eval_sessions, tmp_path):
        d = tmp_path / "nogt"
        d.mkdir()
        render_session(SynthConfig(width=16, height=16, duration=20.0), d)
        (d / "groundtruth.csv").unlink()
        manifest = json.loads((d / "session.json").read_text())
        del manifest["groundtruth"]
        (d / "session.json").write_text(json.dumps(manifest))
        report = evaluate_sessions([*eval_sessions, d / "session.json"], [5.0])
        assert {r.session for r in report.rows} == {"hr66", "hr84"}
        assert len(report.skipped) == 1
        assert report.skipped[0].window_s is None
        assert "groundtruth" in report.skipped[0].error

    def test_each_session_opened_once(self, eval_sessions, tmp_path, monkeypatch):
        """One open per session: a session without groundtruth is skipped
        before any frame is mapped, and the skips keep session id order,
        then length order."""
        nogt = tmp_path / "hr99"
        render_session(SynthConfig(width=16, height=16, duration=20.0), nogt)
        manifest = json.loads((nogt / "session.json").read_text())
        del manifest["groundtruth"]
        (nogt / "session.json").write_text(json.dumps(manifest))
        opened, mapped = [], []

        def counting_open(source):
            opened.append(session_id(source))
            return open_session(source)

        def recording_map(manifest):
            mapped.append(manifest.frames_path.parent.name)
            return map_frames(manifest)

        monkeypatch.setattr(evaluate, "open_session", counting_open)
        monkeypatch.setattr(evaluate, "map_frames", recording_map)
        report = evaluate_sessions([nogt, *eval_sessions, tmp_path / "hr70"], [5.0, 30.0])
        assert sorted(opened) == ["hr66", "hr70", "hr84", "hr99"]
        assert mapped == ["hr66", "hr84"]
        assert [(s.session, s.window_s, s.error.split(":")[0]) for s in report.skipped] == [
            ("hr66", 30.0, "SessionTooShortError"), ("hr70", None, "MissingFileError"),
            ("hr84", 30.0, "SessionTooShortError"), ("hr99", None, "MissingFileError")]
        assert report.skipped[3].error == "MissingFileError: session hr99 has no groundtruth file"

    def test_deterministic(self, eval_sessions):
        a = evaluate_sessions(eval_sessions, [5.0, 10.0])
        b = evaluate_sessions(eval_sessions, [5.0, 10.0])
        assert a == b


@pytest.mark.parametrize("refuse, quoted", [
    (lambda: evaluate_sessions("x" * 3000, [10.0]), "the one path 'x"),
    (lambda: evaluate_sessions(["a"], "y" * 3000), "seconds, not 'y"),
    (lambda: PipelineParams(combine="z" * 3000), "combine method 'z"),
], ids=["sessions", "lengths", "combine"])
def test_refusal_quotes_long_text_short(refuse, quoted):
    """A library refusal quotes a long text it was given in short form:
    its first 32 bytes, the opening quote included."""
    with pytest.raises(InputError) as err:
        refuse()
    message = str(err.value)
    assert quoted + quoted[-1] * 30 + "..." in message
    assert len(message.encode()) < 200


class TestReportFiles:
    def test_library_and_cli_reports_identical(self, eval_sessions, tmp_path, capsys):
        """A session directory, its manifest and the CLI give one report."""
        directory = eval_sessions[0].parent
        outs = [tmp_path / name for name in ("dir", "manifest", "cli")]
        for source, out in zip((str(directory), eval_sessions[0]), outs):
            report = evaluate_sessions([source], [10.0])
            assert (len(report.rows), report.skipped) == (1, ())
            out.mkdir()
            write_report_csv(report, out / "report_rgb.csv")
            write_report_json(report, out / "report_rgb.json")
        assert main(["sweep", str(directory), "--out", str(outs[2]), "--lengths", "10"]) == 0
        for name in ("report_rgb.csv", "report_rgb.json"):
            first, *rest = [(out / name).read_bytes() for out in outs]
            assert rest == [first, first]

    def test_csv_roundtrip(self, eval_sessions, tmp_path):
        report = evaluate_sessions(eval_sessions, [5.0, 10.0])
        out = tmp_path / "report.csv"
        write_report_csv(report, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["session", "channel", "window_s",
                           "sub51_bpm", "sub52_bpm", "n_windows"]
        data = [r for r in rows[1:] if not r[0].startswith("#")]
        assert len(data) == 6  # 4 session rows + 2 dataset rows
        assert [r[0] for r in data[-2:]] == ["dataset", "dataset"]
        first = data[0]
        assert first[1] == "rgb" and first[2] == "5"
        assert float(first[3]) == pytest.approx(report.rows[0].sub51_bpm,
                                                abs=1e-6)

    def test_csv_quotes_ids(self, eval_sessions, tmp_path):
        # a comma, line break or carriage return in a session id stays
        # inside its cell
        names = ["s,1", "n\nx", "a\rb"]
        for path, name in zip(eval_sessions * 2, names):
            shutil.copytree(path.parent, tmp_path / name)
        report = evaluate_sessions([tmp_path / name for name in names], [10.0])
        out = tmp_path / "report.csv"
        write_report_csv(report, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [6] * 5
        assert b"\r\n" not in out.read_bytes()  # rows still end in "\n"
        assert [r[0] for r in rows[1:]] == ["a\rb", "n\nx", "s,1", "dataset"]

    def test_csv_skip_comment(self, eval_sessions, tmp_path):
        report = evaluate_sessions(eval_sessions, [5.0, 30.0])
        out = tmp_path / "report.csv"
        write_report_csv(report, out)
        comments = [line for line in out.read_text().splitlines()
                    if line.startswith("# skipped,")]
        assert len(comments) == 2
        assert any(",hr66,30," in line for line in comments)

    def test_json_mirror(self, eval_sessions, tmp_path):
        report = evaluate_sessions(eval_sessions, [5.0, 10.0])
        out = tmp_path / "report.json"
        write_report_json(report, out)
        payload = json.loads(out.read_text())
        assert payload["channel"] == "rgb"
        assert len(payload["sessions"]) == 4
        assert len(payload["dataset"]) == 2
        assert payload["skipped"] == []
        assert payload["sessions"][0]["sub52_bpm"] == report.rows[0].sub52_bpm
        ref = payload["reference_mae_bpm"]
        assert ref["session"] == {"5": 10.15, "10": 5.99}
        assert ref["monitoring"] == {"5": 13.45}

    def test_int_lengths_reported_as_floats(self, eval_sessions, tmp_path):
        # 10 and 10.0 are one length, written as 10.0
        report = evaluate_sessions(eval_sessions[:1], [10, 5.0, 10.0])
        assert [type(r.window_s) for r in report.rows] == [float, float]
        write_report_json(report, tmp_path / "report.json")
        assert '"window_s": 10.0,' in (tmp_path / "report.json").read_text()

    def test_json_refuses_nan(self, tmp_path):
        # a non-finite figure fails before the file is opened
        report = EvalReport("rgb", (), (AggregateResult(10.0, math.nan, 1.0, 1),), ())
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report_json(report, tmp_path / "report.json")
        assert not (tmp_path / "report.json").exists()

    def test_write_deterministic(self, eval_sessions, tmp_path):
        report = evaluate_sessions(eval_sessions, [5.0])
        for name in ("a", "b"):
            write_report_csv(report, tmp_path / f"{name}.csv")
            write_report_json(report, tmp_path / f"{name}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
