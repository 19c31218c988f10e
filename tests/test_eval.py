from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from facepulse import (ConstantProfile, GroundTruth, HrEstimate, HrSeries,
                       SynthConfig, WindowSpec, align_groundtruth,
                       dataset_aggregate, evaluate_sessions, load_groundtruth,
                       mae, render_session, session_id, sub51_error, sub52_mae,
                       write_report_csv, write_report_json)
from facepulse.errors import (EmptyInputError, EmptyWindowGtError, InputError,
                              LengthMismatchError, MissingFileError)
from facepulse.evaluate import (MONITORING_PROTOCOL_LENGTHS,
                                REFERENCE_SESSION_MAE, REFERENCE_WINDOW_MAE,
                                SESSION_PROTOCOL_LENGTHS)

from _reference import (ref_aggregate, ref_mae, ref_sub51, ref_sub52,
                        ref_window_means)


def _series(bpms, length=10.0):
    estimates = tuple(
        HrEstimate(i * length, (i + 1) * length, float(b))
        for i, b in enumerate(bpms))
    return HrSeries(estimates=estimates, window_spec=WindowSpec(length))


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_groundtruth(tmp_path / "nope.csv")

    @pytest.mark.parametrize("body", [
        "0.0,70,extra\n",            # wrong column count
        "0.0,abc\n",                 # non-numeric
        "1.0,70\n1.0,72\n",          # times not strictly increasing
        "0.0,70\n1.0,12\n",          # rate at or below 20
        "0.0,70\n1.0,250\n",         # rate at or above 250
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
        assert align_groundtruth(gt, [(0.0, 3.0)]).tolist() == [72.0]

    def test_end_boundary_excluded(self):
        gt = _gt([0.0, 1.0, 2.0, 3.0], [70.0, 72.0, 74.0, 90.0])
        assert align_groundtruth(gt, [(0.0, 3.0)]).tolist() == [72.0]
        assert align_groundtruth(gt, [(0.0, 2.0)]).tolist() == [71.0]

    def test_all_empty_windows_listed(self):
        gt = _gt([0.0], [70.0])
        with pytest.raises(EmptyWindowGtError) as err:
            align_groundtruth(gt, [(0.0, 1.0), (5.0, 10.0), (10.0, 15.0)])
        assert "[5, 10)" in str(err.value)
        assert "[10, 15)" in str(err.value)


class TestMae:
    def test_example(self):
        assert mae(np.array([70.0, 75.0, 80.0]),
                   np.array([72.0, 75.0, 78.0])) == pytest.approx(4.0 / 3.0)
        assert mae(np.array([70.0, 75.0]), np.array([70.0, 75.0])) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(20)
        a, b = rng.uniform(40, 180, 50), rng.uniform(40, 180, 50)
        assert mae(a, b) == mae(b, a)

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            mae(np.zeros(3), np.zeros(4))
        with pytest.raises(EmptyInputError):
            mae(np.array([]), np.array([]))


class TestProtocols:
    def test_worked_example(self):
        series = _series([70.0, 80.0])
        gt = _gt([0.0, 5.0, 10.0, 15.0], [71.0, 73.0, 76.0, 78.0])
        assert sub52_mae(series, gt) == 2.5
        assert sub51_error(series, gt) == 0.5

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
                gt_means = ref_window_means(samples, series.intervals)
            except AssertionError:
                with pytest.raises(EmptyWindowGtError):
                    sub52_mae(series, gt)
                continue
            est = series.bpm_values.tolist()
            assert sub52_mae(series, gt) == pytest.approx(
                ref_sub52(est, gt_means), rel=1e-12)
            assert sub51_error(series, gt) == pytest.approx(
                ref_sub51(est, gt_means), rel=1e-12, abs=1e-12)

    def test_session_error_never_exceeds_monitoring_error(self):
        # |mean a - mean b| <= mean |a - b|
        rng = np.random.default_rng(22)
        for _ in range(200):
            n_win = int(rng.integers(1, 15))
            series = _series(rng.uniform(45, 210, n_win), 5.0)
            gt = _gt(np.arange(0, n_win * 5.0, 1.0),
                     rng.uniform(45, 210, n_win * 5))
            assert sub51_error(series, gt) <= sub52_mae(series, gt) + 1e-12


class TestAggregate:
    def test_mean(self):
        assert dataset_aggregate([8.0, 10.0]) == 9.0

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            dataset_aggregate([])

    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        values = rng.uniform(0, 20, 17).tolist()
        assert dataset_aggregate(values) == pytest.approx(
            ref_aggregate(values), rel=1e-12)
        assert ref_mae([70.0, 75.0, 80.0],
                       [72.0, 75.0, 78.0]) == pytest.approx(4.0 / 3.0)


def test_session_id():
    assert session_id("/data/subj03/session.json") == "subj03"
    assert session_id("/data/recording7.json") == "recording7"


def test_reference_tables_complete():
    # 4 session lengths and 9 monitoring lengths, for each of 2 channels
    assert len(REFERENCE_SESSION_MAE) == 8
    assert len(REFERENCE_WINDOW_MAE) == 18
    assert set(SESSION_PROTOCOL_LENGTHS) == {5.0, 10.0, 15.0, 20.0}
    assert set(MONITORING_PROTOCOL_LENGTHS) == {5.0, 7.0, 9.0, 11.0, 13.0,
                                                15.0, 17.0, 19.0, 20.0}
    assert REFERENCE_SESSION_MAE[("rgb", 10.0)] == 5.99
    assert REFERENCE_SESSION_MAE[("nir", 15.0)] == 7.08
    assert REFERENCE_WINDOW_MAE[("rgb", 5.0)] == 13.45
    assert REFERENCE_WINDOW_MAE[("nir", 13.0)] == 9.70


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
        with pytest.raises(EmptyInputError):
            evaluate_sessions(eval_sessions, [])

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

    def test_deterministic(self, eval_sessions):
        a = evaluate_sessions(eval_sessions, [5.0, 10.0])
        b = evaluate_sessions(eval_sessions, [5.0, 10.0])
        assert a == b


class TestReportFiles:
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

    def test_write_deterministic(self, eval_sessions, tmp_path):
        report = evaluate_sessions(eval_sessions, [5.0])
        for name in ("a", "b"):
            write_report_csv(report, tmp_path / f"{name}.csv")
            write_report_json(report, tmp_path / f"{name}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
