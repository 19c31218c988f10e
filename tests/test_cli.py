from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def short_pair(tmp_path_factory):
    """Two quick 20 s sessions for the report commands."""
    root = tmp_path_factory.mktemp("pair")
    for name, hr in (("s01", "66"), ("s02", "84")):
        rc = main(["synth", "--out", str(root / name), "--duration", "20",
                   "--width", "16", "--height", "16", "--hr", hr])
        assert rc == 0
    return [str(root / "s01"), str(root / "s02")]


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
        rc = main(["synth", "--out", str(tmp_path), "--hr", "500"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "42" in err and "240" in err

    def test_hr_and_profile_conflict(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--hr", "70",
                   "--profile", "ramp:60,90"])
        assert rc == 1
        assert "not both" in capsys.readouterr().err

    def test_step_profile_and_mono(self, tmp_path):
        out = tmp_path / "mono"
        rc = main(["synth", "--out", str(out), "--duration", "4",
                   "--width", "16", "--height", "16", "--mono",
                   "--profile", "step:70,100,2"])
        assert rc == 0
        manifest = json.loads((out / "session.json").read_text())
        assert manifest["pixel_format"] == "gray8"


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
        assert len(_lines(out / "estimates.csv")) == 27  # header + 26 windows

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
    def test_report_files(self, short_pair, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = main(["evaluate", *short_pair, "--out", str(out)])
        assert rc == 0
        assert (out / "report.csv").is_file()
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["sessions"]) == 2
        assert payload["dataset"][0]["n_sessions"] == 2
        for row in payload["sessions"]:
            assert row["sub52_bpm"] <= 1.5
        stdout = capsys.readouterr().out
        assert "T=10s sub51=" in stdout

    def test_channel_label(self, short_pair, tmp_path):
        out = tmp_path / "rep"
        rc = main(["evaluate", *short_pair, "--out", str(out),
                   "--channel", "nir"])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["channel"] == "nir"
        assert "10" in payload["reference_mae_bpm"]["session"]

    def test_all_windows_unscored_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sess"
        main(["synth", "--out", str(out), "--duration", "20",
              "--width", "16", "--height", "16"])
        gt = _lines(out / "groundtruth.csv")
        (out / "groundtruth.csv").write_text("\n".join(gt[:3]) + "\n")
        rep = tmp_path / "rep"
        rc = main(["evaluate", str(out), "--out", str(rep)])
        assert rc == 2
        assert "note: skipped" in capsys.readouterr().err
        # the report is still written, with the skip recorded
        assert any(line.startswith("# skipped,")
                   for line in _lines(rep / "report.csv"))
        assert json.loads((rep / "report.json").read_text())["sessions"] == []


    def test_nan_groundtruth_skips_session(self, cli_session, tmp_path,
                                           capsys):
        session = tmp_path / "sess"
        shutil.copytree(cli_session, session)
        gt = session / "groundtruth.csv"
        gt.write_text(gt.read_text().replace("1.0,72.0", "1.0,nan"))
        rep = tmp_path / "rep"
        rc = main(["evaluate", str(session), "--out", str(rep)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "=nan" not in captured.out
        assert "must be a finite number" in captured.err
        assert json.loads((rep / "report.json").read_text())["dataset"] == []


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
                   "--protocol", "5.1"])
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


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err
