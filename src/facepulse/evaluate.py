"""Accuracy metrics against reference heart-rate measurements.

Two complementary error protocols over the same windowed estimates:

* session error: one number per session, the absolute gap between the
  mean estimated rate and the mean reference rate,
* monitoring error: mean absolute error across individual windows, which
  penalises estimates that are right on average but wrong in time.

Reference samples are aligned to a window by the half-open rule
start <= t < end and averaged within it.  Dataset figures are unweighted
means across sessions.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (EmptyInputError, EmptySeriesError, EmptyWindowGtError,
                     FacePulseError, InputError, LengthMismatchError,
                     MissingFileError)
from .frameio import parse_finite
from .pipeline import PipelineParams, build_session_signal
from .spectral import HrSeries, WindowSpec, estimate_series, session_mean

# default analysis window lengths (seconds) for the two protocols
SESSION_PROTOCOL_LENGTHS = (5.0, 10.0, 15.0, 20.0)
MONITORING_PROTOCOL_LENGTHS = (5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0, 20.0)
PROTOCOL_LENGTHS = {
    "5.1": SESSION_PROTOCOL_LENGTHS,
    "5.2": MONITORING_PROTOCOL_LENGTHS,
}

# Dataset-level MAE (bpm) reported for this pipeline family on the edBB
# desktop student-monitoring benchmark (25 subjects, RGB and NIR cameras),
# keyed by (channel label, window seconds).  Informational context for
# report readers; not reproducible without that dataset.
REFERENCE_SESSION_MAE = {
    ("rgb", 5.0): 10.15, ("rgb", 10.0): 5.99,
    ("rgb", 15.0): 6.26, ("rgb", 20.0): 6.41,
    ("nir", 5.0): 7.62, ("nir", 10.0): 7.13,
    ("nir", 15.0): 7.08, ("nir", 20.0): 7.40,
}
REFERENCE_WINDOW_MAE = {
    ("rgb", 5.0): 13.45, ("rgb", 7.0): 9.07, ("rgb", 9.0): 8.16,
    ("rgb", 11.0): 8.08, ("rgb", 13.0): 8.09, ("rgb", 15.0): 8.15,
    ("rgb", 17.0): 8.10, ("rgb", 19.0): 8.19, ("rgb", 20.0): 8.15,
    ("nir", 5.0): 10.90, ("nir", 7.0): 10.66, ("nir", 9.0): 10.15,
    ("nir", 11.0): 10.05, ("nir", 13.0): 9.70, ("nir", 15.0): 9.67,
    ("nir", 17.0): 9.53, ("nir", 19.0): 9.63, ("nir", 20.0): 9.55,
}


@dataclass(frozen=True)
class GroundTruth:
    """Reference rate samples: times in seconds, rates in bpm."""

    times: np.ndarray
    bpm: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def load_groundtruth(path: str | os.PathLike) -> GroundTruth:
    """Read a t,bpm CSV (optional header) with strictly increasing times."""
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"groundtruth file not found: {path}")
    times: list[float] = []
    bpm: list[float] = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (row_no == 1 and row[0].strip().lower() == "t"):
                continue
            if len(row) != 2:
                raise InputError(
                    f"{path}:{row_no}: expected 2 columns, got {len(row)}")
            times.append(parse_finite(row[0], f"{path}:{row_no}: time"))
            bpm.append(parse_finite(row[1], f"{path}:{row_no}: bpm"))
    if not times:
        raise InputError(f"groundtruth file {path} has no samples")
    t = np.asarray(times)
    if np.any(np.diff(t) <= 0):
        raise InputError(f"groundtruth times in {path} must be strictly increasing")
    rates = np.asarray(bpm)
    if np.any((rates <= 20) | (rates >= 250)):
        raise InputError(
            f"groundtruth rates in {path} must lie in (20, 250) bpm")
    return GroundTruth(times=t, bpm=rates)


def align_groundtruth(gt: GroundTruth,
                      intervals: list[tuple[float, float]]) -> np.ndarray:
    """Mean reference bpm per [start, end) window.

    Every window must contain at least one sample; windows that do not
    are all collected into one EmptyWindowGtError.
    """
    means = np.empty(len(intervals))
    empty: list[str] = []
    for i, (start, end) in enumerate(intervals):
        mask = (gt.times >= start) & (gt.times < end)
        if not mask.any():
            empty.append(f"[{start:g}, {end:g})")
            continue
        means[i] = float(gt.bpm[mask].mean())
    if empty:
        raise EmptyWindowGtError(
            "windows without groundtruth samples: " + ", ".join(empty))
    return means


def mae(estimates: np.ndarray, reference: np.ndarray) -> float:
    """Mean absolute error between paired rate arrays."""
    estimates = np.asarray(estimates, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if estimates.shape != reference.shape:
        raise LengthMismatchError(
            f"got {estimates.shape[0] if estimates.ndim else 0} estimates "
            f"for {reference.shape[0] if reference.ndim else 0} reference values")
    if estimates.size == 0:
        raise EmptyInputError("no value pairs to compare")
    return float(np.mean(np.abs(estimates - reference)))


def sub51_error(series: HrSeries, gt: GroundTruth) -> float:
    """Session protocol: |mean estimate - mean windowed reference|."""
    aligned = align_groundtruth(gt, series.intervals)
    return abs(session_mean(series) - float(aligned.mean()))


def sub52_mae(series: HrSeries, gt: GroundTruth) -> float:
    """Monitoring protocol: MAE over per-window (estimate, reference) pairs."""
    if not series.estimates:
        raise EmptySeriesError("heart-rate series has no windows")
    aligned = align_groundtruth(gt, series.intervals)
    return mae(series.bpm_values, aligned)


def dataset_aggregate(values: list[float]) -> float:
    """Unweighted mean of per-session errors."""
    if not values:
        raise EmptyInputError("no per-session values to aggregate")
    return float(np.mean(values))


def session_id(manifest_path: str | os.PathLike) -> str:
    path = Path(manifest_path)
    return path.parent.name if path.name == "session.json" else path.stem


@dataclass(frozen=True)
class SessionResult:
    session: str
    window_s: float
    sub51_bpm: float
    sub52_bpm: float
    n_windows: int


@dataclass(frozen=True)
class AggregateResult:
    window_s: float
    sub51_bpm: float
    sub52_bpm: float
    n_sessions: int


@dataclass(frozen=True)
class SkippedSession:
    session: str
    window_s: float | None  # None: the session failed before windowing
    error: str


@dataclass(frozen=True)
class EvalReport:
    channel: str
    rows: tuple[SessionResult, ...]
    aggregates: tuple[AggregateResult, ...]
    skipped: tuple[SkippedSession, ...]

    def reference_mae(self) -> dict[str, dict[str, float]]:
        """Published benchmark figures matching this channel and lengths."""
        lengths = sorted({r.window_s for r in self.rows} |
                         {a.window_s for a in self.aggregates})
        out: dict[str, dict[str, float]] = {"session": {}, "monitoring": {}}
        for t in lengths:
            key = (self.channel, t)
            if key in REFERENCE_SESSION_MAE:
                out["session"][f"{t:g}"] = REFERENCE_SESSION_MAE[key]
            if key in REFERENCE_WINDOW_MAE:
                out["monitoring"][f"{t:g}"] = REFERENCE_WINDOW_MAE[key]
        return {k: v for k, v in out.items() if v}


def evaluate_sessions(manifest_paths: list[str | os.PathLike],
                      lengths: list[float],
                      channel: str = "rgb",
                      params: PipelineParams = PipelineParams(),
                      ) -> EvalReport:
    """Run both protocols over sessions x window lengths.

    The conditioned signal for each session is built once and re-windowed
    per length.  A session that fails to process is recorded and skipped;
    a (session, length) pair that fails (too short, missing reference
    samples) is recorded and left out of that length's aggregate.
    """
    order = sorted(manifest_paths, key=session_id)
    lengths = sorted(set(float(t) for t in lengths))
    if not lengths:
        raise EmptyInputError("no window lengths given")
    rows: list[SessionResult] = []
    skipped: list[SkippedSession] = []
    per_length: dict[float, list[SessionResult]] = {t: [] for t in lengths}

    for manifest_path in order:
        sid = session_id(manifest_path)
        try:
            manifest, signal = build_session_signal(manifest_path, params)
            if manifest.groundtruth_path is None:
                raise MissingFileError(f"session {sid} has no groundtruth file")
            gt = load_groundtruth(manifest.groundtruth_path)
        except FacePulseError as exc:
            skipped.append(SkippedSession(sid, None, _describe(exc)))
            continue
        for t in lengths:
            try:
                series = estimate_series(signal, WindowSpec(length=t),
                                         params.band)
                row = SessionResult(
                    session=sid, window_s=t,
                    sub51_bpm=sub51_error(series, gt),
                    sub52_bpm=sub52_mae(series, gt),
                    n_windows=len(series.estimates))
            except FacePulseError as exc:
                skipped.append(SkippedSession(sid, t, _describe(exc)))
                continue
            rows.append(row)
            per_length[t].append(row)

    aggregates = [
        AggregateResult(
            window_s=t,
            sub51_bpm=dataset_aggregate([r.sub51_bpm for r in results]),
            sub52_bpm=dataset_aggregate([r.sub52_bpm for r in results]),
            n_sessions=len(results))
        for t, results in per_length.items() if results
    ]
    return EvalReport(channel=channel, rows=tuple(rows),
                      aggregates=tuple(aggregates), skipped=tuple(skipped))


def _describe(exc: FacePulseError) -> str:
    return f"{type(exc).__name__}: {exc}"


def write_report_csv(report: EvalReport, path: str | os.PathLike) -> None:
    """Per-session rows, then dataset rows, then skip notes as comments."""
    lines = ["session,channel,window_s,sub51_bpm,sub52_bpm,n_windows"]
    for r in report.rows:
        lines.append(f"{r.session},{report.channel},{r.window_s:g},"
                     f"{r.sub51_bpm:.6f},{r.sub52_bpm:.6f},{r.n_windows}")
    for a in report.aggregates:
        lines.append(f"dataset,{report.channel},{a.window_s:g},"
                     f"{a.sub51_bpm:.6f},{a.sub52_bpm:.6f},{a.n_sessions}")
    for s in report.skipped:
        where = "all" if s.window_s is None else f"{s.window_s:g}"
        lines.append(f"# skipped,{s.session},{where},{s.error}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(report: EvalReport, path: str | os.PathLike) -> None:
    payload = {
        "channel": report.channel,
        "aggregation": "unweighted mean across sessions",
        "sessions": [
            {"session": r.session, "window_s": r.window_s,
             "sub51_bpm": r.sub51_bpm, "sub52_bpm": r.sub52_bpm,
             "n_windows": r.n_windows}
            for r in report.rows
        ],
        "dataset": [
            {"window_s": a.window_s, "sub51_bpm": a.sub51_bpm,
             "sub52_bpm": a.sub52_bpm, "n_sessions": a.n_sessions}
            for a in report.aggregates
        ],
        "skipped": [
            {"session": s.session, "window_s": s.window_s, "error": s.error}
            for s in report.skipped
        ],
    }
    reference = report.reference_mae()
    if reference:
        payload["reference_mae_bpm"] = reference
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
