"""Session loading and accuracy metrics against reference heart-rate
measurements.

load_session is the one path from an opened session to its pulse
signal: it loads the groundtruth its manifest names and maps, reduces
and conditions its frames.  Two complementary error protocols then
score the same windowed estimates:

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
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyWindowGtError, FacePulseError, InputError, MissingFileError
from .frameio import (SessionManifest, as_path, map_frames, open_session, parse_finite,
                      read_csv_rows, require_type, session_id, short_text)
from .pulse import PipelineParams, PulseSignal, build_pulse_signal, design_bandpass_taps, extract_traces
from .roi import load_box_track, place_regions
from .spectral import HrSeries, WindowSpec, estimate_series, partition_windows

# Dataset-level MAE (bpm) published for this pipeline family on the edBB
# desktop student-monitoring benchmark (25 subjects, RGB and NIR cameras),
# per protocol, with its report.json key, then per channel label and
# window seconds.  Informational context for report readers; not
# reproducible without that dataset.  The protocols' window lengths and
# the report channel labels are this table's keys.
PUBLISHED_MAE = {
    "5.1": ("session", {
        "rgb": {5.0: 10.15, 10.0: 5.99, 15.0: 6.26, 20.0: 6.41},
        "nir": {5.0: 7.62, 10.0: 7.13, 15.0: 7.08, 20.0: 7.40},
    }),
    "5.2": ("monitoring", {
        "rgb": {5.0: 13.45, 7.0: 9.07, 9.0: 8.16, 11.0: 8.08, 13.0: 8.09,
                15.0: 8.15, 17.0: 8.10, 19.0: 8.19, 20.0: 8.15},
        "nir": {5.0: 10.90, 7.0: 10.66, 9.0: 10.15, 11.0: 10.05, 13.0: 9.70,
                15.0: 9.67, 17.0: 9.53, 19.0: 9.63, 20.0: 9.55},
    }),
}
CHANNELS = tuple(PUBLISHED_MAE["5.1"][1])
# The channel label of each pixel format, which picks a report's
# published figures: gray8 stands in for the near-infrared camera.
CHANNEL_OF_FORMAT = {"rgb8": "rgb", "gray8": "nir"}
PROTOCOL_LENGTHS = {protocol: tuple(by_channel[CHANNELS[0]])
                    for protocol, (_, by_channel) in PUBLISHED_MAE.items()}

# windows per slice of align_groundtruth's gathered reference samples
# and of the estimate CSV columns turned into Python floats
WRITE_ROWS = 1024


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Reference rate samples: times in seconds, rates in bpm."""

    times: np.ndarray
    bpm: np.ndarray


def load_groundtruth(path: str | os.PathLike) -> GroundTruth:
    """Read a t,bpm CSV (optional header) with strictly increasing times."""
    path = as_path(path, "groundtruth path")
    rows = [(parse_finite(t, f"{path}:{line}: time"), parse_finite(bpm, f"{path}:{line}: bpm"))
            for line, (t, bpm) in read_csv_rows(path, "groundtruth file", "t", 2)]
    if not rows:
        raise InputError(f"groundtruth file {path} has no samples")
    t, rates = map(np.array, zip(*rows))
    if np.any(np.diff(t) <= 0):
        raise InputError(f"groundtruth times in {path} must be strictly increasing")
    if np.any((rates <= 20) | (rates >= 250)):
        raise InputError(f"groundtruth rates in {path} must lie in (20, 250) bpm")
    return GroundTruth(times=t, bpm=rates)


def align_groundtruth(gt: GroundTruth, starts: np.ndarray,
                      ends: np.ndarray) -> np.ndarray:
    """Mean reference bpm per [start, end) window.

    gt.times must increase strictly, as load_groundtruth guarantees.
    Every window must contain at least one sample; windows that do not
    are counted in one EmptyWindowGtError naming the first and the last.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    lo = np.searchsorted(gt.times, starts, side="left")
    hi = np.searchsorted(gt.times, ends, side="left")
    empty = hi <= lo
    if empty.any():
        first, last = (f"[{starts[i]:g}, {ends[i]:g})"
                       for i in np.flatnonzero(empty)[[0, -1]].tolist())
        raise EmptyWindowGtError(f"{int(empty.sum())} of {len(starts)} windows without "
                                 f"groundtruth samples, from {first} to {last}")
    # windows of equal sample count c are gathered into (k, c) rows,
    # WRITE_ROWS windows at a time, and averaged along the contiguous last
    # axis, which sums each row pairwise as gt.bpm[a:b].mean() does; a
    # cumulative sum or reduceat would round differently
    counts = hi - lo
    aligned = np.empty(len(lo))
    for c in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == c)
        for rows in (sel[i:i + WRITE_ROWS] for i in range(0, len(sel), WRITE_ROWS)):
            aligned[rows] = sliding_window_view(gt.bpm, c)[lo[rows]].mean(axis=-1)
    return aligned


def sub51_error(series: HrSeries, aligned: np.ndarray) -> float:
    """Session protocol: |mean estimate - mean windowed reference|, given
    the series' aligned reference from align_groundtruth."""
    return abs(float(series.bpm.mean()) - float(aligned.mean()))


def sub52_mae(series: HrSeries, aligned: np.ndarray) -> float:
    """Monitoring protocol: MAE over per-window (estimate, reference)
    pairs, given the series' aligned reference from align_groundtruth."""
    return float(np.mean(np.abs(series.bpm - aligned)))


@dataclass(frozen=True, eq=False)
class Session:
    """What estimate and evaluate read of one session: its reference
    samples (None when the manifest names none) and its pulse signal."""

    groundtruth: GroundTruth | None
    signal: PulseSignal


def load_session(manifest: SessionManifest, params: PipelineParams = PipelineParams(),
                 spec: WindowSpec | None = None) -> Session:
    """Load the groundtruth a session's manifest names, if any, and build
    its pulse signal, in that order: a manifest that is not the
    SessionManifest open_session returns, a malformed groundtruth, a bad
    box track, a band whose upper edge is not below the session's Nyquist
    frequency, given a spec, a hop below one sample or a session shorter
    than one window, and a session shorter than the bandpass filter are
    refused before any frame is read.

    The signal is built by loading the box track, placing the regions in
    every frame, mapping the frames, reducing them to per-region channel
    means and running the conditioning chain over the whole session.
    Windowing comes afterwards, in the spectral stage, so windows shorter
    than the bandpass filter stay usable.
    """
    require_type(params, PipelineParams, "params")
    require_type(manifest, SessionManifest, "session")
    gt = None if manifest.groundtruth_path is None else load_groundtruth(manifest.groundtruth_path)
    # the float track is dropped once the regions are placed, and the
    # rects once the frames are reduced: conditioning holds only the means
    rects, valid = place_regions(load_box_track(manifest.boxes_path, manifest.frame_count),
                                 manifest.width, manifest.height)
    params.band.check_below_nyquist(manifest.fps)
    if spec is not None:
        partition_windows(manifest.frame_count, manifest.fps, require_type(spec, WindowSpec, "spec"))
    design_bandpass_taps(manifest.fps, manifest.frame_count, params.band)
    values = extract_traces(map_frames(manifest), rects, valid)
    del rects
    return Session(gt, build_pulse_signal(values, manifest.fps, params.band,
                                          params.combine))


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
    exit_code: int  # of the error; kept out of the reports


@dataclass(frozen=True)
class EvalReport:
    channel: str
    rows: tuple[SessionResult, ...]
    aggregates: tuple[AggregateResult, ...]
    skipped: tuple[SkippedSession, ...]


def evaluate_sessions(sessions: list[str | os.PathLike],
                      lengths: list[float], *,
                      params: PipelineParams = PipelineParams(),
                      ) -> EvalReport:
    """Run both protocols over sessions x window lengths.

    Sessions are a list of directories or manifest paths, and lengths a
    list of seconds.  A single path or string in place of either list,
    no sessions, two paths that share a session_id, no lengths, a length
    that is not a number, not positive and finite, or shorter than two
    cycles of the band's lower edge raise InputError before any session
    is opened.  Every session is then opened once, which reads no frame:
    the report's channel is CHANNEL_OF_FORMAT of the pixel format of
    those that open, and InputError is raised when none opens, quoting
    the first one's error, or when they mix formats, naming one of each.
    Each manifest that names a groundtruth goes to load_session, and its
    conditioned signal is built once and re-windowed per length.
    A session that fails to open or load, or has no groundtruth, is
    recorded and skipped; a (session, length) pair that fails (too short,
    missing reference samples) is recorded and left out of that length's
    aggregate.
    """
    require_type(params, PipelineParams, "params")
    if isinstance(sessions, (str, os.PathLike)):
        raise InputError("sessions must be a list of paths, not the one path "
                         + short_text(sessions))
    order = sorted(((session_id(p), p) for p in sessions), key=lambda named: named[0])
    for (sid, a), (other, b) in zip(order, order[1:]):
        if sid == other:
            raise InputError(f"session {sid} is named twice: {a} and {b}")
    if not order:
        raise InputError("no sessions given")
    if isinstance(lengths, (str, bytes)) or not np.iterable(lengths):
        raise InputError(f"lengths must be a list of seconds, not {short_text(lengths)}")
    specs = sorted({WindowSpec(length=t) for t in lengths}, key=lambda spec: spec.length)
    if not specs:
        raise InputError("no window lengths given")
    params.band.check_two_cycles(specs[0].length)  # the shortest
    first = {}  # pixel format -> the id of its first session
    kept, skipped = [], []  # the (id, manifest) pairs to load; SkippedSessions
    for sid, source in order:
        try:
            manifest = open_session(source)
            first.setdefault(manifest.pixel_format, sid)
            if manifest.groundtruth_path is None:
                raise MissingFileError(f"session {sid} has no groundtruth file")
            kept.append((sid, manifest))
        except FacePulseError as exc:
            skipped.append(_skip(sid, None, exc))
    if not first:
        raise InputError(f"no session could be opened; {skipped[0].error}")
    if len(first) > 1:
        raise InputError("sessions mix pixel formats: " + ", ".join(
            f"{sid} is {fmt}" for fmt, sid in first.items()))
    channel = CHANNEL_OF_FORMAT[next(iter(first))]
    rows: list[SessionResult] = []

    for sid, manifest in kept:
        try:
            session = load_session(manifest, params)
        except FacePulseError as exc:
            skipped.append(_skip(sid, None, exc))
            continue
        for spec in specs:
            try:
                series = estimate_series(session.signal, spec)
                aligned = align_groundtruth(session.groundtruth, series.window_start,
                                            series.window_end)
                rows.append(SessionResult(
                    session=sid, window_s=spec.length,
                    sub51_bpm=sub51_error(series, aligned),
                    sub52_bpm=sub52_mae(series, aligned),
                    n_windows=len(series)))
            except FacePulseError as exc:
                skipped.append(_skip(sid, spec.length, exc))
    skipped.sort(key=lambda s: s.session)  # stable: each session's lengths stay in order

    by_length = ([r for r in rows if r.window_s == spec.length] for spec in specs)
    aggregates = [
        AggregateResult(
            window_s=results[0].window_s,
            sub51_bpm=float(np.mean([r.sub51_bpm for r in results])),
            sub52_bpm=float(np.mean([r.sub52_bpm for r in results])),
            n_sessions=len(results))
        for results in by_length if results
    ]
    return EvalReport(channel=channel, rows=tuple(rows),
                      aggregates=tuple(aggregates), skipped=tuple(skipped))


def _skip(sid: str, window_s: float | None, exc: FacePulseError) -> SkippedSession:
    return SkippedSession(sid, window_s, f"{type(exc).__name__}: {exc}",
                          exc.exit_code)


def write_report_csv(report: EvalReport, path: str | os.PathLike) -> None:
    """Per-session rows, then dataset rows, then skip notes as comments.
    Cells holding a comma, a quote, a newline or a carriage return are
    quoted."""
    require_type(report, EvalReport, "report")
    with open(as_path(path, "report path"), "w", newline="") as fh:
        # csv quotes a cell holding a character of its line terminator:
        # rows formed with "\r\n" quote a bare "\r" too, and end in "\n"
        out = csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")),
                         lineterminator="\r\n")
        out.writerow(["session", "channel", "window_s", "sub51_bpm", "sub52_bpm", "n_windows"])
        for r in report.rows:
            out.writerow([r.session, report.channel, f"{r.window_s:g}",
                          f"{r.sub51_bpm:.6f}", f"{r.sub52_bpm:.6f}", r.n_windows])
        for a in report.aggregates:
            out.writerow(["dataset", report.channel, f"{a.window_s:g}",
                          f"{a.sub51_bpm:.6f}", f"{a.sub52_bpm:.6f}", a.n_sessions])
        for s in report.skipped:
            where = "all" if s.window_s is None else f"{s.window_s:g}"
            out.writerow(["# skipped", s.session, where, s.error])


def write_report_json(report: EvalReport, path: str | os.PathLike) -> None:
    require_type(report, EvalReport, "report")
    path = as_path(path, "report path")
    payload = {
        "channel": report.channel,
        "aggregation": "unweighted mean across sessions",
        "sessions": [asdict(r) for r in report.rows],
        "dataset": [asdict(a) for a in report.aggregates],
        "skipped": [
            {"session": s.session, "window_s": s.window_s, "error": s.error}
            for s in report.skipped
        ],
    }
    # the published figures for this channel at the lengths scored
    scored = {a.window_s for a in report.aggregates}
    reference = {}
    for key, by_channel in PUBLISHED_MAE.values():
        figures = {f"{t:g}": mae for t, mae in by_channel[report.channel].items()
                   if t in scored}
        if figures:
            reference[key] = figures
    if reference:
        payload["reference_mae_bpm"] = reference
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
