"""Command-line front end: synth, estimate, evaluate, sweep.

Exit codes: 0 success, 1 bad input (missing or malformed files, bad
arguments), 2 processing failure on well-formed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import FacePulseError, InputError, ProcessingError
from .evaluate import (PROTOCOL_LENGTHS, align_groundtruth, evaluate_sessions,
                       load_groundtruth, write_report_csv, write_report_json)
from .pipeline import PipelineParams, estimate_session
from .pulse import COMBINE_METHODS, BandLimits
from .spectral import WindowSpec, session_mean
from .synth import ConstantProfile, SynthConfig, parse_profile, render_session


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with status 2; bad arguments
    # are input errors here and must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _parse_band(text: str) -> BandLimits:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InputError(f"bad band {text!r}; expected LO:HI in Hz")
    try:
        return BandLimits(float(lo), float(hi))
    except ValueError as exc:
        raise InputError(f"bad band {text!r}: {exc}") from exc


def _parse_lengths(text: str) -> list[float]:
    try:
        lengths = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InputError(f"bad lengths {text!r}: {exc}") from exc
    if not lengths or any(t <= 0 for t in lengths):
        raise InputError(f"bad lengths {text!r}; need positive seconds")
    return lengths


def _parse_base_color(text: str) -> tuple[float, float, float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad base color {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise InputError(f"bad base color {text!r}; expected R,G,B")
    return (parts[0], parts[1], parts[2])


def _resolve_manifest(path_text: str) -> Path:
    path = Path(path_text)
    return path / "session.json" if path.is_dir() else path


def _pipeline_params(args: argparse.Namespace) -> PipelineParams:
    return PipelineParams(band=_parse_band(args.band), combine=args.combine)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.hr is not None and args.profile is not None:
        raise InputError("give either --hr or --profile, not both")
    if args.profile is not None:
        profile = parse_profile(args.profile)
    else:
        profile = ConstantProfile(args.hr if args.hr is not None else 72.0)
    config = SynthConfig(
        width=args.width, height=args.height, fps=args.fps,
        duration=args.duration, base_color=_parse_base_color(args.base_color),
        pulse_amplitude=args.amplitude, hr_profile=profile,
        noise_sigma=args.noise, illum_drift=args.drift, seed=args.seed,
        mono=args.mono, second_harmonic=args.second_harmonic)
    manifest = render_session(config, args.out)
    print(f"wrote {manifest.frame_count} {manifest.pixel_format} frames "
          f"({manifest.duration:g} s) to {args.out}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    spec = WindowSpec(length=args.window, hop=args.hop)
    params = _pipeline_params(args)
    manifest_path = _resolve_manifest(args.session)
    manifest, series = estimate_session(manifest_path, spec, params)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["window_start_s,window_end_s,bpm"]
    lines += [f"{e.window_start:g},{e.window_end:g},{e.bpm:.6f}"
              for e in series.estimates]
    (out / "estimates.csv").write_text("\n".join(lines) + "\n")

    mean_bpm = session_mean(series)
    summary = {
        "session_mean_bpm": mean_bpm,
        "n_windows": len(series.estimates),
        "window_s": args.window,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    if manifest.groundtruth_path is not None:
        gt = load_groundtruth(manifest.groundtruth_path)
        try:
            aligned = align_groundtruth(gt, series.intervals)
        except FacePulseError as exc:
            print(f"note: skipping compare.csv: {exc}", file=sys.stderr)
        else:
            rows = ["window_start_s,window_end_s,gt_bpm,est_bpm"]
            rows += [f"{e.window_start:g},{e.window_end:g},{g:.6f},{e.bpm:.6f}"
                     for e, g in zip(series.estimates, aligned)]
            (out / "compare.csv").write_text("\n".join(rows) + "\n")

    print(f"session mean {mean_bpm:.2f} bpm over {len(series.estimates)} "
          f"windows of {args.window:g} s")
    return 0


def _run_report(args: argparse.Namespace, lengths: list[float],
                csv_name: str, json_name: str) -> int:
    manifests = [_resolve_manifest(p) for p in args.sessions]
    report = evaluate_sessions(manifests, lengths, channel=args.channel,
                               params=_pipeline_params(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out / csv_name)
    write_report_json(report, out / json_name)
    for s in report.skipped:
        where = "all lengths" if s.window_s is None else f"T={s.window_s:g}s"
        print(f"note: skipped {s.session} ({where}): {s.error}", file=sys.stderr)
    for a in report.aggregates:
        print(f"T={a.window_s:g}s sub51={a.sub51_bpm:.2f} bpm "
              f"sub52={a.sub52_bpm:.2f} bpm (n={a.n_sessions})")
    print(f"report written to {out / csv_name}")
    if not report.rows:
        raise ProcessingError("no session could be evaluated; see report")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    return _run_report(args, [args.window], "report.csv", "report.json")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.lengths is not None:
        lengths = _parse_lengths(args.lengths)
    else:
        lengths = list(PROTOCOL_LENGTHS[args.protocol])
    return _run_report(args, lengths, f"report_{args.channel}.csv",
                       f"report_{args.channel}.json")


def _add_signal_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--band", default="0.7:4.0", metavar="LO:HI",
                     help="pulse band in Hz (default %(default)s)")
    sub.add_argument("--combine", choices=COMBINE_METHODS, default=None,
                     help="channel combination (default: chrom for rgb8, "
                          "intensity for gray8)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="facepulse",
                     description="Heart-rate estimation from face video.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="render a synthetic session")
    p.add_argument("--out", required=True, help="output session directory")
    p.add_argument("--hr", type=float, default=None,
                   help="constant heart rate in bpm (default 72)")
    p.add_argument("--profile", default=None,
                   help="constant:BPM, step:A,B,T or ramp:A,B")
    p.add_argument("--duration", type=float, default=60.0,
                   help="seconds (default %(default)s)")
    p.add_argument("--fps", type=float, default=30.0,
                   help="frames per second (default %(default)s)")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--base-color", default="170,120,100", metavar="R,G,B",
                   help="skin base colour (default %(default)s)")
    p.add_argument("--amplitude", type=float, default=0.02,
                   help="fractional pulse amplitude (default %(default)s)")
    p.add_argument("--noise", type=float, default=0.0, metavar="SIGMA",
                   help="gaussian pixel noise (default %(default)s)")
    p.add_argument("--drift", type=float, default=0.0,
                   help="illumination drift depth (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mono", action="store_true",
                   help="render single-channel gray8 frames")
    p.add_argument("--second-harmonic", action="store_true",
                   help="add a 0.3x second harmonic to the pulse wave")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("estimate", help="estimate heart rate for one session")
    p.add_argument("session", help="session directory or manifest path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--window", type=float, default=10.0,
                   help="window length in seconds (default %(default)s)")
    p.add_argument("--hop", type=float, default=None,
                   help="window hop in seconds (default: window length)")
    _add_signal_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate",
                       help="score sessions against their groundtruth")
    p.add_argument("sessions", nargs="+",
                   help="session directories or manifest paths")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--window", type=float, default=10.0,
                   help="window length in seconds (default %(default)s)")
    p.add_argument("--channel", choices=("rgb", "nir"), default="rgb",
                   help="channel label for the report (default %(default)s)")
    _add_signal_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate across window lengths")
    p.add_argument("sessions", nargs="+",
                   help="session directories or manifest paths")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--protocol", choices=sorted(PROTOCOL_LENGTHS),
                   default="5.2",
                   help="default length set to sweep (default %(default)s)")
    p.add_argument("--lengths", default=None, metavar="T1,T2,...",
                   help="explicit window lengths in seconds, overriding "
                        "--protocol")
    p.add_argument("--channel", choices=("rgb", "nir"), default="rgb",
                   help="channel label for the report (default %(default)s)")
    _add_signal_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FacePulseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
