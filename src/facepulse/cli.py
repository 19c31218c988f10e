"""Command-line front end: synth, estimate, sweep.

Exit codes: 0 success, 1 bad input (missing or malformed files, bad
arguments), 2 processing failure on well-formed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import fields
from itertools import repeat
from pathlib import Path

from .errors import FacePulseError, InputError, ProcessingError
from .evaluate import (PROTOCOL_LENGTHS, align_groundtruth, evaluate_sessions, load_session,
                       write_report_csv, write_report_json)
from .frameio import nearest_existing, open_session, parse_finite, short_text
from .pulse import COMBINE_METHODS, BandLimits, PipelineParams
from .spectral import WindowSpec, estimate_series
from .synth import SynthConfig, parse_profile, render_session

# --window of estimate, in seconds
WINDOW_S = 10.0

# windows per slice of the estimate CSV columns turned into Python floats
WRITE_ROWS = 1024


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with status 2; bad arguments are
    # input errors here and must exit 1.  A bad argument it quotes is cut
    def error(self, message):
        self.print_usage(sys.stderr)
        cut = message.encode()[:160].decode(errors="ignore")
        raise InputError(cut if cut == message else cut + "...")


def _parse_band(text: str) -> BandLimits:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InputError(f"bad band {short_text(text)}; expected LO:HI in Hz")
    return BandLimits(parse_finite(lo, f"bad band {short_text(text)}: LO"),
                      parse_finite(hi, f"bad band {short_text(text)}: HI"))


def _parse_lengths(text: str) -> list[float]:
    return [parse_finite(p, f"bad lengths {short_text(text)}: length")
            for p in text.split(",") if p.strip()]


def _parse_base_color(text: str) -> tuple[float, ...]:
    return tuple(parse_finite(p, f"bad base color {short_text(text)}: component")
                 for p in text.split(","))


def _out_dir(text: str) -> Path:
    """--out as a Path, refused before any work when it, or the nearest
    part of it that exists, is not a directory."""
    nearest_existing(Path(text), "--out")
    return Path(text)


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    manifest = render_session(config, args.out)
    print(f"wrote {manifest.frame_count} {manifest.pixel_format} frames "
          f"({manifest.duration:g} s) to {args.out}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    spec = WindowSpec(length=args.window, hop=args.hop)
    params = PipelineParams(args.band, args.combine)
    params.band.check_two_cycles(spec.length)
    # a malformed groundtruth file is bad input: refused before any frame is read
    session = load_session(open_session(args.session), params)
    series = estimate_series(session.signal, spec)

    aligned = None
    if session.groundtruth is not None:
        try:
            aligned = align_groundtruth(session.groundtruth, series.window_start,
                                        series.window_end)
        except FacePulseError as exc:
            print(f"note: skipping compare.csv: {exc}", file=sys.stderr)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    # one loop writes both files, formatting each bound and bpm once; rows
    # are streamed, not joined, and the columns become Python floats
    # WRITE_ROWS windows at a time: at a 1-frame hop a per-window list or
    # string, or a file-sized string, would raise the op's heap peak
    with open(out / "estimates.csv", "w") as est, \
            (open(out / "compare.csv", "w") if aligned is not None else nullcontext()) as cmp:
        est.write("window_start_s,window_end_s,bpm\n")
        if cmp:
            cmp.write("window_start_s,window_end_s,gt_bpm,est_bpm\n")
        for lo in range(0, len(series), WRITE_ROWS):
            part = slice(lo, lo + WRITE_ROWS)
            for start, end, bpm, gt in zip(
                    series.window_start[part].tolist(), series.window_end[part].tolist(),
                    series.bpm[part].tolist(),
                    repeat(None) if aligned is None else aligned[part].tolist()):
                bounds, bpm = f"{start:g},{end:g}", f"{bpm:.6f}"
                est.write(f"{bounds},{bpm}\n")
                if cmp:
                    cmp.write(f"{bounds},{gt:.6f},{bpm}\n")

    mean_bpm = float(series.bpm.mean())
    summary = {
        "session_mean_bpm": mean_bpm,
        "n_windows": len(series),
        "window_s": args.window,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")

    print(f"session mean {mean_bpm:.2f} bpm over {len(series)} "
          f"windows of {args.window:g} s")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Evaluate the sessions and write report_{channel}.csv and .json."""
    report = evaluate_sessions(args.sessions, args.lengths,
                               params=PipelineParams(args.band, args.combine))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"report_{report.channel}"
    write_report_csv(report, path.with_suffix(".csv"))
    write_report_json(report, path.with_suffix(".json"))
    # the error often names the session's path: the id is quoted short
    for s in report.skipped:
        where = "all lengths" if s.window_s is None else f"T={s.window_s:g}s"
        print(f"note: skipped {short_text(s.session)} ({where}): {s.error}", file=sys.stderr)
    for a in report.aggregates:
        print(f"T={a.window_s:g}s sub51={a.sub51_bpm:.2f} bpm "
              f"sub52={a.sub52_bpm:.2f} bpm (n={a.n_sessions})")
    print(f"report written to {path.with_suffix('.csv')}")
    if not report.rows:
        # bad input alone exits 1; any processing failure makes it 2
        bad_input = all(s.exit_code == InputError.exit_code for s in report.skipped)
        raise (InputError if bad_input else ProcessingError)(
            "no session could be evaluated; see report")
    return 0


def _add_signal_flags(sub: argparse.ArgumentParser) -> None:
    band = PipelineParams.band
    sub.add_argument("--band", type=_parse_band, default=band, metavar="LO:HI",
                     help=f"pulse band in Hz (default {band.f_lo:g}:{band.f_hi:g})")
    sub.add_argument("--combine", choices=COMBINE_METHODS,
                     default=PipelineParams.combine,
                     help="rgb8 channel combination (default %(default)s); green "
                          "reads G only, and gray8 passes its one channel "
                          "through under every method")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="facepulse",
                     description="Heart-rate estimation from face video.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is the SynthConfig field it sets, and its default is
    # that field's; argparse passes non-string defaults through untyped
    p = sub.add_parser("synth", help="render a synthetic session")
    p.add_argument("--out", required=True, type=Path,
                   help="output session directory")
    p.add_argument("--profile", dest="hr_profile", type=parse_profile, metavar="PROFILE",
                   help="constant:BPM, step:A,B,T or ramp:A,B (default "
                        f"constant:{SynthConfig.hr_profile.bpm:g})")
    p.add_argument("--duration", type=float, help="seconds (default %(default)s)")
    p.add_argument("--fps", type=float, help="frames per second (default %(default)s)")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--base-color", type=_parse_base_color, metavar="R,G,B",
                   help="skin base colour (default "
                        + ",".join(f"{c:g}" for c in SynthConfig.base_color) + ")")
    p.add_argument("--amplitude", dest="pulse_amplitude", type=float, metavar="AMPLITUDE",
                   help="fractional pulse amplitude (default %(default)s)")
    p.add_argument("--noise", dest="noise_sigma", type=float, metavar="SIGMA",
                   help="gaussian pixel noise (default %(default)s)")
    p.add_argument("--drift", dest="illum_drift", type=float, metavar="DRIFT",
                   help="illumination drift depth (default %(default)s)")
    p.add_argument("--seed", type=int)
    p.add_argument("--mono", action="store_true",
                   help="render single-channel gray8 frames")
    p.add_argument("--second-harmonic", action="store_true",
                   help="add a 0.3x second harmonic to the pulse wave")
    p.set_defaults(func=cmd_synth, **{f.name: f.default for f in fields(SynthConfig)})

    p = sub.add_parser("estimate", help="estimate heart rate for one session")
    p.add_argument("session", help="session directory or manifest path")
    p.add_argument("--out", required=True, type=_out_dir,
                   help="output directory")
    p.add_argument("--window", default=WINDOW_S, type=float,
                   help="window length in seconds (default %(default)s)")
    p.add_argument("--hop", default=None, type=float,
                   help="window hop in seconds (default: window length)")
    _add_signal_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="evaluate across window lengths")
    p.add_argument("sessions", nargs="+",
                   help="session directories or manifest paths")
    p.add_argument("--out", required=True, type=_out_dir,
                   help="output directory")
    _add_signal_flags(p)
    p.add_argument("--lengths", type=_parse_lengths, default=PROTOCOL_LENGTHS["5.2"],
                   metavar="T1,T2,...",
                   help="window lengths in seconds (default the 5.2 set "
                        + ",".join(f"{t:g}" for t in PROTOCOL_LENGTHS["5.2"]) + ")")
    p.set_defaults(func=cmd_sweep)
    return parser


_PARSER = build_parser()  # once: a parser made per call outlives it in reference cycles


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except FacePulseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
