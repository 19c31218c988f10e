"""End-to-end session processing: manifest in, pulse signal out.

Signal conditioning (normalize, detrend, bandpass, combine, fuse) runs
over the full session once; windowing happens afterwards in the spectral
stage.  Short analysis windows therefore stay usable even when they hold
fewer samples than the bandpass filter needs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InputError, MissingFileError
from .frameio import SessionManifest, map_frames, open_session
from .pulse import (COMBINE_METHODS, DEFAULT_BAND, BandLimits, PulseSignal,
                    build_pulse_signal, extract_traces)
from .roi import load_box_track


@dataclass(frozen=True)
class PipelineParams:
    band: BandLimits = DEFAULT_BAND
    combine: str = "chrom"  # a gray8 session's one channel is read by every method

    def __post_init__(self):
        if self.combine not in COMBINE_METHODS:
            raise InputError(f"unknown combine method {self.combine!r}; "
                             f"use one of {COMBINE_METHODS}")


def build_session_signal(manifest_path: str | os.PathLike,
                         params: PipelineParams = PipelineParams(),
                         ) -> tuple[SessionManifest, PulseSignal]:
    """Map every frame, reduce it to per-region channel means and run the
    full conditioning chain; returns (manifest, PulseSignal)."""
    manifest = open_session(manifest_path)
    if manifest.boxes_path is None:
        raise MissingFileError(
            f"session {manifest_path} has no box track; regions cannot "
            "be placed")
    boxes = load_box_track(manifest.boxes_path, manifest.frame_count)
    trace = extract_traces(map_frames(manifest), boxes, manifest.fps)
    return manifest, build_pulse_signal(trace, params.band, params.combine)
