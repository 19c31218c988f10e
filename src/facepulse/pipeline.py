"""End-to-end session processing: opened session in, pulse signal out.

Signal conditioning (normalize, detrend, bandpass, combine, fuse) runs
over the full session once; windowing happens afterwards in the spectral
stage.  Short analysis windows therefore stay usable even when they hold
fewer samples than the bandpass filter needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .frameio import SessionManifest, map_frames
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


def build_session_signal(manifest: SessionManifest,
                         params: PipelineParams = PipelineParams()) -> PulseSignal:
    """Load the box track of a session that frameio.open_session opened,
    map every frame, reduce it to per-region channel means and run the
    full conditioning chain."""
    boxes = load_box_track(manifest.boxes_path, manifest.frame_count)
    trace = extract_traces(map_frames(manifest), boxes, manifest.fps)
    return build_pulse_signal(trace, params.band, params.combine)
