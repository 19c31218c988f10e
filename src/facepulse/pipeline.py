"""End-to-end session processing: manifest in, heart-rate series out.

Signal conditioning (normalize, detrend, bandpass, combine, fuse) runs
over the full session once; windowing happens afterwards in the spectral
stage.  Short analysis windows therefore stay usable even when they hold
fewer samples than the bandpass filter needs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import MissingFileError
from .frameio import SessionManifest, map_frames, open_session
from .pulse import (DEFAULT_BAND, DEFAULT_DETREND_WINDOW_S, BandLimits,
                    RawTrace, build_pulse_signal, extract_traces)
from .roi import DEFAULT_LAYOUT, RoiLayout, load_box_track
from .spectral import HrSeries, WindowSpec, estimate_series


def default_combine(pixel_format: str) -> str:
    """Chrominance for colour input, plain intensity for mono."""
    return "chrom" if pixel_format == "rgb8" else "intensity"


@dataclass(frozen=True)
class PipelineParams:
    band: BandLimits = DEFAULT_BAND
    combine: str | None = None  # None picks a mode from the pixel format
    detrend_window_s: float = DEFAULT_DETREND_WINDOW_S
    layout: RoiLayout = DEFAULT_LAYOUT

    def combine_for(self, pixel_format: str) -> str:
        return self.combine if self.combine is not None else \
            default_combine(pixel_format)


def load_session_trace(manifest_path: str | os.PathLike,
                       layout: RoiLayout = DEFAULT_LAYOUT,
                       ) -> tuple[SessionManifest, RawTrace]:
    """Map every frame and reduce it to per-region channel means."""
    manifest = open_session(manifest_path)
    if manifest.boxes_path is None:
        raise MissingFileError(
            f"session {manifest_path} has no box track; regions cannot "
            "be placed")
    boxes = load_box_track(manifest.boxes_path, manifest.frame_count)
    trace = extract_traces(map_frames(manifest), boxes, manifest.fps, layout)
    return manifest, trace


def build_session_signal(manifest_path: str | os.PathLike,
                         params: PipelineParams = PipelineParams()):
    """Full conditioning chain; returns (manifest, PulseSignal)."""
    manifest, trace = load_session_trace(manifest_path, params.layout)
    signal = build_pulse_signal(
        trace,
        band=params.band,
        method=params.combine_for(manifest.pixel_format),
        detrend_window=params.detrend_window_s)
    return manifest, signal


def estimate_session(manifest_path: str | os.PathLike,
                     window: WindowSpec,
                     params: PipelineParams = PipelineParams(),
                     ) -> tuple[SessionManifest, HrSeries]:
    """Estimate a heart-rate series for one recorded session."""
    manifest, signal = build_session_signal(manifest_path, params)
    series = estimate_series(signal, window, params.band)
    return manifest, series
