"""Heart-rate estimation from face video.

Frame arrays are reduced to skin-region colour averages, conditioned
into a pulse signal, and windowed into heart-rate estimates; evaluation
scores the estimates against reference measurements session by session
and window by window.
"""

from .errors import FacePulseError, InputError, ProcessingError
from .evaluate import (EvalReport, GroundTruth, align_groundtruth,
                       dataset_aggregate, evaluate_sessions, load_groundtruth,
                       mae, session_id, sub51_error, sub52_mae, write_report_csv,
                       write_report_json)
from .frameio import SessionManifest, map_frames, open_session
from .pipeline import (PipelineParams, build_session_signal, default_combine,
                       estimate_session, load_session_trace)
from .pulse import (DEFAULT_BAND, BandLimits, PulseSignal, RawTrace, bandpass,
                    build_pulse_signal, combine_channels, design_bandpass_taps,
                    detrend, extract_traces, fuse_rois, normalize_segment)
from .roi import DEFAULT_LAYOUT, RoiLayout, load_box_track, place_regions
from .spectral import (HrEstimate, HrSeries, WindowSpec, estimate_series,
                       partition_windows, peak_bpm, periodogram, session_mean)
from .synth import (ConstantProfile, RampProfile, StepProfile, SynthConfig,
                    parse_profile, pulse_phase, render_session)

__version__ = "0.1.0"

__all__ = [
    "FacePulseError", "InputError", "ProcessingError",
    "SessionManifest", "open_session", "map_frames",
    "RoiLayout", "DEFAULT_LAYOUT", "place_regions", "load_box_track",
    "BandLimits", "DEFAULT_BAND", "RawTrace", "PulseSignal",
    "extract_traces", "normalize_segment", "detrend",
    "design_bandpass_taps", "bandpass", "combine_channels", "fuse_rois",
    "build_pulse_signal",
    "WindowSpec", "HrEstimate", "HrSeries", "partition_windows",
    "periodogram", "peak_bpm", "estimate_series", "session_mean",
    "GroundTruth", "load_groundtruth", "align_groundtruth", "mae",
    "session_id", "sub51_error", "sub52_mae", "dataset_aggregate", "evaluate_sessions",
    "EvalReport", "write_report_csv", "write_report_json",
    "PipelineParams", "default_combine", "load_session_trace",
    "build_session_signal", "estimate_session",
    "SynthConfig", "ConstantProfile", "StepProfile", "RampProfile",
    "parse_profile", "pulse_phase", "render_session",
    "__version__",
]
