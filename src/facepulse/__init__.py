"""Heart-rate estimation from face video.

Frame arrays are reduced to skin-region colour averages, conditioned
into a pulse signal, and windowed into heart-rate estimates; evaluation
scores the estimates against reference measurements session by session
and window by window.

The names below are the entry points, each checking what it is given
through two helpers, frameio.require_type for a record, a path or a
count and frameio.require_real for a ranged number, so every refusal is
an InputError worded one way; interior functions live in their modules
and rely on those checks.
"""

from .errors import FacePulseError, InputError, ProcessingError
from .evaluate import (EvalReport, GroundTruth, Session, evaluate_sessions,
                       load_groundtruth, load_session, write_report_csv,
                       write_report_json)
from .frameio import open_session
from .pulse import DEFAULT_BAND, BandLimits, PipelineParams, PulseSignal
from .spectral import HrSeries, WindowSpec, estimate_series
from .synth import (ConstantProfile, RampProfile, StepProfile, SynthConfig,
                    parse_profile, render_session)

__version__ = "0.1.0"

__all__ = [
    "FacePulseError", "InputError", "ProcessingError",
    "open_session", "PipelineParams",
    "load_session", "Session",
    "BandLimits", "DEFAULT_BAND", "PulseSignal",
    "WindowSpec", "HrSeries", "estimate_series",
    "GroundTruth", "load_groundtruth", "evaluate_sessions",
    "EvalReport", "write_report_csv", "write_report_json",
    "SynthConfig", "ConstantProfile", "StepProfile", "RampProfile",
    "parse_profile", "render_session",
    "__version__",
]
