"""Layer-boundary tracing, installed from outside the program.

The tracer replaces public facepulse functions with thin wrappers that
record ``perf_counter`` spans (name, start, end, parent).  Every module
namespace that holds a reference to the same function object is patched,
so calls through ``from .x import f`` bindings are seen too.  Functions
called once per frame are kept as a count plus total and self time
instead of one span record each, which keeps the tracing overhead small.

A target that does not exist in the program is reported as unmeasured;
the run goes on without it.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "facepulse"

# (layer, "module:attribute", per_frame, result counter)
# The result counter, when given, is applied to each return value and
# summed, e.g. the number of windows in an HrSeries.
TARGETS: list[tuple[str, str, bool, Callable | None]] = [
    ("frameio", "frameio:open_session", False, None),
    ("frameio", "frameio:FrameStream.next_frame", True,
     lambda frame: frame is not None),
    ("roi", "roi:load_box_track", False, None),
    ("roi", "roi:derive_rois", True, None),
    ("pulse", "pulse:extract_traces", False, None),
    ("pulse", "pulse:spatial_mean", True, None),
    ("pulse", "pulse:build_pulse_signal", False, None),
    ("spectral", "spectral:estimate_series", False, len),
    ("evaluate", "evaluate:load_groundtruth", False, None),
    ("evaluate", "evaluate:align_groundtruth", False, None),
    ("pipeline", "pipeline:load_session_trace", False, None),
    ("pipeline", "pipeline:build_session_signal", False, None),
    ("pipeline", "pipeline:estimate_session", False, None),
    ("cli", "cli:cmd_estimate", False, None),
]

_STATIC, _DENSE = "estimate_rgb_static", "estimate_dense_hop"
_INGEST = ("frames_per_s", f"{_STATIC} / {_DENSE}")
_TRACKED = ("frames_per_s", f"{_DENSE} / {_STATIC}")
_WINDOWS = ("op_s_p50", f"{_DENSE} / {_STATIC}")

# Per-layer metric -> (unit, what it wraps, the end-to-end metric it
# should move, workload where it is mostly / barely exercised).
LAYER_METRICS: dict[str, tuple[str, str, str, str]] = {
    "frameio.open_s": ("s", "open_session", "op_s_p50", "both / -"),
    "frameio.read_s": ("s", "FrameStream.next_frame", *_INGEST),
    "frameio.frames_read": ("count", "FrameStream.next_frame", *_INGEST),
    "frameio.bytes_read": ("bytes", "frames_read x frame bytes", *_INGEST),
    "frameio.read_mb_per_s": ("MB/s", "bytes_read / read_s", *_INGEST),
    "roi.track_s": ("s", "load_box_track", "op_s_p50",
                    f"{_DENSE} / {_STATIC}"),
    "roi.place_s": ("s", "derive_rois", *_TRACKED),
    "roi.place_calls": ("count", "derive_rois", *_TRACKED),
    "roi.degenerate_frames": ("count", "derive_rois raising", *_TRACKED),
    "roi.valid_ratio": ("ratio", "1 - degenerate / place_calls", *_TRACKED),
    "pulse.trace_s": ("s", "extract_traces", *_INGEST),
    "pulse.reduce_self_s": ("s", "extract_traces self time", *_INGEST),
    "pulse.spatial_mean_s": ("s", "spatial_mean", *_INGEST),
    "pulse.spatial_mean_calls": ("count", "spatial_mean", *_INGEST),
    "pulse.condition_s": ("s", "build_pulse_signal", "op_s_p50",
                          "- / both (predicted under 2%)"),
    "spectral.estimate_s": ("s", "estimate_series", *_WINDOWS),
    "spectral.windows": ("count", "estimate_series result", *_WINDOWS),
    "spectral.us_per_window": ("us", "estimate_s / windows", *_WINDOWS),
    "evaluate.gt_load_s": ("s", "load_groundtruth", *_WINDOWS),
    "evaluate.align_s": ("s", "align_groundtruth", *_WINDOWS),
    "pipeline.self_s": ("s", "pipeline functions' self time", "op_s_p50",
                        "- / both"),
    "cli.self_s": ("s", "cmd_estimate self time (output writing)",
                   *_WINDOWS),
    "synth.render_s": ("s", "render_session, timed in set-up", "setup_s",
                       "both / -"),
    "trace.overhead_s": ("s", "traced minus untraced op_s_p50", "-", "both"),
    "trace.coverage": ("ratio", "share of the op inside layer spans", "-",
                       "both"),
}


@dataclass
class Stat:
    """Aggregate of every call to one wrapped function."""

    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    counted: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class _Open:
    """A call in progress on the tracer's stack."""

    record: int | None  # index into Tracer.spans, None for per-frame calls
    child_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans for the functions named in ``targets``.

    Use as ``install()`` ... ``uninstall()``; between those, ``reset()``
    starts a fresh op, and ``run_span(name, fn)`` records the caller's
    own root span around one op.
    """

    targets: list = field(default_factory=lambda: list(TARGETS))
    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    layer_of: dict[str, str] = field(default_factory=dict)
    unmeasured: list[str] = field(default_factory=list)
    _stack: list[_Open] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        self.unmeasured.clear()
        for layer, target, per_frame, counter in self.targets:
            module_name, _, attr_path = target.partition(":")
            name = attr_path.rsplit(".", 1)[-1]
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner, original = module, module
                for part in attr_path.split("."):
                    owner, original = original, getattr(original, part)
            except (ImportError, AttributeError):
                self.unmeasured.append(target)
                continue
            self.layer_of[name] = layer
            wrapper = self._wrap(name, original, per_frame, counter)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or
                                       mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner: object, key: str, wrapper: object) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn: Callable, per_frame: bool,
              counter: Callable | None) -> Callable:
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat = stats.get(name)
            if stat is None:
                stat = stats[name] = Stat()
            record = None
            start = clock()
            if not per_frame:
                parent = stack[-1].record if stack else None
                record = len(spans)
                spans.append(Span(name, start, start, parent))
            entry = _Open(record)
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            else:
                if counter is not None:
                    stat.counted += counter(result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.child_s += entry.child_s
                if stack:
                    stack[-1].child_s += elapsed
                if record is not None:
                    spans[record].end = end

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-op use ---------------------------------------------------
    def reset(self) -> None:
        self.stats.clear()
        self.spans.clear()
        self._stack.clear()

    def run_span(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside a root span recorded as ``name``."""
        return self._wrap(name, fn, False, None)(*args)

    def get(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, summed over every wrapped function."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = self.layer_of.get(name)
            if layer is not None:
                out[layer] = out.get(layer, 0.0) + stat.self_s
        return out


def op_metrics(tracer: Tracer, op_name: str, frame_bytes: int
               ) -> dict[str, float]:
    """Per-layer figures for the op just traced under root span op_name."""
    g = tracer.get
    op = g(op_name)
    read = g("next_frame")
    frames_read = read.counted
    bytes_read = frames_read * frame_bytes
    place = g("derive_rois")
    windows = g("estimate_series").counted
    spectral_s = g("estimate_series").total_s
    layer_s = sum(tracer.layer_self_s().values())
    return {
        "frameio.open_s": g("open_session").total_s,
        "frameio.read_s": read.total_s,
        "frameio.frames_read": frames_read,
        "frameio.bytes_read": bytes_read,
        "frameio.read_mb_per_s":
            bytes_read / read.total_s / 1e6 if read.total_s > 0 else 0.0,
        "roi.track_s": g("load_box_track").total_s,
        "roi.place_s": place.total_s,
        "roi.place_calls": place.calls,
        "roi.degenerate_frames": place.errors,
        "roi.valid_ratio":
            1.0 - place.errors / place.calls if place.calls else 0.0,
        "pulse.trace_s": g("extract_traces").total_s,
        "pulse.reduce_self_s": g("extract_traces").self_s,
        "pulse.spatial_mean_s": g("spatial_mean").total_s,
        "pulse.spatial_mean_calls": g("spatial_mean").calls,
        "pulse.condition_s": g("build_pulse_signal").total_s,
        "spectral.estimate_s": spectral_s,
        "spectral.windows": windows,
        "spectral.us_per_window":
            spectral_s / windows * 1e6 if windows else 0.0,
        "evaluate.gt_load_s": g("load_groundtruth").total_s,
        "evaluate.align_s": g("align_groundtruth").total_s,
        "pipeline.self_s": tracer.layer_self_s().get("pipeline", 0.0),
        "cli.self_s": g("cmd_estimate").self_s,
        "trace.coverage": layer_s / op.total_s if op.total_s > 0 else 0.0,
    }
