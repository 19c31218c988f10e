"""Synthetic session generator with a known embedded pulse.

Renders frame files, a box track, and 1 Hz groundtruth in exactly the
formats the ingest and evaluation modules consume, so the whole
estimation chain can be verified against a configurable truth: constant,
step, or ramp heart-rate profiles, optional pixel noise and slow
illumination drift.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .frameio import SessionManifest, open_session

# validity range for configured heart rates, matching the default pulse band
BPM_MIN = 42.0
BPM_MAX = 240.0

# fixed frequency of the slow illumination drift; safely below the pulse band
DRIFT_FREQ_HZ = 0.1

# red/blue fractional modulation relative to the green depth
RED_DEPTH = 0.5
BLUE_DEPTH = 0.3

SECOND_HARMONIC_DEPTH = 0.3

MANIFEST_NAME = "session.json"
FRAMES_NAME = "frames.raw"
BOXES_NAME = "boxes.csv"
GROUNDTRUTH_NAME = "groundtruth.csv"


def _check_bpm(value: float, what: str) -> float:
    if not BPM_MIN < value < BPM_MAX:
        raise InputError(
            f"{what} {value} out of range; heart rate must lie in "
            f"({BPM_MIN:g}, {BPM_MAX:g}) bpm")
    return float(value)


@dataclass(frozen=True)
class ConstantProfile:
    bpm: float

    def __post_init__(self):
        _check_bpm(self.bpm, "constant profile bpm")

    def bpm_at(self, t: float, duration: float) -> float:
        return self.bpm

    def cycles_at(self, t: float, duration: float) -> float:
        return self.bpm / 60.0 * t


@dataclass(frozen=True)
class StepProfile:
    bpm_a: float
    bpm_b: float
    t_switch: float

    def __post_init__(self):
        _check_bpm(self.bpm_a, "step profile first bpm")
        _check_bpm(self.bpm_b, "step profile second bpm")
        if self.t_switch <= 0:
            raise InputError(f"step switch time must be positive, got {self.t_switch}")

    def bpm_at(self, t: float, duration: float) -> float:
        return self.bpm_a if t < self.t_switch else self.bpm_b

    def cycles_at(self, t: float, duration: float) -> float:
        before = min(t, self.t_switch)
        after = max(0.0, t - self.t_switch)
        return (self.bpm_a * before + self.bpm_b * after) / 60.0


@dataclass(frozen=True)
class RampProfile:
    bpm_a: float
    bpm_b: float

    def __post_init__(self):
        _check_bpm(self.bpm_a, "ramp profile start bpm")
        _check_bpm(self.bpm_b, "ramp profile end bpm")

    def bpm_at(self, t: float, duration: float) -> float:
        return self.bpm_a + (self.bpm_b - self.bpm_a) * t / duration

    def cycles_at(self, t: float, duration: float) -> float:
        return (self.bpm_a * t + (self.bpm_b - self.bpm_a) * t * t / (2.0 * duration)) / 60.0


HrProfile = ConstantProfile | StepProfile | RampProfile


def pulse_phase(t: float, profile: HrProfile, duration: float) -> float:
    """Pulse phase in radians: 2*pi times the heart-rate integral up to t."""
    return 2.0 * math.pi * profile.cycles_at(t, duration)


def parse_profile(text: str) -> HrProfile:
    """Parse "constant:BPM", "step:A,B,T", or "ramp:A,B"."""
    kind, _, args = text.partition(":")
    try:
        parts = [float(p) for p in args.split(",")] if args else []
    except ValueError as exc:
        raise InputError(f"bad profile argument in {text!r}: {exc}") from exc
    if kind == "constant" and len(parts) == 1:
        return ConstantProfile(parts[0])
    if kind == "step" and len(parts) == 3:
        return StepProfile(parts[0], parts[1], parts[2])
    if kind == "ramp" and len(parts) == 2:
        return RampProfile(parts[0], parts[1])
    raise InputError(
        f"bad profile {text!r}; expected constant:BPM, step:A,B,T or ramp:A,B")


@dataclass(frozen=True)
class SynthConfig:
    width: int = 64
    height: int = 64
    fps: float = 30.0
    duration: float = 60.0
    base_color: tuple[float, float, float] = (170.0, 120.0, 100.0)
    pulse_amplitude: float = 0.02
    hr_profile: HrProfile = ConstantProfile(72.0)
    noise_sigma: float = 0.0
    illum_drift: float = 0.0
    seed: int = 0
    mono: bool = False
    second_harmonic: bool = False

    def __post_init__(self):
        if self.width < 16 or self.height < 16:
            raise InputError(f"frame size must be at least 16x16, got "
                             f"{self.width}x{self.height}")
        if self.fps <= 0:
            raise InputError(f"fps must be positive, got {self.fps}")
        if self.duration <= 0:
            raise InputError(f"duration must be positive, got {self.duration}")
        if not 0.0 < self.pulse_amplitude <= 0.1:
            raise InputError(
                f"pulse amplitude {self.pulse_amplitude} out of range (0, 0.1]")
        if self.noise_sigma < 0:
            raise InputError(f"noise sigma must be non-negative, got {self.noise_sigma}")
        if not 0.0 <= self.illum_drift < 1.0:
            raise InputError(f"illumination drift {self.illum_drift} out of range [0, 1)")
        if any(not 0 <= c <= 255 for c in self.base_color):
            raise InputError(f"base color {self.base_color} outside [0, 255]")
        if isinstance(self.hr_profile, StepProfile) and \
                self.hr_profile.t_switch >= self.duration:
            raise InputError(
                f"step switch at {self.hr_profile.t_switch} s is past the "
                f"{self.duration} s session")

    @property
    def frame_count(self) -> int:
        return int(round(self.duration * self.fps))


def _quantize(values: np.ndarray) -> np.ndarray:
    # round half-to-even in double precision, then saturate to 8 bits
    return np.clip(np.round(values), 0.0, 255.0).astype(np.uint8)


def _channel_levels(config: SynthConfig, t: float) -> np.ndarray:
    """Ideal (unquantized) channel values at time t, before pixel noise."""
    phase = pulse_phase(t, config.hr_profile, config.duration)
    wave = math.sin(phase)
    if config.second_harmonic:
        wave += SECOND_HARMONIC_DEPTH * math.sin(2.0 * phase)
    drift = 1.0 + config.illum_drift * math.sin(2.0 * math.pi * DRIFT_FREQ_HZ * t)
    a = config.pulse_amplitude
    if config.mono:
        base = sum(config.base_color) / 3.0
        return np.array([base * (1.0 + a * wave) * drift])
    r, g, b = config.base_color
    return np.array([
        r * (1.0 + RED_DEPTH * a * wave) * drift,
        g * (1.0 + a * wave) * drift,
        b * (1.0 + BLUE_DEPTH * a * wave) * drift,
    ])


def _render_frame(config: SynthConfig, t: float,
                  rng: np.random.Generator | None) -> bytes:
    levels = _channel_levels(config, t)
    if rng is None:
        # uniform frame: quantize the per-channel scalars once and tile
        return bytes(_quantize(levels)) * (config.width * config.height)
    pixels = levels + config.noise_sigma * rng.standard_normal(
        (config.height, config.width, len(levels)))
    return _quantize(pixels).tobytes()


def render_session(config: SynthConfig, out_dir: str | os.PathLike) -> SessionManifest:
    """Write frames, box track, groundtruth, and manifest into out_dir.

    Rendering is deterministic: the same config (seed included) produces
    bitwise-identical files.  Returns the manifest re-read through the
    ingest path, so the emitted files are validated on the way out.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # noise is drawn frame by frame from one PCG64 stream
    rng = np.random.default_rng(config.seed) if config.noise_sigma > 0 else None

    with open(out_dir / FRAMES_NAME, "wb") as fh:
        for i in range(config.frame_count):
            fh.write(_render_frame(config, i / config.fps, rng))

    # static face box covering the central 60% of the frame
    bx = int(round(0.2 * config.width))
    by = int(round(0.2 * config.height))
    bw = int(round(0.6 * config.width))
    bh = int(round(0.6 * config.height))
    (out_dir / BOXES_NAME).write_text(f"frame,x,y,w,h\n*,{bx},{by},{bw},{bh}\n")

    gt_lines = ["t,bpm"]
    for t in range(int(math.floor(config.duration))):
        bpm = config.hr_profile.bpm_at(float(t), config.duration)
        gt_lines.append(f"{float(t)!r},{float(bpm)!r}")
    (out_dir / GROUNDTRUTH_NAME).write_text("\n".join(gt_lines) + "\n")

    manifest = {
        "width": config.width,
        "height": config.height,
        "fps": config.fps,
        "pixel_format": "gray8" if config.mono else "rgb8",
        "frame_count": config.frame_count,
        "frames": FRAMES_NAME,
        "boxes": BOXES_NAME,
        "groundtruth": GROUNDTRUTH_NAME,
    }
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return open_session(out_dir / MANIFEST_NAME)
