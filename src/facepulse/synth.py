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
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import InputError
from .frameio import (BYTES_PER_PIXEL, MANIFEST_NAME, MIN_FRAME_DIM, SessionManifest, as_path,
                      nearest_existing, open_session, parse_finite, require_real,
                      require_type, short_text)
from .pulse import DEFAULT_BAND

# validity range for configured heart rates: the default pulse band
BPM_MIN = DEFAULT_BAND.bpm_lo
BPM_MAX = DEFAULT_BAND.bpm_hi

# fixed frequency of the slow illumination drift; safely below the pulse band
DRIFT_FREQ_HZ = 0.1

# R, G, B pulse depths relative to green; gray8, the base colour's mean, takes green's
CHANNEL_DEPTHS = (0.5, 1.0, 0.3)

SECOND_HARMONIC_DEPTH = 0.3

# Float64 normals per noisy render block: frames = this // (8 * h * w *
# channels), at least 1.  The next block is drawn while this one is
# composed, so two are live.  9000 64x64 rgb8 frames (dense_hop's render)
# on 2 workers, median of 5: 1.93 s at 256 KiB, 1.72 s at 512 KiB, 1.61 s
# at 1 MiB, 1.60 s at 2 MiB, 1.63 s at 4 MiB, about 2.4 s frame by frame;
# small blocks pay a thread hand-off each.  1 MiB is the smallest on that
# plateau: a 64x64 render's tracemalloc peak is 2.10 MB (0.47 MB at
# 256 KiB).  A larger frame is a block alone: 640x480 peaks at 15.7 MB
NOISE_BLOCK_BYTES = 1024 * 1024

FRAMES_NAME = "frames.raw"
BOXES_NAME = "boxes.csv"
GROUNDTRUTH_NAME = "groundtruth.csv"


@dataclass(frozen=True)
class ConstantProfile:
    bpm: float

    def __post_init__(self):
        bpm = require_real(self.bpm, "constant profile bpm", BPM_MIN, BPM_MAX)
        object.__setattr__(self, "bpm", bpm)

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
        for name in ("bpm_a", "bpm_b"):
            bpm = require_real(getattr(self, name), f"step profile {name}", BPM_MIN, BPM_MAX)
            object.__setattr__(self, name, bpm)
        t_switch = require_real(self.t_switch, "step profile t_switch", 0, math.inf)
        object.__setattr__(self, "t_switch", t_switch)

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
        for name in ("bpm_a", "bpm_b"):
            bpm = require_real(getattr(self, name), f"ramp profile {name}", BPM_MIN, BPM_MAX)
            object.__setattr__(self, name, bpm)

    def bpm_at(self, t: float, duration: float) -> float:
        return self.bpm_a + (self.bpm_b - self.bpm_a) * t / duration

    def cycles_at(self, t: float, duration: float) -> float:
        return (self.bpm_a * t + (self.bpm_b - self.bpm_a) * t * t / (2.0 * duration)) / 60.0


HrProfile = ConstantProfile | StepProfile | RampProfile


def parse_profile(text: str) -> HrProfile:
    """Parse "constant:BPM", "step:A,B,T", or "ramp:A,B"."""
    kind, _, args = text.partition(":")
    parts = [parse_finite(p, f"bad profile {short_text(text)}: argument")
             for p in args.split(",")] if args else []
    if kind == "constant" and len(parts) == 1:
        return ConstantProfile(parts[0])
    if kind == "step" and len(parts) == 3:
        return StepProfile(parts[0], parts[1], parts[2])
    if kind == "ramp" and len(parts) == 2:
        return RampProfile(parts[0], parts[1])
    raise InputError(
        f"bad profile {short_text(text)}; expected constant:BPM, step:A,B,T or ramp:A,B")


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
        for name, lower in (("width", MIN_FRAME_DIM), ("height", MIN_FRAME_DIM), ("seed", 0)):
            require_real(require_type(getattr(self, name), int, name), name, lower, math.inf, "[)")
        for name, lower, upper, bounds in (
                ("fps", 0, math.inf, "()"),
                # the groundtruth holds one sample per whole second
                ("duration", 1, math.inf, "[)"),
                ("pulse_amplitude", 0, 0.1, "(]"),
                ("noise_sigma", 0, math.inf, "[)"),
                ("illum_drift", 0, 1, "[)")):
            value = require_real(getattr(self, name), name, lower, upper, bounds)
            object.__setattr__(self, name, value)
        if math.isinf(self.duration * self.fps):
            raise InputError(f"{self.duration} s at {self.fps} fps overflows the frame count")
        if self.frame_count < 1:
            raise InputError(f"{self.duration} s at {self.fps} fps holds no frame")
        color = require_type(self.base_color, tuple, "base_color")
        if len(color) != 3:
            raise InputError(f"base_color must hold three numbers R,G,B, not {len(color)}")
        object.__setattr__(self, "base_color", tuple(
            require_real(c, "base_color component", 0, 255, "[]") for c in color))
        if isinstance(require_type(self.hr_profile, HrProfile, "hr_profile"), StepProfile):
            require_real(self.hr_profile.t_switch, "step profile t_switch", 0, self.duration)
        for name in ("mono", "second_harmonic"):
            require_type(getattr(self, name), bool, name)

    @property
    def frame_count(self) -> int:
        return int(round(self.duration * self.fps))


def _quantize(values: np.ndarray) -> np.ndarray:
    # round half-to-even in double precision, then saturate to 8 bits; in place
    np.rint(values, out=values)
    return np.clip(values, 0.0, 255.0, out=values).astype(np.uint8)


def _channel_levels(config: SynthConfig, t: float) -> np.ndarray:
    """Ideal (unquantized) channel values at time t, before pixel noise."""
    phase = 2.0 * math.pi * config.hr_profile.cycles_at(t, config.duration)
    wave = math.sin(phase)
    if config.second_harmonic:
        wave += SECOND_HARMONIC_DEPTH * math.sin(2.0 * phase)
    drift = 1.0 + config.illum_drift * math.sin(2.0 * math.pi * DRIFT_FREQ_HZ * t)
    a = config.pulse_amplitude
    base, depth = config.base_color, CHANNEL_DEPTHS
    if config.mono:
        base, depth = (sum(base) / 3.0,), CHANNEL_DEPTHS[1:2]
    return np.array([c * (1.0 + d * a * wave) * drift for c, d in zip(base, depth)])


def _render_frame(config: SynthConfig, t: float) -> bytes:
    # uniform frame: quantize the per-channel scalars once and tile
    return bytes(_quantize(_channel_levels(config, t))) * (config.width * config.height)


def _noisy_frames(config: SynthConfig, first: int, z: np.ndarray) -> np.ndarray:
    """Frames first, first + 1, ... as uint8, composed in z, their (frames,
    h, w, channels) standard normals."""
    levels = [_channel_levels(config, i / config.fps) for i in range(first, first + len(z))]
    z *= config.noise_sigma
    z += np.array(levels)[:, None, None, :]
    return _quantize(z)


def render_session(config: SynthConfig, out_dir: str | os.PathLike) -> SessionManifest:
    """Write frames, box track, groundtruth, and manifest into out_dir.

    Rendering is deterministic: the same config (seed included) produces
    bitwise-identical files.  Returns the manifest re-read through the
    ingest path, so the emitted files are validated on the way out.
    An out_dir whose nearest existing part is not a directory, or a
    session whose frames and groundtruth rows (9 bytes or more each)
    exceed the free disk space, is refused before anything is made.
    """
    require_type(config, SynthConfig, "config")
    out_dir = as_path(out_dir, "out_dir")
    pixel_format = "gray8" if config.mono else "rgb8"
    need = (config.frame_count * config.width * config.height * BYTES_PER_PIXEL[pixel_format]
            + 9 * math.floor(config.duration))
    nearest = nearest_existing(out_dir, "out_dir")
    free = shutil.disk_usage(nearest).free
    if need > free:
        # a count beyond the float range is quoted as the float maximum
        raise InputError(f"the session needs at least {min(need, sys.float_info.max):.3g} "
                         f"bytes; {nearest} has {free} free")
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / FRAMES_NAME, "wb") as fh:
        if config.noise_sigma > 0:
            # noise comes from one PCG64 stream in frame order, drawn a block
            # ahead while the block before it is composed and written
            rng = np.random.default_rng(config.seed)
            shape = (config.height, config.width, BYTES_PER_PIXEL[pixel_format])
            per_block = max(1, NOISE_BLOCK_BYTES // (8 * math.prod(shape)))
            n = config.frame_count
            parallel.run_ahead(
                range(0, n, per_block),
                lambda first: rng.standard_normal((min(per_block, n - first), *shape)),
                lambda first, z: fh.write(_noisy_frames(config, first, z)))
        else:
            for i in range(config.frame_count):
                fh.write(_render_frame(config, i / config.fps))

    # static face box covering the central 60% of the frame
    bx = int(round(0.2 * config.width))
    by = int(round(0.2 * config.height))
    bw = int(round(0.6 * config.width))
    bh = int(round(0.6 * config.height))
    (out_dir / BOXES_NAME).write_text(f"frame,x,y,w,h\n*,{bx},{by},{bw},{bh}\n")

    with open(out_dir / GROUNDTRUTH_NAME, "w") as fh:
        fh.write("t,bpm\n")
        for t in map(float, range(math.floor(config.duration))):
            fh.write(f"{t!r},{float(config.hr_profile.bpm_at(t, config.duration))!r}\n")

    manifest = {
        "width": config.width,
        "height": config.height,
        "fps": config.fps,
        "pixel_format": pixel_format,
        "frame_count": config.frame_count,
        "frames": FRAMES_NAME,
        "boxes": BOXES_NAME,
        "groundtruth": GROUNDTRUTH_NAME,
    }
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")

    return open_session(out_dir)
