"""The benchmark's workloads: seeded inputs, the op each runs, and the
check applied to every op's outputs.

Every random choice (base colour, pixel noise, box placement, box-track
path and jitter) comes from the run's seed.  The heart-rate profiles are
fixed per workload: where a rate falls on the spectral grid sets most of
the accuracy error, so with the profile fixed ``hr_err_bpm`` measures
the program rather than the luck of the draw.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facepulse.synth import (ConstantProfile, RampProfile, SynthConfig,
                             render_session)

FPS = 30.0
# |session mean - rendered truth| allowed for any op, in bpm
SESSION_MEAN_TOL_BPM = 1.0
_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@dataclass
class Workload:
    """One rendered session and the ``facepulse estimate`` op run on it.

    ``boxes`` are the rows written over the renderer's static box: one
    ``*`` row, or sparse ``frame,x,y,w,h`` anchors.  ``truth_bpm`` is the
    constant rendered rate, or None to compare the session mean with the
    mean of the aligned groundtruth.
    """

    name: str
    config: SynthConfig
    boxes: list[str]
    window_s: float
    hop_s: float | None = None
    truth_bpm: float | None = None

    @property
    def frames_per_op(self) -> int:
        return self.config.frame_count

    @property
    def frame_bytes(self) -> int:
        c = self.config
        return c.width * c.height * (1 if c.mono else 3)

    @property
    def input_bytes(self) -> int:
        return self.frame_bytes * self.frames_per_op

    def render(self, session_dir: Path) -> float:
        """Write the session and fsync it, so that writeback does not
        land in the timed ops; returns the seconds spent in
        render_session."""
        t0 = time.perf_counter()
        render_session(self.config, session_dir)
        render_s = time.perf_counter() - t0
        (session_dir / "boxes.csv").write_text(
            "frame,x,y,w,h\n" + "\n".join(self.boxes) + "\n")
        for name in os.listdir(session_dir) + ["."]:
            fd = os.open(session_dir / name, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return render_s

    def argv(self, session_dir: Path, out: Path) -> list[str]:
        args = ["estimate", str(session_dir), "--out", str(out),
                "--window", repr(self.window_s)]
        return args + (["--hop", repr(self.hop_s)] if self.hop_s else [])

    def check(self, out: Path, stderr: str) -> tuple[list[str], float]:
        """Problems with one op's outputs, and its window MAE in bpm.

        estimates.csv, summary.json and compare.csv must be present and
        finite, and the session mean within SESSION_MEAN_TOL_BPM of the
        rendered truth.
        """
        compare = out / "compare.csv"
        if "skipping" in stderr or not compare.is_file():
            return ["compare.csv was skipped"], math.nan
        problems = [f"non-finite value in {p.name}"
                    for p in sorted(out.iterdir())
                    if _NONFINITE.search(p.read_text())]
        rows = [r.split(",") for r in compare.read_text().splitlines()[1:]]
        gt = np.array([float(r[2]) for r in rows])
        est = np.array([float(r[3]) for r in rows])
        summary = json.loads((out / "summary.json").read_text())
        mean_bpm = summary["session_mean_bpm"]
        truth = self.truth_bpm if self.truth_bpm is not None else gt.mean()
        if not abs(mean_bpm - truth) <= SESSION_MEAN_TOL_BPM:
            problems.append(f"session mean {mean_bpm} is more than "
                            f"{SESSION_MEAN_TOL_BPM} bpm from {truth}")
        if summary["n_windows"] != len(est):
            problems.append("summary n_windows disagrees with compare.csv")
        return problems, float(np.mean(np.abs(est - gt)))


def _skin(rng: np.random.Generator) -> tuple[float, float, float]:
    lo, hi = np.array([150.0, 100.0, 80.0]), np.array([190.0, 140.0, 120.0])
    r, g, b = lo + (hi - lo) * rng.random(3)
    return (float(r), float(g), float(b))


def _scaled(width: int, height: int, scale: float) -> tuple[int, int]:
    return max(16, int(width * scale)), max(16, int(height * scale))


def estimate_rgb_static(rng: np.random.Generator, scale: float = 1.0
                        ) -> Workload:
    """640x480 rgb8, 30 s, one static box, constant 72 bpm, T = 10 s."""
    w, h = _scaled(640, 480, scale)
    slack = max(1, w // 32)
    j = rng.integers(-slack, slack + 1, size=4)
    box = (round(0.2 * w) + j[0], round(0.2 * h) + j[1],
           round(0.6 * w) + j[2], round(0.6 * h) + j[3])
    config = SynthConfig(width=w, height=h, fps=FPS, duration=30.0,
                         base_color=_skin(rng),
                         hr_profile=ConstantProfile(72.0))
    return Workload("estimate_rgb_static", config,
                    ["*,%d,%d,%d,%d" % box], window_s=10.0, truth_bpm=72.0)


def estimate_dense_hop(rng: np.random.Generator, scale: float = 1.0
                       ) -> Workload:
    """64x64 rgb8, 300 s, 60 -> 100 bpm ramp, T = 10 s at a one-frame
    hop, on a sparse moving box track that leaves the frame once.

    Half-level pixel noise dithers the 8-bit quantisation, so the error
    does not swing with the seeded base colour.
    """
    w, h = _scaled(64, 64, scale)
    config = SynthConfig(width=w, height=h, fps=FPS,
                         duration=max(30.0, 300.0 * scale),
                         base_color=_skin(rng),
                         hr_profile=RampProfile(60.0, 100.0),
                         noise_sigma=0.5, seed=int(rng.integers(2**31)))
    return Workload("estimate_dense_hop", config,
                    _moving_track(rng, w, h, config.frame_count),
                    window_s=10.0, hop_s=1.0 / FPS)


def _moving_track(rng: np.random.Generator, width: int, height: int,
                  frame_count: int) -> list[str]:
    """Anchors about every 15 frames on a slow sinusoidal path with
    jitter.  For two seconds from 40% of the session the track leaves
    through the right edge, so those frames get degenerate regions; the
    place is fixed because it moves the accuracy error."""
    frames = [0]
    while frames[-1] < frame_count - 1:
        frames.append(min(frame_count - 1,
                          frames[-1] + int(rng.integers(12, 19))))
    t = np.array(frames) / FPS
    amp_x = rng.uniform(0.03, 0.06) * width
    amp_y = rng.uniform(0.02, 0.04) * height
    period, phase = rng.uniform(6.0, 12.0), rng.uniform(0.0, 2 * math.pi)
    jitter = rng.normal(0.0, 0.5, size=(len(frames), 4))
    x = 0.2 * width + amp_x * np.sin(2 * math.pi * t / period + phase)
    y = 0.2 * height + amp_y * np.cos(2 * math.pi * t / period + phase)
    x, y = x + jitter[:, 0], y + jitter[:, 1]
    bw, bh = 0.6 * width + jitter[:, 2], 0.6 * height + jitter[:, 3]
    off = (t >= 0.4 * frame_count / FPS) & (t < 0.4 * frame_count / FPS + 2.0)
    x[off] = width + 10.0
    return [f"{f},{a:.2f},{b:.2f},{c:.2f},{d:.2f}"
            for f, a, b, c, d in zip(frames, x, y, bw, bh)]


WORKLOADS = {
    "estimate_rgb_static": (1, estimate_rgb_static),
    "estimate_dense_hop": (3, estimate_dense_hop),
}


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build the named workload's inputs from the seed.  scale < 1
    shrinks frames (and the dense-hop duration) for the self-test."""
    key, build = WORKLOADS[name]
    return build(np.random.default_rng([key, seed % 2**64]), scale)
