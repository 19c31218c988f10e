"""Worker threads: results do not depend on the split, and no thread
outlives the call that started it."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import facepulse
from facepulse import (PulseSignal, WindowSpec, estimate_series, parallel,
                       pulse, spectral)
from facepulse.cli import main
from facepulse.parallel import run_spans
from facepulse.pulse import REDUCE_BLOCK_FRAMES, extract_traces
from facepulse.spectral import SPECTRUM_BLOCK_BYTES

from _reference import ref_block_rows, ref_hr_series

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def force_split(monkeypatch):
    """Split any work, however small, so small inputs take the threads."""
    monkeypatch.setattr(pulse, "SPLIT_MIN_CALL_BYTES", 0)
    monkeypatch.setattr(spectral, "SPLIT_MIN_PADDED", 0)
    monkeypatch.setattr(spectral, "SPLIT_MIN_WINDOWS", 0)


@pytest.fixture
def split_calls(monkeypatch):
    """The split argument of every run_spans call from pulse and spectral."""
    calls = []

    def recording(n, work, split=True):
        calls.append(split)
        run_spans(n, work, split)

    monkeypatch.setattr(pulse, "run_spans", recording)
    monkeypatch.setattr(spectral, "run_spans", recording)
    return calls


def _per_worker_count(monkeypatch, compute):
    """compute() at each of WORKER_COUNTS, 3 being more workers than the
    2 the package uses, with threads switched as often as they can be."""
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(parallel, "WORKERS", workers)
            results.append(compute())
    finally:
        sys.setswitchinterval(interval)
    return results


class TestRunSpans:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_spans_cover_range_once(self, monkeypatch, n, workers):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        spans = []
        run_spans(n, lambda lo, hi: spans.append((lo, hi)))
        covered = [i for lo, hi in sorted(spans) for i in range(lo, hi)]
        assert covered == list(range(n))
        assert len(spans) == max(1, min(workers, n))

    @pytest.mark.parametrize("workers, split", [(1, True), (2, False)])
    def test_single_span_runs_inline(self, monkeypatch, workers, split):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        seen = []
        run_spans(10, lambda lo, hi: seen.append((lo, hi, threading.current_thread())),
                  split)
        assert seen == [(0, 10, threading.current_thread())]

    def test_worker_exception_raised(self, monkeypatch):
        monkeypatch.setattr(parallel, "WORKERS", 2)

        def work(lo, hi):
            if lo > 0:
                raise ValueError(f"span {lo}..{hi}")

        with pytest.raises(ValueError, match="span 5..10"):
            run_spans(10, work)


def _traces(frames, boxes):
    trace = extract_traces(frames, boxes, 30.0)
    return trace.values, trace.valid


@pytest.mark.usefixtures("force_split")
class TestExtractTracesSplit:
    def _assert_split_invariant(self, monkeypatch, frames, boxes):
        results = _per_worker_count(monkeypatch, lambda: _traces(frames, boxes))
        for values, valid in results[1:]:
            assert np.array_equal(values, results[0][0])
            assert np.array_equal(valid, results[0][1])
        return results[0]

    def test_runs_and_degenerate_frames_at_span_edges(self, monkeypatch):
        # 2 and 3 workers cut 3 * REDUCE_BLOCK_FRAMES + 6 frames at
        # n / 3, n / 2 and 2n / 3: one run of identical rects spans the
        # first two edges, and degenerate frames sit on both sides of the
        # middle edge and on the last one
        n = 3 * REDUCE_BLOCK_FRAMES + 6
        rng = np.random.default_rng(21)
        frames = rng.integers(0, 256, (n, 24, 32, 3), dtype=np.uint8)
        boxes = np.tile([6.0, 4.0, 16.0, 14.0], (n, 1))
        boxes[:5, 0] = 7.0
        boxes[2 * n // 3 + 1:, 1] = 5.0
        for i in (n // 2 - 1, n // 2, 2 * n // 3, 2 * n // 3 - 1):
            boxes[i, 0] = 40.0
        values, valid = self._assert_split_invariant(monkeypatch, frames, boxes)
        assert valid.sum() == n - 4 and valid[n // 3]

    def test_gray_static_box(self, monkeypatch):
        n = 2 * REDUCE_BLOCK_FRAMES + 3
        frames = np.random.default_rng(22).integers(0, 256, (n, 20, 20, 1),
                                                    dtype=np.uint8)
        self._assert_split_invariant(monkeypatch, frames,
                                     np.tile([2.5, 1.0, 15.0, 17.0], (n, 1)))

    def test_mixed_run_lengths(self, monkeypatch, mixed_runs):
        # sliced and gathered runs, degenerate frames among the gathered
        # ones; 2 and 3 workers cut the sliced runs at their span edges
        frames, boxes, _ = mixed_runs
        self._assert_split_invariant(monkeypatch, frames, boxes)
        self._assert_split_invariant(monkeypatch, frames[..., 1:2].copy(), boxes)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_frames_than_workers(self, monkeypatch, n):
        frames = np.random.default_rng(n).integers(0, 256, (n, 20, 20, 3),
                                                   dtype=np.uint8)
        self._assert_split_invariant(monkeypatch, frames,
                                     np.tile([2.5, 1.0, 15.0, 17.0], (n, 1)))


ROWS_5S = ref_block_rows(150, SPECTRUM_BLOCK_BYTES)  # 5 s windows at 30 fps


@pytest.mark.usefixtures("force_split")
class TestEstimateSeriesSplit:
    def _bpm_per_worker_count(self, monkeypatch, samples, spec):
        results = _per_worker_count(
            monkeypatch, lambda: estimate_series(PulseSignal(30.0, samples), spec).bpm)
        for bpm in results[1:]:
            assert np.array_equal(bpm, results[0])
        return results[0]

    # 11 windows fill part of one block, 53 one block and part of a
    # second; ROWS_5S - 1, ROWS_5S and ROWS_5S + 1 are one below, at and
    # one above a block
    @pytest.mark.parametrize("n_windows", sorted({1, 2, 11, 53, ROWS_5S - 1, ROWS_5S,
                                                  ROWS_5S + 1, ROWS_5S * 6 + 5}))
    def test_bpm_independent_of_workers(self, monkeypatch, n_windows):
        # the largest count is 6 full blocks and a short seventh, which
        # 2 and 3 workers split unevenly
        fps, win = 30.0, 150
        rng = np.random.default_rng(n_windows)
        n = win + n_windows - 1
        samples = np.sin(2 * np.pi * 1.3 * np.arange(n) / fps) + rng.normal(0, 1, n)
        bpm = self._bpm_per_worker_count(monkeypatch, samples, WindowSpec(5.0, 1 / fps))
        assert len(bpm) == n_windows

    @pytest.mark.parametrize("win, hop, n_windows", [
        (600, 1, 40),   # 20 s: 8192-point transforms, fewer rows per block
        (150, 3, 100),  # each block a slice with a 3-sample stride
    ])
    def test_long_and_strided_windows_match_reference(self, monkeypatch, win, hop,
                                                      n_windows):
        fps = 30.0
        rng = np.random.default_rng(win + hop)
        n = win + (n_windows - 1) * hop
        samples = np.sin(2 * np.pi * 1.3 * np.arange(n) / fps) + rng.normal(0, 1, n)
        bpm = self._bpm_per_worker_count(monkeypatch, samples,
                                         WindowSpec(win / fps, hop / fps))
        assert np.array_equal(bpm, ref_hr_series(samples, fps, win, hop)[2])


class TestSplitChoice:
    @pytest.mark.parametrize("size, shift, split", [
        (192, 0, True),    # 16-frame calls of 90.8 kB on average
        (192, 1, False),   # the box moves every frame: its frames are gathered
        (128, 0, False),   # 41.1 kB
    ])
    def test_reduction_split_by_call_bytes(self, monkeypatch, split_calls, size, shift,
                                           split):
        # split: whether the reduction starts worker threads; a box that
        # moves every frame has no run to slice and so no span to split
        monkeypatch.setattr(parallel, "WORKERS", 2)
        pools = []

        def recording_pool(**kwargs):
            pools.append(kwargs)
            return ThreadPoolExecutor(**kwargs)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", recording_pool)
        n = 2 * REDUCE_BLOCK_FRAMES
        frames = np.zeros((n, size, size, 3), dtype=np.uint8)
        boxes = np.tile([0.0, 0.0, float(size), float(size)], (n, 1))
        boxes[:, 0] += shift * (np.arange(n) % 2)
        extract_traces(frames, boxes, 30.0)
        assert split_calls == ([split] if shift == 0 else [])
        assert len(pools) == split

    @pytest.mark.parametrize("length, hop_frames, split", [
        (10.0, 1, True),    # 4096-point transforms, 1501 windows
        (5.0, 1, False),    # 2048-point transforms
        (10.0, 30, False),  # 51 windows
    ])
    def test_spectral_split_by_size_and_count(self, split_calls, length, hop_frames,
                                              split):
        samples = np.random.default_rng(3).normal(0, 1, 1800)
        estimate_series(PulseSignal(30.0, samples), WindowSpec(length, hop_frames / 30))
        assert split_calls == [split]


class TestNoThreadLeak:
    @pytest.mark.usefixtures("force_split")
    def test_estimate_joins_its_workers(self, monkeypatch, clean72_session, tmp_path):
        monkeypatch.setattr(parallel, "WORKERS", 2)
        before = threading.active_count()
        rc = main(["estimate", str(clean72_session), "--out", str(tmp_path / "est"),
                   "--hop", "0.1"])
        assert rc == 0
        assert threading.active_count() == before

    def test_import_starts_no_thread(self):
        src = str(Path(facepulse.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import threading, facepulse, facepulse.cli; "
                "print(threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "1"
