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
from facepulse import (DEFAULT_BAND, PulseSignal, SynthConfig, WindowSpec, estimate_series,
                       parallel, render_session, synth)
from facepulse.cli import main
from facepulse.parallel import run_ahead, run_spans
from facepulse.pulse import REDUCE_BLOCK_FRAMES, extract_traces
from facepulse.roi import place_regions
from facepulse.spectral import SPECTRUM_BLOCK_BYTES

from _reference import ref_block_rows, ref_hr_series, ref_render_frames


def _traces(frames: np.ndarray, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """extract_traces over the regions roi.place_regions places for a box
    track in those frames, and the mask: (values, valid)."""
    rects, valid = place_regions(boxes, frames.shape[2], frames.shape[1])
    return extract_traces(frames, rects, valid), valid


WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def thread_pools(monkeypatch):
    """The worker count of every thread pool run_spans starts, at 2 workers."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    pools = []

    def recording_pool(**kwargs):
        pools.append(kwargs["max_workers"])
        return ThreadPoolExecutor(**kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", recording_pool)
    return pools


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

    @pytest.mark.parametrize("workers, n", [(1, 10), (2, 1)])
    def test_single_span_runs_inline(self, monkeypatch, workers, n):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        seen = []
        run_spans(n, lambda lo, hi: seen.append((lo, hi, threading.current_thread())))
        assert seen == [(0, n, threading.current_thread())]

    def test_worker_exception_raised(self, monkeypatch):
        monkeypatch.setattr(parallel, "WORKERS", 2)

        def work(lo, hi):
            if lo > 0:
                raise ValueError(f"span {lo}..{hi}")

        with pytest.raises(ValueError, match="span 5..10"):
            run_spans(10, work)


class TestRunAhead:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_items_produced_and_consumed_in_order(self, monkeypatch, n, workers):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        produced, consumed = [], []

        def produce(item):
            produced.append(item)
            return 10 * item

        run_ahead(range(n), produce, lambda item, result: consumed.append((item, result)))
        assert produced == list(range(n))
        assert consumed == [(i, 10 * i) for i in range(n)]

    @pytest.mark.parametrize("workers, n", [(1, 3), (2, 1)])
    def test_runs_inline(self, monkeypatch, workers, n):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        seen = []
        run_ahead(range(n), lambda item: threading.current_thread(),
                  lambda item, producer: seen.append((producer, threading.current_thread())))
        assert seen == [(threading.current_thread(),) * 2] * n

    def test_next_item_produced_on_a_worker_during_consume(self, monkeypatch):
        # each consume waits until the next item's produce has started
        monkeypatch.setattr(parallel, "WORKERS", 2)
        started = [threading.Event() for _ in range(4)]
        producers = []

        def produce(item):
            producers.append(threading.current_thread())
            started[item].set()

        def consume(item, result):
            assert item == 3 or started[item + 1].wait(timeout=10)

        run_ahead(range(4), produce, consume)
        assert len(set(producers)) == 1
        assert producers[0] is not threading.current_thread()

    def test_one_worker_thread(self, thread_pools):
        # one item is produced ahead at a time, so the pool holds one thread
        run_ahead(range(3), lambda item: item, lambda item, result: None)
        assert thread_pools == [1]

    @pytest.mark.parametrize("where", ["produce", "consume"])
    def test_exception_raised_after_join(self, monkeypatch, where):
        monkeypatch.setattr(parallel, "WORKERS", 2)
        consumed = []

        def produce(item):
            if where == "produce" and item == 2:
                raise ValueError("produce 2")
            return item

        def consume(item, result):
            if where == "consume" and item == 2:
                raise ValueError("consume 2")
            consumed.append(result)

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"{where} 2"):
            run_ahead(range(5), produce, consume)
        assert consumed == [0, 1]
        assert threading.active_count() == before


def _noisy_config(mono: bool) -> SynthConfig:
    # 20 frames of 20x16, with the harmonic and drift in every level
    return SynthConfig(width=20, height=16, fps=10.0, duration=2.0, noise_sigma=2.5, seed=5,
                       mono=mono, second_harmonic=True, illum_drift=0.1)


class TestNoisyRenderSplit:
    # normals per block, in frames: one, three (20 frames leave a short
    # last block), less than one (each frame a block alone) and the
    # default (the whole session in one block)
    @pytest.mark.parametrize("block", [1.0, 3.4, 0.9, None],
                             ids=["one-frame", "three-frames", "part-frame", "default"])
    @pytest.mark.parametrize("mono", [False, True], ids=["rgb8", "gray8"])
    def test_frames_match_per_frame_reference(self, monkeypatch, tmp_path, block, mono):
        config = _noisy_config(mono)
        channels = 1 if mono else 3
        if block is not None:
            monkeypatch.setattr(synth, "NOISE_BLOCK_BYTES",
                                int(block * 8 * config.height * config.width * channels))
        levels = [synth._channel_levels(config, i / config.fps)
                  for i in range(config.frame_count)]
        expected = ref_render_frames(levels, config.height, config.width,
                                     config.noise_sigma, config.seed)
        runs = iter(range(len(WORKER_COUNTS)))

        def render():
            out = tmp_path / str(next(runs))
            render_session(config, out)
            return (out / "frames.raw").read_bytes()

        for frames in _per_worker_count(monkeypatch, render):
            assert frames == expected


class TestExtractTracesSplit:
    def _assert_split_invariant(self, monkeypatch, frames, boxes):
        results = _per_worker_count(monkeypatch, lambda: _traces(frames, boxes))
        for values, valid in results[1:]:
            assert np.array_equal(values, results[0][0])
            assert np.array_equal(valid, results[0][1])
        return results[0]

    def test_runs_and_degenerate_frames_at_span_edges(self, monkeypatch):
        # in 3 * REDUCE_BLOCK_FRAMES + 6 frames, runs of 21 and 17
        # identical rects are cut into 4 blocks, the last of one frame,
        # which 2 and 3 workers split; gathered runs of 5 and 7 frames and
        # two pairs of degenerate frames lie around them
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
        # ones; 2 and 3 workers split the sliced runs' blocks
        frames, boxes, _ = mixed_runs
        self._assert_split_invariant(monkeypatch, frames, boxes)
        self._assert_split_invariant(monkeypatch, frames[..., 1:2].copy(), boxes)

    def test_tall_regions(self, monkeypatch, tall_gray):
        # cheek regions over 257 rows are summed in two uint16 chunks
        # in every block
        frames, static, _ = tall_gray
        self._assert_split_invariant(monkeypatch, frames, static)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_frames_than_workers(self, monkeypatch, n):
        frames = np.random.default_rng(n).integers(0, 256, (n, 20, 20, 3),
                                                   dtype=np.uint8)
        self._assert_split_invariant(monkeypatch, frames,
                                     np.tile([2.5, 1.0, 15.0, 17.0], (n, 1)))


ROWS_5S = ref_block_rows(150, SPECTRUM_BLOCK_BYTES)  # 5 s windows at 30 fps


class TestEstimateSeriesSplit:
    def _bpm_per_worker_count(self, monkeypatch, samples, spec):
        results = _per_worker_count(
            monkeypatch,
            lambda: estimate_series(PulseSignal(30.0, samples, DEFAULT_BAND), spec).bpm)
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
        (128, 0, True),    # 41.1 kB: small calls are split as well
    ])
    def test_reduction_split_when_a_run_is_sliced(self, thread_pools, size, shift,
                                                  split):
        # split: whether the reduction starts worker threads; a box that
        # moves every frame has no run to slice and so no block to split
        n = 2 * REDUCE_BLOCK_FRAMES
        frames = np.zeros((n, size, size, 3), dtype=np.uint8)
        boxes = np.tile([0.0, 0.0, float(size), float(size)], (n, 1))
        boxes[:, 0] += shift * (np.arange(n) % 2)
        _traces(frames, boxes)
        assert thread_pools == ([2] if split else [])

    def test_one_block_runs_inline(self, thread_pools):
        # a static run of exactly REDUCE_BLOCK_FRAMES frames is one
        # block, so no thread starts
        n = REDUCE_BLOCK_FRAMES
        frames = np.zeros((n, 192, 192, 3), dtype=np.uint8)
        _traces(frames, np.tile([0.0, 0.0, 192.0, 192.0], (n, 1)))
        assert thread_pools == []

    @pytest.mark.parametrize("length, hop_frames, split", [
        (10.0, 1, True),     # 4096-point transforms, 1501 windows in 101 blocks
        (5.0, 1, True),      # 2048-point transforms, 1651 windows in 54 blocks
        (10.0, 30, True),    # 51 windows in 4 blocks
        (10.0, 300, False),  # 6 windows in one block
    ])
    def test_spectral_split_by_block_count(self, thread_pools, length, hop_frames,
                                           split):
        # every call with two or more blocks of windows starts the threads
        samples = np.random.default_rng(3).normal(0, 1, 1800)
        estimate_series(PulseSignal(30.0, samples, DEFAULT_BAND),
                        WindowSpec(length, hop_frames / 30))
        assert thread_pools == ([2] if split else [])


class TestNoThreadLeak:
    def test_estimate_joins_its_workers(self, monkeypatch, clean72_session, tmp_path):
        monkeypatch.setattr(parallel, "WORKERS", 2)
        before = threading.active_count()
        rc = main(["estimate", str(clean72_session), "--out", str(tmp_path / "est"),
                   "--hop", "0.1"])
        assert rc == 0
        assert threading.active_count() == before

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_render_joins_its_worker(self, monkeypatch, tmp_path, fails):
        # a block of one frame: the level of frame 12 fails after 12 blocks
        monkeypatch.setattr(parallel, "WORKERS", 2)
        config = _noisy_config(mono=False)
        monkeypatch.setattr(synth, "NOISE_BLOCK_BYTES", 8 * config.height * config.width * 3)
        levels = synth._channel_levels

        def failing_levels(config, t):
            if t >= 1.2:
                raise RuntimeError(f"level at {t} s")
            return levels(config, t)

        before = threading.active_count()
        if fails:
            monkeypatch.setattr(synth, "_channel_levels", failing_levels)
            with pytest.raises(RuntimeError, match="level at 1.2 s"):
                render_session(config, tmp_path)
        else:
            render_session(config, tmp_path)
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
