"""Work items run on worker threads.

The ROI reduction and the spectral window blocks spend their time in
numpy kernels that release the interpreter lock (integer patch sums,
batched rfft), so threads run them on separate cores.  Each caller's
work items write disjoint slices of one output array and compute every
item the same way whatever the split, so results do not depend on the
number of workers.  The noisy synth render draws its next block of
normals on a worker thread while the calling thread composes the current
one; draws run in order, one at a time, so the stream does not move.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

# Worker threads per call.  Capped at 2: each worker holds its own block
# buffers, so the peak heap grows with the count (see pulse and spectral
# for the block sizes)
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


def run_spans(n: int, work: Callable[[int, int], None]) -> None:
    """Call work(lo, hi) on up to WORKERS contiguous spans covering
    range(n), each on its own thread; a single span runs work(0, n)
    inline.

    The threads belong to this call and are joined before it returns;
    an exception raised by work is raised here.
    """
    k = min(WORKERS, n)
    if k <= 1:
        work(0, n)
        return
    edges = [n * i // k for i in range(k + 1)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in zip(edges, edges[1:])]
        for future in futures:
            future.result()


def run_ahead(items: Sequence, produce: Callable, consume: Callable) -> None:
    """Call consume(item, produce(item)) for each item in order, with
    produce(next item) on one worker thread while consume runs, or inline
    at one worker or one item.  produce runs one item at a time in order,
    so a producer that reads a stream gives what a loop gives.  The
    thread is joined before this returns; an exception raised by produce
    or consume is raised here."""
    if min(WORKERS, len(items)) <= 1:
        for item in items:
            consume(item, produce(item))
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(produce, items[0])
        for i, item in enumerate(items):
            result = ahead.result()
            if i + 1 < len(items):
                ahead = pool.submit(produce, items[i + 1])
            consume(item, result)
