"""Deterministic sample-parallel mapping through a bounded window.

Results are yielded in index order regardless of worker count, and every
reduction downstream consumes them in that order, so the parallelism
degree never changes numerical output.  At most two results per thread
are pending at once, so a caller that reduces as it consumes holds memory
that does not grow with the sample count.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor


def indexed_map(fn, count: int, jobs: int):
    """Yield fn(0), ..., fn(count-1) on at most min(jobs, count, CPU count) threads.

    Index i + 2 * threads is submitted only after result i is yielded; if fn
    raises or the consumer stops early, pending calls are cancelled and the
    threads joined."""
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, range(count))
        return
    pool, pending = ThreadPoolExecutor(max_workers=workers), deque()
    try:
        for i in range(count):
            pending.append(pool.submit(fn, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
