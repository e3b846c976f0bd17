"""Deterministic sample-parallel mapping.

Results are returned in index order regardless of worker count, and all
reductions downstream run over that ordered list, so the parallelism
degree never changes numerical output.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def indexed_map(fn, count: int, jobs: int) -> list:
    """[fn(0), ..., fn(count-1)], on at most min(jobs, count, CPU count) threads."""
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
