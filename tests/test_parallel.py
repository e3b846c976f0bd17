import os
import threading
import time

import pytest

from romlab._parallel import indexed_map


def _workers(jobs, count):
    return min(jobs, count, os.cpu_count() or 1)


@pytest.mark.parametrize("jobs", [1, 2, 7])
def test_results_in_index_order(jobs):
    def fn(i):
        time.sleep(0.001 * (i % 3))  # later indices may finish first
        return i * i

    assert list(indexed_map(fn, 10, jobs)) == [i * i for i in range(10)]


@pytest.mark.parametrize("jobs", [1, 3])
def test_exception_in_fn_propagates(jobs):
    def fn(i):
        if i == 2:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError):
        list(indexed_map(fn, 5, jobs))


def test_threads_capped_by_count_and_cpus():
    # a huge --jobs must not ask for one thread per sample: each call waits,
    # so the pool cannot reuse a thread and every worker it starts shows up
    threads = set()

    def fn(i):
        threads.add(threading.get_ident())
        time.sleep(0.05)
        return i

    assert list(indexed_map(fn, 4, 10**6)) == [0, 1, 2, 3]
    assert len(threads) <= min(4, os.cpu_count() or 1)


def test_window_bounds_pending_calls():
    # a slow consumer: calls started but not yet yielded stay within two per thread
    lock = threading.Lock()
    started = yielded = ahead = 0

    def fn(i):
        nonlocal started, ahead
        with lock:
            started += 1
            ahead = max(ahead, started - yielded)
        return i

    for i in indexed_map(fn, 40, 3):
        with lock:
            yielded += 1
        time.sleep(0.002)
    assert yielded == 40
    assert ahead <= 2 * _workers(3, 40)


def _calls_and_threads_after(consume, fail_at=None, count=50, jobs=3):
    """Run ``consume`` on indexed_map; return (fn calls made, threads left over)."""
    before = threading.active_count()
    calls = []

    def fn(i):
        calls.append(i)
        time.sleep(0.005)
        if i == fail_at:
            raise KeyError(i)
        return i

    consume(indexed_map(fn, count, jobs))
    return len(calls), threading.active_count() - before


def test_raise_cancels_pending_and_joins_threads():
    def consume(results):
        with pytest.raises(KeyError):
            list(results)

    calls, leftover = _calls_and_threads_after(consume, fail_at=2)
    assert leftover == 0
    assert calls <= 2 + 2 * _workers(3, 50)


def test_early_stop_cancels_pending_and_joins_threads():
    def consume(results):
        for _ in results:
            break

    calls, leftover = _calls_and_threads_after(consume)
    assert leftover == 0
    assert calls <= 1 + 2 * _workers(3, 50)
