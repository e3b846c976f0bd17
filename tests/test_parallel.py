import os
import threading
import time

import pytest

from romlab._parallel import indexed_map


@pytest.mark.parametrize("jobs", [1, 2, 7])
def test_results_in_index_order(jobs):
    def fn(i):
        time.sleep(0.001 * (i % 3))  # later indices may finish first
        return i * i

    assert indexed_map(fn, 10, jobs) == [i * i for i in range(10)]


@pytest.mark.parametrize("jobs", [1, 3])
def test_exception_in_fn_propagates(jobs):
    def fn(i):
        if i == 2:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError):
        indexed_map(fn, 5, jobs)


def test_threads_capped_by_count_and_cpus():
    # a huge --jobs must not ask for one thread per sample: each call waits,
    # so the pool cannot reuse a thread and every worker it starts shows up
    threads = set()

    def fn(i):
        threads.add(threading.get_ident())
        time.sleep(0.05)
        return i

    assert indexed_map(fn, 4, 10**6) == [0, 1, 2, 3]
    assert len(threads) <= min(4, os.cpu_count() or 1)
