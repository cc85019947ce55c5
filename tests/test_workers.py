"""The ordered map behind ``--threads``: forked workers, results in item order."""

import multiprocessing
import os
from concurrent import futures
import threading
import time

import pytest

from reconnet import _workers
from reconnet._workers import ordered_map
from reconnet.errors import ParseError


def test_results_in_item_order_from_other_processes():
    def square(k):
        time.sleep(0.05)  # long enough that one worker cannot take every chunk
        return k * k, os.getpid()

    out = ordered_map(square, range(7), 3)
    assert [value for value, _ in out] == [k * k for k in range(7)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and len(pids) >= 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [None, 0, 1, 5])
def test_fewer_than_two_workers_with_items_runs_here(workers):
    items = [4] if workers == 5 else [1, 2, 3]
    assert ordered_map(lambda k: (k, os.getpid()), items, workers) == [
        (k, os.getpid()) for k in items]


def test_no_items():
    assert ordered_map(lambda k: 1 / 0, [], 4) == []


def test_serial_where_the_platform_cannot_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert ordered_map(lambda k: os.getpid(), range(4), 2) == [os.getpid()] * 4


def test_serial_while_another_thread_runs():
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(10,))
    other.start()
    try:
        assert ordered_map(lambda k: os.getpid(), range(4), 2) == [os.getpid()] * 4
    finally:
        stop.set()
        other.join(10)
    assert not other.is_alive()


def test_function_reaches_the_workers_without_pickling():
    lock = threading.Lock()  # neither a lambda nor a lock pickles

    def locked_square(k):
        with lock:
            return k * k

    assert ordered_map(locked_square, range(5), 2) == [0, 1, 4, 9, 16]


def test_first_failing_item_raises_with_its_attributes():
    def parse(k):
        if k in (3, 5):
            raise ParseError(f"bad item {k}", line=k + 1)
        return k

    for workers in (1, 2, 4):
        with pytest.raises(ParseError) as err:
            ordered_map(parse, range(6), workers)
        assert str(err.value) == "line 4: bad item 3"
        assert err.value.line == 4
    assert multiprocessing.active_children() == []


def test_one_worker_per_chunk(monkeypatch):
    started = []

    class CountingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    # 5 items on 4 workers: chunks of 2, so 3 workers
    assert ordered_map(lambda k: -k, range(5), 4) == [0, -1, -2, -3, -4]
    assert ordered_map(lambda k: -k, range(4), 2) == [0, -1, -2, -3]
    assert started == [3, 2]


def test_workers_split_this_process_blas_threads():
    blas = _workers._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get_threads, set_threads = blas
    here = get_threads()
    try:
        for mine, workers, share in ((4, 2, 2), (3, 2, 1), (1, 2, 1), (4, 3, 1)):
            set_threads(mine)
            assert ordered_map(lambda k: get_threads(), range(workers), workers) == \
                [share] * workers
            assert get_threads() == mine
    finally:
        set_threads(here)
