"""Per-item work on forked worker processes, results in item order.

numpy's eigensolver releases the GIL, yet two threads ran spectra --rescale no
faster than one, and two forked workers in about half the time (README, "Full
spectra"). A forked worker inherits the mapped function and what it closes
over (a model, its link matrix) unpickled; only items and results cross the
pipe. Where numpy's BLAS is OpenBLAS, the workers split this process's BLAS
threads, so their pools together are no larger than this one's.
"""

from __future__ import annotations

import math
import os
import threading

_fn = None  # set in each worker by the pool's initializer, never in the caller


def _install(fn, blas_share) -> None:
    global _fn
    _fn = fn
    if blas_share is not None:
        set_threads, count = blas_share
        set_threads(count)


def _openblas():
    """(get, set) of the thread count of numpy's OpenBLAS, or None for another BLAS."""
    import ctypes
    from numpy._core import _multiarray_umath

    # a symbol lookup in numpy's extension also searches the BLAS it links
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        try:
            return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            pass
    return None


def _call(item):
    return _fn(item)


def ordered_map(fn, items, workers: int | None) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` forked processes.

    Runs in this process when fewer than two workers would get an item,
    where the platform cannot fork, or where this process runs other threads
    (a lock one of them holds would stay held in the child). Each worker
    takes one contiguous chunk, so the exception raised is that of the first
    failing item, as in the serial loop.
    """
    items = list(items)
    workers = min(workers or 1, len(items))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    # imported here: they add about 20 ms to the start of every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = math.ceil(len(items) / workers)
    workers = math.ceil(len(items) / chunk)  # no worker without a chunk
    # unshared, each worker's BLAS pool would be as large as this process's;
    # on a 2-core box that made an unpinned spectra 2-20x slower than split
    blas = _openblas()
    blas_share = blas and (blas[1], max(1, blas[0]() // workers))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install, initargs=(fn, blas_share)) as pool:
        return list(pool.map(_call, items, chunksize=chunk))
