"""Worker processes on the cores that BLAS leaves idle.

Both parallel loops, the experiment trials and one cloud's quadrature
nodes, run on ``ordered_map``, sized by one policy: workers = cores //
BLAS threads per process. Threads would not help: scipy's LAPACK
wrappers hold the GIL through the Cholesky factorization, while
processes overlap it. Pools do not nest: a process that is itself a pool
worker runs its work in-line.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager
from itertools import islice


def worker_count(tasks: int) -> int:
    """Processes to run ``tasks`` tasks on: the cores that BLAS leaves free.

    BLAS threads per process are the first positive integer among the
    variables below, in the order OpenBLAS reads them; unset, OpenBLAS
    takes every core, and the tasks then run in-process (1). So do they
    where processes cannot be forked, in a pool worker, and in a process
    running other threads, which fork could leave holding a lock in the
    child.
    """
    import multiprocessing  # here, not at the top: CLI start-up skips it

    if multiprocessing.parent_process() is not None:
        return 1
    if threading.active_count() > 1:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    blas_threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    return max(1, min(tasks, cores // blas_threads))


@contextmanager
def ordered_map(func, items, workers: int):
    """``func(item)`` for each item, yielded lazily and in item order.

    With one worker this is the builtin ``map``. Otherwise ``workers``
    forked processes run ``func``, which reaches them by fork through the
    pool's initializer and is never pickled, so it may be any callable;
    each task sends one item and returns one result. Item k + workers - 1
    is submitted when item k is requested, so at most workers - 1 items
    start past the one where the reader stops; their results and errors
    are discarded unread. An item's error is raised when that item is
    read. Every exit waits for the workers and cancels what they have not
    started. Fork is safe with a count from ``worker_count``, which allows
    a pool only in a process without other threads; with BLAS at one
    thread OpenBLAS starts none either.
    """
    if workers == 1:
        yield map(func, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(func,),
    )
    try:
        yield _read_ahead(pool, iter(items), workers - 1)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _read_ahead(pool, items, ahead: int):
    pending = deque(pool.submit(_call, item) for item in islice(items, ahead))
    for item in items:
        pending.append(pool.submit(_call, item))
        yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


#: ``ordered_map``'s function in a pool worker, set there by ``_adopt``.
_func = None


def _adopt(func) -> None:
    global _func
    _func = func


def _call(item):
    return _func(item)
