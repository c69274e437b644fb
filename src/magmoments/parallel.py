"""Worker processes on the cores that BLAS leaves idle.

One policy sizes both parallel loops, the experiment trials and one
cloud's quadrature nodes: workers = cores // BLAS threads per process.
Threads would not help: scipy's LAPACK wrappers hold the GIL through the
Cholesky factorization, while processes overlap it. Pools do not nest: a
process that is itself a pool worker runs its work in-line.
"""

from __future__ import annotations

import os
import threading


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


def fork_pool(workers: int, initializer=None, initargs=()):
    """A process pool of ``workers`` forked workers.

    Forked workers start with this process's modules and data as they are
    at the first submit, so they pay no import, run the same code, and
    take ``initargs`` without pickling. ``worker_count`` allows a pool
    only in a process without other threads, and with BLAS at one thread
    OpenBLAS starts none either.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(
        workers, mp_context=context, initializer=initializer, initargs=initargs
    )
