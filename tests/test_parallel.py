import contextlib
import multiprocessing
import os
import pickle
import threading
import time

import numpy as np
import pytest

from magmoments import moments
from magmoments.datagen import DatasetSpec, generate
from magmoments.errors import FactorizationFailure
from magmoments.moments import (
    gauss_laguerre_rule,
    higher_moments,
    laplace_moment,
    magnitude_moment,
    zeroth_moments,
)
from magmoments.parallel import ordered_map, worker_count


def test_worker_count_leaves_the_cores_blas_takes(monkeypatch):
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    # (cores, BLAS environment, trials, workers)
    cases = [
        (2, {}, 80, 1),  # unset: OpenBLAS takes every core
        (8, {}, 80, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 80, 2),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 80, 8),
        (8, {"OPENBLAS_NUM_THREADS": "2"}, 80, 4),
        (8, {"OPENBLAS_NUM_THREADS": "3"}, 80, 2),
        (2, {"OPENBLAS_NUM_THREADS": "4"}, 80, 1),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),  # capped by the trials
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 0, 1),
        (8, {"OMP_NUM_THREADS": "2"}, 80, 4),
        (8, {"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 80, 2),
        (8, {"OPENBLAS_NUM_THREADS": "8", "GOTO_NUM_THREADS": "1"}, 80, 1),
        # Not a positive integer: the next variable decides.
        (8, {"OPENBLAS_NUM_THREADS": "auto", "OMP_NUM_THREADS": "2"}, 80, 4),
        (8, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "-2"}, 80, 1),
        (8, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1.5"}, 80, 1),
        (8, {"OPENBLAS_NUM_THREADS": " 2 "}, 80, 4),
    ]
    for cores, env, trials, want in cases:
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
            for var in blas_vars:
                m.delenv(var, raising=False)
            for var, value in env.items():
                m.setenv(var, value)
            got = worker_count(trials)
        assert got == want, (cores, env, trials, got)
    with monkeypatch.context() as m:
        m.delattr(os, "sched_getaffinity", raising=False)
        m.setattr(os, "cpu_count", lambda: 4)
        m.setenv("OPENBLAS_NUM_THREADS", "1")
        assert worker_count(80) == 4
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert worker_count(80) == 1


def test_no_pool_from_a_process_running_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert worker_count(80) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(10,))
    thread.start()
    try:
        assert worker_count(80) == 1
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert worker_count(80) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_yields_in_item_order_from_a_closure(workers):
    offset = 100

    def func(x):  # a closure, which pickle cannot send
        time.sleep(0.01 * (6 - x))  # pooled, later items finish first
        return x + offset, os.getpid()

    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(func)
    with ordered_map(func, range(6), workers) as results:
        got = list(results)
    assert [value for value, _ in got] == [x + offset for x in range(6)]
    assert ({pid for _, pid in got} == {os.getpid()}) == (workers == 1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_raises_an_items_error_when_it_is_read(workers):
    def func(x):
        if x == 3:
            raise ValueError(f"item {x}")
        return x

    with ordered_map(func, range(6), workers) as results:
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="item 3"):
            next(results)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("stop", [0, 1, 4])
@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_starts_few_items_past_the_reader(tmp_path, workers, stop):
    # Items from ``stop`` on fail, but the reader never gets to them.
    log = tmp_path / "started.log"
    log.write_text("")

    def func(x):
        with open(log, "a") as fh:
            fh.write(f"{x}\n")
        if x >= stop:
            raise ValueError(f"item {x}")
        return x

    with ordered_map(func, range(10), workers) as results:
        assert [next(results) for _ in range(stop)] == list(range(stop))
    started = sorted(int(x) for x in log.read_text().split())
    assert started == list(range(len(started)))
    assert stop <= len(started) <= stop + workers - 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("how", ["end", "break", "raise"])
@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_leaves_no_child_process(workers, how):
    read = []
    with contextlib.suppress(KeyError):
        with ordered_map(lambda x: x, range(8), workers) as results:
            for x in results:
                read.append(x)
                if x == 2 and how == "break":
                    break
                if x == 2 and how == "raise":
                    raise KeyError(x)
    assert read == (list(range(8)) if how == "end" else [0, 1, 2])
    assert multiprocessing.active_children() == []


#: The four moments that share the node loop.
MOMENTS = {
    "zeroth": lambda c, r: zeroth_moments(c, r, estimate_error=False).mu0,
    "higher-n3": lambda c, r: higher_moments(c, 3, r),
    "laplace-s0.5": lambda c, r: laplace_moment(c, 0.5, r),
    "magnitude": lambda c, r: magnitude_moment(c, r),
}

BLOB = generate(DatasetSpec("gaussian-blobs", 60, 2, seed=1))


@pytest.fixture
def node_solves(tmp_path, monkeypatch):
    """(t, pid) of every node that moments solves, here or in a forked
    worker, read back from a file."""
    path = tmp_path / "node_solves.log"
    path.write_text("")
    real = moments.weights_at_scale

    def logged(cloud, t):
        with open(path, "a") as fh:
            fh.write(f"{float(t)!r} {os.getpid()}\n")
        return real(cloud, t)

    monkeypatch.setattr(moments, "weights_at_scale", logged)

    def read():
        lines = [line.split() for line in path.read_text().splitlines()]
        path.write_text("")
        return [(float(t), int(pid)) for t, pid in lines]

    return read


@pytest.mark.parametrize("order, cut", [(64, True), (8, False)], ids=["cut", "no-cut"])
@pytest.mark.parametrize("moment", MOMENTS)
def test_pooled_nodes_are_bit_identical(set_workers, node_solves, moment, order, cut):
    rule = gauss_laguerre_rule(order)
    results, solves = {}, {}
    for workers in (1, 2):
        set_workers(workers)
        results[workers] = MOMENTS[moment](BLOB, rule)
        solves[workers] = node_solves()
        assert multiprocessing.active_children() == []
    assert np.array_equal(results[1], results[2])
    # In-line: every node up to the cut, once each, in this process.
    assert {pid for _, pid in solves[1]} == {os.getpid()}
    assert [t for t, _ in solves[1]] == list(rule.nodes[: len(solves[1])])
    assert (len(solves[1]) < order) == cut
    # Pooled: the same nodes and at most one more, in two processes.
    pooled = sorted(t for t, _ in solves[2])
    assert pooled[: len(solves[1])] == [t for t, _ in solves[1]]
    assert len(pooled) - len(solves[1]) <= (1 if cut else 0)
    assert len({pid for _, pid in solves[2]}) == 2


def _fails_at(node, real=moments.weights_at_scale):
    def weights_at_scale(cloud, t):
        if t >= node:
            raise FactorizationFailure("injected")
        return real(cloud, t)

    return weights_at_scale


@pytest.mark.parametrize("k", [2, 3], ids=["here", "in-a-worker"])
def test_node_failure_text_is_the_same_pooled(set_workers, monkeypatch, k):
    rule = gauss_laguerre_rule(64)
    monkeypatch.setattr(moments, "weights_at_scale", _fails_at(rule.nodes[k]))
    messages = {}
    for workers in (1, 2):
        set_workers(workers)
        with pytest.raises(FactorizationFailure) as exc:
            zeroth_moments(BLOB, rule, estimate_error=False)
        messages[workers] = str(exc.value)
        assert multiprocessing.active_children() == []
    assert messages[1] == messages[2]
    assert messages[2] == f"at quadrature node t={rule.nodes[k]}: injected"


@pytest.mark.parametrize("moment", MOMENTS)
def test_failures_past_the_cut_do_not_raise(set_workers, monkeypatch, node_solves, moment):
    # With two workers the cut node is in flight before the cut is known.
    rule = gauss_laguerre_rule(64)
    set_workers(1)
    want = MOMENTS[moment](BLOB, rule)
    cut = len(node_solves())
    assert cut < rule.order
    set_workers(2)
    monkeypatch.setattr(moments, "weights_at_scale", _fails_at(rule.nodes[cut]))
    assert np.array_equal(MOMENTS[moment](BLOB, rule), want)
    assert multiprocessing.active_children() == []


def test_clouds_below_the_floor_solve_in_line(set_workers, monkeypatch, node_solves):
    set_workers(2)
    pids = {}
    for floor in (BLOB.size + 1, BLOB.size):
        monkeypatch.setattr(moments, "POOL_FLOOR", floor)
        zeroth_moments(BLOB, estimate_error=False)
        pids[floor] = {pid for _, pid in node_solves()}
    assert pids[BLOB.size + 1] == {os.getpid()}
    assert len(pids[BLOB.size]) == 2
