import os
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Sizes of the matrices that _cholesky_lower factors through
    magnitude's and schur's bindings."""
    from magmoments import magnitude, schur

    calls = []
    real = magnitude._cholesky_lower

    def counted(a):
        calls.append(a.shape[0])
        return real(a)

    for module in (magnitude, schur):
        monkeypatch.setattr(module, "_cholesky_lower", counted)
    return calls


@pytest.fixture
def set_workers(monkeypatch):
    """``set_workers(w)``: two cores, with BLAS threads that leave w (1 or
    2) of them for pool processes, and the node pool's size floor lowered
    to two points, so that small clouds take the pool path."""
    from magmoments import moments

    def set_(workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(2 // workers))
        monkeypatch.setattr(moments, "POOL_FLOOR", 2)

    return set_

# Acceptance tests are named test_criterion_<NN>[suffix]_<slug>; the hook
# below folds their outcomes into one PASS/FAIL line per criterion.
_CRITERION = re.compile(r"test_criterion_(\d+)")
_criterion_outcomes: dict[int, list] = {}
_criterion_titles: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    _criterion_outcomes.setdefault(num, []).append(report.outcome)


def pytest_collection_modifyitems(items):
    for item in items:
        match = _CRITERION.search(item.nodeid)
        if not match:
            continue
        num = int(match.group(1))
        doc = (item.function.__doc__ or "").strip().splitlines()
        if doc and num not in _criterion_titles:
            _criterion_titles[num] = doc[0]


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_outcomes):
        outcomes = _criterion_outcomes[num]
        verdict = "PASS" if all(o == "passed" for o in outcomes) else "FAIL"
        title = _criterion_titles.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}  {title}")
