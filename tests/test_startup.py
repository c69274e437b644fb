"""scipy is imported where it is used: start-up and store-hit ``curves`` run
without it, and a trial pool imports it once, before it forks."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import magmoments

SRC = os.path.dirname(os.path.dirname(os.path.abspath(magmoments.__file__)))

# Prints the scipy modules loaded after the preceding code, as JSON.
SCIPY_LOADED = (
    "\nimport json, sys"
    "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
)


def fresh(code, cwd, **env):
    """Run ``code`` in a new interpreter; return its stripped stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p), **env}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def cli_main(*args):
    """Code that runs ``cli.main(args)`` and asserts it exits 0."""
    return f"from magmoments import cli\nassert cli.main({list(args)!r}) == 0"


def test_import_loads_no_scipy(tmp_path):
    code = "import magmoments, magmoments.cli" + SCIPY_LOADED
    assert json.loads(fresh(code, tmp_path)) == []


def test_curves_from_the_store_load_no_scipy(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "dims": [2, 3], "trialsPerDim": 2, "pointsPerTrial": 30,
        "seeds": [0, 1], "quadratureOrder": 8,
    }))
    args = ["--config", str(config), "--out", str(tmp_path / "out")]
    fresh(cli_main("experiments", "table1", *args), tmp_path)
    code = cli_main("experiments", "curves", *args) + SCIPY_LOADED
    assert json.loads(fresh(code, tmp_path)) == []
    assert len(list((tmp_path / "out" / "curves").iterdir())) == 8


def test_a_compute_command_imports_scipy_when_it_runs(tmp_path):
    pts = np.random.default_rng(3).normal(size=(20, 3))
    np.savetxt(tmp_path / "pts.csv", pts, delimiter=",")
    code = cli_main("hull", "--input", "pts.csv", "--out", "hull.json") + SCIPY_LOADED
    volume, loaded = fresh(code, tmp_path).splitlines()
    assert volume.startswith("volume ") and "scipy.spatial" in json.loads(loaded)
    assert json.loads((tmp_path / "hull.json").read_text())["vertexCount"] > 3


# Two cores, BLAS threads that leave ``workers`` of them free (as the
# set_workers fixture does); each trial, in whichever process runs it, fails
# unless scipy's loaded state on its entry matches ``prefork`` (trials after
# the first in one process see what the first one imported).
TABLE1 = """
import os, sys, warnings
os.sched_getaffinity = lambda pid: {{0, 1}}
warnings.simplefilter("error")
from magmoments import experiments
from magmoments.errors import MagnitudeError
from magmoments.parallel import worker_count
assert worker_count(2) == {workers}
real = experiments.run_trial
entered = []
def run_trial(*args):
    if not entered and ("scipy.spatial" in sys.modules) != {prefork}:
        raise MagnitudeError("scipy.spatial loaded on entry: " + str(not {prefork}))
    entered.append(True)
    return real(*args)
experiments.run_trial = run_trial
config = experiments.ExperimentConfig(
    dims=(2,), trials_per_dim=2, points_per_trial=30, quadrature_order=8)
assert len(experiments.run_table1(config)) == 1
print("scipy.spatial" in sys.modules)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_a_trial_pool_imports_scipy_before_it_forks(tmp_path, workers):
    code = TABLE1.format(workers=workers, prefork=workers > 1)
    # Pooled, the parent runs no trial: the pre-fork import alone loaded it.
    loaded = fresh(code, tmp_path, OPENBLAS_NUM_THREADS=str(2 // workers))
    assert loaded == "True"
