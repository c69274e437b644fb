"""Self-check of the benchmark (run.py) at small input sizes.

    python3 perfbench/selfcheck.py        (from the repository root)

Asserts, in under a minute:

* for every workload and both trace settings, run.py with the small
  profile prints a result line with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, is
  correct with no failed operation, and emits exactly the metrics that
  BENCHMARK.json lists for that setting, each with its unit and a finite
  value;
* the tracer wraps every import site of every wrapped function, including
  the names modules bind directly (``moments`` binds ``weights_at_scale``;
  ``hull_filter`` and ``experiments`` bind ``zeroth_moments`` and
  ``convex_hull``; ``hull_filter`` binds ``pairwise_distances``);
* in a directory that holds only BENCHMARK.json and the benchmark's own
  files, run.py exits nonzero without printing a result.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Import sites bound with ``from .module import name``.
BOUND_SITES = [
    ("moments", "weights_at_scale"),
    ("moments", "pairwise_distances"),
    ("hull_filter", "weights_at_scale"),
    ("hull_filter", "zeroth_moments"),
    ("hull_filter", "convex_hull"),
    ("hull_filter", "pairwise_distances"),
    ("experiments", "zeroth_moments"),
    ("experiments", "convex_hull"),
    ("experiments", "moment_prefix_curve"),
    ("experiments", "generate"),
    ("schur", "weights_at_scale"),
    ("schur", "build_similarity"),
    ("cli", "weights_at_scale"),
    ("cli", "zeroth_moments"),
    ("cli", "convex_hull"),
]


def run_benchmark(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
           workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--profile", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_outputs(root, bench):
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_benchmark(root, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in listed}
            got = result["metrics"]
            assert set(got) == set(want), set(got) ^ set(want)
            for name, metric in got.items():
                assert set(metric) == {"value", "unit"}, (name, metric)
                assert metric["unit"] == want[name], (name, metric, want[name])
                assert math.isfinite(metric["value"]), (name, metric)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked")


def check_import_sites():
    sites = tracer.install(tracer.Recorder())
    assert not tracer.unwrapped_sites()
    for module, name in BOUND_SITES:
        value = getattr(importlib.import_module(f"magmoments.{module}"), name)
        assert hasattr(value, "__wrapped__"), f"magmoments.{module}.{name} not wrapped"
    bound = sum(sites.values())
    print(f"ok  tracer wraps {len(sites)} functions at {bound} import sites")


def check_refuses_without_program(root):
    scratch = os.path.join(root, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_table",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok  refuses to run without the program")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    check_import_sites()
    check_refuses_without_program(root)
    check_outputs(root, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
