#!/usr/bin/env python3
"""Time CLI commands in fresh interpreters; write BENCH_startup.json.

    python3 tools/bench_startup.py --baseline OTHER/src [--out BENCH_startup.json] [-k 10]

Run from the repository root. ``--baseline`` is the ``src`` directory of
another checkout (the parent commit, say); this checkout's ``src`` is the
change. The commands are those of perfbench's ``moments_cli`` workload:
``datagen`` of a 1000-point 2-D annulus, then ``moments``, ``hull-approx``
and ``hull`` on it. Each runs as ``python3 -m magmoments.cli`` in a new
interpreter with BLAS at one thread, each side in a temporary directory of
its own. A repetition runs all four commands on one side, then on the
other; the side that goes first alternates, so that a drift of the host
touches both sides alike.

Per command and side the record holds, over the k repetitions, the
[q1, median, q3] of the wall time from spawn to exit, and of the peak
resident set of the command's process and the pool workers it waited for
(``os.wait4``). It also holds the sha256 of every file the commands wrote,
which must agree between the sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_union import _cpu_model, _quartiles, _src_lines

ROOT = Path(__file__).resolve().parents[1]

POINTS, ORDER, EPSILON = 1000, 64, 0.5
OUTPUTS = ["pts.csv", "moments.csv", "approx.json", "hull.json"]


def commands(seed: int) -> dict:
    """Command name -> CLI arguments, in the order they run."""
    return {
        "datagen": ["datagen", "--kind", "annulus", "--n", str(POINTS),
                    "--seed", str(seed), "--out", "pts.csv"],
        "moments": ["moments", "--input", "pts.csv", "--order", str(ORDER),
                    "--out", "moments.csv"],
        "hull-approx": ["hull-approx", "--input", "pts.csv", "--epsilon", str(EPSILON),
                        "--order", str(ORDER), "--out", "approx.json"],
        "hull": ["hull", "--input", "pts.csv", "--out", "hull.json"],
    }


def _timed(args, cwd, env) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI command, run to exit."""
    tick = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "magmoments.cli", *args], cwd=cwd,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - tick
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode} in {cwd}")
    return wall, usage.ru_maxrss / 1024


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="src directory of the other checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json")
    parser.add_argument("--seed", type=int, default=501)
    parser.add_argument("-k", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"baseline": args.baseline.resolve(), "change": ROOT / "src"}
    cmds = commands(args.seed)
    samples = {name: {side: [] for side in sides} for name in cmds}
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        dirs = {side: Path(scratch, side) for side in sides}
        for rep in range(args.k):
            order = ["baseline", "change"] if rep % 2 == 0 else ["change", "baseline"]
            for side in order:
                env = {**os.environ, "PYTHONPATH": str(sides[side]),
                       "OPENBLAS_NUM_THREADS": "1"}
                dirs[side].mkdir(exist_ok=True)
                for name, cli_args in cmds.items():
                    samples[name][side].append(_timed(cli_args, dirs[side], env))
        for side, cwd in dirs.items():
            digests[side] = {name: _sha256(cwd / name) for name in OUTPUTS}
    import numpy
    import scipy

    record = {
        "benchmark": "magmoments CLI commands, each in a fresh interpreter",
        "inputs": {
            "dataset": "annulus, default params", "points": POINTS, "dim": 2,
            "seed": args.seed, "order": ORDER, "epsilon": EPSILON,
            "commands": {name: " ".join(a) for name, a in cmds.items()},
        },
        "method": (
            f"k={args.k} repetitions; each runs the four commands on one side, then "
            "on the other, the first side alternating. One interpreter per command; "
            "wall time from spawn to exit, peak RSS from os.wait4."
        ),
        "machine": {
            "cpu": _cpu_model(),
            "logical_cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas_threads": "OPENBLAS_NUM_THREADS=1",
        "src_lines": {side: _src_lines(src) for side, src in sides.items()},
        "wall_s": "per command and side, [q1, median, q3] over the k repetitions",
        "peak_rss_mb": "per command and side, [q1, median, q3] over the k repetitions",
        "results": {
            name: {
                side: {
                    "wall_s": [round(q, 4) for q in _quartiles([w for w, _ in runs])],
                    "peak_rss_mb": [round(q, 1) for q in _quartiles([m for _, m in runs])],
                }
                for side, runs in per_side.items()
            }
            for name, per_side in samples.items()
        },
        "outputs_sha256": digests,
        "outputs_identical": digests["baseline"] == digests["change"],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
