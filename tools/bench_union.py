#!/usr/bin/env python3
"""Time union_weights on two union streams; write BENCH_union.json.

    python3 tools/bench_union.py --baseline OTHER/src [--out BENCH_union.json] [-k 15]

Run from the repository root. ``--baseline`` is the ``src`` directory of
another checkout (the parent commit, say); this checkout's ``src`` is the
change. Each side runs in its own interpreter with BLAS at one thread, in
the order baseline, change, change, baseline, so that a drift of the host
touches both sides alike.

A stream starts from a subset of a Gaussian-blob cloud, with weights from
``weights_at_scale``, and adds the held-out points back in chunks through
``union_weights``, each chunk also repeating a few points the stream
already holds; the next union starts from the last one's output, as in
``perfbench/schur_worker.py``. Only the ``union_weights`` calls are timed.
``schur_updates`` is that worker's stream at the full profile and the
given seed (N = 800, d = 3, t = 1, base 640, 4 chunks, overlap 4; the
worker's random draws are repeated to reach the same permutation);
``long`` adds the same 160 points in 16 chunks of 10 with overlap 2.

Each run repeats every stream k times and records, per union, the
[q1, median, q3] of its k times in ms, and the largest deviation from a
dense solve (numpy.linalg.solve on exp(-t d)) over the stream's unions,
relative to max |w|.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, chunks, overlap); every stream adds the 160 points the base lacks.
STREAMS = [("schur_updates", 4, 4), ("long", 16, 2)]
POINTS, DIM, SCALE, BASE = 800, 3, 1.0, 640
#: The schur worker draws one permutation per restriction split before the
#: union's (3 removed sizes x 6 splits at the full profile).
WORKER_SPLIT_DRAWS = 18


def _dense_weights(points, t):
    import numpy as np

    diff = points[:, None, :] - points[None, :, :]
    zeta = np.exp(-t * np.sqrt((diff * diff).sum(axis=-1)))
    return np.linalg.solve(zeta, np.ones(len(points)))


def measure(seed: int, k: int) -> dict:
    """Time every stream k times in this interpreter; return its record."""
    import numpy as np

    from magmoments.datagen import DatasetSpec, generate
    from magmoments.geometry import PointCloud
    from magmoments.magnitude import weights_at_scale
    from magmoments.schur import union_cloud, union_weights

    cloud = generate(DatasetSpec("gaussian-blobs", POINTS, DIM, seed))
    rng = np.random.default_rng([seed, 1])
    for _ in range(WORKER_SPLIT_DRAWS):
        rng.permutation(POINTS)
    perm = rng.permutation(POINTS)
    out = {}
    for name, chunks, overlap in STREAMS:
        times, deviation = [], 0.0
        for rep in range(k):
            cloud_x = cloud.subset(perm[:BASE])
            weights_x = weights_at_scale(cloud_x, SCALE)
            per_union = []
            for chunk in np.array_split(perm[BASE:], chunks):
                cloud_y = PointCloud(
                    np.vstack([cloud.points[chunk], cloud_x.points[:overlap]])
                )
                weights_y = weights_at_scale(cloud_y, SCALE)
                tick = time.perf_counter()
                weights_x = union_weights(cloud_x, cloud_y, weights_x, weights_y)
                per_union.append(time.perf_counter() - tick)
                cloud_x = union_cloud(cloud_x, cloud_y)
                if rep == 0:
                    direct = _dense_weights(cloud_x.points, SCALE)
                    gap = np.abs(weights_x.weights - direct).max()
                    deviation = max(deviation, float(gap / np.abs(direct).max()))
            times.append(per_union)
        out[name] = {
            "union_ms": [
                [round(1e3 * q, 3) for q in _quartiles([rep[i] for rep in times])]
                for i in range(chunks)
            ],
            "max_rel_deviation_from_dense": deviation,
        }
    return out


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (src / "magmoments").glob("*.py"))


def _run_side(src: Path, seed: int, k: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", "--seed", str(seed), "-k", str(k)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="src directory of the other checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_union.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-k", type=int, default=15)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure(args.seed, args.k), sys.stdout)
        return 0
    if args.baseline is None:
        parser.error("--baseline is required")
    sides = {"baseline": args.baseline.resolve(), "change": ROOT / "src"}
    runs = {side: [] for side in sides}
    for side in ("baseline", "change", "change", "baseline"):
        runs[side].append(_run_side(sides[side], args.seed, args.k))
    import numpy
    import scipy

    record = {
        "benchmark": "union_weights on streams of unions, each fed the last one's output",
        "inputs": {
            "dataset": "gaussian-blobs, default params", "points": POINTS, "dim": DIM,
            "seed": args.seed, "t": SCALE, "base": BASE,
            "streams": {name: {"chunks": c, "overlap": o} for name, c, o in STREAMS},
        },
        "method": (
            f"One interpreter per run, runs ordered baseline, change, change, baseline. "
            f"Each run repeats every stream k={args.k} times from weights_at_scale "
            "on the base; only union_weights calls are timed."
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
        "union_ms": "per union of the stream, [q1, median, q3] over the k repetitions; one list per run",
        "max_rel_deviation_from_dense": "max over the stream's unions of max|w - w_dense| / max|w_dense|, per run",
        "results": {
            name: {
                side: {
                    "union_ms": [run[name]["union_ms"] for run in runs[side]],
                    "max_rel_deviation_from_dense": [
                        run[name]["max_rel_deviation_from_dense"] for run in runs[side]
                    ],
                }
                for side in sides
            }
            for name, _, _ in STREAMS
        },
    }
    text = json.dumps(record, indent=1) + "\n"
    args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
