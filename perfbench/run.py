#!/usr/bin/env python3
"""Benchmark of magmoments: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is a ``{"report": ...}`` object: machine, BLAS thread setting, seeds,
sample counts, the workload's names for the generic metrics, and the first
errors. ``python3 perfbench/selfcheck.py`` checks this script at small size.

Workloads. Inputs come from --seed; the program sees only generated files
and arguments. Every repetition runs in fresh interpreters, so no run
inherits the library's in-process weight cache from an earlier one.

* ``paper_table``: ``magmoments experiments table1``, then ``experiments
  curves``, one CLI process each, on the paper's configuration (Gaussian
  blobs, N=1000, dims 2-5, Gauss-Laguerre order 64) with one trial seed per
  dimension drawn from --seed out of the paper's seeds 0-19. It is the
  paper's own job and its time splits over every layer.
* ``moments_cli``: ``magmoments datagen`` (set-up), then ``moments``,
  ``hull-approx`` and ``hull`` on a 2-D annulus of 1000 points. Solve
  bound: every quadrature node needs a solve; hull work is negligible.
  (1000 rather than 2000 points: the same split between distances and
  Cholesky, and several repetitions per run, so that the median rejects a
  one-off stall of a single command on a shared host.)
* ``schur_updates``: one process on one blob cloud (N=800, d=3) at one
  scale: restriction sweeps, a streaming union, a filter epsilon sweep and
  a magnitude function. No quadrature or hull in the timed phase; the only
  workload on which the library's weight cache hits.

End-to-end metrics (--trace 0, tracing off). The workloads share metric
names; ``step1_s`` and ``step2_s`` are each workload's two main steps:

=============  ===================  ===================  ==================
metric         paper_table          moments_cli          schur_updates
=============  ===================  ===================  ==================
wall_s         table1 + curves      three commands       timed phase
setup_s        interpreter+import   ``datagen``          start to timed
step1_s        table1_s             moments_cmd_s        restrict_op_s_p50
step2_s        curves_s             hull_approx_cmd_s    union_op_s_p50
peak_rss_mb    largest resident set of any child process (getrusage)
=============  ===================  ===================  ==================

Times are medians over repetitions (per-call medians pooled over
repetitions for the schur operations); set-up is repeated several times
per run. ``fail_ratio`` is ``failed / attempted`` in the result line:
nonzero exits, raised ``MagnitudeError``, failure lines in
``trials.jsonl`` and reference mismatches all count as failed.

Per-layer metrics (--trace 1): a run alternates untraced and traced
repetitions. The traced one wraps the public functions of every module
from outside the program (see tracer.py). Function metrics
(``<module>.<function>.calls`` / ``.self_s``, node counts, GFLOP) cover
the whole traced repetition, set-up included; ``layer.<module>.self_s``
and ``trace.*`` cover its timed phase, where the layer self-times plus
``trace.startup_s`` (interpreter start and imports of the timed CLI
processes) account for ``trace.wall_s``. ``trace.overhead_s`` is the
traced minus the untraced timed wall. ``magnitude.cholesky_gflop`` and
``magnitude.gflop_per_s`` are computed from array sizes (N^3/3 per
``solve_weights`` call); ``magnitude.ref_cholesky_gflop_per_s`` is
measured on a random SPD matrix of the most-solved N in the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: A run stops starting work after this many seconds, so it ends within 180.
DEADLINE_S = 170.0

PROFILES = {
    "full": {
        "paper_table": {"points": 1000, "dims": [2, 3, 4, 5], "order": 64,
                        "seed_pool": 20, "setup_repeats": 5},
        "moments_cli": {"points": 1000, "order": 64, "epsilon": 0.5,
                        "seed_pool": 10, "setup_repeats": 1},
        "schur_updates": {"points": 800, "dim": 3, "t": 1.0, "order": 16,
                          "removed_sizes": [8, 40, 160], "splits_per_size": 6,
                          "union_base": 640, "union_chunks": 4, "union_overlap": 4,
                          "epsilons": [0.01, 0.1, 0.5, 1.0, 2.0, math.inf],
                          "scales": [0.25, 0.5, 1.0, 2.0, 4.0]},
    },
    "small": {
        "paper_table": {"points": 60, "dims": [2, 3], "order": 16,
                        "seed_pool": 2, "setup_repeats": 2},
        "moments_cli": {"points": 80, "order": 16, "epsilon": 0.5,
                        "seed_pool": 2, "setup_repeats": 2},
        "schur_updates": {"points": 60, "dim": 3, "t": 1.0, "order": 8,
                          "removed_sizes": [4, 12], "splits_per_size": 2,
                          "union_base": 40, "union_chunks": 2, "union_overlap": 2,
                          "epsilons": [0.1, 1.0, math.inf], "scales": [0.5, 1.0, 2.0]},
    },
}

#: Each workload's names for step1_s and step2_s.
STEP_NAMES = {
    "paper_table": ("table1_s", "curves_s"),
    "moments_cli": ("moments_cmd_s", "hull_approx_cmd_s"),
    "schur_updates": ("restrict_op_s_p50", "union_op_s_p50"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "step1_s": "s", "step2_s": "s",
              "peak_rss_mb": "MB"}

DIMS = (2, 3, 4, 5)
PER_LAYER = {
    "geometry.pairwise_distances.calls": "count",
    "geometry.pairwise_distances.self_s": "s",
    "geometry.build_similarity.calls": "count",
    "geometry.build_similarity.self_s": "s",
    "geometry.PointCloud.from_csv.self_s": "s",
    "magnitude.weights_at_scale.calls": "count",
    "magnitude.solve_weights.calls": "count",
    "magnitude.solve_weights.self_s": "s",
    "magnitude.cache_hit_ratio": "ratio",
    "magnitude.cholesky_gflop": "GFLOP",
    "magnitude.gflop_per_s": "GFLOP/s",
    "magnitude.ref_cholesky_gflop_per_s": "GFLOP/s",
    "magnitude.gflop_per_s_vs_ref": "ratio",
    "moments.zeroth_moments.self_s": "s",
    "moments.nodes_solved": "count",
    "moments.nodes_skipped": "count",
    **{f"moments.zeroth_moments.self_s.d{d}": "s" for d in DIMS},
    **{f"moments.nodes_solved.d{d}": "count" for d in DIMS},
    **{f"moments.nodes_skipped.d{d}": "count" for d in DIMS},
    **{f"hull_filter.moment_prefix_curve.self_s.d{d}": "s" for d in DIMS},
    "hull_filter.filter_by_moment.self_s": "s",
    "hull_filter.approximate_hull.self_s": "s",
    "hull_exact.convex_hull.calls": "count",
    "hull_exact.convex_hull.self_s": "s",
    "schur.schur_complement.calls": "count",
    "schur.schur_complement.self_s": "s",
    "schur.restricted_magnitude.self_s": "s",
    "schur.restriction_bounds.self_s": "s",
    "schur.union_weights.self_s": "s",
    "datagen.generate.self_s": "s",
    "experiments.run_trial.calls": "count",
    "io.bytes_written": "bytes",
    **{f"layer.{m}.self_s": "s" for m in tracer.LAYERS},
    "trace.startup_s": "s",
    "trace.layers_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """State of one benchmark run: inputs, child environment, op counts."""

    def __init__(self, root, workload, seed, profile):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.params = PROFILES[profile][workload]
        pool = self.params.get("seed_pool")
        self.data_seed = random.Random(seed).randrange(pool) if pool else seed
        with open(os.path.join(HERE, "refs.json")) as fh:
            self.refs = json.load(fh)[profile].get(workload, {}).get(str(self.data_seed))
        scratch = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(scratch, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
        # One BLAS thread, at most nproc: on a shared 2-core box, two
        # spinning OpenBLAS threads stall whenever any other process runs
        # (a 1000x1000 Cholesky took 11 ms on one thread and up to 0.8 s on
        # two), while an idle second thread saves at most 15%.
        self.threads = "1"
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, HERE, os.environ.get("PYTHONPATH")) if p
        )
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = self.threads
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reps = 0

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def child(self, argv, cwd):
        """Run a child process to completion; returns (wall seconds, proc)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline reached")
        tick = time.monotonic()
        proc = subprocess.run(argv, cwd=cwd, env=self.env, capture_output=True,
                              text=True, timeout=remaining)
        wall = time.monotonic() - tick
        self.check(proc.returncode == 0,
                   f"{argv[1:4]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return wall, proc

    def cli(self, args, cwd, spans=None):
        if spans:
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", spans, *args]
        else:
            argv = [sys.executable, "-m", "magmoments.cli", *args]
        return self.child(argv, cwd)

    def new_rep_dir(self):
        self.reps += 1
        path = os.path.join(self.work, f"rep{self.reps}")
        os.makedirs(path)
        return path


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


# -- paper_table ------------------------------------------------------------


def paper_table_config(params, base_seed):
    return {"dims": params["dims"], "trialsPerDim": 1,
            "pointsPerTrial": params["points"], "quadratureOrder": params["order"],
            "volumeFraction": 0.9, "seeds": [base_seed]}


def observe_paper_table(out_dir, base_seed, dims):
    """Reference-checked facts of table1 (and curves, when present)."""
    seen = {"trials": {}, "failures": [], "curves": {}}
    with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
        seen["summary_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "trials.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            if "failure" in rec:
                seen["failures"].append(rec["failure"])
            else:
                seen["trials"][str(rec["dim"])] = {
                    "i90": rec["I90"], "vertices": rec["hullVertexCount"],
                    "full_volume": rec["fullVolume"]}
    for dim in dims:
        path = os.path.join(out_dir, "curves", f"dim{dim}_seed{base_seed}.csv")
        if os.path.exists(path):
            with open(path) as fh:
                rows = [line.split(",") for line in fh.read().split()[1:]]
            vols = [float(r[1]) for r in rows]
            i90 = next(int(r[0]) for r, v in zip(rows, vols) if v >= 0.9 * vols[-1])
            seen["curves"][str(dim)] = {"i90": i90, "full_volume": vols[-1], "rows": len(rows)}
    return seen


def check_paper_table(run, seen, ref):
    for failure in seen["failures"]:
        run.check(False, f"trial failed: {failure}")
    run.check(seen["summary_sha256"] == ref["summary_sha256"], "summary.csv sha256 differs")
    for dim in map(str, run.params["dims"]):
        want = ref["trials"][dim]
        got = seen["trials"].get(dim)
        run.check(got is not None and got["i90"] == want["i90"]
                  and got["vertices"] == want["vertices"]
                  and _rel(got["full_volume"], want["full_volume"]) <= 1e-9,
                  f"table1 dim {dim}: {got} != {want}")
        curve = seen["curves"].get(dim)
        run.check(curve is not None and curve["i90"] == want["i90"]
                  and curve["rows"] == run.params["points"]
                  and _rel(curve["full_volume"], want["full_volume"]) <= 1e-9,
                  f"curves dim {dim}: {curve} != {want}")


def paper_table_rep(run, traced):
    rep = run.new_rep_dir()
    cfg = os.path.join(rep, "config.json")
    setup = []
    for _ in range(1 if traced else run.params["setup_repeats"]):
        tick = time.monotonic()
        with open(cfg, "w") as fh:
            json.dump(paper_table_config(run.params, run.data_seed), fh)
        run.child([sys.executable, "-c", "import magmoments.cli"], rep)
        setup.append(time.monotonic() - tick)
    out = os.path.join(rep, "out")
    steps, spans = [], []
    tick = time.monotonic()
    for name in ("table1", "curves"):
        path = os.path.join(rep, f"{name}.spans.json") if traced else None
        wall, _ = run.cli(["experiments", name, "--config", cfg, "--out", out], rep, path)
        steps.append([wall])
        if path:
            spans.append((path, "timed", wall))
    wall = time.monotonic() - tick
    if run.check(run.refs is not None, f"no stored reference for seed {run.data_seed}"):
        try:
            seen = observe_paper_table(out, run.data_seed, run.params["dims"])
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            run.check(False, f"unreadable table1/curves output: {exc!r}")
        else:
            check_paper_table(run, seen, run.refs)
    return {"setup": setup, "wall": wall, "steps": steps,
            "spans": spans, "bytes_written": _dir_bytes(out)}


# -- moments_cli ------------------------------------------------------------


def moments_cli_commands(params, data_seed):
    order = str(params["order"])
    datagen = ["datagen", "--kind", "annulus", "--n", str(params["points"]),
               "--seed", str(data_seed), "--out", "pts.csv"]
    timed = [
        ["moments", "--input", "pts.csv", "--order", order, "--out", "out/moments.csv"],
        ["hull-approx", "--input", "pts.csv", "--epsilon", str(params["epsilon"]),
         "--order", order, "--out", "out/approx.json"],
        ["hull", "--input", "pts.csv", "--out", "out/hull.json"],
    ]
    return datagen, timed


def observe_moments_cli(out_dir):
    with open(os.path.join(out_dir, "moments.csv")) as fh:
        header = fh.readline().strip().split(",")
        col = header.index("mu0")
        mu0 = [float(line.split(",")[col]) for line in fh if line.strip()]
    with open(os.path.join(out_dir, "approx.json")) as fh:
        approx = json.load(fh)
    with open(os.path.join(out_dir, "hull.json")) as fh:
        hull = json.load(fh)
    return {"rows": len(mu0), "mu0_max": max(mu0), "mu0_sum": math.fsum(mu0),
            "kept": len(approx["keptIndices"]),
            "approx_vertices": approx["approxHull"]["vertexCount"],
            "full_vertices": approx["fullHull"]["vertexCount"],
            "hull_vertices": hull["vertexCount"], "hull_volume": hull["volume"]}


def check_moments_cli(run, seen, ref):
    run.check(seen["rows"] == ref["rows"], f"moments rows {seen['rows']} != {ref['rows']}")
    for key in ("mu0_max", "mu0_sum"):
        run.check(_rel(seen[key], ref[key]) <= 1e-10, f"{key} {seen[key]!r} != {ref[key]!r}")
    for key in ("kept", "approx_vertices", "full_vertices", "hull_vertices"):
        run.check(seen[key] == ref[key], f"{key} {seen[key]} != {ref[key]}")
    run.check(_rel(seen["hull_volume"], ref["hull_volume"]) <= 1e-9,
              f"hull volume {seen['hull_volume']!r} != {ref['hull_volume']!r}")


def moments_cli_rep(run, traced):
    rep = run.new_rep_dir()
    os.makedirs(os.path.join(rep, "out"))
    datagen, timed = moments_cli_commands(run.params, run.data_seed)
    setup, spans = [], []
    for _ in range(1 if traced else run.params["setup_repeats"]):
        path = os.path.join(rep, "datagen.spans.json") if traced else None
        wall, _ = run.cli(datagen, rep, path)
        setup.append(wall)
        if path:
            spans.append((path, "setup", wall))
    steps = []
    tick = time.monotonic()
    for args in timed:
        path = os.path.join(rep, f"{args[0]}.spans.json") if traced else None
        wall, _ = run.cli(args, rep, path)
        steps.append([wall])
        if path:
            spans.append((path, "timed", wall))
    wall = time.monotonic() - tick
    if run.check(run.refs is not None, f"no stored reference for seed {run.data_seed}"):
        try:
            seen = observe_moments_cli(os.path.join(rep, "out"))
        except (OSError, ValueError, KeyError) as exc:
            run.check(False, f"unreadable moments/hull output: {exc!r}")
        else:
            check_moments_cli(run, seen, run.refs)
    return {"setup": setup, "wall": wall, "steps": steps[:2], "spans": spans,
            "bytes_written": _dir_bytes(os.path.join(rep, "out"))}


# -- schur_updates ----------------------------------------------------------


def schur_updates_rep(run, traced):
    rep = run.new_rep_dir()
    params = os.path.join(rep, "params.json")
    with open(params, "w") as fh:
        json.dump({**run.params, "data_seed": run.data_seed}, fh)
    result = os.path.join(rep, "result.json")
    argv = [sys.executable, os.path.join(HERE, "schur_worker.py"), params, result]
    if traced:
        argv.append(os.path.join(rep, "worker.spans.json"))
    spawned = time.monotonic()
    _, proc = run.child(argv, rep)
    if proc.returncode != 0:
        raise RuntimeError(f"schur worker failed: {proc.stderr.strip()[-300:]}")
    with open(result) as fh:
        res = json.load(fh)
    run.attempted += res["attempted"]
    run.failed += res["failed"]
    run.errors.extend(res["errors"])
    spans = [(argv[-1], "worker", res["timed_start_ns"])] if traced else []
    return {"setup": [res["timed_start"] - spawned],
            "wall": res["timed_end"] - res["timed_start"],
            "steps": [res["restrict_s"], res["union_s"]], "spans": spans,
            "bytes_written": 0}


#: One repetition of each workload. Each returns ``setup`` (set-up samples,
#: s), ``wall`` (timed phase, s), ``steps`` (step1 and step2 samples, s),
#: ``bytes_written`` by the timed commands and, when traced, ``spans``:
#: (span file, phase, mark). Phase "setup" or "timed" is a CLI process and
#: mark its wall time; phase "worker" is the schur worker and mark the
#: perf_counter_ns at which its timed phase began.
REPS = {"paper_table": paper_table_rep, "moments_cli": moments_cli_rep,
        "schur_updates": schur_updates_rep}


# -- metrics ----------------------------------------------------------------


def layer_sums(rep):
    """Raw per-layer counts and times of one traced repetition."""
    out = Counter()
    flops_by_n = Counter()
    for path, phase, mark in rep["spans"]:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        rows = tracer.summarise(spans)
        children = Counter((row["parent"], row["name"]) for row in rows.values())
        for span_id, row in rows.items():
            name, attrs = row["name"], row["attrs"]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += row["self_s"]
            dim = attrs.get("d")
            if name == "moments.zeroth_moments":
                solved = children[(span_id, "magnitude.weights_at_scale")]
                skipped = attrs.get("order", 64) - solved
                out["moments.nodes_solved"] += solved
                out["moments.nodes_skipped"] += skipped
                out[f"moments.nodes_solved.d{dim}"] += solved
                out[f"moments.nodes_skipped.d{dim}"] += skipped
                out[f"moments.zeroth_moments.self_s.d{dim}"] += row["self_s"]
            elif name == "hull_filter.moment_prefix_curve":
                out[f"{name}.self_s.d{dim}"] += row["self_s"]
            elif name == "magnitude.solve_weights":
                flops_by_n[attrs["n"]] += attrs["n"] ** 3 / 3
        if phase == "setup":
            continue
        if phase == "worker":
            rows = tracer.summarise(spans, since_ns=mark)
        for row in rows.values():
            out[f"layer.{row['name'].split('.')[0]}.self_s"] += row["self_s"]
        if phase == "timed":
            roots = sum(r["dur_s"] for r in rows.values() if r["parent"] is None)
            out["trace.startup_s"] += mark - roots
    out["magnitude.cholesky_gflop"] = sum(flops_by_n.values()) / 1e9
    return out, flops_by_n


def per_layer_metrics(run, traced, untraced):
    """Per-layer metrics, averaged over traced repetitions, and the machine
    record with the Cholesky reference at the N that took most flops."""
    total, flops = Counter(), Counter()
    for rep in traced:
        sums, by_n = layer_sums(rep)
        total.update(sums)
        flops.update(by_n)
    machine = machine_info(run, max(flops, key=flops.get) if flops else None)
    machine["gflop_note"] = ("magnitude.cholesky_gflop and gflop_per_s are computed "
                             "from array sizes: N^3/3 per solve_weights call")
    ref_rate = machine.get("cholesky_gflop_per_s", 0.0)
    k = len(traced)
    m = {name: total.get(name, 0.0) / k for name in PER_LAYER}
    was = total.get("magnitude.weights_at_scale.calls", 0)
    m["magnitude.cache_hit_ratio"] = (
        1 - total.get("magnitude.solve_weights.calls", 0) / was if was else 0.0
    )
    solve_s = total.get("magnitude.solve_weights.self_s", 0.0)
    gflop = total.get("magnitude.cholesky_gflop", 0.0)
    m["magnitude.gflop_per_s"] = gflop / solve_s if solve_s else 0.0
    m["magnitude.ref_cholesky_gflop_per_s"] = ref_rate
    m["magnitude.gflop_per_s_vs_ref"] = m["magnitude.gflop_per_s"] / ref_rate if ref_rate else 0.0
    traced_wall = statistics.median(r["wall"] for r in traced)
    layers = sum(m[f"layer.{name}.self_s"] for name in tracer.LAYERS)
    m["trace.wall_s"] = traced_wall
    m["trace.layers_share"] = layers / traced_wall
    m["trace.overhead_s"] = traced_wall - statistics.median(r["wall"] for r in untraced)
    m["io.bytes_written"] = statistics.mean(r["bytes_written"] for r in traced)
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, machine


def end_to_end_metrics(reps):
    setups = [s for r in reps for s in r["setup"]]
    step1 = [s for r in reps for s in r["steps"][0]]
    step2 = [s for r in reps for s in r["steps"][1]]
    values = {
        "wall_s": (statistics.median(r["wall"] for r in reps), len(reps)),
        "setup_s": (statistics.median(setups), len(setups)),
        "step1_s": (statistics.median(step1), len(step1)),
        "step2_s": (statistics.median(step2), len(step2)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
    }
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, {name: n for name, (_, n) in values.items()}


# -- main -------------------------------------------------------------------


def machine_info(run, cholesky_n=None):
    argv = [sys.executable, os.path.join(HERE, "child.py"), "machine"]
    if cholesky_n:
        argv.append(str(cholesky_n))
    _, proc = run.child(argv, run.work)
    info = json.loads(proc.stdout) if proc.returncode == 0 else {}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown")
    except OSError:
        info["cpu"] = "unknown"
    info["nproc"] = os.cpu_count()
    info["blas_threads"] = run.threads
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(run.root))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.root, env=env,
                             capture_output=True, text=True, timeout=10)
        info["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        info["git_commit"] = None
    digest = hashlib.sha256()
    src = os.path.join(run.root, "src", "magmoments")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    info["src_sha256"] = digest.hexdigest()
    return info


def measure(run, seconds, trace):
    """Whole repetitions (pairs of untraced and traced ones when tracing)
    while the next one still fits in ``seconds``; at least one."""
    rep_fn = REPS[run.workload]
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        tick = time.monotonic()
        untraced.append(rep_fn(run, False))
        if trace:
            traced.append(rep_fn(run, True))
        last = time.monotonic() - tick
        if time.monotonic() - start + last > seconds:
            return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full",
                        help="input sizes; 'small' is for the self-check")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "magmoments", "cli.py")):
        print("error: run from the repository root (src/magmoments not found)",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.profile)
    try:
        untraced, traced = measure(run, args.seconds, args.trace)
        if args.trace:
            metrics, machine = per_layer_metrics(run, traced, untraced)
            samples = {"untraced_reps": len(untraced), "traced_reps": len(traced)}
        else:
            machine = machine_info(run)
            metrics, samples = end_to_end_metrics(untraced)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    names = dict(zip(("step1_s", "step2_s"), STEP_NAMES[run.workload]))
    for name, metric in metrics.items():
        label = f"{name} ({names[name]})" if name in names else name
        print(f"{label:40s} {metric['value']:.6g} {metric['unit']}"
              + (f"  n={samples[name]}" if name in samples else ""))
    report = {"workload": run.workload, "seed": run.seed, "data_seed": run.data_seed,
              "profile": args.profile, "trace": args.trace, "machine": machine,
              "samples": samples, "step_names": names,
              "fail_ratio": run.failed / max(run.attempted, 1),
              "errors": run.errors[:10]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
