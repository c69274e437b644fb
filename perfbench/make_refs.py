"""Record the stored references that run.py checks outputs against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_refs.py [small|full ...]

For every seed in a workload's seed pool this runs the same CLI commands
as the benchmark, in this process, and stores what the checks compare:
per-trial I90, hull vertex count and full volume plus the sha256 of
``summary.csv`` (paper_table); max and sum of mu_0, the kept count and
hull vertex counts and volume (moments_cli). schur_updates needs no
stored data: it is checked against a direct solve in every run. Rerun
this only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
from magmoments import cli


def paper_table_ref(params, seed, work):
    cfg = os.path.join(work, "config.json")
    with open(cfg, "w") as fh:
        json.dump(run.paper_table_config(params, seed), fh)
    out = os.path.join(work, "out")
    if cli.main(["experiments", "table1", "--config", cfg, "--out", out]) != 0:
        raise SystemExit(f"table1 failed for seed {seed}")
    seen = run.observe_paper_table(out, seed, params["dims"])
    if seen["failures"]:
        raise SystemExit(f"table1 trial failures for seed {seed}: {seen['failures']}")
    return {"summary_sha256": seen["summary_sha256"], "trials": seen["trials"]}


def moments_cli_ref(params, seed, work):
    datagen, timed = run.moments_cli_commands(params, seed)
    os.makedirs(os.path.join(work, "out"))
    for args in [datagen, *timed]:
        if cli.main(args) != 0:
            raise SystemExit(f"{args[0]} failed for seed {seed}")
    return run.observe_moments_cli(os.path.join(work, "out"))


def main(profiles):
    path = os.path.join(run.HERE, "refs.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    home = os.getcwd()
    scratch = os.path.join(home, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    for profile in profiles:
        for workload, make in (("paper_table", paper_table_ref),
                               ("moments_cli", moments_cli_ref)):
            params = run.PROFILES[profile][workload]
            table = {}
            for seed in range(params["seed_pool"]):
                with tempfile.TemporaryDirectory(dir=scratch) as work:
                    os.chdir(work)
                    try:
                        table[str(seed)] = make(params, seed, work)
                    finally:
                        os.chdir(home)
                print(profile, workload, seed, table[str(seed)], flush=True)
            refs.setdefault(profile, {})[workload] = table
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["small", "full"])
