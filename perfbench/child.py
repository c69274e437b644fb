"""Child-process entry points of the benchmark.

    python3 perfbench/child.py cli SPANS.json ARGS...   traced `magmoments ARGS...`
    python3 perfbench/child.py machine [N]              versions, BLAS, and the
                                                        dense-Cholesky GFLOP/s at N

The traced CLI installs the tracer before the command runs and writes
the spans when it ends, whatever the exit status. The Cholesky reference
factors a random SPD matrix of order N (the size the traced run solved
most) with the same call the library makes and reports the median rate
of five factorizations, counting N^3/3 flops each.
"""

from __future__ import annotations

import json
import sys
import time


def traced_cli(spans_path, argv):
    import tracer

    recorder = tracer.Recorder()
    sites = tracer.install(recorder)
    from magmoments import cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path, {"sites": sites})


def machine(n=None):
    import numpy as np
    import scipy
    import scipy.linalg

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }
    if n:
        n = int(n)
        rng = np.random.default_rng(0)
        half = rng.standard_normal((n, n))
        spd = half @ half.T / n + np.eye(n)
        rates = []
        for _ in range(5):
            tick = time.perf_counter()
            scipy.linalg.cholesky(spd, lower=True, check_finite=False)
            rates.append(n**3 / 3 / 1e9 / (time.perf_counter() - tick))
        info["cholesky_n"] = n
        info["cholesky_gflop_per_s"] = sorted(rates)[2]
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    sys.exit(machine(*rest))
