"""One repetition of the schur_updates workload, in a fresh interpreter.

    python3 perfbench/schur_worker.py PARAMS.json RESULT.json [SPANS.json]

Set-up: a Gaussian-blob cloud, its weights and similarity matrix at scale
t, and zeroth moments from a low-order rule (the moments feed the filter
sweep; they are input, not the measured work). Timed phase, all at the
one scale t:

1. restriction sweeps: restricted_magnitude and restriction_bounds on
   random splits of several removed-set sizes;
2. a union stream: starting from a subset, the held-out points come back
   in chunks through union_weights, each chunk also repeating a few
   points already present;
3. filter_by_moment over an epsilon sweep;
4. magnitude_function on a scale grid.

Outputs are checked after the timed phase against an independent dense
solve (numpy.linalg.solve on exp(-t * distance)), so the checks add no
spans and no cache entries to the measured phase. Phase boundaries are
reported on the system-wide monotonic clock so the parent can measure
set-up from the moment it started this process.
"""

from __future__ import annotations

import json
import math
import sys
import time


def _direct_weights(points, t):
    import numpy as np

    diff = points[:, None, :] - points[None, :, :]
    zeta = np.exp(-t * np.sqrt((diff * diff).sum(axis=-1)))
    return np.linalg.solve(zeta, np.ones(len(points)))


def _removed_count(mu0, d, epsilon, magnitude_at_one):
    """Brute-force count of the derived-convention filter."""
    import numpy as np

    mu_sorted = np.sort(mu0, kind="stable")
    max_removed = max(len(mu0) - (d + 1), 0)
    if math.isinf(epsilon):
        return max_removed
    count = 0
    for i in range(1, max_removed + 1):
        if mu_sorted[i - 1] > epsilon / (d * i * magnitude_at_one):
            break
        count = i
    return count


def main(params_path, result_path, spans_path=None):
    with open(params_path) as fh:
        p = json.load(fh)
    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    # Imported after the tracer is installed, so these names bind the wrappers.
    import numpy as np

    from magmoments.datagen import DatasetSpec, generate
    from magmoments.errors import MagnitudeError
    from magmoments.geometry import PointCloud, build_similarity
    from magmoments.hull_filter import filter_by_moment
    from magmoments.magnitude import magnitude_function, weights_at_scale
    from magmoments.moments import gauss_laguerre_rule, zeroth_moments
    from magmoments.schur import (
        IndexSplit,
        restricted_magnitude,
        restriction_bounds,
        union_cloud,
        union_weights,
    )

    t = float(p["t"])
    n = int(p["points"])
    cloud = generate(DatasetSpec("gaussian-blobs", n, int(p["dim"]), int(p["data_seed"])))
    sim = build_similarity(cloud, t)
    weights = weights_at_scale(cloud, t)
    moments = zeroth_moments(cloud, gauss_laguerre_rule(int(p["order"])), estimate_error=False)
    rng = np.random.default_rng([int(p["data_seed"]), 1])
    splits = []
    for size in p["removed_sizes"]:
        for _ in range(int(p["splits_per_size"])):
            perm = rng.permutation(n)
            splits.append(IndexSplit(tuple(perm[size:]), tuple(perm[:size]), n))
    perm = rng.permutation(n)
    base = cloud.subset(perm[: int(p["union_base"])])
    chunks = np.array_split(perm[int(p["union_base"]):], int(p["union_chunks"]))
    overlap = int(p["union_overlap"])

    attempted = 0
    failed = 0
    errors = []
    restrict_s, bounds_s, union_s = [], [], []
    restricted, unions, filters = [], [], []
    magfn = []
    timed_start = time.monotonic()
    timed_start_ns = time.perf_counter_ns()
    for split in splits:
        attempted += 2
        try:
            tick = time.perf_counter()
            value = restricted_magnitude(weights, sim, split)
            restrict_s.append(time.perf_counter() - tick)
            tick = time.perf_counter()
            restricted.append((split, value, restriction_bounds(weights, sim, split)))
            bounds_s.append(time.perf_counter() - tick)
        except MagnitudeError as exc:
            failed += 1
            errors.append(f"restriction: {exc}")
    cloud_x = base
    try:
        weights_x = weights_at_scale(cloud_x, t)
        for chunk in chunks:
            attempted += 1
            cloud_y = PointCloud(np.vstack([cloud.points[chunk], cloud_x.points[:overlap]]))
            weights_y = weights_at_scale(cloud_y, t)
            tick = time.perf_counter()
            weights_x = union_weights(cloud_x, cloud_y, weights_x, weights_y)
            union_s.append(time.perf_counter() - tick)
            cloud_x = union_cloud(cloud_x, cloud_y)
            unions.append((cloud_x.points, weights_x.weights))
    except MagnitudeError as exc:
        failed += 1
        errors.append(f"union: {exc}")
    for epsilon in p["epsilons"]:
        attempted += 1
        try:
            filters.append((epsilon, filter_by_moment(cloud, moments, epsilon)))
        except MagnitudeError as exc:
            failed += 1
            errors.append(f"filter: {exc}")
    attempted += len(p["scales"])
    try:
        magfn = magnitude_function(cloud, p["scales"])
    except MagnitudeError as exc:
        failed += len(p["scales"])
        errors.append(f"magnitude_function: {exc}")
    timed_end = time.monotonic()

    # Checks against an independent dense solve.
    def fail(message):
        nonlocal failed
        failed += 1
        errors.append(message)

    pts = cloud.points
    for split, value, (upper, det_upper, lower) in restricted:
        direct = float(_direct_weights(pts[list(split.kept)], t).sum())
        if not abs(value - direct) <= 1e-9 * max(abs(direct), 1.0):
            fail(f"restricted magnitude {value!r} != direct {direct!r}")
        slack = 1e-9 * max(abs(upper), 1.0)
        if not lower - slack <= value <= det_upper + slack <= upper + 2 * slack:
            fail(f"restricted magnitude {value!r} outside bounds {(lower, det_upper, upper)}")
    for points, got in unions:
        direct = _direct_weights(points, t)
        if not np.abs(got - direct).max() <= 1e-8 * max(np.abs(direct).max(), 1.0):
            fail(f"union weights differ from direct solve by {np.abs(got - direct).max():.3e}")
    if unions and len(unions[-1][0]) != n:
        fail(f"union stream ended with {len(unions[-1][0])} points, expected {n}")
    magnitude_at_one = float(_direct_weights(pts, 1.0).sum())
    for epsilon, report in filters:
        if not abs(report.magnitude_at_one - magnitude_at_one) <= 1e-9 * magnitude_at_one:
            fail(f"filter magnitude at one {report.magnitude_at_one!r} != {magnitude_at_one!r}")
        want = _removed_count(moments.mu0, cloud.dim, epsilon, report.magnitude_at_one)
        if len(report.removed_indices) != want:
            fail(f"filter eps={epsilon} removed {len(report.removed_indices)}, expected {want}")
    for scale, value in magfn:
        direct = float(_direct_weights(pts, scale).sum())
        if not abs(value - direct) <= 1e-9 * max(abs(direct), 1.0):
            fail(f"magnitude at t={scale} {value!r} != direct {direct!r}")

    result = {
        "timed_start": timed_start,
        "timed_end": timed_end,
        "timed_start_ns": timed_start_ns,
        "restrict_s": restrict_s,
        "bounds_s": bounds_s,
        "union_s": union_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if recorder is not None:
        recorder.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
