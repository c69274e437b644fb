"""Moment-ordered filtering of a point cloud before hull computation.

Points are sorted ascending by their zeroth moment and the longest prefix
whose moments stay under the budget threshold eps / (d * i * |X|) is
removed; the hull is computed on what remains. Low-moment points are
interior, so dropping them barely changes the hull.

Two threshold conventions are available:

* ``derived`` (default): the maximum removed moment mu_0(x_{i-1}) is
  tested against eps / (d * i * |X|) with i the removed count. This is
  the form the restriction bound actually controls.
* ``paper``: the literal published step, testing the first kept point's
  moment mu_0(x_i) against the same threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# pairwise_distances is unused here; perfbench/selfcheck.py checks this import site.
from .geometry import PointCloud, pairwise_distances  # noqa: F401
from .hull_exact import Facet, HullResult, affine_rank, containment_slack, convex_hull
from .magnitude import _cholesky_lower, weights_at_scale
from .moments import MomentVector, QuadratureRule, zeroth_moments

CONVENTIONS = ("derived", "paper")


@dataclass(frozen=True)
class FilterReport:
    """Outcome of moment filtering: kept/removed split and threshold data."""

    kept_indices: tuple
    removed_indices: tuple
    epsilon: float
    threshold_curve: tuple
    magnitude_at_one: float
    convention: str = "derived"


def _ascending_order(mu0: np.ndarray) -> np.ndarray:
    # Stable sort: moment ties broken by original index for determinism.
    return np.argsort(mu0, kind="stable")


def filter_by_moment(
    cloud: PointCloud,
    moments: MomentVector,
    epsilon: float,
    convention: str = "derived",
    magnitude_at_one: float | None = None,
) -> FilterReport:
    """Remove the longest low-moment prefix admitted by the budget epsilon.

    The threshold denominator uses the cloud's magnitude at scale t=1.
    Removal never goes below d+1 kept points so the returned set can
    still carry a full-dimensional hull.
    """
    if not epsilon >= 0:  # also rejects NaN
        raise ValueError("epsilon must be nonnegative")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown threshold convention {convention!r}")
    n = cloud.size
    d = cloud.dim
    if moments.mu0.shape[0] != n:
        raise ValueError("moment vector does not match cloud size")
    if magnitude_at_one is None:
        magnitude_at_one = weights_at_scale(cloud, 1.0).magnitude

    order = _ascending_order(moments.mu0)
    mu_sorted = moments.mu0[order]
    max_removed = max(n - (d + 1), 0)

    def threshold(i: int) -> float:
        return epsilon / (d * i * magnitude_at_one) if i > 0 else math.inf

    if math.isinf(epsilon):
        removed_count = max_removed
    elif convention == "derived":
        # Predicate: max removed moment mu_sorted[i-1] <= threshold(i).
        # mu_sorted is nondecreasing and the threshold decreases in i, so
        # the admissible i form a prefix; binary search for its end.
        removed_count = _largest_true(
            lambda i: mu_sorted[i - 1] <= threshold(i), max_removed
        )
    else:
        # Literal published step: largest i with mu_0(x_i) <= threshold(i),
        # testing the first kept point; removed set is x_0 .. x_{i-1}.
        removed_count = _largest_true(
            lambda i: mu_sorted[i] <= threshold(i), max_removed
        )

    removed = tuple(int(v) for v in order[:removed_count])
    kept = tuple(int(v) for v in order[removed_count:])
    curve = tuple(
        (i, float(mu_sorted[i - 1]), threshold(i)) for i in range(1, n + 1)
    )
    return FilterReport(
        kept, removed, float(epsilon), curve, float(magnitude_at_one), convention
    )


def _largest_true(predicate, hi: int) -> int:
    """Largest i in [0, hi] with predicate(i) true; predicate(0) is true."""
    lo = 0
    high = hi
    while lo < high:
        mid = (lo + high + 1) // 2
        if predicate(mid):
            lo = mid
        else:
            high = mid - 1
    return lo


def approximate_hull(
    cloud: PointCloud,
    epsilon: float,
    rule: QuadratureRule | None = None,
    convention: str = "derived",
) -> tuple[HullResult, FilterReport]:
    """Moment-filter the cloud, then hull only the kept points.

    Vertex and facet indices in the result refer to the original cloud.
    """
    moments = zeroth_moments(cloud, rule, estimate_error=False)
    report = filter_by_moment(cloud, moments, epsilon, convention)
    kept = list(report.kept_indices)
    sub = cloud.subset(kept)
    hull = convex_hull(sub)
    remap = np.asarray(kept, dtype=np.intp)
    facets = tuple(
        Facet(tuple(int(remap[v]) for v in f.vertex_indices), f.normal, f.offset)
        for f in hull.facets
    )
    hull = HullResult(
        tuple(sorted(int(remap[v]) for v in hull.vertex_indices)),
        facets,
        hull.volume,
        hull.dim,
        cloud.points,
        hull.degenerate,
    )
    return hull, report


def moment_prefix_curve(
    cloud: PointCloud, moments: MomentVector
) -> tuple[list, int | None]:
    """(i, Vol(Conv(X_<=i)), |X_<=i|) for prefixes in descending moment order.

    Magnitudes: the Cholesky factor of a leading block of the permuted
    similarity matrix is the leading block of the full factor L, so with
    y = L^{-1} 1 every prefix magnitude is a partial sum of y^2. The whole
    column costs one Cholesky (about N^3 / 3 flops) and one triangular
    solve; a pivot below PIVOT_FLOOR raises FactorizationFailure.

    Volumes are zero until the prefix spans d affinely independent
    directions, then kept by an incremental Qhull. The hull only grows:
    after each change one product tests the remaining points against its
    facets, and only the next point not strictly inside (containment_slack)
    goes to Qhull; prefixes in between keep the current volume. At d = 1
    a prefix's volume is its running max minus its running min.

    Returns ``(curve, count)``: count is the vertex count of the last
    incremental hull, which spans the whole cloud, or None when no hull was
    built (d = 1, or no prefix was full-dimensional).
    """
    from scipy.linalg import solve_triangular
    from scipy.spatial import ConvexHull, QhullError

    n = cloud.size
    d = cloud.dim
    order = _ascending_order(moments.mu0)[::-1]
    pts = cloud.points[order]
    sim = cloud.distances[np.ix_(order, order)]
    np.negative(sim, out=sim)
    np.exp(sim, out=sim)
    lower = _cholesky_lower(sim)
    y = solve_triangular(lower, np.ones(n), lower=True, check_finite=False)
    del sim, lower  # the factored N x N array; the hull pass does not need it
    magnitudes = np.cumsum(y * y)

    volumes = np.zeros(n)
    qh = vertex_count = None
    if d == 1:
        volumes = np.maximum.accumulate(pts[:, 0]) - np.minimum.accumulate(pts[:, 0])
    else:
        for size in range(d + 1, n + 1):
            if affine_rank(pts[:size]) == d:
                try:
                    qh = ConvexHull(pts[:size], incremental=True)
                    break
                except QhullError:
                    pass
    if qh is not None:
        slack = containment_slack(cloud.points)
        rest = np.arange(size, n)  # points that may still leave the hull
        try:
            while True:
                volumes[size - 1 :] = qh.volume
                eq = qh.equations  # inside: eq[:, :d] . p + eq[:, d] <= 0
                height = pts[rest] @ eq[:, :d].T + eq[:, d]
                rest = rest[height.max(axis=1) >= -slack]
                if rest.size == 0:
                    break
                size = rest[0] + 1
                qh.add_points(pts[rest[0] : size])
                rest = rest[1:]
            vertex_count = len(qh.vertices)
        finally:
            qh.close()
    curve = list(zip(range(1, n + 1), volumes.tolist(), magnitudes.tolist()))
    return curve, vertex_count
