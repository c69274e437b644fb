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

from dataclasses import dataclass, replace

import numpy as np

# pairwise_distances is unused here; perfbench/selfcheck.py checks this import site.
from .geometry import PointCloud, pairwise_distances  # noqa: F401
from .hull_exact import HullResult, affine_rank, containment_slack, convex_hull
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
    counts = np.arange(1, n + 1)
    thresholds = epsilon / (d * counts * magnitude_at_one)
    # Removing i points tests mu_sorted[i-1], the largest removed moment
    # (derived), or mu_sorted[i], the first kept one (paper), against
    # thresholds[i-1]. Moments grow and thresholds shrink with i, so the
    # admissible i form a prefix of 1..max_removed: count its leading run.
    first = 0 if convention == "derived" else 1
    admissible = mu_sorted[first : first + max_removed] <= thresholds[:max_removed]
    removed_count = int(np.logical_and.accumulate(admissible).sum())

    removed = tuple(int(v) for v in order[:removed_count])
    kept = tuple(int(v) for v in order[removed_count:])
    curve = tuple(zip(counts.tolist(), mu_sorted.tolist(), thresholds.tolist()))
    return FilterReport(
        kept, removed, float(epsilon), curve, float(magnitude_at_one), convention
    )


def approximate_hull(
    cloud: PointCloud,
    epsilon: float,
    rule: QuadratureRule | None = None,
    convention: str = "derived",
) -> tuple[HullResult, FilterReport]:
    """Moment-filter the cloud, then hull only the kept points.

    Vertex and facet indices in the result refer to the original cloud.
    The kept points are hulled in the cloud's order, so with nothing
    removed the result is the full cloud's hull, bit for bit.
    """
    moments = zeroth_moments(cloud, rule, estimate_error=False)
    report = filter_by_moment(cloud, moments, epsilon, convention)
    kept = np.sort(np.asarray(report.kept_indices, dtype=np.intp))
    hull = convex_hull(cloud.subset(kept))
    hull = replace(
        hull,
        vertex_indices=tuple(kept[list(hull.vertex_indices)].tolist()),
        simplices=kept[hull.simplices],
        points=cloud.points,
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
