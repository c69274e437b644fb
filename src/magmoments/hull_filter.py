"""Moment-ordered filtering of a point cloud before hull computation.

Points are sorted ascending by their zeroth moment and the longest prefix
whose moments stay under the budget threshold eps / (d * i * |X|) is
removed; the hull is computed on what remains. |X| is the magnitude at
t = 1, solved once per cloud and held on it, so an epsilon sweep over one
cloud factors its N x N matrix at t = 1 once. Low-moment points are
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
from dataclasses import dataclass, replace

import numpy as np

# pairwise_distances and weights_at_scale are unused here; perfbench/selfcheck.py
# checks these import sites.
from .geometry import PointCloud, pairwise_distances  # noqa: F401
from .hull_exact import HullResult, _qhull, affine_rank, containment_slack, convex_hull
from .magnitude import _cholesky_lower, _magnitude_at_one, weights_at_scale  # noqa: F401
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


def _check_budget(epsilon: float, convention: str) -> None:
    if not epsilon >= 0:  # also rejects NaN
        raise ValueError("epsilon must be nonnegative")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown threshold convention {convention!r}")


def filter_by_moment(
    cloud: PointCloud,
    moments: MomentVector,
    epsilon: float,
    convention: str = "derived",
) -> FilterReport:
    """Remove the longest low-moment prefix admitted by the budget epsilon.

    The threshold denominator uses the cloud's magnitude at scale t=1,
    solved on the first call for a cloud and held on it for the next.
    Removal never goes below d+1 kept points so the returned set can
    still carry a full-dimensional hull.
    """
    _check_budget(epsilon, convention)
    n = cloud.size
    d = cloud.dim
    if moments.mu0.shape[0] != n:
        raise ValueError("moment vector does not match cloud size")
    magnitude_at_one = _magnitude_at_one(cloud)

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
    _check_budget(epsilon, convention)  # before the node loop
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


def moment_prefix_curve(cloud: PointCloud, moments: MomentVector) -> np.ndarray:
    """Rows (i, Vol(Conv(X_<=i)), |X_<=i|) for prefixes in descending moment
    order, as one (N, 3) float64 array.

    Magnitudes: the Cholesky factor of a leading block of the permuted
    similarity matrix is the leading block of the full factor L, so with
    y = L^{-1} 1 every prefix magnitude is a partial sum of y^2. The whole
    column costs one Cholesky (about N^3 / 3 flops) and one triangular
    solve; a pivot below PIVOT_FLOOR raises FactorizationFailure.

    Volumes are zero until the prefix spans d affinely independent
    directions, by ``affine_rank`` and to Qhull (a line offset by 1e8 is
    flat only to Qhull). That prefix is hulled once by Qhull; then the hull
    grows point by point by a beneath-beyond update in numpy
    (``_beneath_beyond``). A point counts as outside only if it lies more
    than containment_slack above some facet's plane: a point on the hull,
    or within the slack of it, counts as inside, and its prefix keeps the
    current volume. On the 80 paper trials (N = 1000, d = 2-5) every
    full-rank prefix volume is within 6.4e-15 relative of a fresh Qhull
    hull of that prefix. At d = 1 a prefix's volume is its running max
    minus its running min.
    """
    from scipy.linalg import solve_triangular

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
    if d == 1:
        volumes = np.maximum.accumulate(pts[:, 0]) - np.minimum.accumulate(pts[:, 0])
    else:
        volumes = _beneath_beyond(pts, containment_slack(pts))
    return np.column_stack((np.arange(1.0, n + 1), volumes, magnitudes))


def _beneath_beyond(pts: np.ndarray, slack: float) -> np.ndarray:
    """Hull volume of every prefix pts[:i].

    Qhull hulls the shortest full-dimensional prefix, the seed. Each later
    point p more than ``slack`` above some facet's plane is added: the
    facets it sees (height above the slack) die, the volume grows by the
    cones from p over them, sum |det(F - p)| / d!, and each horizon ridge, a
    (d-1)-subset of exactly one dying facet, is joined to p. New planes
    face away from a fixed interior point. Facets keep sorted vertex
    indices, so p, the newest point, is last in each of its facets (see
    Edelsbrunner, Algorithms in Combinatorial Geometry, 1987).

    Every point still outside keeps one conflict facet, its highest, and
    is tested again, against the live facets, only when that facet dies;
    a point found within the slack of every facet stays inside for good,
    as the hull only grows. Prefixes shorter than the seed get volume 0.
    """
    n, d = pts.shape
    volumes = np.zeros(n)
    full = (pts[:size] for size in range(d + 1, n + 1) if affine_rank(pts[:size]) == d)
    seed = next((hull for hull in map(_qhull, full) if hull is not None), None)
    if seed is None:
        return volumes
    size = seed.npoints
    simplices = np.sort(seed.simplices, axis=1)
    equations = seed.equations  # inside: eq[:d] . x + eq[d] <= 0
    interior = pts[seed.vertices].mean(axis=0)
    volume = seed.volume
    d_factorial = math.factorial(d)
    drop_one = np.array([[j for j in range(d) if j != k] for k in range(d)])
    cofactor_sign = (-1.0) ** np.arange(d)

    rest = np.arange(size, n)
    conflict, outside = _highest_facets(pts[rest], equations, slack)
    rest, conflict = rest[outside], conflict[outside]  # outside, ascending
    last = size - 1
    while rest.size:
        p = rest[0]
        volumes[last:p] = volume
        last = p
        apex = pts[p]
        visible = equations[:, :d] @ apex + equations[:, d] > slack
        dying = simplices[visible]
        volume += np.abs(np.linalg.det(pts[dying] - apex)).sum() / d_factorial

        # Horizon: the dying facets' ridges that occur once. A ridge drops
        # one vertex of a sorted facet, so equal ridges are equal rows; sorted
        # with the last column first, they are adjacent.
        ridges = dying[:, drop_one].reshape(-1, d - 1)
        ridges = ridges[np.lexsort(ridges.T)]
        repeat = (ridges[1:] == ridges[:-1]).all(axis=1)
        repeat = np.concatenate(([False], repeat, [False]))
        horizon = ridges[~repeat[:-1] & ~repeat[1:]]

        # New facets join p to the horizon. Normal: the generalized cross
        # product of the facet's edges from p (cofactor expansion).
        edges = pts[horizon] - apex
        minors = edges[:, :, drop_one].transpose(0, 2, 1, 3)  # k x d x (d-1) x (d-1)
        normal = cofactor_sign * np.linalg.det(minors)
        length = np.sqrt(np.einsum("ij,ij->i", normal, normal))
        normal /= np.copysign(length, normal @ (apex - interior))[:, None]
        new = np.empty((len(horizon), d), np.intp)
        new[:, :-1] = horizon
        new[:, -1] = p
        plane = np.empty((len(horizon), d + 1))
        plane[:, :d] = normal
        plane[:, d] = -(normal @ apex)

        alive = ~visible
        renumber = np.cumsum(alive) - 1
        simplices = np.concatenate((simplices[alive], new))
        equations = np.concatenate((equations[alive], plane))

        rest, conflict = rest[1:], conflict[1:]
        orphan = np.flatnonzero(visible[conflict])
        conflict = renumber[conflict]
        if orphan.size:
            again = pts[rest[orphan]]
            conflict[orphan], outside = _highest_facets(again, equations, slack)
            if not outside.all():
                keep = np.ones(rest.size, bool)
                keep[orphan[~outside]] = False
                rest, conflict = rest[keep], conflict[keep]
    volumes[last:] = volume
    return volumes


def _highest_facets(x: np.ndarray, equations: np.ndarray, slack: float):
    """Each point's highest facet, and whether it is more than slack above it."""
    d = x.shape[1]
    heights = x @ equations[:, :d].T + equations[:, d]
    highest = heights.argmax(axis=1)
    return highest, heights[np.arange(len(x)), highest] > slack
