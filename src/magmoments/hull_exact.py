"""Exact convex hull (vertices, facets) and volume in R^d, d <= 8.

Hulls are computed with Qhull (scipy.spatial.ConvexHull), requesting a
triangulated facet output so every facet is a (d-1)-simplex. Volume is
recomputed independently by a fan triangulation from the vertex centroid;
Qhull's own volume and a divergence-theorem surface integral serve as
cross-checks in the test suite.

Affinely dependent inputs come back as a flagged zero-volume result rather
than an exception, so filtering sweeps can proceed through degenerate
prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geometry import PointCloud

MAX_DIM = 8

#: Containment slack, relative to the cloud diameter.
GEOM_TOL = 1e-9


@dataclass(frozen=True)
class Facet:
    """Oriented facet: d vertex indices, outward normal, offset.

    Points p of the hull satisfy normal . p <= offset (up to geometric
    tolerance).
    """

    vertex_indices: tuple
    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class HullResult:
    """Convex hull of a cloud: vertex indices, facets, and volume."""

    vertex_indices: tuple
    facets: tuple
    volume: float
    dim: int
    points: np.ndarray
    degenerate: bool = False

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_indices)


def affine_rank(points: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Rank of the point set around its centroid."""
    centered = points - points.mean(axis=0)
    if len(points) < 2:
        return 0
    svals = np.linalg.svd(centered, compute_uv=False)
    return int(np.sum(svals > rel_tol * max(svals[0], 1e-300)))


def _degenerate_result(cloud: PointCloud) -> HullResult:
    return HullResult((), (), 0.0, cloud.dim, cloud.points, degenerate=True)


def convex_hull(cloud: PointCloud) -> HullResult:
    """Hull of the exact input points; deterministic for fixed input order."""
    d = cloud.dim
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds supported maximum {MAX_DIM}")
    pts = cloud.points
    if d == 1:
        lo, hi = int(np.argmin(pts[:, 0])), int(np.argmax(pts[:, 0]))
        if lo == hi:
            return _degenerate_result(cloud)
        verts = tuple(sorted((lo, hi)))
        facets = (
            Facet((hi,), np.array([1.0]), float(pts[hi, 0])),
            Facet((lo,), np.array([-1.0]), float(-pts[lo, 0])),
        )
        return HullResult(verts, facets, float(pts[hi, 0] - pts[lo, 0]), 1, pts)
    if cloud.size < d + 1 or affine_rank(pts) < d:
        return _degenerate_result(cloud)
    try:
        qh = ConvexHull(pts, qhull_options="Qt")
    except QhullError:
        return _degenerate_result(cloud)
    facets = []
    for simplex, eq in zip(qh.simplices, qh.equations):
        # Qhull convention: eq[:d] . p + eq[d] <= 0 inside.
        facets.append(Facet(tuple(int(i) for i in simplex), eq[:d].copy(), float(-eq[d])))
    result = HullResult(
        tuple(sorted(int(v) for v in qh.vertices)),
        tuple(facets),
        0.0,
        d,
        pts,
    )
    return HullResult(
        result.vertex_indices, result.facets, hull_volume(result), d, pts
    )


def hull_volume(hull: HullResult) -> float:
    """Volume by fan triangulation from the centroid of the hull vertices."""
    if hull.degenerate or not hull.facets:
        return 0.0
    if hull.dim == 1:
        coords = hull.points[list(hull.vertex_indices), 0]
        return float(coords.max() - coords.min())
    centroid = hull.points[list(hull.vertex_indices)].mean(axis=0)
    d = hull.dim
    total = 0.0
    fact = float(gamma(d + 1))
    for facet in hull.facets:
        verts = hull.points[list(facet.vertex_indices)]
        total += abs(np.linalg.det(verts - centroid)) / fact
    return total


def containment_slack(points: np.ndarray) -> float:
    """GEOM_TOL scaled by the coordinate spread of the points (at least 1)."""
    return GEOM_TOL * max(points.max() - points.min(), 1.0)


def contains(hull: HullResult, point: np.ndarray, tol: float | None = None) -> bool:
    """True if the point lies inside or on the hull within tolerance."""
    if hull.degenerate:
        return False
    if tol is None:
        tol = containment_slack(hull.points)
    return all(f.normal @ point <= f.offset + tol for f in hull.facets)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^{d/2} / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return pi ** (d / 2) / gamma(d / 2 + 1)


def to_off(hull: HullResult) -> str:
    """OFF-format text (vertices + facets) for external viewers."""
    verts = list(hull.vertex_indices)
    local = {v: i for i, v in enumerate(verts)}
    lines = ["OFF", f"{len(verts)} {len(hull.facets)} 0"]
    for v in verts:
        lines.append(" ".join("%.17g" % c for c in hull.points[v]))
    for facet in hull.facets:
        ids = " ".join(str(local[v]) for v in facet.vertex_indices)
        lines.append(f"{len(facet.vertex_indices)} {ids}")
    return "\n".join(lines) + "\n"
