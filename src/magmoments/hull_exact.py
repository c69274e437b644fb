"""Exact convex hull (vertices, facets) and volume in R^d, d <= 8.

Hulls are computed with Qhull (scipy.spatial.ConvexHull), requesting a
triangulated facet output so every facet is a (d-1)-simplex. A hull keeps
its facets as Qhull's own arrays: ``simplices`` (F x d vertex indices)
and ``equations`` (F x (d+1) rows, eq[:d] . p + eq[d] <= 0 inside).
``moment_prefix_curve`` seeds its hull from Qhull in the same form and
grows those arrays itself, by a beneath-beyond update in numpy. Volume
is recomputed independently by a fan triangulation from the vertex
centroid; Qhull's own volume and a divergence-theorem surface integral
serve as cross-checks in the test suite.

Affinely dependent inputs come back as a flagged zero-volume result rather
than an exception, so filtering sweeps can proceed through degenerate
prefixes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .geometry import FLOAT_FMT, PointCloud

MAX_DIM = 8

#: Containment slack, relative to the coordinate spread (see containment_slack).
GEOM_TOL = 1e-9


@dataclass(frozen=True)
class HullResult:
    """Convex hull of a cloud: sorted vertex indices, facets, and volume.

    Facet k is the simplex ``points[simplices[k]]``; points p of the hull
    satisfy ``equations[k, :d] . p + equations[k, d] <= 0`` (up to
    geometric tolerance), with ``equations[k, :d]`` the outward normal.
    """

    vertex_indices: tuple
    simplices: np.ndarray
    equations: np.ndarray
    volume: float
    points: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_indices)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def degenerate(self) -> bool:
        return not self.vertex_indices


def affine_rank(points: np.ndarray) -> int:
    """Rank around the centroid: singular values above 1e-9 of the largest."""
    centered = points - points.mean(axis=0)
    if len(points) < 2:
        return 0
    svals = np.linalg.svd(centered, compute_uv=False)
    return int(np.sum(svals > 1e-9 * max(svals[0], 1e-300)))


def _degenerate_result(cloud: PointCloud) -> HullResult:
    d = cloud.dim
    empty = np.empty((0, d), np.intp)
    return HullResult((), empty, np.empty((0, d + 1)), 0.0, cloud.points)


def convex_hull(cloud: PointCloud) -> HullResult:
    """Hull of the exact input points; deterministic for fixed input order."""
    from scipy.spatial import ConvexHull, QhullError  # here: CLI start-up skips scipy

    d = cloud.dim
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds supported maximum {MAX_DIM}")
    pts = cloud.points
    if d == 1:
        lo, hi = int(np.argmin(pts[:, 0])), int(np.argmax(pts[:, 0]))
        if lo == hi:
            return _degenerate_result(cloud)
        vertices = (lo, hi)
        simplices = np.array([[hi], [lo]], dtype=np.intp)
        equations = np.array([[1.0, -pts[hi, 0]], [-1.0, pts[lo, 0]]])
        volume = float(pts[hi, 0] - pts[lo, 0])
    else:
        if cloud.size < d + 1 or affine_rank(pts) < d:
            return _degenerate_result(cloud)
        try:
            qh = ConvexHull(pts, qhull_options="Qt")
        except QhullError:
            return _degenerate_result(cloud)
        vertices, simplices, equations = qh.vertices, qh.simplices, qh.equations
        volume = _fan_volume(pts, vertices, simplices)
    return HullResult(
        tuple(sorted(int(v) for v in vertices)), simplices, equations, volume, pts
    )


def _fan_volume(points: np.ndarray, vertices, simplices: np.ndarray) -> float:
    centroid = points[list(vertices)].mean(axis=0)
    dets = np.linalg.det(points[simplices] - centroid)
    return float(np.abs(dets).sum() / gamma(points.shape[1] + 1))


def hull_volume(hull: HullResult) -> float:
    """Volume by fan triangulation from the centroid of the hull vertices."""
    if hull.degenerate:
        return 0.0
    return _fan_volume(hull.points, hull.vertex_indices, hull.simplices)


def containment_slack(points: np.ndarray) -> float:
    """GEOM_TOL scaled by the coordinate spread of the points (at least 1)."""
    return GEOM_TOL * max(points.max() - points.min(), 1.0)


def contains(hull: HullResult, point: np.ndarray, tol: float | None = None) -> bool:
    """True if the point lies inside or on the hull within tolerance."""
    if hull.degenerate:
        return False
    if tol is None:
        tol = containment_slack(hull.points)
    eq = hull.equations
    return bool(np.all(eq[:, :-1] @ point <= tol - eq[:, -1]))


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^{d/2} / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return pi ** (d / 2) / gamma(d / 2 + 1)


def to_off(hull: HullResult) -> str:
    """OFF-format text (vertices + facets) for external viewers."""
    verts = np.asarray(hull.vertex_indices, dtype=np.intp)
    faces = np.searchsorted(verts, hull.simplices)  # verts is sorted
    out = io.StringIO()
    out.write(f"OFF\n{verts.size} {len(faces)} 0\n")
    np.savetxt(out, hull.points[verts], fmt=FLOAT_FMT)
    np.savetxt(out, np.column_stack([np.full(len(faces), hull.dim), faces]), fmt="%d")
    return out.getvalue()
