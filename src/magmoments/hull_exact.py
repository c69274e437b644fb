"""Exact convex hull (vertices, facets) and volume in R^d, d <= 8.

Hulls are computed with Qhull (scipy.spatial.ConvexHull), requesting a
triangulated facet output so every facet is a (d-1)-simplex. A hull keeps
its facets as Qhull's own arrays: ``simplices`` (F x d vertex indices)
and ``equations`` (F x (d+1) rows, eq[:d] . p + eq[d] <= 0 inside).
``moment_prefix_curve`` seeds its hull from Qhull in the same form and
grows those arrays itself, by a beneath-beyond update in numpy. The
volume is Qhull's own; a divergence-theorem surface integral serves as a
cross-check in the test suite.

A hull's vertices, which Table 1 and the ``hull`` commands count, are its
extreme points: a point Qhull keeps in a facet but that lies inside an
edge or a face of the hull is not one (``_extreme_points``).

Affinely dependent inputs come back as a flagged zero-volume result rather
than an exception, so filtering sweeps can proceed through degenerate
prefixes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .errors import NonFinite
from .geometry import FLOAT_FMT, PointCloud

MAX_DIM = 8

#: Containment slack, relative to the coordinate spread (see containment_slack).
GEOM_TOL = 1e-9

#: Largest (d+1)-th power of a coordinate given to Qhull. It fails or crashes the
#: process from about 1e260 on: normal clouds at scale 1e52 (d = 4), 1e78 (d = 3).
QHULL_RANGE = 1e200


@dataclass(frozen=True)
class HullResult:
    """Convex hull of a cloud: sorted extreme-point indices, facets, and volume.

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


def _qhull(points: np.ndarray, options: str | None = None):
    """Qhull's hull of full-rank points, or None if it finds them flat.

    NonFinite for coordinates beyond QHULL_RANGE ** (1 / (d + 1)), and for
    a hull whose volume underflows below the smallest normal float (a 4-D
    cloud at scale 1e-80 has volume about 1e-319, at 1e-106 exactly 0).
    """
    from scipy.spatial import ConvexHull, QhullError  # here: CLI start-up skips scipy

    d = points.shape[1]
    largest = np.abs(points).max()
    if largest > QHULL_RANGE ** (1.0 / (d + 1)):
        raise NonFinite(f"coordinates up to {largest:.3g} overflow Qhull in R^{d}")
    try:
        hull = ConvexHull(points, qhull_options=options)
    except QhullError:
        return None
    if not hull.volume >= np.finfo(np.float64).tiny:
        raise NonFinite(f"hull volume {hull.volume:.3g} underflows in R^{d}")
    return hull


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
        vertices = (lo, hi)
        simplices = np.array([[hi], [lo]], dtype=np.intp)
        equations = np.array([[1.0, -pts[hi, 0]], [-1.0, pts[lo, 0]]])
        volume = float(pts[hi, 0] - pts[lo, 0])
    else:
        qh = None if cloud.size < d + 1 or affine_rank(pts) < d else _qhull(pts, "Qt")
        if qh is None:
            return _degenerate_result(cloud)
        simplices, equations = qh.simplices, qh.equations
        vertices = _extreme_points(simplices, equations)
        volume = float(qh.volume)
    return HullResult(
        tuple(sorted(int(v) for v in vertices)), simplices, equations, volume, pts
    )


def _extreme_points(simplices: np.ndarray, equations: np.ndarray) -> np.ndarray:
    """Facet vertices whose facets' unit normals span R^d.

    Every facet at a point inside an edge or a face of the hull contains
    that edge or face, so their normals lie in a proper subspace: the
    smallest eigenvalue of the sum of n n^T over them is at most GEOM_TOL
    squared, and the point is not counted. On a shuffled 3^5 grid Qhull
    keeps two such points as vertices.
    """
    d = simplices.shape[1]
    flat = simplices.ravel()
    by_vertex = np.argsort(flat, kind="stable")
    ids = flat[by_vertex]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    normals = equations[by_vertex // d, :d]
    gram = np.add.reduceat(normals[:, :, None] * normals[:, None, :], starts, axis=0)
    return ids[starts][np.linalg.eigvalsh(gram)[:, 0] > GEOM_TOL**2]


def hull_volume(hull: HullResult) -> float:
    """The hull's volume: Qhull's, or max - min at d = 1; 0 if degenerate."""
    return hull.volume


def containment_slack(points: np.ndarray) -> float:
    """GEOM_TOL scaled by the coordinate spread of the points (at least 1)."""
    return GEOM_TOL * max(points.max() - points.min(), 1.0)


def contains(hull: HullResult, point: np.ndarray) -> bool:
    """True if the point lies inside the hull or within containment_slack of it."""
    if hull.degenerate:
        return False
    eq = hull.equations
    slack = containment_slack(hull.points)
    return bool(np.all(eq[:, :-1] @ point <= slack - eq[:, -1]))


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^{d/2} / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return pi ** (d / 2) / gamma(d / 2 + 1)


def to_off(hull: HullResult) -> str:
    """OFF-format text (the facets' points + facets) for external viewers."""
    verts = np.unique(hull.simplices)  # sorted; extreme points and any kept on faces
    faces = np.searchsorted(verts, hull.simplices)
    out = io.StringIO()
    out.write(f"OFF\n{verts.size} {len(faces)} 0\n")
    np.savetxt(out, hull.points[verts], fmt=FLOAT_FMT)
    np.savetxt(out, np.column_stack([np.full(len(faces), hull.dim), faces]), fmt="%d")
    return out.getvalue()
