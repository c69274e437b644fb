"""Independent oracles used to check the library's fast paths.

Everything here is deliberately naive: double loops, dense inverses,
exhaustive facet enumeration, adaptive 1-D quadrature. None of it shares
code with the implementation under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.spatial import ConvexHull


def double_loop_distances(pts: np.ndarray) -> np.ndarray:
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = math.sqrt(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])))
    return out


def two_point_weights(d: float, t: float = 1.0):
    """Closed-form 2x2 solve: each weight 1/(1 + e^{-t d})."""
    w = 1.0 / (1.0 + math.exp(-t * d))
    return np.array([w, w]), 2.0 * w


def two_point_moment(d: float) -> float:
    """mu_0 of either point of a two-point space at distance d, by
    adaptive quadrature on the closed-form weight."""
    val, _ = quad(lambda t: math.exp(-t) / (1.0 + math.exp(-t * d)) ** 2, 0, np.inf)
    return val


def two_point_magnitude_moment(d: float) -> float:
    val, _ = quad(lambda t: math.exp(-t) * 2.0 / (1.0 + math.exp(-t * d)), 0, np.inf)
    return val


def dense_weights(pts: np.ndarray, t: float = 1.0):
    """Weights via an explicit dense inverse of the similarity matrix."""
    n = len(pts)
    dist = double_loop_distances(pts)
    zeta = np.exp(-t * dist)
    inv = np.linalg.inv(zeta)
    w = inv @ np.ones(n)
    return w, float(w.sum())


def dense_zeroth_moments(pts: np.ndarray, nodes, weights) -> np.ndarray:
    """sum_k omega_k w_{t_k}^2 with every node solved densely, none skipped."""
    dist = double_loop_distances(pts)
    ones = np.ones(len(pts))
    rows = [np.linalg.solve(np.exp(-t * dist), ones) for t in nodes]
    return np.asarray(weights) @ np.square(rows)


def dense_schur(pts: np.ndarray, removed, t: float = 1.0) -> np.ndarray:
    """Schur complement via B_P^{-1} where B is the full dense inverse."""
    dist = double_loop_distances(pts)
    zeta = np.exp(-t * dist)
    b = np.linalg.inv(zeta)
    p = list(removed)
    return np.linalg.inv(b[np.ix_(p, p)])


def brute_force_hull_2d(pts: np.ndarray) -> set:
    """Hull vertex indices by the all-pairs half-plane test."""
    n = len(pts)
    verts = set()
    for i, j in itertools.combinations(range(n), 2):
        edge = pts[j] - pts[i]
        normal = np.array([-edge[1], edge[0]])
        side = (pts - pts[i]) @ normal
        others = np.delete(side, [i, j])
        if np.all(others > 0) or np.all(others < 0):
            verts.add(i)
            verts.add(j)
    return verts


def brute_force_hull_3d(pts: np.ndarray) -> set:
    """Hull vertex indices by the all-triples supporting-plane test."""
    n = len(pts)
    verts = set()
    for i, j, k in itertools.combinations(range(n), 3):
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        if np.linalg.norm(normal) == 0:
            continue
        side = (pts - pts[i]) @ normal
        others = np.delete(side, [i, j, k])
        if np.all(others > 0) or np.all(others < 0):
            verts.update((i, j, k))
    return verts


def divergence_volume(hull) -> float:
    """Volume by the divergence theorem: (1/d) sum over facets of
    (outward normal . facet point) * facet area, facets being
    (d-1)-simplices."""
    d = hull.dim
    total = 0.0
    for facet in hull.facets:
        verts = hull.points[list(facet.vertex_indices)]
        edges = verts[1:] - verts[0]
        gram = edges @ edges.T
        area = math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(d - 1)
        normal = facet.normal / np.linalg.norm(facet.normal)
        total += (normal @ verts[0]) * area
    return total / d


def triangle_weights(a: float, b: float, c: float):
    """Weights of a three-point space with sides a=|x1x2|, b=|x2x3|,
    c=|x1x3|, via a dense 3x3 solve on the abstract similarity matrix."""
    zeta = np.array(
        [
            [1.0, math.exp(-a), math.exp(-c)],
            [math.exp(-a), 1.0, math.exp(-b)],
            [math.exp(-c), math.exp(-b), 1.0],
        ]
    )
    return np.linalg.solve(zeta, np.ones(3))


def random_triangle(rng) -> np.ndarray:
    """Three non-degenerate points in the plane."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        area = abs(u[0] * v[1] - u[1] * v[0])
        if area > 1e-3:
            return pts


def sides_sorted_indices(pts: np.ndarray):
    """Relabel a triangle so ||x1-x3|| >= ||x2-x3|| >= ||x1-x2||.

    Returns the index triple (i1, i2, i3) into pts."""
    best = None
    for i1, i2, i3 in itertools.permutations(range(3)):
        a = np.linalg.norm(pts[i1] - pts[i2])
        b = np.linalg.norm(pts[i2] - pts[i3])
        c = np.linalg.norm(pts[i1] - pts[i3])
        if c >= b >= a:
            best = (i1, i2, i3)
            break
    return best


def prefix_curve_bruteforce(points_in_order: np.ndarray):
    """(i, volume, magnitude) for every prefix, each from scratch.

    The volume is a fresh Qhull hull of the prefix, or 0 while the prefix
    is not full rank; the magnitude is a dense solve on the prefix's
    similarity matrix at t=1.
    """
    pts = np.asarray(points_in_order, dtype=float)
    n, d = pts.shape
    zeta = np.exp(-double_loop_distances(pts))
    curve = []
    for i in range(1, n + 1):
        prefix = pts[:i]
        full_rank = i > d and np.linalg.matrix_rank(prefix[1:] - prefix[0]) == d
        volume = ConvexHull(prefix).volume if full_rank else 0.0
        magnitude = np.linalg.solve(zeta[:i, :i], np.ones(i)).sum()
        curve.append((i, float(volume), float(magnitude)))
    return curve
