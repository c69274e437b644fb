"""Point-cloud representation, metric scaling, and similarity matrices.

A point cloud is an ordered finite subset of R^d with stable indices; the
similarity matrix at scale t has entries exp(-t * ||x_i - x_j||) and is
symmetric positive definite for distinct Euclidean points.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DuplicatePoints, NonFinite

#: Absolute Euclidean distance below which two points count as duplicates.
#: The underlying theory gives no such tolerance; this is our choice.
DUPLICATE_TOL = 1e-12

#: Float format of the CSV and OFF files: 17 significant digits read back exactly.
FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class PointCloud:
    """Ordered finite set of points in R^d.

    ``points`` is a read-only (N, d) float array copied from the input, so
    later changes to the caller's array never reach the cloud. Index order
    is stable across all derived structures (weights, moments, hulls).

    The N x N distance matrix (8 MB at N=1000) is computed on first use
    and held for the cloud's lifetime.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, order="C")
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("points must be a nonempty (N, d) array")
        if not np.all(np.isfinite(pts)):
            raise NonFinite("point coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only Euclidean distance matrix, computed once per cloud.

        Raises DuplicatePoints if two points are closer than DUPLICATE_TOL;
        the error names the closest pair and carries the later index of
        every close pair, which ``datagen.generate`` resamples.
        """
        dist = pairwise_distances(self)
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        nearest = dist[i, j]
        if nearest < DUPLICATE_TOL:
            ii, jj = np.nonzero(dist < DUPLICATE_TOL)
            rows = {int(b) for a, b in zip(ii, jj) if b > a}
            raise DuplicatePoints(
                f"points {i} and {j} are {nearest:.3e} apart "
                f"(tolerance {DUPLICATE_TOL:g})",
                tuple(rows),
            )
        np.fill_diagonal(dist, 0.0)
        dist.setflags(write=False)
        return dist

    def diameter(self) -> float:
        return float(self.distances.max())

    def subset(self, indices) -> "PointCloud":
        """Cloud restricted to ``indices``, preserving their order."""
        return PointCloud(self.points[np.asarray(indices, dtype=np.intp)])

    def scale_coordinates(self, t: float) -> "PointCloud":
        """Cloud with every coordinate multiplied by t (the space tX)."""
        return PointCloud(self.points * float(t))

    # -- serialization ----------------------------------------------------

    def to_csv(self, path) -> None:
        text = io.StringIO()
        self.write_csv(text)
        atomic_write(path, text.getvalue())

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(self.dim)])
        for row in self.points:
            writer.writerow([FLOAT_FMT % v for v in row])

    @classmethod
    def from_csv(cls, path) -> "PointCloud":
        """Read one point per row; a non-numeric first row is a header."""
        with open(path, "r", newline="") as fh:
            return cls.read_csv(fh)

    @classmethod
    def read_csv(cls, fh) -> "PointCloud":
        rows = [r for r in csv.reader(fh) if r]
        if not rows:
            raise ValueError("empty CSV input")
        try:
            [float(v) for v in rows[0]]
        except ValueError:
            rows = rows[1:]
        if not rows:
            raise ValueError("CSV contains a header but no data rows")
        return cls(np.array([[float(v) for v in r] for r in rows]))

    def to_json(self) -> str:
        return json.dumps([[float(v) for v in row] for row in self.points])

    @classmethod
    def from_json(cls, text: str) -> "PointCloud":
        return cls(np.array(json.loads(text), dtype=np.float64))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Dense N x N matrix exp(-t * distance), with scale t.

    Symmetric, unit diagonal, entries in (0, 1], positive definite. A
    non-square ``entries`` or a scale outside (0, inf) raises ValueError.
    """

    entries: np.ndarray
    scale: float

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.entries, dtype=np.float64))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be a square matrix, not shape {m.shape}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, not {self.scale}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def pairwise_distances(
    cloud: PointCloud, other: PointCloud | None = None
) -> np.ndarray:
    """Distances from each point of cloud to each point of other (or cloud).

    A cloud's own matrix is exactly symmetric with a zero diagonal. Each
    entry is within (d + 3) u relative of the exact distance, u = 2^-53,
    wherever the points sit: the sum of d squared differences rounds by at
    most (d + 2) u (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3), and the square root halves that and adds u. It is 0 exactly
    where each coordinate difference squares to 0: equal coordinates (-0.0
    equals +0.0) or differences below about 1e-162.
    """
    from scipy.spatial.distance import cdist  # here: CLI start-up skips scipy

    dist = cdist(cloud.points, (cloud if other is None else other).points)
    if not np.all(np.isfinite(dist)):
        raise NonFinite("non-finite pairwise distance")
    return dist


def _similarity_entries(cloud: PointCloud, t: float) -> np.ndarray:
    """exp(-t * distance) in one fresh, writable, C-ordered N x N array."""
    if t <= 0 or not np.isfinite(t):
        raise ValueError("scale t must be positive and finite")
    entries = np.multiply(cloud.distances, -float(t))
    np.exp(entries, out=entries)
    np.fill_diagonal(entries, 1.0)
    return entries


def build_similarity(cloud: PointCloud, t: float) -> SimilarityMatrix:
    """Similarity matrix of the scaled space tX: exp(-t * distance)."""
    return SimilarityMatrix(_similarity_entries(cloud, t), float(t))


def atomic_write(path, data: str | bytes) -> None:
    """Write through ``path + ".tmp"``, then rename it onto ``path``.

    A failed write leaves ``path`` as it was and removes the temp file.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
