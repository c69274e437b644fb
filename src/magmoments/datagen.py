"""Deterministic synthetic dataset generators: annulus, square, noisy
moons, Gaussian blobs.

All randomness flows through numpy's PCG64 generator seeded from the
spec's 64-bit seed, so an identical spec reproduces the cloud bit-exactly
on any platform. Collisions under the duplicate tolerance are resampled
from the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicatePoints, InvalidSpec
from .geometry import PointCloud

KINDS = ("annulus", "square", "noisy-moons", "gaussian-blobs")


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    count: int
    dim: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown dataset kind {self.kind!r}")
        if self.count < 1:
            raise InvalidSpec("count must be >= 1")
        if self.dim < 1:
            raise InvalidSpec("dim must be >= 1")
        if self.kind in ("annulus", "noisy-moons") and self.dim != 2:
            raise InvalidSpec(f"{self.kind} is 2-D only")


def _sample_annulus(rng, n, params):
    inner = float(params.get("inner", 0.5))
    outer = float(params.get("outer", 1.0))
    if not 0 <= inner < outer:
        raise InvalidSpec("annulus needs 0 <= inner < outer")
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    # Area-uniform radius.
    radius = np.sqrt(rng.uniform(inner**2, outer**2, n))
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def _sample_square(rng, n, dim, params):
    side = float(params.get("side", 1.0))
    if side <= 0:
        raise InvalidSpec("square needs side > 0")
    return rng.uniform(0.0, side, (n, dim))


def _sample_moons(rng, n, params):
    noise = float(params.get("noise", 0.05))
    if noise < 0:
        raise InvalidSpec("moons noise must be >= 0")
    n_top = n // 2
    n_bot = n - n_top
    t_top = rng.uniform(0.0, np.pi, n_top)
    t_bot = rng.uniform(0.0, np.pi, n_bot)
    top = np.column_stack([np.cos(t_top), np.sin(t_top)])
    bot = np.column_stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)])
    pts = np.vstack([top, bot])
    if noise > 0:
        pts = pts + rng.normal(0.0, noise, pts.shape)
    return pts


def _sample_blobs(rng, n, dim, params):
    sigma = float(params.get("sigma", 1.0))
    n_centers = int(params.get("centers", 3))
    if sigma <= 0 or n_centers < 1:
        raise InvalidSpec("blobs need sigma > 0 and centers >= 1")
    center_range = params.get("center_range", (-3.0, 3.0))
    if not isinstance(center_range, (list, tuple)) or len(center_range) != 2:
        raise InvalidSpec("center_range must be a pair [lo, hi]")
    lo, hi = center_range
    centers = params.get("center_coords")
    if centers is not None:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != dim:
            raise InvalidSpec(f"center_coords must be a list of {dim}-D points")
        n_centers = centers.shape[0]
    else:
        centers = rng.uniform(lo, hi, (n_centers, dim))
    counts = np.full(n_centers, n // n_centers)
    counts[: n % n_centers] += 1
    chunks = [
        centers[k] + rng.normal(0.0, sigma, (counts[k], dim))
        for k in range(n_centers)
    ]
    return np.vstack(chunks)


def _sample(rng, spec: DatasetSpec, n: int) -> np.ndarray:
    if spec.kind == "annulus":
        return _sample_annulus(rng, n, spec.params)
    if spec.kind == "square":
        return _sample_square(rng, n, spec.dim, spec.params)
    if spec.kind == "noisy-moons":
        return _sample_moons(rng, n, spec.params)
    return _sample_blobs(rng, n, spec.dim, spec.params)


def generate(spec: DatasetSpec) -> PointCloud:
    """Generate a duplicate-free cloud deterministically from the spec.

    The returned cloud keeps the distance matrix of its duplicate check.
    """
    rng = np.random.default_rng(spec.seed)
    pts = _sample(rng, spec, spec.count)
    for _ in range(100):
        cloud = PointCloud(pts)
        try:
            cloud.distances
        except DuplicatePoints as exc:
            pts[list(exc.rows)] = _sample(rng, spec, len(exc.rows))
        else:
            return cloud
    raise InvalidSpec("could not generate duplicate-free points")
