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


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    count: int
    dim: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown dataset kind {self.kind!r}")
        for name in ("count", "dim", "seed"):
            object.__setattr__(self, name, _number(name, getattr(self, name), int))
        if self.count < 1:
            raise InvalidSpec("count must be >= 1")
        if self.dim < 1:
            raise InvalidSpec("dim must be >= 1")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")
        if self.kind in ("annulus", "noisy-moons") and self.dim != 2:
            raise InvalidSpec(f"{self.kind} is 2-D only")
        if not isinstance(self.params, dict):
            raise InvalidSpec("dataset params must be an object")
        _KINDS[self.kind][0](self.params, self.dim)  # raises before any trial runs


def _number(name: str, value, kind=float):
    """A scalar parameter as a finite float (or integral int); InvalidSpec otherwise."""
    if isinstance(value, (bool, np.bool_)):
        raise InvalidSpec(f"{name} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpec(f"{name} must be a number, got {value!r}") from None
    if kind is float and not np.isfinite(number):  # int() takes no inf or NaN
        raise InvalidSpec(f"{name} must be finite, got {value!r}")
    return number


def _annulus_params(params, dim):
    inner = _number("inner", params.get("inner", 0.5))
    outer = _number("outer", params.get("outer", 1.0))
    if not 0 <= inner < outer:
        raise InvalidSpec("annulus needs 0 <= inner < outer")
    return inner, outer


def _sample_annulus(rng, n, dim, inner, outer):
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    # Area-uniform radius.
    radius = np.sqrt(rng.uniform(inner**2, outer**2, n))
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def _square_params(params, dim):
    side = _number("side", params.get("side", 1.0))
    if side <= 0:
        raise InvalidSpec("square needs side > 0")
    return (side,)


def _sample_square(rng, n, dim, side):
    return rng.uniform(0.0, side, (n, dim))


def _moons_params(params, dim):
    noise = _number("noise", params.get("noise", 0.05))
    if noise < 0:
        raise InvalidSpec("moons noise must be >= 0")
    return (noise,)


def _sample_moons(rng, n, dim, noise):
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


def _blobs_params(params, dim):
    """(sigma, center count, center range lo and hi, given centers or None)."""
    sigma = _number("sigma", params.get("sigma", 1.0))
    n_centers = _number("centers", params.get("centers", 3), int)
    if sigma <= 0 or n_centers < 1:
        raise InvalidSpec("blobs need sigma > 0 and centers >= 1")
    center_range = params.get("center_range", (-3.0, 3.0))
    if not isinstance(center_range, (list, tuple)) or len(center_range) != 2:
        raise InvalidSpec("center_range must be a pair [lo, hi]")
    lo, hi = (_number("center_range", v) for v in center_range)
    if lo > hi:
        raise InvalidSpec(f"center_range needs lo <= hi, got {center_range!r}")
    centers = params.get("center_coords")
    if centers is not None:
        try:
            centers = np.asarray(centers, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidSpec(f"center_coords must be numbers, got {centers!r}") from None
        if centers.ndim != 2 or centers.shape[1] != dim:
            raise InvalidSpec(f"center_coords must be a list of {dim}-D points")
        n_centers = centers.shape[0]
    return sigma, n_centers, lo, hi, centers


def _sample_blobs(rng, n, dim, sigma, n_centers, lo, hi, centers):
    if centers is None:
        centers = rng.uniform(lo, hi, (n_centers, dim))
    counts = np.full(n_centers, n // n_centers)
    counts[: n % n_centers] += 1
    chunks = [
        centers[k] + rng.normal(0.0, sigma, (counts[k], dim))
        for k in range(n_centers)
    ]
    return np.vstack(chunks)


# kind -> (check the params, giving the sampler's arguments; draw n points)
_KINDS = {
    "annulus": (_annulus_params, _sample_annulus),
    "square": (_square_params, _sample_square),
    "noisy-moons": (_moons_params, _sample_moons),
    "gaussian-blobs": (_blobs_params, _sample_blobs),
}


def _sample(rng, spec: DatasetSpec, n: int) -> np.ndarray:
    check, draw = _KINDS[spec.kind]
    return draw(rng, n, spec.dim, *check(spec.params, spec.dim))


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
