"""Weight-vector solves, magnitude values, and the magnitude function.

The weight vector of a cloud at scale t solves zeta w = 1; the magnitude
|tX| is the sum of the weights. Solves go through a Cholesky (SPD)
factorization, never an explicit inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationFailure, NonRepresentable
from .geometry import PointCloud, SimilarityMatrix, build_similarity

#: Smallest admissible squared Cholesky pivot; below this the matrix is
#: treated as numerically indefinite (near-duplicate points or extreme N*t).
PIVOT_FLOOR = 1e-14

#: Residual infinity-norm budget per point: eps_solve = RESIDUAL_BUDGET * N.
RESIDUAL_BUDGET = 1e-9


@dataclass(frozen=True)
class WeightVector:
    """Per-point weights w = zeta^{-1} 1 at scale t, with their sum."""

    weights: np.ndarray
    scale: float
    magnitude: float

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; a squared pivot below PIVOT_FLOOR raises."""
    try:
        lower = scipy.linalg.cholesky(matrix, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"Cholesky factorization failed: {exc}") from exc
    pivot_sq = np.diag(lower).min() ** 2
    if not pivot_sq >= PIVOT_FLOOR:
        raise FactorizationFailure(
            f"Cholesky pivot {pivot_sq:.3e} below floor {PIVOT_FLOOR:g}"
        )
    return lower


def solve_weights(sim: SimilarityMatrix) -> WeightVector:
    """Solve zeta w = 1 via Cholesky and return the weight vector.

    One step of iterative refinement is applied if the residual exceeds
    the budget; a residual still over budget is a hard error.
    """
    a = sim.entries
    n = a.shape[0]
    lower = _cholesky_lower(a)
    ones = np.ones(n)
    w = scipy.linalg.cho_solve((lower, True), ones, check_finite=False)
    budget = RESIDUAL_BUDGET * n
    residual = ones - a @ w
    if np.abs(residual).max() > budget:
        w = w + scipy.linalg.cho_solve((lower, True), residual, check_finite=False)
        residual = ones - a @ w
        if np.abs(residual).max() > budget:
            raise FactorizationFailure(
                f"solve residual {np.abs(residual).max():.3e} exceeds "
                f"budget {budget:.3e} after refinement"
            )
    return WeightVector(w, sim.scale, float(w.sum()))


def weights_at_scale(cloud: PointCloud, t: float) -> WeightVector:
    """solve_weights(build_similarity(cloud, t)); every call solves afresh.

    The distances behind the similarity matrix are the cloud's own,
    computed once per cloud.
    """
    return solve_weights(build_similarity(cloud, t))


def magnitude_function(cloud: PointCloud, scales) -> list[tuple[float, float]]:
    """Evaluate t -> |tX| at each scale, in input order.

    ``t = inf`` is answered with N directly (the t -> infinity limit)
    rather than solving a system.
    """
    scales = list(scales)
    if not scales:
        raise ValueError("scales must be nonempty")
    out = []
    for t in scales:
        if math.isinf(t) and t > 0:
            out.append((float(t), float(cloud.size)))
            continue
        if t <= 0:
            raise ValueError(f"scale t={t} must be positive")
        try:
            out.append((float(t), weights_at_scale(cloud, t).magnitude))
        except FactorizationFailure as exc:
            raise FactorizationFailure(f"at scale t={t}: {exc}") from exc
    return out


def log_weight_coloring(weights: WeightVector) -> np.ndarray:
    """Elementwise log(1 + w), the coloring used for weight plots."""
    w = weights.weights
    if np.any(w <= -1.0):
        raise NonRepresentable("log(1 + w) undefined for weights <= -1")
    return np.log1p(w)
