"""Weight-vector solves, magnitude values, and the magnitude function.

The weight vector of a cloud at scale t solves zeta w = 1; the magnitude
|tX| is the sum of the weights. A strictly diagonally dominant zeta (off-
diagonal row sums rho below DOMINANCE_CUT, typical at large t) is solved by
conjugate gradient in O(N^2) per iteration; any other zeta, or one where
the iteration stalls, goes through a Cholesky (SPD) factorization. Never an
explicit inverse.
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

#: Conjugate gradient is tried when the largest off-diagonal row sum rho of
#: zeta is below this. With the unit diagonal, rho < 1/2 makes zeta SPD with
#: condition number at most (1 + rho) / (1 - rho) <= 3 (Gershgorin), and by
#: Varah's bound ||w - w*||_inf <= ||1 - zeta w||_inf / (1 - rho), at most
#: twice the residual.
DOMINANCE_CUT = 0.5

#: CG stops at this residual infinity norm, a few ulps of 1 (about 30 steps
#: at condition 3); after CG_MAX_ITER steps the solve falls back to Cholesky.
CG_TOL = 1e-15
CG_MAX_ITER = 50


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


def _conjugate_gradient(a: np.ndarray, ones: np.ndarray) -> np.ndarray | None:
    """Plain CG for zeta w = 1 from w = 1, or None if rho >= DOMINANCE_CUT.

    Also None when CG_TOL is not met within CG_MAX_ITER steps. The fixed
    start keeps every solve independent of any other.
    """
    # rho is at least row 0's off-diagonal sum; reading that row first spares
    # the matvec on most matrices that are not dominant.
    if not a[0].sum() - 1.0 < DOMINANCE_CUT:
        return None
    residual = ones - a @ ones  # -(off-diagonal row sums), as zeta_ii = 1
    if not -residual.min() < DOMINANCE_CUT:
        return None
    w = ones.copy()
    direction = residual.copy()
    rr = residual @ residual
    for _ in range(CG_MAX_ITER):
        if np.abs(residual).max() <= CG_TOL:
            return w
        a_dir = a @ direction
        step = rr / (direction @ a_dir)
        w += step * direction
        residual -= step * a_dir
        rr_next = residual @ residual
        direction = residual + (rr_next / rr) * direction
        rr = rr_next
    return None


def solve_weights(sim: SimilarityMatrix) -> WeightVector:
    """Solve zeta w = 1 and return the weight vector.

    A diagonally dominant zeta is solved by conjugate gradient; otherwise,
    or if CG stalls, by Cholesky, with one step of iterative refinement if
    the residual exceeds the budget. On either path a residual over budget
    is a hard error.
    """
    a = sim.entries
    n = a.shape[0]
    ones = np.ones(n)
    budget = RESIDUAL_BUDGET * n
    w = _conjugate_gradient(a, ones)
    if w is None:
        lower = _cholesky_lower(a)
        w = scipy.linalg.cho_solve((lower, True), ones, check_finite=False)
        residual = ones - a @ w
        if np.abs(residual).max() > budget:
            w = w + scipy.linalg.cho_solve((lower, True), residual, check_finite=False)
            residual = ones - a @ w
    else:
        residual = ones - a @ w
    if np.abs(residual).max() > budget:
        raise FactorizationFailure(
            f"solve residual {np.abs(residual).max():.3e} exceeds budget {budget:.3e}"
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
