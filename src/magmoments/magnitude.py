"""Weight-vector solves, magnitude values, and the magnitude function.

The weight vector of a cloud at scale t solves zeta w = 1; the magnitude
|tX| is the sum of the weights. A strictly diagonally dominant zeta (off-
diagonal row sums rho below DOMINANCE_CUT, typical at large t) is solved by
conjugate gradient in O(N^2) per iteration; any other zeta, or one where
the iteration stalls, goes through a Cholesky (SPD) factorization. Never an
explicit inverse.

Memory: beyond the cloud's distances, each solve holds one N x N array
(8 N^2 bytes), the similarity matrix, which the Cholesky route factors in
place. The cloud also keeps |X| at t = 1, one float, once it is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FactorizationFailure, NonRepresentable
from .geometry import PointCloud, SimilarityMatrix, _similarity_entries

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
    """Per-point weights w = zeta^{-1} 1 at scale t, with their sum.

    ``weights`` is a read-only 1-D array. Weights that are not 1-D, or a
    scale outside (0, inf), raise ValueError. A vector returned by
    ``schur.union_weights`` also holds zeta's Cholesky factor for the next
    union of a stream.
    """

    weights: np.ndarray
    scale: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:  # checked before ascontiguousarray, which makes 0-D 1-D
            raise ValueError(f"weights must be a 1-D array, not shape {w.shape}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, not {self.scale}")
        w = np.ascontiguousarray(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def magnitude(self) -> float:
        """The sum of the weights, computed once per vector."""
        return float(self.weights.sum())


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, in the matrix's memory.

    L fills the returned array on and below the diagonal; above it the
    matrix's entries stay. A C-ordered input is factored in place (its
    transpose is the same matrix in Fortran order); any other is copied
    first, so use the returned array, never the input. A breakdown or a
    squared pivot below PIVOT_FLOOR raises FactorizationFailure; a
    read-only input, which LAPACK would still overwrite, raises ValueError.
    """
    if not matrix.flags.writeable:
        raise ValueError("the matrix to factor in place must be writable")
    from scipy.linalg.lapack import dpotrf  # here: CLI start-up skips scipy

    lower, info = dpotrf(matrix.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise FactorizationFailure(
            f"Cholesky factorization failed: leading minor {info} "
            "is not positive definite"
        )
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


def _residual(factored: np.ndarray, w: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """1 - zeta w from the zeta entries above the diagonal of ``factored``.

    The unit diagonal is put in for the product and L's diagonal restored
    after it, so the factor stays usable for a refinement solve.
    """
    from scipy.linalg.blas import dsymv

    pivots = factored.diagonal().copy()
    np.fill_diagonal(factored, 1.0)
    residual = dsymv(-1.0, factored, w, beta=1.0, y=ones, lower=0)
    np.fill_diagonal(factored, pivots)
    return residual


def _solve(a: np.ndarray, scale: float) -> WeightVector:
    """Solve zeta w = 1 for zeta = ``a``, a writable C-ordered array.

    A diagonally dominant zeta is solved by conjugate gradient; otherwise,
    or if CG stalls, by Cholesky, factored in ``a``'s own memory, with one
    step of iterative refinement if the residual exceeds the budget. On
    either path a residual over budget is a hard error.
    """
    from scipy.linalg.lapack import dpotrs

    n = a.shape[0]
    ones = np.ones(n)
    budget = RESIDUAL_BUDGET * n
    w = _conjugate_gradient(a, ones)
    if w is None:
        factored = _cholesky_lower(a)
        w, _ = dpotrs(factored, ones, lower=1)
        residual = _residual(factored, w, ones)
        if np.abs(residual).max() > budget:
            w = w + dpotrs(factored, residual, lower=1)[0]
            residual = _residual(factored, w, ones)
    else:
        residual = ones - a @ w
    if np.abs(residual).max() > budget:
        raise FactorizationFailure(
            f"solve residual {np.abs(residual).max():.3e} exceeds budget {budget:.3e}"
        )
    return WeightVector(w, scale)


def solve_weights(sim: SimilarityMatrix) -> WeightVector:
    """Solve zeta w = 1 and return the weight vector.

    Works on one copy of ``sim.entries``, which stay as they were.
    """
    return _solve(sim.entries.copy(), sim.scale)


def weights_at_scale(cloud: PointCloud, t: float) -> WeightVector:
    """Weights of the scaled space tX; every call solves afresh.

    The distances behind the similarity matrix are the cloud's own,
    computed once per cloud. The matrix is built into one fresh array,
    which the solve then overwrites.
    """
    return _solve(_similarity_entries(cloud, t), float(t))


def _magnitude_at_one(cloud: PointCloud) -> float:
    """|X| at t = 1, solved on first use and kept on the cloud.

    The threshold of ``filter_by_moment`` and the t = 1 point of
    ``magnitude_function`` read it, so an epsilon sweep over one cloud
    factors its N x N matrix at t = 1 once. A new cloud, even of the same
    points, solves again.
    """
    # The cloud is frozen; like its cached distances, the value goes in its __dict__.
    held = vars(cloud)
    if "_magnitude_at_one" not in held:
        held["_magnitude_at_one"] = weights_at_scale(cloud, 1.0).magnitude
    return held["_magnitude_at_one"]


def magnitude_function(cloud: PointCloud, scales) -> list[tuple[float, float]]:
    """Evaluate t -> |tX| at each scale, in input order.

    ``t = inf`` is answered with N directly (the t -> infinity limit)
    rather than solving a system, and ``t = 1`` with the value the cloud
    holds (``_magnitude_at_one``), solved at most once per cloud.
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
            if t == 1:
                out.append((1.0, _magnitude_at_one(cloud)))
            else:
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
