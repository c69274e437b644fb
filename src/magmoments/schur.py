"""Incremental magnitude and weight updates via Schur complements.

Removing the points indexed by P from a cloud X with similarity matrix A
changes the magnitude by a quadratic form in the removed weights:

    |X \\ P| = |X| - w[P]^T (A / A_Pbar) w[P]

where A / A_Pbar = A_P - A_{P,Pbar} A_Pbar^{-1} A_{P,Pbar}^T is the Schur
complement S of the kept block. By the block-inverse identity

    A / A_Pbar = ((A^{-1})_PP)^{-1},

S^{-1} = B = (A^{-1})_PP. A^{-1} is computed once per SimilarityMatrix
(a Cholesky factorization, then LAPACK's dpotri in the factor's memory:
about N^3 flops) and kept on it, one N x N array. So a split costs a
gather of B's |P|^2 entries and |P|^3 / 3 flops for B's Cholesky factor;
S is formed only as schur_complement's return value.

One elimination of the Y block gives the weights of a union Z = W u Y,
W = X \\ Y, from Y's weights alone, at the cost of one |W| and one |Y|
Cholesky factorization:

    w_Z[W] = (A/A_Y)^{-1} (1_W - A_{W,Y} w_Y)
    w_Z[Y] = A_Y^{-1} (1_Y - A_{W,Y}^T w_Z[W])
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure, OverlapAmbiguity
from .geometry import (
    DUPLICATE_TOL,
    PointCloud,
    SimilarityMatrix,
    build_similarity,
    pairwise_distances,
)
# weights_at_scale is unused here; perfbench/selfcheck.py checks this import site.
from .magnitude import WeightVector, _cholesky_lower, weights_at_scale  # noqa: F401


@dataclass(frozen=True)
class IndexSplit:
    """Partition of {0..N-1} into kept and removed index sets."""

    kept: tuple
    removed: tuple
    parent_size: int

    def __post_init__(self):
        kept = tuple(sorted(int(i) for i in self.kept))
        removed = tuple(sorted(int(i) for i in self.removed))
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "removed", removed)
        all_idx = set(kept) | set(removed)
        if len(kept) + len(removed) != self.parent_size or all_idx != set(
            range(self.parent_size)
        ):
            raise ValueError("kept and removed must disjointly cover 0..N-1")


@dataclass(frozen=True)
class SchurComplement:
    """Schur complement of the kept block, |P| x |P|, SPD."""

    matrix: np.ndarray
    determinant: float


def _check_size(weights: WeightVector, points: int, name: str) -> None:
    if weights.size != points:
        raise ValueError(f"{name} has {weights.size} entries for {points} points")


def _held_inverse(sim: SimilarityMatrix) -> np.ndarray:
    """zeta^{-1}, computed on first use and kept on sim.

    zeta's Cholesky factor (N^3 / 3 flops, PIVOT_FLOOR applies) is
    overwritten by dpotri's L^{-T} L^{-1} (2 N^3 / 3 flops), so the matrix
    holds one more N x N array, 8 N^2 bytes, read-only, for its lifetime.
    Each split then reads its |P|^2 entries of B, with no N-sized work.
    """
    # The matrix is frozen; like a cached_property, the inverse goes in its __dict__.
    held = vars(sim)
    if "_inverse" not in held:
        from scipy.linalg.lapack import dpotri  # here: CLI start-up skips scipy

        lower = _cholesky_lower(sim.entries.copy())
        inverse, info = dpotri(lower, lower=1, overwrite_c=1)  # in lower's memory
        if info != 0:
            raise FactorizationFailure(f"Cholesky inverse failed: pivot {info} is zero")
        # dpotri fills the lower triangle; mirror it in place, column by column.
        for j in range(1, sim.size):
            inverse[:j, j] = inverse[j, :j]
        inverse.setflags(write=False)
        # Symmetric, so its transpose is the same matrix in C order, as the
        # flat gather in _split_factor needs.
        held["_inverse"] = inverse.T
    return held["_inverse"]


def _split_factor(sim: SimilarityMatrix, split: IndexSplit, weights=None):
    """Check a split, and weights if given, against sim; factor B = (zeta^{-1})_PP.

    Returns (removed indices, B, L_B, det S): B is gathered from the held
    zeta^{-1}; L_B is B's lower Cholesky factor, with B's entries left above
    the diagonal; det S = 1 / det B, a product of reciprocal pivots that
    underflows to 0 quietly. None if weights are given and nothing is removed.
    """
    if weights is not None:
        _check_size(weights, sim.size, "weights")
        if weights.scale != sim.scale:
            raise ValueError(f"weights at scale t={weights.scale} "
                             f"but similarity matrix at t={sim.scale}")
    if split.parent_size != sim.size:
        raise ValueError("split size does not match matrix size")
    if not split.removed:
        if weights is not None:
            return None
        raise ValueError("Schur complement undefined for an empty removed set")
    if not split.kept:
        raise ValueError("kept set must be nonempty")
    removed = np.asarray(split.removed, dtype=np.intp)
    # zeta^{-1}[P, P] by flat index into the C-ordered inverse: |P|^2 reads.
    b = _held_inverse(sim).take(removed[:, None] * sim.size + removed)
    lower_b = _cholesky_lower(b.copy())  # the factor overwrites its argument
    return removed, b, lower_b, float(np.prod(1.0 / np.diag(lower_b)) ** 2)


def schur_complement(sim: SimilarityMatrix, split: IndexSplit) -> SchurComplement:
    """A_P - A_{P,Pbar} A_Pbar^{-1} A_{P,Pbar}^T = B^{-1} for the given split."""
    import scipy.linalg

    _, b, lower_b, det = _split_factor(sim, split)
    s = scipy.linalg.cho_solve((lower_b, True), np.eye(len(b)), check_finite=False)
    return SchurComplement(0.5 * (s + s.T), det)


def restricted_magnitude(
    weights: WeightVector, sim: SimilarityMatrix, split: IndexSplit
) -> float:
    """Magnitude of the kept subset, |X| - ||L_B^{-1} w_P||^2, without re-solving."""
    factored = _split_factor(sim, split, weights)
    if factored is None:
        return weights.magnitude
    removed, _, lower_b, det = factored
    wp = weights.weights[removed]
    if removed.size == 1:  # s w^2, s = det S: detUpper and lower round it alike
        return weights.magnitude - det * float(wp[0] * wp[0])
    import scipy.linalg

    z = scipy.linalg.solve_triangular(lower_b, wp, lower=True, check_finite=False)
    return weights.magnitude - float(z @ z)


def restriction_bounds(
    weights: WeightVector, sim: SimilarityMatrix, split: IndexSplit
) -> tuple[float, float, float]:
    """Sandwich bounds (upper, detUpper, lower) on the restricted magnitude.

    upper = |X|; detUpper = |X| - |P| det(S) min(w_P^2); lower = |X| -
    lambda_max(S) ||w_P||^2, a Rayleigh-quotient bound on w_P^T S w_P, with
    lambda_max(S) = 1 / lambda_min(B). The restricted magnitude lies in
    [lower, detUpper] and detUpper <= upper. For well-separated points
    S approaches the identity and the bounds collapse to
    |X| >= |X \\ P| >= |X| - |P|. With nothing removed all three are |X|.
    """
    factored = _split_factor(sim, split, weights)
    if factored is None:
        return (weights.magnitude,) * 3
    import scipy.linalg

    removed, b, _, det = factored
    # At |P| = 1, S's one eigenvalue is det, rounded as restricted_magnitude's s.
    largest = det if removed.size == 1 else 1.0 / float(
        scipy.linalg.eigvalsh(b, subset_by_index=[0, 0], check_finite=False)[0])
    wp2 = weights.weights[removed] ** 2
    upper = weights.magnitude
    det_upper = upper - removed.size * det * float(wp2.min())
    lower = upper - largest * float(wp2.sum())
    return upper, det_upper, lower


def union_cloud(cloud_x: PointCloud, cloud_y: PointCloud) -> PointCloud:
    """Cloud on Z = X u Y: points of X \\ Y in X order, then Y in Y order.

    A point of Y at distance 0 from a point of X is that point. One closer
    than DUPLICATE_TOL but not at distance 0 is ambiguous for the block
    decomposition and raises OverlapAmbiguity.
    """
    if cloud_x.dim != cloud_y.dim:
        raise ValueError("clouds must share dimension")
    dist = pairwise_distances(cloud_y, cloud_x)  # |Y| x |X|
    nearest = dist.argmin(axis=1)
    gaps = dist[np.arange(cloud_y.size), nearest]
    ambiguous = np.flatnonzero((gaps > 0) & (gaps < DUPLICATE_TOL))
    if ambiguous.size:
        j = ambiguous[0]
        raise OverlapAmbiguity(
            f"point {j} of Y is {gaps[j]:.3e} from point {nearest[j]} of X "
            "but not exactly equal"
        )
    keep_x = np.ones(cloud_x.size, bool)
    keep_x[nearest[gaps == 0]] = False
    return PointCloud(np.vstack([cloud_x.points[keep_x], cloud_y.points]))


def union_weights(
    cloud_x: PointCloud,
    cloud_y: PointCloud,
    weights_x: WeightVector,
    weights_y: WeightVector,
) -> WeightVector:
    """Weight vector on Z = X u Y by one elimination of the Y block of zeta_Z.

    Output ordering matches union_cloud: W = X \\ Y first (X order), then
    Y (Y order). With A = zeta_Z split into the W and Y blocks,

        w_Z[W] = (A/A_Y)^{-1} (1_W - A_{W,Y} w_Y)
        w_Z[Y] = A_Y^{-1} (1_Y - A_{W,Y}^T w_Z[W])

    from one |W| and one |Y| Cholesky factorization. Only Y's weights
    enter. If X is contained in Y, Z is Y and weights_y is returned.
    """
    if weights_x.scale != weights_y.scale:
        raise ValueError("weight vectors must share the same scale t")
    _check_size(weights_x, cloud_x.size, "weights_x")
    _check_size(weights_y, cloud_y.size, "weights_y")
    cloud_z = union_cloud(cloud_x, cloud_y)
    nw = cloud_z.size - cloud_y.size
    if not nw:
        return weights_y
    import scipy.linalg

    a = build_similarity(cloud_z, weights_x.scale).entries
    del cloud_z  # frees the union's distance matrix before the block solves
    a_wy = a[:nw, nw:]
    # The factor overwrites its argument: hand over a copy of the Y block.
    lower_y = _cholesky_lower(a[nw:, nw:].copy())
    schur_w = a[:nw, :nw] - a_wy @ scipy.linalg.cho_solve(
        (lower_y, True), a_wy.T, check_finite=False
    )
    schur_w = 0.5 * (schur_w + schur_w.T)
    w_w = scipy.linalg.cho_solve(
        (_cholesky_lower(schur_w), True),
        1.0 - a_wy @ weights_y.weights,
        check_finite=False,
    )
    w_y = scipy.linalg.cho_solve(
        (lower_y, True), 1.0 - a_wy.T @ w_w, check_finite=False
    )
    w_z = np.concatenate([w_w, w_y])
    return WeightVector(w_z, weights_x.scale, float(w_z.sum()))
