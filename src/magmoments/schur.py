"""Incremental magnitude and weight updates via Schur complements.

Removing the points indexed by P from a cloud X with similarity matrix A
changes the magnitude by a quadratic form in the removed weights:

    |X \\ P| = |X| - w[P]^T (A / A_Pbar) w[P]

where A / A_Pbar = A_P - A_{P,Pbar} A_Pbar^{-1} A_{P,Pbar}^T is the Schur
complement S of the kept block. By the block-inverse identity

    A / A_Pbar = ((A^{-1})_PP)^{-1},

S^{-1} = B = Y^T Y with Y = L^{-1} E_P, where L is A's Cholesky factor
and E_P the columns of the identity at P. L is computed once per
SimilarityMatrix (about N^3 / 3 flops) and kept on it. So a split costs
one triangular solve with |P| right-hand sides, about N^2 |P| flops,
plus O(N |P|^2) for B and O(|P|^3) to invert it.

One elimination of the Y block gives the weights of a union Z = W u Y,
W = X \\ Y, from Y's weights alone, at the cost of one |W| and one |Y|
Cholesky factorization:

    w_Z[W] = (A/A_Y)^{-1} (1_W - A_{W,Y} w_Y)
    w_Z[Y] = A_Y^{-1} (1_Y - A_{W,Y}^T w_Z[W])
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverlapAmbiguity
from .geometry import (
    DUPLICATE_TOL,
    PointCloud,
    SimilarityMatrix,
    build_similarity,
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


def _removed_indices(sim: SimilarityMatrix, split: IndexSplit) -> np.ndarray:
    """Removed index array of a split with both sides nonempty."""
    if not split.removed:
        raise ValueError("Schur complement undefined for an empty removed set")
    if not split.kept:
        raise ValueError("kept set must be nonempty")
    if split.parent_size != sim.size:
        raise ValueError("split size does not match matrix size")
    return np.asarray(split.removed, dtype=np.intp)


def _held_factor(sim: SimilarityMatrix) -> np.ndarray:
    """zeta's lower Cholesky factor L, computed on first use and kept on sim.

    Read-only; it holds another 8 N^2 bytes for the matrix's lifetime.
    """
    # The matrix is frozen; like a cached_property, the factor goes in its __dict__.
    held = vars(sim)
    if "_cholesky" not in held:
        lower = _cholesky_lower(sim.entries.copy())
        lower.setflags(write=False)
        held["_cholesky"] = lower
    return held["_cholesky"]


def _complement(sim: SimilarityMatrix, removed: np.ndarray) -> np.ndarray:
    """S = A / A_Pbar = B^{-1}, symmetrized, B = (zeta^{-1})_PP = Y^T Y, Y = L^{-1} E_P."""
    import scipy.linalg  # here: CLI start-up skips scipy

    columns = np.zeros((sim.size, removed.size))
    columns[removed, np.arange(removed.size)] = 1.0
    y = scipy.linalg.solve_triangular(
        _held_factor(sim), columns, lower=True, check_finite=False
    )
    s = scipy.linalg.cho_solve(
        (_cholesky_lower(y.T @ y), True), np.eye(removed.size), check_finite=False
    )
    return 0.5 * (s + s.T)


def schur_complement(sim: SimilarityMatrix, split: IndexSplit) -> SchurComplement:
    """A_P - A_{P,Pbar} A_Pbar^{-1} A_{P,Pbar}^T for the given split."""
    s = _complement(sim, _removed_indices(sim, split))
    s_lower = _cholesky_lower(s.copy())  # the factor overwrites its argument
    det = float(np.prod(np.diag(s_lower)) ** 2)
    return SchurComplement(s, det)


def _check_size(weights: WeightVector, points: int, name: str) -> None:
    if weights.size != points:
        raise ValueError(f"{name} has {weights.size} entries for {points} points")


def _check_scale(weights: WeightVector, sim: SimilarityMatrix) -> None:
    if weights.scale != sim.scale:
        raise ValueError(
            f"weights at scale t={weights.scale} but similarity matrix at t={sim.scale}"
        )


def restricted_magnitude(
    weights: WeightVector, sim: SimilarityMatrix, split: IndexSplit
) -> float:
    """Magnitude of the kept subset, without re-solving on it."""
    _check_size(weights, split.parent_size, "weights")
    _check_scale(weights, sim)
    if not split.removed:
        return weights.magnitude
    removed = _removed_indices(sim, split)
    s = _complement(sim, removed)
    wp = weights.weights[removed]
    if removed.size == 1:
        # s w^2, rounded as restriction_bounds rounds detUpper and lower,
        # so that at |P| = 1 all three agree exactly.
        return weights.magnitude - float(s[0, 0] * (wp[0] * wp[0]))
    return weights.magnitude - float(wp @ s @ wp)


def restriction_bounds(
    weights: WeightVector, sim: SimilarityMatrix, split: IndexSplit
) -> tuple[float, float, float]:
    """Sandwich bounds (upper, detUpper, lower) on the restricted magnitude.

    upper = |X|; detUpper = |X| - |P| det(S) min(w_P^2);
    lower = |X| - lambda_max(S) ||w_P||^2, a Rayleigh-quotient bound on
    the quadratic form w_P^T S w_P. The restricted magnitude lies in
    [lower, detUpper] and detUpper <= upper. For well-separated points
    S approaches the identity and the bounds collapse to
    |X| >= |X \\ P| >= |X| - |P|. With nothing removed all three are |X|.
    """
    _check_size(weights, split.parent_size, "weights")
    _check_scale(weights, sim)
    if not split.removed:
        return (weights.magnitude,) * 3
    import scipy.linalg

    removed = _removed_indices(sim, split)
    spectrum = scipy.linalg.eigvalsh(_complement(sim, removed))
    wp2 = weights.weights[removed] ** 2
    upper = weights.magnitude
    det_upper = upper - removed.size * float(np.prod(spectrum)) * float(wp2.min())
    lower = upper - float(spectrum.max()) * float(wp2.sum())
    return upper, det_upper, lower


def _match_points(cloud_x: PointCloud, cloud_y: PointCloud):
    """Map each point of Y to its exact-coordinate match in X, if any.

    Near-matches (within the duplicate tolerance but not exactly equal)
    are ambiguous for the block decomposition and rejected.
    """
    x_rows = {row.tobytes(): i for i, row in enumerate(cloud_x.points)}
    mapping = {}
    for j, row in enumerate(cloud_y.points):
        i = x_rows.get(row.tobytes())
        if i is not None:
            mapping[j] = i
            continue
        gaps = np.linalg.norm(cloud_x.points - row, axis=1)
        near = int(np.argmin(gaps))
        if gaps[near] < DUPLICATE_TOL:
            raise OverlapAmbiguity(
                f"point {j} of Y is {gaps[near]:.3e} from point {near} of X "
                "but not exactly equal"
            )
    return mapping


def union_cloud(cloud_x: PointCloud, cloud_y: PointCloud) -> PointCloud:
    """Cloud on Z = X u Y: points of X \\ Y in X order, then Y in Y order."""
    if cloud_x.dim != cloud_y.dim:
        raise ValueError("clouds must share dimension")
    mapping = _match_points(cloud_x, cloud_y)
    overlap_in_x = set(mapping.values())
    keep_x = [i for i in range(cloud_x.size) if i not in overlap_in_x]
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
