"""Incremental magnitude and weight updates via Schur complements.

Removing the points indexed by P from a cloud X with similarity matrix A
changes the magnitude by a quadratic form in the removed weights:

    |X \\ P| = |X| - w[P]^T (A / A_Pbar) w[P]

where A / A_Pbar = A_P - A_{P,Pbar} A_Pbar^{-1} A_{P,Pbar}^T is the Schur
complement of the kept block. One elimination of the Y block gives the
weights of a union Z = W u Y, W = X \\ Y, from Y's weights alone, at the
cost of one |W| and one |Y| Cholesky factorization:

    w_Z[W] = (A/A_Y)^{-1} (1_W - A_{W,Y} w_Y)
    w_Z[Y] = A_Y^{-1} (1_Y - A_{W,Y}^T w_Z[W])
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def schur_complement(sim: SimilarityMatrix, split: IndexSplit) -> SchurComplement:
    """A_P - A_{P,Pbar} A_Pbar^{-1} A_{P,Pbar}^T for the given split."""
    if not split.removed:
        raise ValueError("Schur complement undefined for an empty removed set")
    if not split.kept:
        raise ValueError("kept set must be nonempty")
    if split.parent_size != sim.size:
        raise ValueError("split size does not match matrix size")
    a = sim.entries
    p = np.asarray(split.removed, dtype=np.intp)
    pbar = np.asarray(split.kept, dtype=np.intp)
    s, _ = _block_complement(a[np.ix_(p, p)], a[np.ix_(p, pbar)], a[np.ix_(pbar, pbar)])
    s_lower = _cholesky_lower(s.copy())  # the factor overwrites its argument
    det = float(np.prod(np.diag(s_lower)) ** 2)
    return SchurComplement(s, det)


def _block_complement(a_p, cross, a_pbar) -> tuple[np.ndarray, np.ndarray]:
    """A_P - A_{P,Pbar} A_Pbar^{-1} A_{P,Pbar}^T, symmetrized, and A_Pbar's factor.

    ``cross`` is A_{P,Pbar}; ``a_pbar`` is factored in place, so pass an
    array the caller gives up. The factor is returned for cho_solve.
    """
    lower = _cholesky_lower(a_pbar)
    s = a_p - cross @ scipy.linalg.cho_solve((lower, True), cross.T, check_finite=False)
    return 0.5 * (s + s.T), lower


def _check_size(weights: WeightVector, points: int, name: str) -> None:
    if weights.size != points:
        raise ValueError(f"{name} has {weights.size} entries for {points} points")


def restricted_magnitude(
    weights: WeightVector, sim: SimilarityMatrix, split: IndexSplit
) -> float:
    """Magnitude of the kept subset, without re-solving on it."""
    _check_size(weights, split.parent_size, "weights")
    if not split.removed:
        return weights.magnitude
    comp = schur_complement(sim, split)
    wp = weights.weights[np.asarray(split.removed, dtype=np.intp)]
    return weights.magnitude - float(wp @ comp.matrix @ wp)


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
    if not split.removed:
        return (weights.magnitude,) * 3
    comp = schur_complement(sim, split)
    wp = weights.weights[np.asarray(split.removed, dtype=np.intp)]
    n_removed = len(split.removed)
    wp2 = wp**2
    upper = weights.magnitude
    det_upper = upper - n_removed * comp.determinant * float(wp2.min())
    lam_max = float(scipy.linalg.eigvalsh(comp.matrix)[-1])
    lower = upper - lam_max * float(wp2.sum())
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
    enter. If Y is contained in X, weights_x is returned unchanged, in X
    order rather than union_cloud's; if X is contained in Y, Z is Y and
    weights_y is returned.
    """
    if weights_x.scale != weights_y.scale:
        raise ValueError("weight vectors must share the same scale t")
    _check_size(weights_x, cloud_x.size, "weights_x")
    _check_size(weights_y, cloud_y.size, "weights_y")
    cloud_z = union_cloud(cloud_x, cloud_y)
    if cloud_z.size == cloud_x.size:
        return weights_x
    nw = cloud_z.size - cloud_y.size
    if not nw:
        return weights_y
    a = build_similarity(cloud_z, weights_x.scale).entries
    del cloud_z  # frees the union's distance matrix before the block solves
    a_wy = a[:nw, nw:]
    # The factor overwrites its argument: hand over a copy of the Y block.
    schur_w, lower_y = _block_complement(a[:nw, :nw], a_wy, a[nw:, nw:].copy())
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
