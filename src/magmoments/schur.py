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

A union Z = X u Y lists the points of X, then the new points Y' = Y \\ X;
a point Y shares with X is X's, coordinates and all. zeta_X's lower
Cholesky factor grows by Y' in that same row order (block Cholesky;
Golub & Van Loan, Matrix Computations, 4.2):

    L_Z = [[L_X, 0], [C^T, L_S]],   C = L_X^{-1} A_{X,Y'},
    L_S L_S^T = A_{Y'} - C^T C,

then zeta_Z w = 1 is solved with L_Z and its residual checked. Points,
weights and factor rows share one order, so the weights hold L_Z as it
is and the next union of a stream borders it again: |X|^2 |Y'| + |Y'|^3
/ 3 flops a union, plus |X|^3 / 3 when zeta_X must first be factored.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure, OverlapAmbiguity
from .geometry import (
    DUPLICATE_TOL,
    PointCloud,
    SimilarityMatrix,
    _similarity_entries,
    pairwise_distances,
)
# build_similarity and weights_at_scale are unused here; perfbench/selfcheck.py
# checks these import sites.
from .geometry import build_similarity  # noqa: F401
from .magnitude import WeightVector, _cholesky_lower, _cholesky_solve
from .magnitude import weights_at_scale  # noqa: F401


def _index(i) -> int:
    """int(i) for a Python or NumPy integer; int() would truncate 1.5, read True as 1."""
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
        raise ValueError(f"index {i!r} is not an integer")
    return int(i)


@dataclass(frozen=True)
class IndexSplit:
    """Partition of {0..N-1} into kept and removed integer index sets."""

    kept: tuple
    removed: tuple
    parent_size: int

    def __post_init__(self):
        kept = tuple(sorted(_index(i) for i in self.kept))
        removed = tuple(sorted(_index(i) for i in self.removed))
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


def _match(cloud_x: PointCloud, cloud_y: PointCloud):
    """Y-to-X distances (|Y| x |X|) and the indices of Y' = Y \\ X, in Y order.

    A point of Y at distance 0 from a point of X is that point. One closer
    than DUPLICATE_TOL but not at distance 0 is ambiguous for the block
    decomposition and raises OverlapAmbiguity; Y's own duplicate check
    runs first, so a repeated point of Y raises DuplicatePoints.
    """
    if cloud_x.dim != cloud_y.dim:
        raise ValueError("clouds must share dimension")
    cloud_y.distances  # the duplicate check, kept on Y for union_weights
    dist = pairwise_distances(cloud_y, cloud_x)
    gaps = dist.min(axis=1)
    ambiguous = np.flatnonzero((gaps > 0) & (gaps < DUPLICATE_TOL))
    if ambiguous.size:
        j = ambiguous[0]
        raise OverlapAmbiguity(
            f"point {j} of Y is {gaps[j]:.3e} from point {dist[j].argmin()} of X "
            "but not exactly equal"
        )
    return dist, np.flatnonzero(gaps > 0)


def union_cloud(cloud_x: PointCloud, cloud_y: PointCloud) -> PointCloud:
    """Cloud on Z = X u Y: the points of X in X order, then Y \\ X in Y order.

    Points are matched as in union_weights: a point of Y at distance 0
    from a point of X is that point, and keeps X's coordinates; one nearer
    than DUPLICATE_TOL but not at distance 0 raises OverlapAmbiguity, and
    a repeated point of Y raises DuplicatePoints.
    """
    new = _match(cloud_x, cloud_y)[1]
    return PointCloud(np.vstack([cloud_x.points, cloud_y.points[new]]))


def _mapped_square(n: int) -> np.ndarray:
    """n x n zeros, Fortran-ordered, in an anonymous memory mapping of their own.

    A stream replaces its held factor by a larger one at every union. On
    the C heap each freed factor left a hole too small for the next one,
    and the holes stayed resident: the perfbench schur_updates worker (N =
    800, four unions) peaked 14.7 MB higher than with no factor held, not
    5.1 MB. A mapping goes back to the system when the array is freed; on
    Linux MAP_POPULATE maps its pages in one call, not one fault each.
    """
    size = 8 * n * n
    if hasattr(mmap, "MAP_ANONYMOUS"):
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
        buffer = mmap.mmap(-1, size, flags=flags)
    else:
        buffer = mmap.mmap(-1, size)
    return np.ndarray((n, n), order="F", buffer=buffer)


def _border(lower_x, dist_new_x, dist_new, scale):
    """L_Z = [[L_X, 0], [C^T, L_S]]: L_X bordered by the points Y'.

    ``dist_new_x`` holds the Y'-to-X distances and ``dist_new`` Y''s own;
    A = exp(-t d) is taken here. C = L_X^{-1} A_{X,Y'} is one triangular
    solve (|X|^2 |Y'| flops) and L_S the factor of A_{Y'} - C^T C (|Y'|^3
    / 3 flops; PIVOT_FLOOR applies). L_Z is a fresh Fortran-ordered array
    laid out as _cholesky_lower leaves one: zeta_Z stays above the diagonal.
    """
    from scipy.linalg.lapack import dtrtrs  # here: CLI start-up skips scipy

    nx, nz = lower_x.shape[0], lower_x.shape[0] + dist_new.shape[0]
    grown = _mapped_square(nz)
    grown[:nx, :nx] = lower_x
    grown[:nx, nx:] = np.exp(-scale * dist_new_x).T
    c, _ = dtrtrs(lower_x, grown[:nx, nx:], lower=1)
    grown[nx:, :nx] = c.T
    a_new = np.exp(-scale * dist_new)
    grown[nx:, nx:] = np.triu(a_new, 1) + np.tril(_cholesky_lower(a_new - c.T @ c))
    return grown


def union_weights(
    cloud_x: PointCloud,
    cloud_y: PointCloud,
    weights_x: WeightVector,
    weights_y: WeightVector,
) -> WeightVector:
    """Weight vector on Z = X u Y from zeta_X's Cholesky factor, bordered.

    Output ordering matches union_cloud and the grown factor's rows: X,
    then Y' = Y \\ X in Y order. L_X is the factor weights_x holds if it
    was built for exactly cloud_x's points, as a vector this function
    returns is; otherwise zeta_X is factored afresh, |X|^3 / 3 flops. L_X
    is bordered by Y', |X|^2 |Y'| + |Y'|^3 / 3 flops, and zeta_Z w = 1 is
    solved with the grown factor and checked as a weight solve is. A_{X,Y'}
    and A_{Y'} come from the Y-to-X distances that match the clouds and
    from cloud_y's own; no |Z| x |Z| distance or similarity matrix is built.

    The result holds the grown factor, 8 |Z|^2 bytes, read-only, and no
    reference to weights_x's. The weights themselves are not read: of
    weights_x and weights_y only the scale, the sizes and weights_x's
    factor are. Y inside X returns weights_x itself, whose factor, if
    any, stays valid since Z is X.
    """
    if weights_x.scale != weights_y.scale:
        raise ValueError("weight vectors must share the same scale t")
    _check_size(weights_x, cloud_x.size, "weights_x")
    _check_size(weights_y, cloud_y.size, "weights_y")
    t = weights_x.scale
    dist, new = _match(cloud_x, cloud_y)
    if not new.size:
        return weights_x
    held = vars(weights_x).get("_factor")
    if held is not None and np.array_equal(held[1], cloud_x.points):
        lower_x = held[0]
    else:
        lower_x = _cholesky_lower(_similarity_entries(cloud_x, t))
    lower_z = _border(lower_x, dist[new], cloud_y.distances[np.ix_(new, new)], t)
    out = WeightVector(_cholesky_solve(lower_z), t)
    points_z = np.vstack([cloud_x.points, cloud_y.points[new]])
    for array in (lower_z, points_z):
        array.setflags(write=False)
    # The vector is frozen; like the held inverse, the factor goes in its __dict__.
    vars(out)["_factor"] = (lower_z, points_z)
    return out
