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

A union Z = X u Y grows zeta_X's lower Cholesky factor by the new
points Y' = Y \\ X (block Cholesky; Golub & Van Loan, Matrix
Computations, 4.2):

    L_Z = [[L_X, 0], [C^T, L_S]],   C = L_X^{-1} A_{X,Y'},
    L_S L_S^T = A_{Y'} - C^T C,

then solves zeta_Z w = 1 with L_Z. The weights it returns hold L_Z, so
the next union of a stream borders it again: |X|^2 |Y'| + |Y'|^3 / 3
flops a union, plus |X|^3 / 3 when zeta_X must first be factored.
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


def _match(cloud_x: PointCloud, cloud_y: PointCloud):
    """Y-to-X distances (|Y| x |X|), for each point of Y the index of the
    point of X it is or -1, and the mask of W = X \\ Y on X.

    A point of Y at distance 0 from a point of X is that point. One closer
    than DUPLICATE_TOL but not at distance 0 is ambiguous for the block
    decomposition and raises OverlapAmbiguity.
    """
    if cloud_x.dim != cloud_y.dim:
        raise ValueError("clouds must share dimension")
    dist = pairwise_distances(cloud_y, cloud_x)
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
    return dist, np.where(gaps == 0, nearest, -1), keep_x


def union_cloud(cloud_x: PointCloud, cloud_y: PointCloud) -> PointCloud:
    """Cloud on Z = X u Y: points of X \\ Y in X order, then Y in Y order.

    Points are matched as in union_weights: a point of Y at distance 0
    from a point of X is that point, and one nearer than DUPLICATE_TOL but
    not at distance 0 raises OverlapAmbiguity.
    """
    keep_x = _match(cloud_x, cloud_y)[2]
    return PointCloud(np.vstack([cloud_x.points[keep_x], cloud_y.points]))


def _hold(weights: WeightVector, lower, points, order) -> WeightVector:
    """Keep a Cholesky factor of zeta on ``weights``, read-only.

    Row i of ``lower`` is point ``order[i]`` of ``points``. The vector is
    frozen; like the held inverse, the factor goes in its __dict__.
    """
    for array in (lower, points, order):
        array.setflags(write=False)
    vars(weights)["_factor"] = (lower, points, order)
    return weights


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

    ``dist_new_x`` holds the Y'-to-X distances, X in L_X's row order, and
    ``dist_new`` Y''s own; A = exp(-t d) is taken here. C = L_X^{-1}
    A_{X,Y'} is one triangular solve (|X|^2 |Y'| flops) and L_S the
    factor of A_{Y'} - C^T C (|Y'|^3 / 3 flops; PIVOT_FLOOR applies).
    L_Z is a fresh Fortran-ordered array whose lower triangle is read.
    """
    from scipy.linalg.lapack import dtrtrs  # here: CLI start-up skips scipy

    nx, nz = lower_x.shape[0], lower_x.shape[0] + dist_new.shape[0]
    c, _ = dtrtrs(lower_x, np.exp(-scale * dist_new_x).T, lower=1, overwrite_b=1)
    grown = _mapped_square(nz)
    grown[:nx, :nx] = lower_x
    grown[nx:, :nx] = c.T
    grown[nx:, nx:] = _cholesky_lower(np.exp(-scale * dist_new) - c.T @ c)
    return grown


def union_weights(
    cloud_x: PointCloud,
    cloud_y: PointCloud,
    weights_x: WeightVector,
    weights_y: WeightVector,
) -> WeightVector:
    """Weight vector on Z = X u Y from zeta_X's Cholesky factor, bordered.

    Output ordering matches union_cloud: W = X \\ Y first (X order), then
    Y (Y order). L_X is the factor weights_x holds if it was built for
    exactly cloud_x's points, as a vector this function returns is;
    otherwise zeta_X is factored afresh, |X|^3 / 3 flops. L_X is bordered
    by Y' = Y \\ X, |X|^2 |Y'| + |Y'|^3 / 3 flops, and zeta_Z w = 1 is
    solved with the grown factor. A_{X,Y'} and A_{Y'} come from the Y-to-X
    distances that match the clouds and from cloud_y's own distances; no
    |Z| x |Z| distance or similarity matrix is built.

    The result holds the grown factor, 8 |Z|^2 bytes, read-only, and no
    reference to weights_x's. The weights themselves are not read: of
    weights_x and weights_y only the scale, the sizes and weights_x's
    factor are, except that X inside Y returns weights_y, and Y inside X
    returns weights_x reordered, sharing its factor. Neither factors.
    """
    if weights_x.scale != weights_y.scale:
        raise ValueError("weight vectors must share the same scale t")
    _check_size(weights_x, cloud_x.size, "weights_x")
    _check_size(weights_y, cloud_y.size, "weights_y")
    t = weights_x.scale
    dist, matched, keep_x = _match(cloud_x, cloud_y)
    nw = int(keep_x.sum())
    if not nw:
        return weights_y
    shared = matched >= 0
    new = np.flatnonzero(~shared)  # Y' = Y \\ X, in Y order
    # Where each point of X sits in Z.
    z_of_x = np.empty(cloud_x.size, np.intp)
    z_of_x[keep_x] = np.arange(nw)
    z_of_x[matched[shared]] = nw + np.flatnonzero(shared)
    points_z = np.vstack([cloud_x.points[keep_x], cloud_y.points])
    dist_y = cloud_y.distances  # raises DuplicatePoints, as Z's would
    held = vars(weights_x).get("_factor")
    if held is not None and not np.array_equal(held[1], cloud_x.points):
        held = None
    if not new.size:
        w_z = np.empty(points_z.shape[0])
        w_z[z_of_x] = weights_x.weights
        out = WeightVector(w_z, t)
        return out if held is None else _hold(out, held[0], points_z, z_of_x[held[2]])
    from scipy.linalg.lapack import dpotrs  # here: CLI start-up skips scipy

    if held is None:
        lower_x = _cholesky_lower(_similarity_entries(cloud_x, t))
        order_x = np.arange(cloud_x.size)
    else:
        lower_x, _, order_x = held
    lower_z = _border(
        lower_x, dist[new[:, None], order_x], dist_y[np.ix_(new, new)], t
    )
    order_z = np.concatenate([z_of_x[order_x], nw + new])
    solved, _ = dpotrs(lower_z, np.ones(len(order_z)), lower=1)
    w_z = np.empty(len(order_z))
    w_z[order_z] = solved
    return _hold(WeightVector(w_z, t), lower_z, points_z, order_z)
