"""Per-point moments: weighted quadrature of squared weights over scale.

The zeroth moment of a point x is

    mu_0(x) = integral_0^inf e^{-t} w_t(x)^2 dt

a scale-free importance score that is larger for extremal points. The
generalized moments mu_n insert a factor t^n, and the shifted Laplace
transform inserts e^{-s t}. All of them discretize the integral with a
Gauss-Laguerre rule whose weights absorb the e^{-t} factor, and share one
node loop that differs only in the per-node factor f_k. The loop is the one
place the sum is formed: it adds omega_k f_k w_{t_k}^2 to acc_i node by node
and returns acc.

The loop stops solving at the first node t_k whose remaining contribution is
proved negligible, and adds the rule's remaining weight as w = 1. With acc_i
the sum so far over nodes j < k, T_k = sum_{j >= k} omega_j f_j that
remaining weight, N points and u = 2^-53, the cut needs a certificate that

    lambda_min(Z_{t_k}) >= sigma_k = sqrt(T_k N / (u min_i acc_i)),

Z_t = exp(-t D) being the similarity matrix. It holds at every later node
too: Z_t = Z_{t_k} o Z_{t - t_k} (entrywise product), the second factor is
positive definite with unit diagonal because Euclidean distance is of
negative type, and by Schur's theorem (Horn & Johnson, Topics in Matrix
Analysis, Thm 5.3.4) lambda_min(A o B) >= lambda_min(A) min_i B_ii. From
lambda ||w||^2 <= w^T Z w = 1^T w <= sqrt(N) ||w|| every later w_t(x_i)^2 is
at most N / sigma_k^2, so the skipped tail, and the w = 1 put in for it
(sigma_k <= 1), both lie in [0, u acc_i]: no more than the rounding of one
addition to acc_i. The factor f enters T_k: t^3 is about 3e5 at t = 70.
``magnitude_moment`` sums 1^T w = |tX| <= N / lambda_min instead, and
needs lambda_min >= T_k N / (u acc). ``_certify_lambda_min`` proves the
bound by Gershgorin or by one Cholesky factorization (Rump, BIT 46 (2006)
433-452), less an O(N u) slack for rounding. Without a certificate every
node is solved.

When the BLAS thread setting leaves two or more cores free
(``parallel.worker_count``), a cloud of POOL_FLOOR points or more has its
nodes solved on forked worker processes, a few nodes ahead of the loop
(``parallel.ordered_map``). The loop, the cut and the sums stay in this
process, in node order, so every result is bit-identical whatever the
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure, QuadratureDivergence
# pairwise_distances is unused here; perfbench/selfcheck.py checks this import site.
from .geometry import PointCloud, _similarity_entries, pairwise_distances  # noqa: F401
from .magnitude import weights_at_scale
from .parallel import ordered_map, worker_count

#: The tail cut's certificate is first tried when the lambda_min it needs,
#: sigma_k above, falls to this (a unit diagonal puts lambda_min at most 1);
#: after a refusal, once sigma_k has fallen 16x further. Each try builds one
#: N x N matrix and may factor it, so it costs about one solved node.
TAIL_CUT_START = 0.125

DEFAULT_ORDER = 64

#: Fewest points for which one cloud's nodes are solved on a process pool.
#: Pool start-up, IPC and shut-down cost about 40 ms per node loop. Medians
#: of 7 zeroth_moments calls (GL-64, 2-D annulus), in-line vs on 2 forked
#: processes (2-vCPU host, BLAS at one thread), ranges over 2-5 sets:
#: 35-36 vs 54-59 ms at N=300, 55-63 vs 72-77 at N=400, 88-109 vs 95-106 at
#: N=500, 133-171 vs 125-141 at N=600 (pooled faster in 4 of 5 sets),
#: 198-260 vs 161-183 at N=700, 316-321 vs 219-244 at N=800 and 630-684 vs
#: 377 at N=1000.
POOL_FLOOR = 600

#: Relative change on order doubling beyond which the rule is rejected.
DIVERGENCE_TOL = 1e-4


@dataclass(frozen=True)
class QuadratureRule:
    """Positive nodes t_k and weights omega_k for integrals against e^{-t}.

    The weight function is absorbed into omega_k, so
    integral_0^inf e^{-t} f(t) dt ~= sum_k omega_k f(t_k).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D and equal length")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be positive and strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if self.kind == "gauss-laguerre" and abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("gauss-laguerre weights must sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        return self.nodes.size


def gauss_laguerre_rule(order: int = DEFAULT_ORDER) -> QuadratureRule:
    from scipy.special import roots_laguerre  # here: CLI start-up skips scipy

    nodes, weights = roots_laguerre(order)
    return QuadratureRule(nodes, weights, "gauss-laguerre")


def log_trapezoid_rule(
    order: int = 2000, lo: float = 1e-6, hi: float = 50.0
) -> QuadratureRule:
    """Trapezoid rule on log-spaced nodes, e^{-t} folded into the weights.

    The truncated tail beyond ``hi`` contributes at most e^{-hi} * sup f.
    """
    nodes = np.logspace(np.log10(lo), np.log10(hi), order)
    weights = np.empty(order)
    gaps = np.diff(nodes)
    weights[0] = gaps[0] / 2
    weights[-1] = gaps[-1] / 2
    weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2
    weights *= np.exp(-nodes)
    return QuadratureRule(nodes, weights, "log-trapezoid")


@dataclass(frozen=True)
class MomentVector:
    """Per-point mu_0 values and the order-doubling error estimate."""

    mu0: np.ndarray
    estimated_error: float

    def __post_init__(self):
        mu0 = np.asarray(self.mu0, dtype=np.float64)
        if mu0.ndim != 1:
            raise ValueError(f"mu0 must be a 1-D array, not shape {mu0.shape}")
        if np.any(mu0 < 0) or not np.all(np.isfinite(mu0)):
            raise ValueError("moments must be finite and nonnegative")
        mu0.setflags(write=False)
        object.__setattr__(self, "mu0", mu0)


def _node_sums(
    cloud: PointCloud, rule: QuadratureRule, factor: np.ndarray, power: int = 2
) -> np.ndarray:
    """sum_k omega_k factor_k g_k in node order, w = 1 past the certified cut.

    The integrand g_k is w_{t_k}(x_i)^2 per point for ``power`` 2 and
    sum_i w_{t_k}(x_i), one value, for ``power`` 1; either is at most
    N / lambda_min(Z_t)^power, and the cut needs its tail, weighted by
    ``factor``, below u times the smallest partial sum.
    """
    n = cloud.distances.shape[0]  # the duplicate check, before any node
    u = np.finfo(np.float64).eps / 2
    weighted = rule.weights * factor
    tail = np.cumsum(weighted[::-1])[::-1]
    if n == 1:
        return np.full(1, tail[0])
    acc = np.zeros(n if power == 2 else 1)
    attempt = TAIL_CUT_START
    workers = worker_count(rule.order) if n >= POOL_FLOOR else 1
    if workers > 1:
        import scipy.linalg  # noqa: F401  (workers inherit it, as in experiments)

    def solve(t):  # the cloud, with its distances, reaches workers by fork
        return weights_at_scale(cloud, t).weights

    with ordered_map(solve, rule.nodes, workers) as solved:
        for k, t in enumerate(rule.nodes):
            # sigma_k ** power = need / floor, compared before dividing.
            need = tail[k] * n / u
            floor = acc.min()
            if floor > 0 and need <= attempt**power * floor:
                sigma = (need / floor) ** (1 / power)
                if _certify_lambda_min(cloud, t, sigma):
                    acc += tail[k] if power == 2 else n * tail[k]
                    break
                attempt = sigma / 16
            try:
                w = next(solved)
            except FactorizationFailure as exc:
                raise FactorizationFailure(f"at quadrature node t={t}: {exc}") from exc
            acc += weighted[k] * (w**2 if power == 2 else w.sum())
    return acc


def _certify_lambda_min(cloud: PointCloud, t: float, sigma: float) -> bool:
    """True only if lambda_min(Z) >= sigma is proved for Z = exp(-t D), D
    the exact distances between the cloud's points; False is "not
    certified", never an error.

    The proof works on the computed W = exp(-t D~), D~ = cloud.distances,
    in one N x N array that the factorization overwrites. D~ is within
    (d + 3) u of D relative, so the rounded t D~ is within (d + 5) u of t D,
    second-order terms included. As y e^{-y} <= 1/e for y >= 0, that moves
    exp(-t D_ij) by at most 1.01 (d + 5) u / e, and exp's own rounding adds
    at most 4u W_ij. The diagonals agree exactly, and the largest row sum
    of |W - Z| bounds its 2-norm, so by Weyl's inequality lambda_min(Z) >=
    lambda_min(W) - slack with

        slack = 2 ((N - 1) 1.01 (d + 5) u / e + 4u r),

    r the largest computed off-diagonal row sum of W; the factor 2 covers
    the rounding of r and underflow. The slack depends neither on t nor on
    where the cloud sits. lambda_min(W) is bounded by Gershgorin,
    1 - r (1 + 2 N u), or else by Rump's theorem: if floating-point Cholesky
    of W - s I runs to completion, lambda_min(W) >= s - 2 (N + 1) N u (the
    factor 2 covers second-order terms, the rounding of the diagonal and
    underflow).
    """
    from scipy.linalg.lapack import dpotrf

    n = cloud.size
    u = np.finfo(np.float64).eps / 2
    work = _similarity_entries(cloud, t)
    np.fill_diagonal(work, 0.0)
    r = work.sum(axis=1).max()
    slack = 2 * ((n - 1) * 1.01 * (cloud.dim + 5) * u / math.e + 4 * u * r)
    if 1.0 - r * (1 + 2 * n * u) - slack >= sigma:
        return True
    shift = sigma + slack + 2 * (n + 1) * n * u
    np.fill_diagonal(work, 1.0 - shift)
    # The transpose is the same symmetric matrix in Fortran order, factored
    # in place.
    _, info = dpotrf(work.T, lower=1, clean=0, overwrite_a=1)
    return info == 0


def zeroth_moments(
    cloud: PointCloud, rule: QuadratureRule | None = None, estimate_error: bool = True
) -> MomentVector:
    """mu_0 for every point: sum_k omega_k w_{t_k}(x_i)^2.

    The error estimate compares against the rule of double order; a
    relative change above DIVERGENCE_TOL raises QuadratureDivergence.
    """
    rule = rule or gauss_laguerre_rule()
    mu0 = _node_sums(cloud, rule, np.ones(rule.order))
    err = np.nan
    if estimate_error:
        fine = _double_order(rule)
        mu0_fine = _node_sums(cloud, fine, np.ones(fine.order))
        diff = np.abs(mu0 - mu0_fine)
        err = float(diff.max())
        rel = diff / np.maximum(np.abs(mu0_fine), 1e-300)
        if rel.max() > DIVERGENCE_TOL:
            raise QuadratureDivergence(
                f"order doubling changed mu_0 by {rel.max():.3e} relative"
            )
    return MomentVector(mu0, err)


def _double_order(rule: QuadratureRule) -> QuadratureRule:
    if rule.kind == "gauss-laguerre":
        return gauss_laguerre_rule(2 * rule.order)
    return log_trapezoid_rule(2 * rule.order, rule.nodes[0], rule.nodes[-1])


def higher_moments(
    cloud: PointCloud, n: int, rule: QuadratureRule | None = None
) -> np.ndarray:
    """mu_n: sum_k omega_k t_k^n w_{t_k}(x_i)^2."""
    if not 0 <= n < math.inf:  # also rejects NaN
        raise ValueError("moment order n must be nonnegative and finite")
    rule = rule or gauss_laguerre_rule()
    return _node_sums(cloud, rule, rule.nodes**n)


def laplace_moment(
    cloud: PointCloud, s: float, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Shifted Laplace transform of w_t^2: sum_k omega_k e^{-s t_k} w^2."""
    if not 0 <= s < math.inf:  # also rejects NaN
        raise ValueError("shift s must be nonnegative and finite")
    rule = rule or gauss_laguerre_rule()
    return _node_sums(cloud, rule, np.exp(-s * rule.nodes))


def magnitude_moment(cloud: PointCloud, rule: QuadratureRule | None = None) -> float:
    """Integral of e^{-t} |tX| dt, discretized over the rule's nodes."""
    rule = rule or gauss_laguerre_rule()
    return float(_node_sums(cloud, rule, np.ones(rule.order), power=1)[0])
