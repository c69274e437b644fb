"""Per-point moments: weighted quadrature of squared weights over scale.

The zeroth moment of a point x is

    mu_0(x) = integral_0^inf e^{-t} w_t(x)^2 dt

a scale-free importance score that is larger for extremal points. The
generalized moments mu_n insert a factor t^n, and the shifted Laplace
transform inserts e^{-s t}. All of them discretize the integral with a
Gauss-Laguerre rule whose weights absorb the e^{-t} factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_laguerre

from .errors import FactorizationFailure, QuadratureDivergence
# pairwise_distances is unused here; perfbench/selfcheck.py checks this import site.
from .geometry import PointCloud, pairwise_distances  # noqa: F401
from .magnitude import weights_at_scale

#: A node t_k is skipped, with w = 1 substituted, when t_k * diameter is
#: beyond this (exp(-t * diameter) underflows) and the rule's remaining
#: weight sum_{j >= k} omega_j is below machine epsilon. w need not be near 1
#: there (points much closer together than the diameter keep weights well
#: below 1); the tail bound is what makes the skipped nodes negligible.
UNDERFLOW_EXPONENT = 700.0

DEFAULT_ORDER = 64

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
    order: int

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


def gauss_laguerre_rule(order: int = DEFAULT_ORDER) -> QuadratureRule:
    nodes, weights = roots_laguerre(order)
    return QuadratureRule(nodes, weights, "gauss-laguerre", order)


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
    return QuadratureRule(nodes, weights, "log-trapezoid", order)


@dataclass(frozen=True)
class MomentVector:
    """Per-point mu_0 values with the rule that produced them."""

    mu0: np.ndarray
    rule: QuadratureRule
    estimated_error: float

    def __post_init__(self):
        mu0 = np.asarray(self.mu0, dtype=np.float64)
        if np.any(mu0 < 0) or not np.all(np.isfinite(mu0)):
            raise ValueError("moments must be finite and nonnegative")
        mu0.setflags(write=False)
        object.__setattr__(self, "mu0", mu0)


def _node_weights(cloud: PointCloud, rule: QuadratureRule) -> np.ndarray:
    """w_{t_k}(x_i) as an (order, N) array, with the underflow guard."""
    diameter = cloud.diameter()  # also the duplicate check, before any skip
    tail = np.cumsum(rule.weights[::-1])[::-1]
    skip = (rule.nodes * diameter > UNDERFLOW_EXPONENT) & (tail < np.finfo(float).eps)
    rows = []
    for t, skipped in zip(rule.nodes, skip):
        if skipped or cloud.size == 1:
            rows.append(np.ones(cloud.size))
            continue
        try:
            rows.append(weights_at_scale(cloud, t).weights)
        except FactorizationFailure as exc:
            raise FactorizationFailure(f"at quadrature node t={t}: {exc}") from exc
    return np.vstack(rows)


def _moment_sum(
    cloud: PointCloud, rule: QuadratureRule, factor: np.ndarray
) -> np.ndarray:
    """sum_k omega_k factor_k w_{t_k}(x_i)^2 for every point x_i."""
    return (rule.weights * factor) @ _node_weights(cloud, rule) ** 2


def zeroth_moments(
    cloud: PointCloud, rule: QuadratureRule | None = None, estimate_error: bool = True
) -> MomentVector:
    """mu_0 for every point: sum_k omega_k w_{t_k}(x_i)^2.

    The error estimate compares against the rule of double order; a
    relative change above DIVERGENCE_TOL raises QuadratureDivergence.
    """
    if rule is None:
        rule = gauss_laguerre_rule()
    mu0 = _moment_sum(cloud, rule, np.ones(rule.order))
    err = np.nan
    if estimate_error:
        fine = _double_order(rule)
        mu0_fine = _moment_sum(cloud, fine, np.ones(fine.order))
        diff = np.abs(mu0 - mu0_fine)
        err = float(diff.max())
        rel = diff / np.maximum(np.abs(mu0_fine), 1e-300)
        if rel.max() > DIVERGENCE_TOL:
            raise QuadratureDivergence(
                f"order doubling changed mu_0 by {rel.max():.3e} relative"
            )
    return MomentVector(mu0, rule, err)


def _double_order(rule: QuadratureRule) -> QuadratureRule:
    if rule.kind == "gauss-laguerre":
        return gauss_laguerre_rule(2 * rule.order)
    return log_trapezoid_rule(2 * rule.order, rule.nodes[0], rule.nodes[-1])


def higher_moments(
    cloud: PointCloud, n: int, rule: QuadratureRule | None = None
) -> np.ndarray:
    """mu_n: sum_k omega_k t_k^n w_{t_k}(x_i)^2."""
    if n < 0:
        raise ValueError("moment order n must be nonnegative")
    if rule is None:
        rule = gauss_laguerre_rule()
    return _moment_sum(cloud, rule, rule.nodes**n)


def laplace_moment(
    cloud: PointCloud, s: float, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Shifted Laplace transform of w_t^2: sum_k omega_k e^{-s t_k} w^2."""
    if s < 0:
        raise ValueError("shift s must be nonnegative")
    if rule is None:
        rule = gauss_laguerre_rule()
    return _moment_sum(cloud, rule, np.exp(-s * rule.nodes))


def magnitude_moment(cloud: PointCloud, rule: QuadratureRule | None = None) -> float:
    """Integral of e^{-t} |tX| dt, discretized over the rule's nodes."""
    if rule is None:
        rule = gauss_laguerre_rule()
    rows = _node_weights(cloud, rule)
    return float(rule.weights @ rows.sum(axis=1))
