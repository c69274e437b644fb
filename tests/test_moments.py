import numpy as np
import pytest

from magmoments import (
    DuplicatePoints,
    MomentVector,
    PointCloud,
    gauss_laguerre_rule,
    higher_moments,
    laplace_moment,
    log_trapezoid_rule,
    magnitude_moment,
    moment_prefix_curve,
    zeroth_moments,
)
from magmoments import magnitude
from magmoments.datagen import DatasetSpec, generate

import oracles

SINGLE = PointCloud(np.array([[0.25, -1.0]]))


def test_gauss_laguerre_rule_invariants():
    for order in (8, 64, 128):
        rule = gauss_laguerre_rule(order)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.nodes > 0)
        # The weight function is absorbed: sum of weights integrates 1.
        assert abs(rule.weights.sum() - 1.0) < 1e-12


def test_log_trapezoid_close_to_gauss_laguerre():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.5]]))
    gl = zeroth_moments(cloud, gauss_laguerre_rule(64), estimate_error=False)
    trap = zeroth_moments(cloud, log_trapezoid_rule(2000), estimate_error=False)
    # Agreement is limited by the trapezoid grid and its head truncation
    # at t = 1e-6, not by the Gauss-Laguerre rule.
    assert np.abs(gl.mu0 - trap.mu0).max() < 1e-5


def test_single_point_moment_is_one():
    mv = zeroth_moments(SINGLE)
    assert mv.mu0 == pytest.approx([1.0], abs=1e-12)


@pytest.mark.parametrize("d", [0.3, 1.0, 4.0])
def test_two_point_moments_match_quadrature_oracle(d):
    cloud = PointCloud(np.array([[0.0], [d]]))
    mv = zeroth_moments(cloud, estimate_error=False)
    want = oracles.two_point_moment(d)
    assert mv.mu0[0] == pytest.approx(mv.mu0[1], abs=1e-12)
    assert mv.mu0[0] == pytest.approx(want, abs=1e-7)


def test_three_point_moment_ordering():
    rng = np.random.default_rng(31)
    for _ in range(25):
        pts = oracles.random_triangle(rng)
        i1, i2, i3 = oracles.sides_sorted_indices(pts)
        mu0 = zeroth_moments(PointCloud(pts), estimate_error=False).mu0
        assert mu0[i3] >= mu0[i1] - 1e-12
        assert mu0[i1] >= mu0[i2] - 1e-12


def test_higher_moment_n0_equals_zeroth():
    cloud = PointCloud(np.array([[0.0], [0.7], [2.0]]))
    rule = gauss_laguerre_rule(64)
    mu0 = zeroth_moments(cloud, rule, estimate_error=False).mu0
    assert np.array_equal(higher_moments(cloud, 0, rule), mu0)


def test_single_point_higher_moments_are_factorials():
    assert higher_moments(SINGLE, 1) == pytest.approx([1.0], abs=1e-10)
    assert higher_moments(SINGLE, 3) == pytest.approx([6.0], abs=1e-9)


def test_laplace_trivials():
    rule = gauss_laguerre_rule(64)
    cloud = PointCloud(np.array([[0.0], [1.1]]))
    assert np.array_equal(
        laplace_moment(cloud, 0.0, rule),
        zeroth_moments(cloud, rule, estimate_error=False).mu0,
    )
    assert laplace_moment(SINGLE, 1.0) == pytest.approx([0.5], abs=1e-10)
    assert laplace_moment(SINGLE, 3.0) == pytest.approx([0.25], abs=1e-10)


def test_magnitude_moment():
    assert magnitude_moment(SINGLE) == pytest.approx(1.0, abs=1e-12)
    # Widely separated points act like singletons.  The residual is
    # roughly sum 2/(1 + d_ij), so the separation must be >> 1/tolerance.
    far = PointCloud(np.array([[0.0, 0.0], [2e4, 0.0], [0.0, 2e4]]))
    assert magnitude_moment(far) == pytest.approx(3.0, abs=1e-3)
    d = 1.7
    two = PointCloud(np.array([[0.0], [d]]))
    assert magnitude_moment(two) == pytest.approx(
        oracles.two_point_magnitude_moment(d), abs=1e-8
    )


def test_permutation_invariance():
    rng = np.random.default_rng(32)
    pts = rng.normal(size=(15, 2))
    perm = rng.permutation(15)
    mu = zeroth_moments(PointCloud(pts), estimate_error=False).mu0
    mu_perm = zeroth_moments(PointCloud(pts[perm]), estimate_error=False).mu0
    assert np.abs(mu[perm] - mu_perm).max() < 1e-8


@pytest.mark.parametrize(
    "evaluate",
    [
        zeroth_moments,
        magnitude_moment,
        lambda c: moment_prefix_curve(
            c, MomentVector(np.arange(4.0), gauss_laguerre_rule(), np.nan)
        ),
    ],
    ids=["zeroth_moments", "magnitude_moment", "moment_prefix_curve"],
)
def test_duplicates_raise_even_when_every_node_underflows(evaluate):
    # The diameter puts every quadrature node past t * diameter > 700, and
    # the nodes whose tail weight is negligible are skipped; the duplicate
    # pair must be rejected before any node is solved or skipped.
    cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [1e6, 0.0], [0.0, 1e6]]))
    with pytest.raises(DuplicatePoints):
        evaluate(cloud)


@pytest.mark.parametrize(
    "cloud",
    [
        PointCloud(np.array([[0.0, 0.0], [1e-3, 0.0], [1e6, 0.0]])),
        generate(
            DatasetSpec("gaussian-blobs", 300, 2, seed=1)
        ).scale_coordinates(20.0),
    ],
    ids=["near-pair-and-outlier", "blob-x20"],
)
def test_underflow_guard_skips_only_negligible_nodes(cloud):
    # One far point puts t * diameter past the underflow exponent at nodes
    # where the close points' weights are far from 1; those nodes count.
    rule = gauss_laguerre_rule()
    mu0 = zeroth_moments(cloud, rule, estimate_error=False).mu0
    want = oracles.dense_zeroth_moments(cloud.points, rule.nodes, rule.weights)
    assert np.abs(mu0 / want - 1.0).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_conjugate_gradient_nodes_match_cholesky(monkeypatch, cholesky_calls, dim):
    cloud = generate(DatasetSpec("gaussian-blobs", 300, dim, seed=dim))
    mixed = zeroth_moments(cloud, estimate_error=False).mu0
    mixed_calls = len(cholesky_calls)
    monkeypatch.setattr(magnitude, "DOMINANCE_CUT", 0.0)  # Cholesky everywhere
    chol = zeroth_moments(cloud, estimate_error=False).mu0
    if dim >= 3:
        assert mixed_calls < len(cholesky_calls) - mixed_calls
    assert np.abs(mixed / chol - 1.0).max() <= 1e-13
    assert np.array_equal(
        np.argsort(mixed, kind="stable"), np.argsort(chol, kind="stable")
    )


def test_threads_match_sequential_with_conjugate_gradient_nodes(monkeypatch):
    cloud = generate(DatasetSpec("gaussian-blobs", 300, 4, seed=36))
    answered = []
    real = magnitude._conjugate_gradient

    def counted(a, ones):
        w = real(a, ones)
        answered.append(w is not None)
        return w

    monkeypatch.setattr(magnitude, "_conjugate_gradient", counted)
    seq = zeroth_moments(cloud, estimate_error=False)
    assert any(answered) and not all(answered)  # both solver routes ran
    par = zeroth_moments(cloud, threads=4, estimate_error=False)
    assert np.array_equal(seq.mu0, par.mu0)


def test_error_estimate_bounds_order_doubling():
    rng = np.random.default_rng(33)
    cloud = PointCloud(rng.normal(size=(12, 2)))
    rule = gauss_laguerre_rule(32)
    mv = zeroth_moments(cloud, rule)
    fine = zeroth_moments(cloud, gauss_laguerre_rule(64), estimate_error=False)
    assert np.abs(mv.mu0 - fine.mu0).max() <= mv.estimated_error + 1e-15


def test_moments_nonnegative_and_finite():
    rng = np.random.default_rng(34)
    cloud = PointCloud(rng.normal(size=(25, 3)))
    mv = zeroth_moments(cloud, estimate_error=False)
    assert np.all(mv.mu0 >= 0)
    assert np.all(np.isfinite(mv.mu0))


def test_threads_match_sequential():
    rng = np.random.default_rng(35)
    cloud = PointCloud(rng.normal(size=(20, 2)))
    seq = zeroth_moments(cloud, estimate_error=False)
    par = zeroth_moments(cloud, threads=4, estimate_error=False)
    assert np.array_equal(seq.mu0, par.mu0)


def test_annulus_boundary_outranks_interior():
    # Outer-edge points of an annulus carry larger mean moment than the
    # rest; sign test over 20 independent samples.
    wins = 0
    for seed in range(20):
        cloud = generate(
            DatasetSpec("annulus", 150, 2, seed=seed, params={"inner": 0.5, "outer": 1.0})
        )
        radius = np.linalg.norm(cloud.points, axis=1)
        mu0 = zeroth_moments(cloud, estimate_error=False).mu0
        boundary = radius >= 0.9
        if mu0[boundary].mean() > mu0[~boundary].mean():
            wins += 1
    # P(X >= 15 | p = 1/2, n = 20) < 0.021
    assert wins >= 15
