import math
import tracemalloc

import numpy as np
import pytest

from magmoments import (
    FactorizationFailure,
    NonRepresentable,
    PointCloud,
    WeightVector,
    build_similarity,
    log_weight_coloring,
    magnitude_function,
    solve_weights,
    weights_at_scale,
)
from magmoments import magnitude
from magmoments.datagen import DatasetSpec, generate
from magmoments.magnitude import RESIDUAL_BUDGET
from magmoments.moments import gauss_laguerre_rule

import oracles


def test_single_point():
    wv = weights_at_scale(PointCloud(np.array([[2.0, 3.0]])), 1.0)
    assert wv.weights == pytest.approx([1.0], abs=1e-15)
    assert wv.magnitude == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("d,t", [(0.5, 1.0), (2.0, 1.0), (5.0, 0.3), (0.1, 7.0)])
def test_two_point_closed_form(d, t):
    cloud = PointCloud(np.array([[0.0], [d]]))
    wv = weights_at_scale(cloud, t)
    want_w, want_mag = oracles.two_point_weights(d, t)
    assert np.abs(wv.weights - want_w).max() < 1e-14
    assert wv.magnitude == pytest.approx(want_mag, abs=1e-14)


def test_three_point_weight_ordering():
    # With sides labelled |x1x3| >= |x2x3| >= |x1x2|, the point on the two
    # longest sides (x3) is the most remote and carries the largest weight;
    # x1 sits on the longest side and beats x2, which sits on the two
    # shortest ones.
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = oracles.random_triangle(rng)
        i1, i2, i3 = oracles.sides_sorted_indices(pts)
        wv = weights_at_scale(PointCloud(pts), 1.0)
        w = wv.weights
        assert w[i3] >= w[i1] - 1e-12
        assert w[i1] >= w[i2] - 1e-12


def test_limits_of_magnitude_function():
    # Unit-scale cloud with pairwise separation >= 0.1, so t = 200 puts
    # every off-diagonal similarity below e^{-20}.
    rng = np.random.default_rng(12)
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 1, 5)),
                    axis=-1).reshape(-1, 2)
    cloud = PointCloud(grid + rng.uniform(-0.05, 0.05, grid.shape))
    (_, at_large), = magnitude_function(cloud, [200.0])
    assert abs(at_large - 30) < 1e-6
    (_, at_small), = magnitude_function(cloud, [1e-6])
    assert abs(at_small - 1.0) < 1e-3


def test_infinite_scale_reports_count():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    assert magnitude_function(cloud, [math.inf]) == [(math.inf, 3.0)]


def test_scale_doubling_matches_coordinate_doubling():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.3, 0.4]]))
    at_2t = weights_at_scale(cloud, 2.0)
    doubled = weights_at_scale(cloud.scale_coordinates(2.0), 1.0)
    assert np.abs(at_2t.weights - doubled.weights).max() < 1e-14


def test_subset_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = rng.integers(2, 25)
        cloud = PointCloud(rng.normal(size=(n, 3)))
        mag_x = weights_at_scale(cloud, 1.0).magnitude
        k = rng.integers(1, n + 1)
        sub = cloud.subset(sorted(rng.choice(n, size=k, replace=False)))
        mag_y = weights_at_scale(sub, 1.0).magnitude
        assert 1.0 - 1e-9 <= mag_y <= mag_x + 1e-9


def test_refinement_monotonicity():
    # Nested samples inside a fixed region have nondecreasing magnitude.
    rng = np.random.default_rng(14)
    pts = rng.random((120, 2))
    previous = 0.0
    for k in (10, 30, 60, 120):
        mag = weights_at_scale(PointCloud(pts[:k]), 1.0).magnitude
        assert mag >= previous - 1e-9
        previous = mag


@pytest.mark.parametrize("kind,dim", [("annulus", 2), ("square", 2),
                                      ("noisy-moons", 2), ("gaussian-blobs", 3)])
@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
def test_residual_bound_on_generated_clouds(kind, dim, t):
    cloud = generate(DatasetSpec(kind, 80, dim, seed=3))
    sim = build_similarity(cloud, t)
    wv = solve_weights(sim)
    residual = np.abs(sim.entries @ wv.weights - 1.0).max()
    assert residual <= RESIDUAL_BUDGET * cloud.size


def _off_diagonal_rho(sim):
    return (sim.entries.sum(axis=1) - 1.0).max()


def _scale_with_rho(cloud, target):
    """Bisect log t for the scale whose largest off-diagonal row sum is target."""
    lo, hi = -5.0, 5.0  # rho(t) falls as t grows
    for _ in range(60):
        mid = (lo + hi) / 2
        if _off_diagonal_rho(build_similarity(cloud, 10.0**mid)) > target:
            lo = mid
        else:
            hi = mid
    return 10.0**hi


@pytest.mark.parametrize("rho", [0.45, 0.55])
@pytest.mark.parametrize("kind,dim", [("gaussian-blobs", 3), ("square", 2)])
def test_solve_weights_both_sides_of_dominance_cut(cholesky_calls, kind, dim, rho):
    cloud = generate(DatasetSpec(kind, 150, dim, seed=4))
    sim = build_similarity(cloud, _scale_with_rho(cloud, rho))
    dominant = _off_diagonal_rho(sim) < magnitude.DOMINANCE_CUT
    assert dominant == (rho < magnitude.DOMINANCE_CUT)
    wv = solve_weights(sim)
    # Conjugate gradient answers the dominant side; Cholesky the other.
    assert cholesky_calls == ([] if dominant else [cloud.size])
    want = np.linalg.solve(sim.entries, np.ones(cloud.size))
    assert np.abs(wv.weights - want).max() <= 1e-13 * np.abs(want).max()
    assert wv.magnitude == pytest.approx(want.sum(), rel=1e-13)


def test_stalled_conjugate_gradient_falls_back_to_cholesky(monkeypatch, cholesky_calls):
    cloud = generate(DatasetSpec("gaussian-blobs", 150, 3, seed=4))
    sim = build_similarity(cloud, _scale_with_rho(cloud, 0.3))
    monkeypatch.setattr(magnitude, "CG_MAX_ITER", 1)
    wv = solve_weights(sim)
    assert cholesky_calls == [cloud.size]
    want = np.linalg.solve(sim.entries, np.ones(cloud.size))
    assert np.abs(wv.weights - want).max() <= 1e-13 * np.abs(want).max()


@pytest.fixture(scope="module")
def annulus_1000():
    cloud = generate(DatasetSpec("annulus", 1000, 2, seed=0))
    cloud.distances  # computed and cached before any measurement
    return cloud


def test_cholesky_node_holds_one_matrix(annulus_1000, cholesky_calls):
    # Beyond the cloud's cached distances, a Cholesky node holds one N x N
    # array: the similarity matrix, factored in place.
    cloud = annulus_1000
    n = cloud.size
    distances = cloud.distances.copy()
    tracemalloc.start()
    try:
        weights_at_scale(cloud, gauss_laguerre_rule().nodes[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cholesky_calls == [n]
    assert peak <= 1.1 * 8 * n * n
    assert np.array_equal(cloud.distances, distances)


def test_solve_weights_leaves_entries_unchanged(cholesky_calls):
    cloud = generate(DatasetSpec("annulus", 300, 2, seed=3))
    sim = build_similarity(cloud, 0.05)
    before = sim.entries.copy()
    wv = solve_weights(sim)
    assert cholesky_calls == [cloud.size]
    assert np.array_equal(sim.entries, before)
    assert np.array_equal(wv.weights, weights_at_scale(cloud, 0.05).weights)


def test_refinement_step_on_the_in_place_factor(monkeypatch, cholesky_calls):
    # The annulus's first Gauss-Laguerre node, condition number 4.6e6. With
    # no budget the solve refines once and then fails, which records the
    # unrefined and the refined residual; a budget between the two must
    # then accept the refined weights. Refining on a factor whose diagonal
    # was left at 1 by the residual product leaves a residual above the
    # unrefined one.
    cloud = generate(DatasetSpec("annulus", 300, 2, seed=3))
    t = gauss_laguerre_rule().nodes[0]
    residuals = []
    real = magnitude._residual

    def recorded(factored, w, ones):
        residual = real(factored, w, ones)
        residuals.append(np.abs(residual).max())
        return residual

    monkeypatch.setattr(magnitude, "_residual", recorded)
    monkeypatch.setattr(magnitude, "RESIDUAL_BUDGET", 0.0)
    with pytest.raises(FactorizationFailure):
        weights_at_scale(cloud, t)
    unrefined, refined = residuals
    assert refined < unrefined
    residuals.clear()
    budget = math.sqrt(unrefined * refined) / cloud.size
    monkeypatch.setattr(magnitude, "RESIDUAL_BUDGET", budget)
    wv = weights_at_scale(cloud, t)
    assert len(residuals) == 2
    assert cholesky_calls == [cloud.size] * 2
    want = np.linalg.solve(build_similarity(cloud, t).entries, np.ones(cloud.size))
    # Any two float64 solvers differ by about 3e-11 relative at this node.
    assert np.abs(wv.weights - want).max() <= 1e-10 * np.abs(want).max()
    assert wv.magnitude == pytest.approx(want.sum(), rel=1e-12)


def test_cholesky_failure_is_typed():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationFailure):
        magnitude._cholesky_lower(indefinite.copy())
    # LAPACK would overwrite even a read-only array.
    frozen = np.eye(2)
    frozen.setflags(write=False)
    with pytest.raises(ValueError):
        magnitude._cholesky_lower(frozen)


def test_quadratic_form_identity():
    # Knowing w, the magnitude is also the quadratic form w' zeta w.
    rng = np.random.default_rng(15)
    cloud = PointCloud(rng.normal(size=(40, 4)))
    sim = build_similarity(cloud, 1.0)
    wv = solve_weights(sim)
    quad = wv.weights @ sim.entries @ wv.weights
    assert abs(quad - wv.magnitude) <= RESIDUAL_BUDGET * cloud.size * 10


def test_log_weight_coloring():
    wv = WeightVector(np.array([0.0, math.e - 1.0, 1.0]), 1.0, math.e)
    colors = log_weight_coloring(wv)
    assert colors[0] == 0.0
    assert colors[1] == pytest.approx(1.0, abs=1e-15)
    assert colors[2] == pytest.approx(math.log(2.0), abs=1e-15)


def test_log_weight_coloring_rejects_below_minus_one():
    wv = WeightVector(np.array([-1.5]), 1.0, -1.5)
    with pytest.raises(NonRepresentable):
        log_weight_coloring(wv)


def test_magnitude_function_rejects_bad_scales():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        magnitude_function(cloud, [])
    with pytest.raises(ValueError):
        magnitude_function(cloud, [-1.0])
