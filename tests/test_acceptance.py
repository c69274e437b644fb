"""Acceptance suite: one test (or test group) per shipping criterion.

Each criterion gets a single PASS/FAIL line in the terminal summary, via
the hook in conftest.py. Criteria with stated runtime budgets assert the
elapsed wall time as well as the numerical condition.
"""

import math
import time

import numpy as np
import pytest

from magmoments import (
    DatasetSpec,
    ExperimentConfig,
    IndexSplit,
    PointCloud,
    build_similarity,
    convex_hull,
    gauss_laguerre_rule,
    generate,
    higher_moments,
    hull_volume,
    laplace_moment,
    magnitude_function,
    restricted_magnitude,
    restriction_bounds,
    run_table1,
    schur_complement,
    solve_weights,
    union_cloud,
    union_weights,
    weights_at_scale,
    zeroth_moments,
)

import oracles

PAPER_MEAN_I90 = {2: 4.1, 3: 15.7, 4: 43.35, 5: 80.0}
PAPER_MEAN_VERTICES = {2: 12.9, 3: 45.1, 4: 110.0, 5: 203.0}


def _random_restriction_instances(count=200, seed=1001):
    """Shared instances for the restriction criteria: random clouds with
    a random nonempty removal set that keeps at least one point."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        n = int(rng.integers(3, 61))
        d = int(rng.integers(1, 6))
        cloud = PointCloud(rng.normal(size=(n, d)))
        n_removed = int(rng.integers(1, n))
        removed = sorted(rng.choice(n, size=n_removed, replace=False).tolist())
        kept = [i for i in range(n) if i not in set(removed)]
        sim = build_similarity(cloud, 1.0)
        wv = solve_weights(sim)
        split = IndexSplit(tuple(kept), tuple(removed), n)
        instances.append((cloud, sim, wv, split))
    return instances


@pytest.fixture(scope="module")
def restriction_instances():
    return _random_restriction_instances()


def test_criterion_01_closed_forms():
    """Two-point magnitude closed form to 1e-12; singleton moment trivials."""
    start = time.perf_counter()
    rng = np.random.default_rng(2001)
    for _ in range(50):
        d = float(rng.uniform(0.05, 8.0))
        t = float(rng.uniform(0.05, 8.0))
        cloud = PointCloud(np.array([[0.0], [d]]))
        mag = weights_at_scale(cloud, t).magnitude
        assert abs(mag - 2.0 / (1.0 + math.exp(-t * d))) < 1e-12
    single = PointCloud(np.array([[0.3, -0.7]]))
    assert abs(zeroth_moments(single).mu0[0] - 1.0) < 1e-10
    assert abs(higher_moments(single, 1)[0] - 1.0) < 1e-10
    assert abs(higher_moments(single, 3)[0] - 6.0) < 1e-10
    assert abs(laplace_moment(single, 1.0)[0] - 0.5) < 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_restriction_oracle(restriction_instances):
    """Restricted magnitude equals a direct re-solve to 1e-9 relative."""
    start = time.perf_counter()
    for cloud, sim, wv, split in restriction_instances:
        via_schur = restricted_magnitude(wv, sim, split)
        direct = weights_at_scale(cloud.subset(split.kept), 1.0).magnitude
        assert abs(via_schur - direct) <= 1e-9 * abs(direct)
    assert time.perf_counter() - start < 30.0


def test_criterion_03_sandwich_bounds(restriction_instances):
    """Sandwich bounds hold; Schur determinant in (0,1], trace in (0,|P|)."""
    start = time.perf_counter()
    for _, sim, wv, split in restriction_instances:
        upper, det_upper, lower = restriction_bounds(wv, sim, split)
        restricted = restricted_magnitude(wv, sim, split)
        assert upper - det_upper >= -1e-10
        assert det_upper - restricted >= -1e-10
        assert restricted - lower >= -1e-10
        comp = schur_complement(sim, split)
        assert 0.0 < comp.determinant <= 1.0 + 1e-12
        trace = float(np.trace(comp.matrix))
        assert 0.0 < trace < len(split.removed) + 1e-12
    assert time.perf_counter() - start < 30.0


def test_criterion_04_union_weights():
    """Union weights from the block decomposition match a direct solve."""
    start = time.perf_counter()
    rng = np.random.default_rng(4001)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n_x = int(rng.integers(2, 41))
        n_overlap = int(rng.integers(1, n_x + 1))
        n_new = int(rng.integers(1, 81 - n_x + 1)) if n_x < 80 else 1
        pts_x = rng.normal(size=(n_x, d))
        overlap = rng.choice(n_x, size=n_overlap, replace=False)
        pts_y = np.vstack([pts_x[overlap], rng.normal(size=(n_new, d)) + 0.5])
        cloud_x = PointCloud(pts_x)
        cloud_y = PointCloud(pts_y)
        wx = weights_at_scale(cloud_x, 1.0)
        wy = weights_at_scale(cloud_y, 1.0)
        wz = union_weights(cloud_x, cloud_y, wx, wy)
        direct = weights_at_scale(union_cloud(cloud_x, cloud_y), 1.0)
        assert np.abs(wz.weights - direct.weights).max() < 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_05_three_point_orderings():
    """Triangle weight and moment orderings follow the side-length order."""
    start = time.perf_counter()
    rng = np.random.default_rng(5001)
    for _ in range(1000):
        pts = oracles.random_triangle(rng)
        i1, i2, i3 = oracles.sides_sorted_indices(pts)
        cloud = PointCloud(pts)
        w = weights_at_scale(cloud, 1.0).weights
        assert w[i3] >= w[i1] - 1e-12
        assert w[i1] >= w[i2] - 1e-12
        mu0 = zeroth_moments(cloud, estimate_error=False).mu0
        assert mu0[i3] >= mu0[i1] - 1e-12
        assert mu0[i1] >= mu0[i2] - 1e-12
    assert time.perf_counter() - start < 60.0


def test_criterion_06_limit_behavior():
    """|tX| approaches N for large t and 1 for small t at the stated rates."""
    start = time.perf_counter()
    rng = np.random.default_rng(6001)
    for _ in range(20):
        # Jittered grids keep the minimum pairwise gap near 4% of the
        # diameter, so every off-diagonal similarity at t*diam = 400 is
        # below e^{-15} and the N-limit tolerance of 1e-6*N is met.
        n = int(rng.integers(50, 201))
        side = math.isqrt(n - 1) + 1
        grid = np.stack(
            np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float)),
            axis=-1,
        ).reshape(-1, 2)
        pts = grid[:n] + rng.uniform(-0.05, 0.05, (n, 2))
        cloud = PointCloud(pts)
        diam = cloud.diameter()
        (_, at_large), (_, at_small) = magnitude_function(
            cloud, [400.0 / diam, 1e-6 / diam]
        )
        assert abs(at_large - n) < 1e-6 * n
        assert abs(at_small - 1.0) < 1e-3
    assert time.perf_counter() - start < 120.0


def _assert_strictly_increasing(values):
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.slow
def test_criterion_07_table1_paper_scale(tmp_path):
    """Table 1 statistics: published means inside our 3-sigma band."""
    cfg = ExperimentConfig()  # dims 2-5, 20 trials, 1000 points
    rows = run_table1(cfg, str(tmp_path))
    assert [r[0] for r in rows] == [2, 3, 4, 5]
    for dim, mean_i90, std_i90, mean_v, std_v in rows:
        assert abs(PAPER_MEAN_I90[dim] - mean_i90) <= 3.0 * std_i90
        assert abs(PAPER_MEAN_VERTICES[dim] - mean_v) <= 3.0 * std_v
    _assert_strictly_increasing([r[1] for r in rows])
    _assert_strictly_increasing([r[3] for r in rows])


def test_criterion_07b_table1_smoke():
    """Desk-scale smoke: ordering check at N=300, 5 trials, under 5 min."""
    start = time.perf_counter()
    cfg = ExperimentConfig(trials_per_dim=5, points_per_trial=300)
    rows = run_table1(cfg)
    assert [r[0] for r in rows] == [2, 3, 4, 5]
    _assert_strictly_increasing([r[1] for r in rows])
    _assert_strictly_increasing([r[3] for r in rows])
    assert time.perf_counter() - start < 300.0


@pytest.mark.parametrize(
    "kind,dim",
    [
        ("annulus", 2),
        ("square", 2),
        ("square", 3),
        ("noisy-moons", 2),
        ("gaussian-blobs", 2),
        ("gaussian-blobs", 3),
    ],
)
def test_criterion_08_quadrature_stability(kind, dim):
    """Zeroth moments at orders 64 and 128 agree to 1e-4 relative."""
    cloud = generate(DatasetSpec(kind, 500, dim, seed=8001))
    coarse = zeroth_moments(cloud, gauss_laguerre_rule(64), estimate_error=False)
    fine = zeroth_moments(cloud, gauss_laguerre_rule(128), estimate_error=False)
    rel = np.abs(coarse.mu0 - fine.mu0) / np.abs(fine.mu0)
    assert rel.max() < 1e-4


def test_criterion_09_hull_oracles():
    """Hull vertices match brute force; fan volume matches divergence."""
    rng = np.random.default_rng(9001)
    for _ in range(100):
        n = int(rng.integers(10, 41))
        pts = rng.normal(size=(n, 2))
        hull = convex_hull(PointCloud(pts))
        assert set(hull.vertex_indices) == oracles.brute_force_hull_2d(pts)
        assert hull_volume(hull) == pytest.approx(
            oracles.divergence_volume(hull), rel=1e-9
        )
    for _ in range(100):
        n = int(rng.integers(8, 26))
        pts = rng.normal(size=(n, 3))
        hull = convex_hull(PointCloud(pts))
        assert set(hull.vertex_indices) == oracles.brute_force_hull_3d(pts)
        assert hull_volume(hull) == pytest.approx(
            oracles.divergence_volume(hull), rel=1e-9
        )


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Identical seeds give byte-identical summary.csv on a rerun."""
    cfg = ExperimentConfig(dims=(2, 3), trials_per_dim=3, points_per_trial=200)
    run_table1(cfg, str(tmp_path / "first"))
    run_table1(cfg, str(tmp_path / "second"))
    first = (tmp_path / "first" / "summary.csv").read_bytes()
    second = (tmp_path / "second" / "summary.csv").read_bytes()
    assert first == second
