import math

import numpy as np
import pytest

from magmoments import (
    IndexSplit,
    OverlapAmbiguity,
    PointCloud,
    build_similarity,
    restricted_magnitude,
    restriction_bounds,
    schur_complement,
    solve_weights,
    union_cloud,
    union_weights,
    weights_at_scale,
)

import oracles


def _setup(pts, t=1.0):
    cloud = PointCloud(pts)
    sim = build_similarity(cloud, t)
    return cloud, sim, solve_weights(sim)


def test_empty_removal_rejected():
    _, sim, _ = _setup(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        schur_complement(sim, IndexSplit(kept=(0, 1), removed=(), parent_size=2))


def test_split_must_partition():
    with pytest.raises(ValueError):
        IndexSplit(kept=(0,), removed=(0,), parent_size=2)
    with pytest.raises(ValueError):
        IndexSplit(kept=(0,), removed=(2,), parent_size=2)


def test_two_point_hand_expansion():
    d = 0.8
    _, sim, _ = _setup(np.array([[0.0], [d]]))
    comp = schur_complement(sim, IndexSplit(kept=(0,), removed=(1,), parent_size=2))
    want = 1.0 - math.exp(-2.0 * d)
    assert comp.matrix[0, 0] == pytest.approx(want, abs=1e-15)
    assert comp.determinant == pytest.approx(want, abs=1e-15)


def test_matches_dense_inverse_oracle():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(6, 2))
    _, sim, _ = _setup(pts)
    removed = (1, 4)
    kept = tuple(i for i in range(6) if i not in removed)
    comp = schur_complement(sim, IndexSplit(kept, removed, 6))
    want = oracles.dense_schur(pts, removed)
    assert np.abs(comp.matrix - want).max() < 1e-12


def test_restricted_trivials():
    cloud, sim, wv = _setup(np.array([[0.0], [1.3]]))
    keep_all = IndexSplit(kept=(0, 1), removed=(), parent_size=2)
    assert restricted_magnitude(wv, sim, keep_all) == wv.magnitude
    assert restriction_bounds(wv, sim, keep_all) == (wv.magnitude,) * 3
    drop_one = IndexSplit(kept=(0,), removed=(1,), parent_size=2)
    assert restricted_magnitude(wv, sim, drop_one) == pytest.approx(1.0, abs=1e-12)


def test_restriction_rejects_wrong_size_weights():
    _, sim, _ = _setup(np.array([[0.0], [1.0], [2.5]]))
    short = weights_at_scale(PointCloud(np.array([[0.0], [1.0]])), 1.0)
    split = IndexSplit(kept=(0, 2), removed=(1,), parent_size=3)
    for fn in (restricted_magnitude, restriction_bounds):
        with pytest.raises(ValueError, match="weights has 2 entries for 3 points"):
            fn(short, sim, split)


def test_restricted_matches_direct_resolve():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(20, 3))
    cloud, sim, wv = _setup(pts)
    removed = tuple(sorted(rng.choice(20, size=5, replace=False)))
    kept = tuple(i for i in range(20) if i not in removed)
    got = restricted_magnitude(wv, sim, IndexSplit(kept, removed, 20))
    direct = weights_at_scale(cloud.subset(kept), 1.0).magnitude
    assert abs(got - direct) <= 1e-9 * max(abs(direct), 1.0)


def test_two_point_sandwich():
    _, sim, wv = _setup(np.array([[0.0], [0.6]]))
    split = IndexSplit(kept=(0,), removed=(1,), parent_size=2)
    upper, det_upper, lower = restriction_bounds(wv, sim, split)
    restricted = restricted_magnitude(wv, sim, split)
    assert restricted == pytest.approx(1.0, abs=1e-12)
    assert upper >= det_upper >= restricted >= lower


def test_random_sandwich_and_spd_invariants():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(30, 4))
    cloud, sim, wv = _setup(pts)
    removed = tuple(sorted(rng.choice(30, size=6, replace=False)))
    kept = tuple(i for i in range(30) if i not in removed)
    split = IndexSplit(kept, removed, 30)
    upper, det_upper, lower = restriction_bounds(wv, sim, split)
    restricted = restricted_magnitude(wv, sim, split)
    assert upper - det_upper >= -1e-10
    assert det_upper - restricted >= -1e-10
    assert restricted - lower >= -1e-10
    comp = schur_complement(sim, split)
    assert 0.0 < comp.determinant <= 1.0 + 1e-12
    assert 0.0 < np.trace(comp.matrix) < len(removed)


def test_determinant_ratio_identity():
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(12, 2))
    _, sim, _ = _setup(pts)
    removed = (0, 3, 7)
    kept = tuple(i for i in range(12) if i not in removed)
    comp = schur_complement(sim, IndexSplit(kept, removed, 12))
    det_full = np.linalg.det(sim.entries)
    det_kept = np.linalg.det(sim.entries[np.ix_(kept, kept)])
    assert comp.determinant == pytest.approx(det_full / det_kept, rel=1e-9)


def test_large_scale_bounds_reduce_to_count():
    # At large t the sandwich collapses to N >= N - |P| with weights ~ 1.
    rng = np.random.default_rng(25)
    pts = rng.random((10, 2))
    cloud, sim, wv = _setup(pts, t=300.0)
    removed = (2, 5)
    kept = tuple(i for i in range(10) if i not in removed)
    split = IndexSplit(kept, removed, 10)
    upper, det_upper, lower = restriction_bounds(wv, sim, split)
    assert upper == pytest.approx(10.0, abs=1e-6)
    assert lower == pytest.approx(10.0 - 2.0, abs=1e-5)
    assert restricted_magnitude(wv, sim, split) == pytest.approx(8.0, abs=1e-6)


def test_epsilon_removal_guarantee():
    # If max removed weight squared < eps / |P|, the magnitude drops by
    # at most eps (the squared form the restriction bound yields).
    rng = np.random.default_rng(26)
    pts = rng.normal(size=(25, 2))
    cloud, sim, wv = _setup(pts)
    order = np.argsort(wv.weights**2)
    removed = tuple(sorted(int(i) for i in order[:4]))
    kept = tuple(i for i in range(25) if i not in removed)
    eps = 4 * (wv.weights[list(removed)] ** 2).max() + 1e-12
    restricted = restricted_magnitude(wv, sim, IndexSplit(kept, removed, 25))
    assert wv.magnitude - restricted <= eps + 1e-10


def test_union_subset_returns_given_weights():
    rng = np.random.default_rng(27)
    x = PointCloud(rng.normal(size=(8, 2)))
    y = x.subset([1, 4, 6])
    wx = weights_at_scale(x, 1.0)
    wy = weights_at_scale(y, 1.0)
    assert union_weights(x, y, wx, wy) is wx
    # With the roles swapped, X in Y: Z is Y in Y order, with Y's weights.
    assert np.array_equal(union_cloud(y, x).points, x.points)
    assert union_weights(y, x, wy, wx) is wx


def test_union_rejects_wrong_size_weights():
    rng = np.random.default_rng(27)
    x = PointCloud(rng.normal(size=(8, 2)))
    y = x.subset([1, 4, 6])
    wx = weights_at_scale(x, 1.0)
    wy = weights_at_scale(y, 1.0)
    with pytest.raises(ValueError, match="weights_x has 3 entries for 8 points"):
        union_weights(x, y, wy, wy)
    z = PointCloud(rng.normal(size=(4, 2)) + 3.0)
    with pytest.raises(ValueError, match="weights_y has 8 entries for 4 points"):
        union_weights(x, z, wx, wx)


def test_union_is_one_elimination(monkeypatch, cholesky_calls):
    # One factor of the Y block and one of its |W| x |W| Schur complement;
    # W's own weights are never solved for.
    from magmoments import magnitude, schur

    rng = np.random.default_rng(32)
    x = PointCloud(rng.normal(size=(9, 2)))
    y = PointCloud(np.vstack([x.points[[2, 5]], rng.normal(size=(4, 2)) + 1.0]))
    wx, wy = weights_at_scale(x, 1.0), weights_at_scale(y, 1.0)
    solves = []

    def counted(cloud, t):
        solves.append(cloud.size)
        return magnitude.weights_at_scale(cloud, t)

    monkeypatch.setattr(schur, "weights_at_scale", counted)
    cholesky_calls.clear()
    union_weights(x, y, wx, wy)
    assert cholesky_calls == [y.size, x.size - 2]
    assert solves == []


def test_union_distant_singletons():
    x = PointCloud(np.array([[0.0, 0.0]]))
    y = PointCloud(np.array([[50.0, 0.0]]))
    wz = union_weights(x, y, weights_at_scale(x, 1.0), weights_at_scale(y, 1.0))
    assert np.abs(wz.weights - 1.0).max() < 1e-10
    assert wz.magnitude == pytest.approx(2.0, abs=1e-10)


def test_union_disjoint_matches_direct_solve():
    rng = np.random.default_rng(28)
    x = PointCloud(rng.normal(size=(8, 3)))
    y = PointCloud(rng.normal(size=(5, 3)) + 2.0)
    wz = union_weights(x, y, weights_at_scale(x, 1.0), weights_at_scale(y, 1.0))
    direct = weights_at_scale(union_cloud(x, y), 1.0)
    assert np.abs(wz.weights - direct.weights).max() < 1e-8


def test_union_overlapping_matches_direct_solve():
    rng = np.random.default_rng(29)
    x = PointCloud(rng.normal(size=(9, 2)))
    y = PointCloud(np.vstack([x.points[[2, 5]], rng.normal(size=(4, 2)) + 1.0]))
    wz = union_weights(x, y, weights_at_scale(x, 1.0), weights_at_scale(y, 1.0))
    direct = weights_at_scale(union_cloud(x, y), 1.0)
    assert np.abs(wz.weights - direct.weights).max() < 1e-8


def test_union_rejects_near_matches():
    x = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    y = PointCloud(np.array([[1.0 + 1e-14, 0.0]]))
    with pytest.raises(OverlapAmbiguity):
        union_weights(x, y, weights_at_scale(x, 1.0), weights_at_scale(y, 1.0))


def test_union_requires_matching_scale():
    x = PointCloud(np.array([[0.0], [1.0]]))
    y = PointCloud(np.array([[5.0]]))
    with pytest.raises(ValueError):
        union_weights(x, y, weights_at_scale(x, 1.0), weights_at_scale(y, 2.0))


def test_inputs_unchanged_by_schur_and_union():
    # The Cholesky factors overwrite their arguments; none may be an input.
    # A one-point Y makes the union's Y block a contiguous 1 x 1 view.
    rng = np.random.default_rng(30)
    cloud, sim, wv = _setup(rng.normal(size=(12, 2)))
    before = sim.entries.copy()
    comp = schur_complement(sim, IndexSplit(tuple(range(8)), (8, 9, 10, 11), 12))
    assert np.array_equal(sim.entries, before)
    assert np.array_equal(comp.matrix, comp.matrix.T)
    for y_pts in (rng.normal(size=(5, 2)) + 1.0, np.array([[3.0, 3.0]])):
        y = PointCloud(y_pts)
        wy = weights_at_scale(y, 1.0)
        inputs = [cloud.points, cloud.distances, y.points, y.distances,
                  wv.weights, wy.weights]
        copies = [a.copy() for a in inputs]
        union_weights(cloud, y, wv, wy)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, copies))
