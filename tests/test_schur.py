import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmoments import (
    DatasetSpec,
    IndexSplit,
    OverlapAmbiguity,
    PointCloud,
    build_similarity,
    generate,
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


def test_restriction_checks_sizes_with_nothing_removed():
    _, sim, wv = _setup(np.array([[0.0], [1.0]]))
    longer = weights_at_scale(PointCloud(np.array([[0.0], [1.0], [2.5]])), 1.0)
    keep_all = IndexSplit(kept=(0, 1, 2), removed=(), parent_size=3)
    for fn in (restricted_magnitude, restriction_bounds):
        with pytest.raises(ValueError, match="weights has 3 entries for 2 points"):
            fn(longer, sim, keep_all)
        with pytest.raises(ValueError, match="split size does not match matrix size"):
            fn(wv, sim, keep_all)


def test_restriction_rejects_weights_at_another_scale():
    rng = np.random.default_rng(33)
    cloud, sim, _ = _setup(rng.normal(size=(12, 2)), t=2.0)
    at_one = weights_at_scale(cloud, 1.0)
    split = IndexSplit(kept=tuple(range(8)), removed=(8, 9, 10, 11), parent_size=12)
    for fn in (restricted_magnitude, restriction_bounds):
        with pytest.raises(ValueError, match=r"scale t=1\.0 .* at t=2\.0"):
            fn(at_one, sim, split)


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


def test_tiny_determinant_underflows_quietly():
    # det S = prod(1 / diag L_B)^2 is far below the smallest double here.
    n, t = 800, 0.25
    cloud = generate(DatasetSpec("gaussian-blobs", n, 3, seed=7))
    sim = build_similarity(cloud, t)
    wv = solve_weights(sim)
    perm = np.random.default_rng(35).permutation(n)
    split = IndexSplit(perm[790:], perm[:790], n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert schur_complement(sim, split).determinant == 0.0
        upper, det_upper, _ = restriction_bounds(wv, sim, split)
    assert det_upper == upper


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


@st.composite
def _cloud_and_split(draw, most_removed=None):
    """A normal cloud, N <= 40 and d <= 4, a scale and a split with 1 <= |P| < N
    (and |P| <= most_removed, if given)."""
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    t = draw(st.floats(min_value=0.05, max_value=5.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_removed = draw(st.integers(min_value=1, max_value=min(n - 1, most_removed or n)))
    order = draw(st.permutations(range(n)))
    pts = np.random.default_rng(seed).normal(size=(n, d))
    return pts, t, IndexSplit(order[n_removed:], order[:n_removed], n)


@settings(max_examples=60, deadline=None)
@given(_cloud_and_split())
def test_restriction_on_random_splits(case):
    pts, t, split = case
    cloud, sim, wv = _setup(pts, t)
    restricted = restricted_magnitude(wv, sim, split)
    direct = weights_at_scale(cloud.subset(split.kept), t).magnitude
    assert abs(restricted - direct) <= 1e-10 * abs(direct)
    upper, det_upper, lower = restriction_bounds(wv, sim, split)
    slack = 1e-10 * abs(upper)
    assert lower - slack <= restricted <= det_upper + slack
    assert det_upper <= upper + slack
    comp = schur_complement(sim, split)
    want = oracles.dense_schur(pts, split.removed, t)
    assert np.abs(comp.matrix - want).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(_cloud_and_split(most_removed=1))
def test_single_removal_sandwich_is_exact(case):
    # At |P| = 1 all three restrictions read one rounded s w^2.
    pts, t, split = case
    _, sim, wv = _setup(pts, t)
    upper, det_upper, lower = restriction_bounds(wv, sim, split)
    restricted = restricted_magnitude(wv, sim, split)
    assert upper >= det_upper >= restricted >= lower


@settings(max_examples=60, deadline=None)
@given(_cloud_and_split(), st.data())
def test_union_on_random_splits(case, data):
    # X is the kept side plus the first `overlap` removed points, Y the
    # removed side: from disjoint (overlap 0) to Y inside X.
    pts, t, split = case
    overlap = data.draw(st.integers(min_value=0, max_value=len(split.removed)))
    cloud = PointCloud(pts)
    x = cloud.subset(split.kept + split.removed[:overlap])
    y = cloud.subset(split.removed)
    wz = union_weights(x, y, weights_at_scale(x, t), weights_at_scale(y, t))
    z = union_cloud(x, y)
    direct = weights_at_scale(z, t)
    assert abs(wz.magnitude - direct.magnitude) <= 1e-10 * abs(direct.magnitude)
    # Weights of a near-singular zeta move by up to cond(zeta) u on either
    # route (a 21000-case probe saw 1.2e-10 of max |w|); the residual in
    # zeta_Z does not (it saw 1.2e-15).
    scale = np.abs(direct.weights).max()
    assert np.abs(wz.weights - direct.weights).max() <= 1e-8 * scale
    residual = 1.0 - build_similarity(z, t).entries @ wz.weights
    assert np.abs(residual).max() <= 1e-12


def test_restrictions_share_one_factor(cholesky_calls):
    from magmoments import schur

    # Every split gathers B from zeta's held inverse: one N x N factorization
    # for all ten, and each call factors one |P| x |P| matrix, B.
    rng = np.random.default_rng(34)
    n = 30
    _, sim, wv = _setup(rng.normal(size=(n, 3)))
    cholesky_calls.clear()
    per_call, want = [], []
    for k in range(1, 11):
        removed = tuple(rng.choice(n, size=k, replace=False))
        split = IndexSplit(tuple(set(range(n)) - set(removed)), removed, n)
        for call in (
            lambda: restricted_magnitude(wv, sim, split),
            lambda: restriction_bounds(wv, sim, split),
            lambda: schur_complement(sim, split),
        ):
            start = len(cholesky_calls)
            call()
            per_call.append([size for size in cholesky_calls[start:] if size != n])
            want.append([k])
    assert cholesky_calls.count(n) == 1
    assert per_call == want
    held = schur._held_inverse(sim)
    assert not held.flags.writeable
    inverse = np.linalg.inv(sim.entries)
    assert np.abs(held - inverse).max() <= 1e-10 * np.abs(inverse).max()


def test_held_inverse_is_the_one_extra_array():
    import tracemalloc

    # The first restriction factors a copy of zeta and inverts it in the
    # copy's memory: one N x N array is added, at the peak and after.
    rng = np.random.default_rng(35)
    n = 300
    _, sim, wv = _setup(rng.normal(size=(n, 3)))
    split = IndexSplit(tuple(range(10, n)), tuple(range(10)), n)
    tracemalloc.start()
    try:
        restricted_magnitude(wv, sim, split)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = 8 * n * n
    assert nbytes <= held <= peak < 1.5 * nbytes


@pytest.mark.parametrize("n_removed", [151, 290, 299])
def test_large_splits_match_direct_solve(n_removed):
    # Past N/2, down to one kept point, whose magnitude is exactly 1.
    n, t = 300, 1.0
    cloud, sim, wv = _setup(np.random.default_rng(36).normal(size=(n, 3)), t)
    order = np.random.default_rng(37).permutation(n)
    split = IndexSplit(order[n_removed:], order[:n_removed], n)
    restricted = restricted_magnitude(wv, sim, split)
    direct = weights_at_scale(cloud.subset(split.kept), t).magnitude
    assert abs(restricted - direct) <= 1e-10 * abs(direct)
    if n_removed == n - 1:
        assert restricted == pytest.approx(1.0, abs=1e-12)
    upper, det_upper, lower = restriction_bounds(wv, sim, split)
    slack = 1e-10 * abs(upper)
    assert lower - slack <= restricted <= det_upper + slack
    assert det_upper <= upper + slack


def test_union_subset_returns_given_weights():
    rng = np.random.default_rng(27)
    x = PointCloud(rng.normal(size=(8, 2)))
    y = x.subset([1, 4, 6])
    wx = weights_at_scale(x, 1.0)
    wy = weights_at_scale(y, 1.0)
    # With Y in X, Z is X reordered: X \ Y first, then Y.
    direct = weights_at_scale(union_cloud(x, y), 1.0)
    wz = union_weights(x, y, wx, wy)
    assert np.abs(wz.weights - direct.weights).max() < 1e-12
    assert wz.magnitude == pytest.approx(direct.magnitude, rel=1e-12)
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


def test_union_matches_signed_zeros_by_value():
    x = PointCloud(np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]]))
    y = PointCloud(np.array([[-0.0, 1.0], [2.0, -0.0], [-1.0, -2.0]]))
    z = union_cloud(x, y)
    assert z.size == 4
    assert np.array_equal(z.points[:1], x.points[2:])
    assert np.array_equal(z.points[1:], y.points)
    wz = union_weights(x, y, weights_at_scale(x, 1.0), weights_at_scale(y, 1.0))
    direct = weights_at_scale(z, 1.0)
    assert np.abs(wz.weights - direct.weights).max() < 1e-8


def test_union_merges_points_at_distance_zero():
    # The one distance rule: differences whose squares underflow read 0.
    x = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    y = PointCloud(np.array([[1e-200, 0.0], [3.0, 0.0]]))
    z = union_cloud(x, y)
    assert np.array_equal(z.points, [[1.0, 0.0], [1e-200, 0.0], [3.0, 0.0]])


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
