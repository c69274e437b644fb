import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmoments import (
    DUPLICATE_TOL,
    DuplicatePoints,
    NonFinite,
    PointCloud,
    build_similarity,
    pairwise_distances,
)

import oracles


def test_three_four_five():
    cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0]]))
    dist = pairwise_distances(cloud)
    assert dist[0, 1] == 5.0
    assert dist[1, 0] == 5.0
    assert dist[0, 0] == 0.0


def test_single_point_distance_and_similarity():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    assert pairwise_distances(cloud) == np.zeros((1, 1))
    sim = build_similarity(cloud, 7.0)
    assert sim.entries == np.ones((1, 1))


def test_distances_match_double_loop():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(10, 3))
    got = pairwise_distances(PointCloud(pts))
    want = oracles.double_loop_distances(pts)
    assert np.abs(got - want).max() < 1e-12


def test_two_points_at_ln2():
    cloud = PointCloud(np.array([[0.0], [math.log(2.0)]]))
    sim = build_similarity(cloud, 1.0)
    assert sim.entries[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert sim.entries[0, 0] == 1.0


def test_scale_equals_coordinate_scaling():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(3, 2)))
    sim_t = build_similarity(cloud, 2.0)
    sim_scaled = build_similarity(cloud.scale_coordinates(2.0), 1.0)
    assert np.abs(sim_t.entries - sim_scaled.entries).max() < 1e-15


def test_symmetry_and_unit_diagonal_exact():
    rng = np.random.default_rng(1)
    sim = build_similarity(PointCloud(rng.normal(size=(17, 4))), 0.7)
    assert np.array_equal(sim.entries, sim.entries.T)
    assert np.array_equal(np.diag(sim.entries), np.ones(17))


def test_entries_decay_in_scale():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.normal(size=(8, 3)))
    a = build_similarity(cloud, 0.5).entries
    b = build_similarity(cloud, 1.5).entries
    off = ~np.eye(8, dtype=bool)
    assert np.all(b[off] < a[off])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=15),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_similarity_is_positive_definite(seed, n, d, t):
    rng = np.random.default_rng(seed)
    sim = build_similarity(PointCloud(rng.normal(size=(n, d))), t)
    # Cholesky succeeding is the numerical witness of positive definiteness.
    np.linalg.cholesky(sim.entries)


def test_duplicate_points_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, DUPLICATE_TOL / 10]])
    with pytest.raises(DuplicatePoints):
        build_similarity(PointCloud(pts), 1.0)


@pytest.mark.parametrize("offset", [0.0, 1.0, 10.0, 100.0, 1e3])
def test_duplicate_check_does_not_depend_on_position(offset):
    # The expansion ||a||^2 + ||b||^2 - 2 a.b read a 1e-9 gap as 0 at offset
    # 10, and a 1e-13 gap as 2.7e-6 at offset 100.
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, (6, 2)) + offset
    step = np.array([0.6, 0.8])
    pts[1] = pts[0] + 1e-9 * step
    dist = PointCloud(pts).distances
    want = oracles.double_loop_distances(pts)
    assert np.all(np.abs(dist - want) <= 4 * np.finfo(float).eps * want)
    assert dist[0, 1] == pytest.approx(1e-9, rel=1e-3)
    pts[1] = pts[0] + 1e-13 * step
    with pytest.raises(DuplicatePoints):
        PointCloud(pts).distances


def test_cloud_owns_a_copy_of_its_points():
    base = np.arange(12.0).reshape(6, 2)
    original = base[:4].copy()
    cloud = PointCloud(base[:4])
    base[0, 0] = 99.0
    assert np.array_equal(cloud.points, original)
    assert np.array_equal(cloud.distances, oracles.double_loop_distances(original))
    assert not cloud.distances.flags.writeable


def test_nonfinite_rejected():
    with pytest.raises(NonFinite):
        PointCloud(np.array([[0.0, np.nan]]))
    with pytest.raises(NonFinite):
        PointCloud(np.array([[0.0, np.inf]]))


def test_invalid_scale():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        build_similarity(cloud, 0.0)
    with pytest.raises(ValueError):
        build_similarity(cloud, -1.0)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(12, 3)))
    path = tmp_path / "pts.csv"
    cloud.to_csv(path)
    back = PointCloud.from_csv(path)
    assert np.array_equal(cloud.points, back.points)


def test_csv_headerless():
    back = PointCloud.read_csv(io.StringIO("0.5,1.5\n2.5,3.5\n"))
    assert back.size == 2 and back.dim == 2


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.normal(size=(7, 5)))
    back = PointCloud.from_json(cloud.to_json())
    assert np.array_equal(cloud.points, back.points)


def test_subset_preserves_order():
    cloud = PointCloud(np.arange(10.0).reshape(5, 2))
    sub = cloud.subset([3, 1])
    assert np.array_equal(sub.points, cloud.points[[3, 1]])
