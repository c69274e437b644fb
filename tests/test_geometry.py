import errno
import io
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmoments import (
    DUPLICATE_TOL,
    DuplicatePoints,
    NonFinite,
    PointCloud,
    SimilarityMatrix,
    build_similarity,
    pairwise_distances,
)
from magmoments import geometry

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


@pytest.mark.parametrize("seed", range(8))
def test_distances_equal_cdist_bit_for_bit(seed):
    # d = 1-8 and coordinates from 1e-160 to 1e150; Y shares points with X.
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(seed)
    for d in range(1, 9):
        x = rng.normal(size=(int(rng.integers(1, 140)), d))
        x *= 10.0 ** rng.uniform(-160, 150)
        y = rng.normal(size=(int(rng.integers(1, 90)), d)) * 10.0 ** rng.uniform(-160, 150)
        y = np.vstack([y, x[rng.integers(0, len(x), size=5)]])
        cx, cy = PointCloud(x), PointCloud(y)
        assert np.array_equal(pairwise_distances(cx), cdist(x, x))
        assert np.array_equal(pairwise_distances(cy, cx), cdist(y, x))


def test_overflowing_distance_raises_nonfinite_without_a_warning():
    cloud = PointCloud(np.array([[1e308, 0.0], [-1e308, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            pairwise_distances(cloud)
        with pytest.raises(NonFinite):
            cloud.distances
        with pytest.raises(NonFinite):
            pairwise_distances(PointCloud(np.array([[1e154, 1e154]])), cloud)


def test_distances_between_clouds_need_one_dimension():
    with pytest.raises(ValueError, match="dimension"):
        pairwise_distances(PointCloud(np.zeros((2, 2))), PointCloud(np.ones((3, 3))))


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


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_similarity_matrix_rejects_bad_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        SimilarityMatrix(np.eye(2), scale)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
def test_similarity_matrix_rejects_non_square_entries(shape):
    with pytest.raises(ValueError, match="square"):
        SimilarityMatrix(np.ones(shape), 1.0)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(12, 3)))
    path = tmp_path / "pts.csv"
    cloud.to_csv(path)
    back = PointCloud.from_csv(path)
    assert np.array_equal(cloud.points, back.points)


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(UnicodeEncodeError):
        geometry.atomic_write(str(path), "ok\udc80")  # a lone surrogate
    assert list(tmp_path.iterdir()) == []


class _FullDisk:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_to_csv_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"x0,x1\r\n1,2\r\n")
    monkeypatch.setattr(
        geometry, "open", lambda *a, **k: _FullDisk(open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        PointCloud(np.arange(8.0).reshape(4, 2)).to_csv(path)
    assert path.read_bytes() == b"x0,x1\r\n1,2\r\n"
    assert list(tmp_path.iterdir()) == [path]


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


def test_duplicate_error_carries_every_later_row_and_pickles():
    pts = np.arange(20.0).reshape(10, 2)
    pts[4] = pts[1] + DUPLICATE_TOL / 10
    pts[7] = pts[2]
    pts[9] = pts[1]
    with pytest.raises(DuplicatePoints) as info:
        PointCloud(pts).distances
    exc = info.value
    assert sorted(exc.rows) == [4, 7, 9]  # pairs (1, 4), (1, 9), (2, 7), (4, 9)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is DuplicatePoints
    assert (str(copy), copy.rows) == (str(exc), exc.rows)
