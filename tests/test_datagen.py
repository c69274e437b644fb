import numpy as np
import pytest

import oracles
from magmoments import DUPLICATE_TOL, DatasetSpec, InvalidSpec, datagen, generate


def test_determinism_bit_exact():
    spec = DatasetSpec("gaussian-blobs", 500, 3, seed=123)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.points, b.points)


def test_different_seeds_differ():
    a = generate(DatasetSpec("square", 50, 2, seed=1))
    b = generate(DatasetSpec("square", 50, 2, seed=2))
    assert not np.array_equal(a.points, b.points)


def test_blob_means_near_centers():
    centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
    n = 999
    cloud = generate(
        DatasetSpec(
            "gaussian-blobs", n, 2, seed=5,
            params={"center_coords": centers, "sigma": 1.0},
        )
    )
    per_blob = n // 3
    tol = 4.0 / np.sqrt(per_blob)  # 4 sigma / sqrt(count)
    for k, center in enumerate(centers):
        chunk = cloud.points[k * per_blob : (k + 1) * per_blob]
        assert np.abs(chunk.mean(axis=0) - center).max() < tol


def test_annulus_radii_in_band():
    cloud = generate(
        DatasetSpec("annulus", 400, 2, seed=9, params={"inner": 0.5, "outer": 1.0})
    )
    radius = np.linalg.norm(cloud.points, axis=1)
    assert radius.min() >= 0.5
    assert radius.max() <= 1.0


def test_moons_zero_noise_on_arcs():
    cloud = generate(DatasetSpec("noisy-moons", 200, 2, seed=11, params={"noise": 0.0}))
    pts = cloud.points
    on_top = np.abs(np.linalg.norm(pts, axis=1) - 1.0) < 1e-12
    shifted = pts - np.array([1.0, 0.5])
    on_bottom = np.abs(np.linalg.norm(shifted, axis=1) - 1.0) < 1e-12
    assert np.all(on_top | on_bottom)


def test_square_inside_side():
    cloud = generate(DatasetSpec("square", 300, 4, seed=13, params={"side": 2.0}))
    assert cloud.points.min() >= 0.0
    assert cloud.points.max() <= 2.0


def test_points_are_distinct():
    cloud = generate(DatasetSpec("gaussian-blobs", 1000, 2, seed=17))
    assert cloud.size == 1000
    # generate() resamples collisions; the cloud must be duplicate-free,
    # or reading its distance matrix raises DuplicatePoints
    assert cloud.distances.shape == (1000, 1000)


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        DatasetSpec("spiral", 10, 2, seed=0)
    with pytest.raises(InvalidSpec):
        DatasetSpec("noisy-moons", 10, 3, seed=0)
    with pytest.raises(InvalidSpec):
        DatasetSpec("annulus", 10, 3, seed=0)
    with pytest.raises(InvalidSpec):
        DatasetSpec("square", 0, 2, seed=0)
    with pytest.raises(InvalidSpec):
        generate(DatasetSpec("annulus", 10, 2, seed=0, params={"inner": 2.0}))


@pytest.mark.parametrize(
    "count, dim, seed",
    [(30.5, 2, 0), (True, 2, 0), (30, 2.5, 0), (30, True, 0), (30, 2, 1.5), (30, 2, -1)],
    ids=["fractional-count", "boolean-count", "fractional-dim", "boolean-dim",
         "fractional-seed", "negative-seed"],
)
def test_spec_rejects_non_integer_count_dim_or_seed(count, dim, seed):
    with pytest.raises(InvalidSpec):
        DatasetSpec("square", count, dim, seed)


def test_spec_takes_integral_floats_as_ints():
    spec = DatasetSpec("square", 30.0, 2.0, 4.0)
    assert [type(v) for v in (spec.count, spec.dim, spec.seed)] == [int, int, int]
    want = generate(DatasetSpec("square", 30, 2, 4)).points
    assert np.array_equal(generate(spec).points, want)


def test_forced_collisions_resample_the_same_rows(monkeypatch):
    real = datagen._sample
    calls = []

    def sample(rng, spec, n):
        pts = real(rng, spec, n)
        if not calls:  # rows 5, 13 and 40 copy earlier rows
            pts[[5, 13, 40]] = pts[[1, 2, 3]]
        calls.append(n)
        return pts

    monkeypatch.setattr(datagen, "_sample", sample)
    spec = DatasetSpec("square", 60, 2, seed=11)
    cloud = generate(spec)
    assert calls == [60, 3]
    assert "distances" in vars(cloud)  # the duplicate check's matrix is kept
    # Reference: the later index of each close pair, collected in a set in
    # row-major pair order, takes the new samples in the set's order.
    calls.clear()
    rng = np.random.default_rng(spec.seed)
    pts = sample(rng, spec, spec.count)
    ii, jj = np.nonzero(oracles.double_loop_distances(pts) < DUPLICATE_TOL)
    rows = list({int(j) for i, j in zip(ii, jj) if j > i})
    assert rows != sorted(rows)  # so the order is tested
    pts[rows] = sample(rng, spec, len(rows))
    assert np.array_equal(cloud.points, pts)
