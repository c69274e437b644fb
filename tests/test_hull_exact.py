import itertools
import math

import numpy as np
import pytest

from magmoments import NonFinite, PointCloud, convex_hull, hull_volume, unit_ball_volume
from magmoments.hull_exact import contains, to_off

import oracles


def test_unit_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    hull = convex_hull(PointCloud(pts))
    assert hull.vertex_indices == (0, 1, 2, 3)
    assert hull.volume == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_standard_simplex_volume(d):
    pts = np.vstack([np.zeros(d), np.eye(d)])
    hull = convex_hull(PointCloud(pts))
    assert hull.volume == pytest.approx(1.0 / math.factorial(d), rel=1e-12)


def test_disk_cloud_matches_brute_force():
    rng = np.random.default_rng(41)
    theta = rng.uniform(0, 2 * np.pi, 200)
    radius = np.sqrt(rng.uniform(0, 1, 200))
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    hull = convex_hull(PointCloud(pts))
    assert set(hull.vertex_indices) == oracles.brute_force_hull_2d(pts)


def test_3d_vertices_match_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(30, 3))
    hull = convex_hull(PointCloud(pts))
    assert set(hull.vertex_indices) == oracles.brute_force_hull_3d(pts)


def test_degenerate_collinear_is_flagged_not_raised():
    pts = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
    hull = convex_hull(PointCloud(pts))
    assert hull.degenerate
    assert hull.volume == 0.0


def test_too_few_points_degenerate():
    hull = convex_hull(PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]])))
    assert hull.degenerate and hull.volume == 0.0


def test_fan_volume_matches_divergence_theorem():
    rng = np.random.default_rng(43)
    for d in (2, 3, 4):
        hull = convex_hull(PointCloud(rng.normal(size=(40, d))))
        div = oracles.divergence_volume(hull)
        assert hull_volume(hull) == pytest.approx(div, rel=1e-9)


def test_shuffled_grid_volume_is_the_cube():
    # Qhull keeps points inside faces of the grid's cube as vertices, so
    # its triangles overlap and a sum over them over-counts the volume.
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=5)))
    hull = convex_hull(PointCloud(np.random.default_rng(5).permutation(grid)))
    assert hull.volume == hull_volume(hull) == pytest.approx(32.0, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-80, 1e-106])
def test_underflowing_volume_raises(scale):
    pts = np.random.default_rng(0).normal(size=(40, 4))
    assert convex_hull(PointCloud(pts)).volume > 1.0  # at scale 1, a normal volume
    with pytest.raises(NonFinite, match="underflows"):
        convex_hull(PointCloud(pts * scale))


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def test_subset_volume_monotonicity():
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(60, 3))
    full = convex_hull(PointCloud(pts)).volume
    sub = convex_hull(PointCloud(pts[:30])).volume
    assert sub <= full + 1e-12


def test_vertex_minimality():
    rng = np.random.default_rng(45)
    pts = rng.normal(size=(25, 2))
    hull = convex_hull(PointCloud(pts))
    for v in hull.vertex_indices:
        rest = np.delete(pts, v, axis=0)
        smaller = convex_hull(PointCloud(rest))
        assert smaller.volume < hull.volume


def test_all_points_contained():
    rng = np.random.default_rng(46)
    pts = rng.normal(size=(50, 3))
    hull = convex_hull(PointCloud(pts))
    for p in pts:
        assert contains(hull, p)


def test_deterministic_for_fixed_order():
    rng = np.random.default_rng(47)
    pts = rng.normal(size=(40, 4))
    h1 = convex_hull(PointCloud(pts))
    h2 = convex_hull(PointCloud(pts.copy()))
    assert h1.vertex_indices == h2.vertex_indices
    assert h1.volume == h2.volume


def test_dimension_cap():
    rng = np.random.default_rng(48)
    with pytest.raises(ValueError):
        convex_hull(PointCloud(rng.normal(size=(20, 9))))


def test_1d_hull():
    hull = convex_hull(PointCloud(np.array([[3.0], [1.0], [2.0]])))
    assert hull.vertex_indices == (0, 1)
    assert hull_volume(hull) == pytest.approx(2.0, abs=1e-15)


def test_off_export():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    text = to_off(convex_hull(PointCloud(pts)))
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    counts = lines[1].split()
    assert counts[0] == "3"  # three vertices
