import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magmoments import (
    IndexSplit,
    PointCloud,
    approximate_hull,
    build_similarity,
    convex_hull,
    filter_by_moment,
    moment_prefix_curve,
    restricted_magnitude,
    solve_weights,
    zeroth_moments,
)
from magmoments import hull_filter, magnitude
from magmoments.datagen import DatasetSpec, generate
from magmoments.errors import FactorizationFailure
from magmoments.hull_exact import affine_rank, contains, containment_slack, to_off
from magmoments.moments import MomentVector
from oracles import filter_removed_count, prefix_curve_bruteforce


def _blob_cloud(n=200, dim=2, seed=51):
    return generate(DatasetSpec("gaussian-blobs", n, dim, seed=seed))


def _moments(cloud):
    return zeroth_moments(cloud, estimate_error=False)


def test_zero_epsilon_removes_nothing():
    cloud = _blob_cloud()
    report = filter_by_moment(cloud, _moments(cloud), 0.0)
    assert report.removed_indices == ()
    assert len(report.kept_indices) == cloud.size


def test_infinite_epsilon_keeps_dim_plus_one():
    cloud = _blob_cloud(n=50)
    report = filter_by_moment(cloud, _moments(cloud), math.inf)
    assert len(report.kept_indices) == cloud.dim + 1


def test_removed_moments_below_kept():
    cloud = _blob_cloud(n=100)
    mv = _moments(cloud)
    report = filter_by_moment(cloud, mv, 1.0)
    assert report.removed_indices
    assert mv.mu0[list(report.removed_indices)].max() <= mv.mu0[
        list(report.kept_indices)
    ].min()


def test_threshold_curve_shape():
    cloud = _blob_cloud(n=40)
    report = filter_by_moment(cloud, _moments(cloud), 0.5)
    assert len(report.threshold_curve) == cloud.size
    i, mu, tau = report.threshold_curve[0]
    assert i == 1 and mu >= 0 and tau > 0
    # Thresholds decay in i while sorted moments grow.
    taus = [tau for _, _, tau in report.threshold_curve]
    mus = [mu for _, mu, _ in report.threshold_curve]
    assert all(a >= b for a, b in zip(taus, taus[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(mus, mus[1:]))


def test_filter_monotone_in_epsilon():
    cloud = _blob_cloud(n=120)
    mv = _moments(cloud)
    previous: set = set()
    vol_prev = np.inf
    for eps in (0.0, 0.1, 0.5, 2.0, 10.0, math.inf):
        report = filter_by_moment(cloud, mv, eps)
        removed = set(report.removed_indices)
        assert previous <= removed
        previous = removed
        vol = convex_hull(cloud.subset(sorted(report.kept_indices))).volume
        assert vol <= vol_prev + 1e-12
        vol_prev = vol


def test_paper_convention_also_supported():
    cloud = _blob_cloud(n=80)
    mv = _moments(cloud)
    derived = filter_by_moment(cloud, mv, 1.0, convention="derived")
    paper = filter_by_moment(cloud, mv, 1.0, convention="paper")
    assert derived.convention == "derived"
    assert paper.convention == "paper"
    # The literal step tests the first kept moment, which is larger, so
    # its condition is harder to satisfy and it removes no more points
    # than the max-removed-moment form.
    assert set(paper.removed_indices) <= set(derived.removed_indices)
    # Both conventions against a plain scan, on the moments and on a
    # rounded copy with many ties.
    d, magnitude_at_one = cloud.dim, derived.magnitude_at_one
    for mu0 in (mv.mu0, np.round(mv.mu0, 2)):
        tied = MomentVector(mu0, np.nan)
        order = np.argsort(mu0, kind="stable")
        for eps in (0.0, 1e-6, 0.01, 0.1, 1.0, 10.0, math.inf):
            for convention in ("derived", "paper"):
                report = filter_by_moment(cloud, tied, eps, convention)
                count = filter_removed_count(mu0, d, eps, magnitude_at_one, convention)
                assert report.removed_indices == tuple(order[:count].tolist())
                assert report.kept_indices == tuple(order[count:].tolist())
                assert report.threshold_curve == tuple(
                    (i, float(mu0[order[i - 1]]), eps / (d * i * magnitude_at_one))
                    for i in range(1, cloud.size + 1)
                )


def test_unknown_convention_rejected():
    cloud = _blob_cloud(n=10)
    with pytest.raises(ValueError):
        filter_by_moment(cloud, _moments(cloud), 1.0, convention="other")
    with pytest.raises(ValueError):
        filter_by_moment(cloud, _moments(cloud), -1.0)


def test_nan_epsilon_rejected():
    cloud = _blob_cloud(n=10)
    with pytest.raises(ValueError):
        filter_by_moment(cloud, _moments(cloud), float("nan"))


@pytest.mark.parametrize(
    "epsilon, convention", [(-1.0, "derived"), (math.nan, "derived"), (1.0, "other")]
)
def test_approximate_hull_checks_its_budget_before_the_node_loop(
    monkeypatch, epsilon, convention
):
    def no_loop(*args, **kwargs):
        raise AssertionError("the node loop ran")

    monkeypatch.setattr(hull_filter, "zeroth_moments", no_loop)
    with pytest.raises(ValueError):
        approximate_hull(_blob_cloud(n=10), epsilon, convention=convention)


def test_epsilon_sweep_solves_magnitude_at_one_once(cholesky_calls):
    cloud = _blob_cloud(n=120)
    n = cloud.size
    mv = _moments(cloud)
    cholesky_calls.clear()
    epsilons = (0.0, 0.01, 0.1, 1.0, 10.0, math.inf)
    reports = [filter_by_moment(cloud, mv, eps) for eps in epsilons]
    assert cholesky_calls == [n]  # t = 1, on the first call
    values = magnitude.magnitude_function(cloud, [0.5, 1.0])
    assert cholesky_calls == [n, n]  # t = 0.5; t = 1 is held
    held = magnitude.weights_at_scale(cloud, 1.0).magnitude
    assert {r.magnitude_at_one for r in reports} == {held}
    assert values[1] == (1.0, held)


def test_a_new_cloud_of_the_same_points_solves_again(cholesky_calls):
    cloud = _blob_cloud(n=60)
    mv = _moments(cloud)
    cholesky_calls.clear()
    first = filter_by_moment(cloud, mv, 1.0)
    second = filter_by_moment(PointCloud(cloud.points), mv, 1.0)
    assert cholesky_calls == [cloud.size] * 2
    assert first == second


def test_triangle_plus_centroid():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0 / 3, 4.0 / 3]])
    cloud = PointCloud(pts)
    mv = _moments(cloud)
    assert np.argmin(mv.mu0) == 3  # the centroid is the least extremal
    hull, report = approximate_hull(cloud, epsilon=math.inf)
    assert report.removed_indices == (3,)
    assert hull.volume == pytest.approx(convex_hull(cloud).volume, rel=1e-12)


def test_zero_epsilon_hull_identical():
    clouds = [_blob_cloud(n=60)] + [
        PointCloud(np.random.default_rng(seed).normal(size=(40, dim)))
        for dim in (2, 3, 4)
        for seed in range(40)
    ]
    for cloud in clouds:
        hull, report = approximate_hull(cloud, 0.0)
        full = convex_hull(cloud)
        assert report.removed_indices == ()
        assert hull.vertex_indices == full.vertex_indices
        assert hull.volume == full.volume


def test_approximate_hull_facets_refer_to_the_cloud():
    cloud = _blob_cloud(n=200, dim=3, seed=57)
    hull, report = approximate_hull(cloud, 10.0)
    assert report.removed_indices
    assert set(hull.vertex_indices) <= set(report.kept_indices)
    d = cloud.dim
    # Each remapped facet's own vertices lie on its hyperplane.
    on_facet = cloud.points[hull.simplices]
    heights = np.einsum("fkd,fd->fk", on_facet, hull.equations[:, :d])
    heights += hull.equations[:, d:]
    assert np.abs(heights).max() <= containment_slack(cloud.points)
    assert all(contains(hull, p) for p in cloud.points)
    lines = to_off(hull).splitlines()
    n_verts, n_faces, _ = map(int, lines[1].split())
    coords = np.array([[float(c) for c in line.split()] for line in lines[2 : 2 + n_verts]])
    assert np.array_equal(coords, cloud.points[list(hull.vertex_indices)])
    faces = np.array([[int(c) for c in line.split()] for line in lines[2 + n_verts :]])
    assert faces.shape == (n_faces, d + 1) and np.all(faces[:, 0] == d)
    assert np.array_equal(np.asarray(hull.vertex_indices)[faces[:, 1:]], hull.simplices)


def test_approx_volume_never_exceeds_full():
    cloud = _blob_cloud(n=300)
    full = convex_hull(cloud).volume
    for eps in (0.01, 0.1, 1.0, 10.0):
        hull, _ = approximate_hull(cloud, eps)
        assert hull.volume <= full + 1e-12


def test_blob_cloud_reaches_90_percent_quickly():
    cloud = _blob_cloud(n=1000, seed=7)
    mv = _moments(cloud)
    curve = moment_prefix_curve(cloud, mv)
    full = curve[-1][1]
    i90 = next(i for i, vol, _ in curve if vol >= 0.9 * full)
    # Dimension-2 blob clouds need only a handful of top-moment points.
    assert i90 <= 20


def test_removal_budget_guarantee():
    cloud = _blob_cloud(n=150)
    mv = _moments(cloud)
    report = filter_by_moment(cloud, mv, 0.5)
    removed = report.removed_indices
    if not removed:
        pytest.skip("nothing removed at this epsilon")
    sim = build_similarity(cloud, 1.0)
    wv = solve_weights(sim)
    split = IndexSplit(report.kept_indices, removed, cloud.size)
    drop = wv.magnitude - restricted_magnitude(wv, sim, split)
    bound = len(removed) * (wv.weights[list(removed)] ** 2).max()
    assert drop <= bound + 1e-10


def test_prefix_curve_endpoints_and_monotonicity():
    cloud = _blob_cloud(n=80, dim=3)
    mv = _moments(cloud)
    curve = moment_prefix_curve(cloud, mv)
    assert [i for i, _, _ in curve] == list(range(1, 81))
    # Degenerate prefixes carry zero volume.
    for i, vol, _ in curve[: cloud.dim]:
        assert vol == 0.0
    full = convex_hull(cloud)
    assert curve[-1][1] == pytest.approx(full.volume, rel=1e-9)
    mag_full = solve_weights(build_similarity(cloud, 1.0)).magnitude
    assert curve[-1][2] == pytest.approx(mag_full, rel=1e-9)
    vols = [v for _, v, _ in curve]
    mags = [m for _, _, m in curve]
    assert all(a <= b + 1e-9 for a, b in zip(vols, vols[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(mags, mags[1:]))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_prefix_curve_vertex_count_matches_convex_hull(dim):
    cloud = _blob_cloud(n=200, dim=dim, seed=60 + dim)
    mv = _moments(cloud)
    curve = moment_prefix_curve(cloud, mv)
    assert curve.shape == (cloud.size, 3) and curve.dtype == np.float64
    np.testing.assert_array_equal(moment_prefix_curve(cloud, mv), curve)


def test_prefix_curve_in_one_dimension_matches_convex_hull():
    cloud = _blob_cloud(n=20, dim=1, seed=59)
    mv = _moments(cloud)
    curve = moment_prefix_curve(cloud, mv)
    order = np.argsort(mv.mu0, kind="stable")[::-1]
    for i, vol in enumerate(curve[:, 1], start=1):
        assert vol == convex_hull(cloud.subset(order[:i])).volume


def _own_order(cloud):
    return cloud, _moments(cloud)


def _in_given_order(pts):
    """A cloud whose moments put its points in descending order as given."""
    mu0 = np.arange(len(pts), 0, -1, dtype=float)
    return PointCloud(pts), MomentVector(mu0, np.nan)


def _grid(side, dim):
    axes = [np.arange(float(side))] * dim
    return PointCloud(np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim))


def _collinear_start():
    line = np.outer(np.arange(1.0, 7.0), [1.0, 0.5, -0.25])
    rest = np.random.default_rng(52).uniform(-4.0, 4.0, (30, 3))
    return _in_given_order(np.vstack([line, rest]))


def _shuffled_grid(side, dim, seed):
    pts = np.random.default_rng(seed).permutation(_grid(side, dim).points)
    return _in_given_order(pts)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _own_order(_blob_cloud(40, 2, 53)), id="blob-d2"),
        pytest.param(lambda: _own_order(_blob_cloud(40, 3, 54)), id="blob-d3"),
        pytest.param(lambda: _own_order(_blob_cloud(40, 4, 55)), id="blob-d4"),
        pytest.param(_collinear_start, id="collinear-start"),
        # Grids in their own moment order: corners first, then many points
        # on the hull's facets.
        pytest.param(lambda: _own_order(_grid(8, 2)), id="grid-8x8"),
        pytest.param(lambda: _own_order(_grid(5, 3)), id="grid-5x5x5"),
        pytest.param(lambda: _own_order(_grid(4, 4)), id="grid-4x4x4x4"),
        pytest.param(lambda: _shuffled_grid(8, 2, 56), id="grid-8x8-shuffled"),
        pytest.param(lambda: _own_order(_blob_cloud(40, 5, 57)), id="blob-d5"),
        pytest.param(lambda: _shuffled_grid(3, 5, 5), id="grid-3^5-shuffled"),
    ],
)
def test_prefix_curve_matches_bruteforce(case):
    cloud, mv = case()
    order = np.argsort(mv.mu0, kind="stable")[::-1]
    want = prefix_curve_bruteforce(cloud.points[order])
    got = moment_prefix_curve(cloud, mv)
    assert [i for i, _, _ in got] == [i for i, _, _ in want]
    for (_, vol, mag), (_, want_vol, want_mag) in zip(got, want):
        assert vol == pytest.approx(want_vol, rel=1e-12, abs=0.0)
        assert mag == pytest.approx(want_mag, rel=1e-12)


@pytest.mark.parametrize(
    "side, dim, seed", [(8, 2, 56), (5, 3, 57), (4, 4, 1), (3, 5, 5)]
)
def test_prefix_curve_counts_only_a_shuffled_grids_corners(side, dim, seed):
    # Table 1's vertex count is convex_hull's. Grid points on the hull's
    # facets and edges are not extreme points and must not count, even
    # where Qhull keeps them in its facets (two on the 3^5 grid); the OFF
    # export still lists every point its facets use.
    cloud, _ = _shuffled_grid(side, dim, seed)
    hull = convex_hull(cloud)
    assert hull.vertex_count == 2**dim
    n_points, n_faces, _ = map(int, to_off(hull).splitlines()[1].split())
    assert (n_points, n_faces) == (np.unique(hull.simplices).size, len(hull.simplices))


@st.composite
def _clouds_in_order(draw):
    """Random clouds at d = 2-5, some starting with points on one line."""
    dim = draw(st.integers(2, 5))
    on_line = draw(st.integers(0, 4))
    n = draw(st.integers(on_line + dim + 1, 40))
    return _on_line_cloud(draw(st.integers(0, 2**32 - 1)), n, dim, on_line)


def _on_line_cloud(seed, n, dim, on_line):
    """n normal points at d = dim, the first on_line of them on one line."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    pts[:on_line] = pts[0] + np.outer(rng.uniform(-2.0, 2.0, on_line), pts[1] - pts[0])
    return _in_given_order(pts)


@settings(max_examples=60, deadline=None)
@given(_clouds_in_order())
# numpy's default matrix_rank tolerance calls this cloud's 3-point prefix
# rank 2 and its 4-point prefix rank 1; the curve's own rule is affine_rank.
@example(_on_line_cloud(3359175839, 22, 2, 4))
@example(_on_line_cloud(0, 8, 2, 8))  # the whole cloud on one line: every volume 0
def test_prefix_curve_volumes_grow_to_the_full_hull(case):
    cloud, mv = case
    vols = moment_prefix_curve(cloud, mv)[:, 1]
    pts, d = cloud.points, cloud.dim
    full_rank = np.array([affine_rank(pts[:i]) == d for i in range(1, cloud.size + 1)])
    assert np.all(vols[~full_rank] == 0.0)
    assert np.all(vols[full_rank] > 0.0)
    assert np.all(np.diff(vols) >= 0.0)
    full = convex_hull(cloud)
    assert vols[-1] == pytest.approx(full.volume, rel=1e-12, abs=0.0)


def test_prefix_curve_pivot_floor_raises(monkeypatch):
    cloud = _blob_cloud(n=60, dim=3, seed=58)
    mv = _moments(cloud)
    order = np.argsort(mv.mu0, kind="stable")[::-1]
    zeta = np.exp(-cloud.distances[np.ix_(order, order)])
    smallest = (np.diag(np.linalg.cholesky(zeta)) ** 2).min()
    monkeypatch.setattr(magnitude, "PIVOT_FLOOR", 0.5 * smallest)
    moment_prefix_curve(cloud, mv)
    monkeypatch.setattr(magnitude, "PIVOT_FLOOR", 2.0 * smallest)
    with pytest.raises(FactorizationFailure):
        moment_prefix_curve(cloud, mv)
