import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magmoments import (
    DuplicatePoints,
    MagnitudeError,
    MomentVector,
    PointCloud,
    QuadratureDivergence,
    approximate_hull,
    gauss_laguerre_rule,
    higher_moments,
    laplace_moment,
    log_trapezoid_rule,
    magnitude_function,
    magnitude_moment,
    moment_prefix_curve,
    weights_at_scale,
    zeroth_moments,
)
from magmoments import magnitude, moments
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


@pytest.mark.parametrize("evaluate", [higher_moments, laplace_moment],
                         ids=["higher_moments", "laplace_moment"])
@pytest.mark.parametrize("arg", [-1, float("nan"), float("inf")])
def test_negative_or_nan_order_and_shift_rejected(monkeypatch, evaluate, arg):
    def no_solve(cloud, t):
        raise AssertionError("a node was solved")

    monkeypatch.setattr(moments, "weights_at_scale", no_solve)
    cloud = PointCloud(np.random.default_rng(35).normal(size=(20, 2)))
    with pytest.raises(ValueError, match="must be nonnegative"):
        evaluate(cloud, arg)


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


@settings(max_examples=60, deadline=None)
@example(15, 2, 0.0, 32)
@given(
    st.integers(2, 40),
    st.integers(2, 5),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_moments_follow_a_random_permutation(n, dim, log_scale, seed):
    # Permuting the points permutes the order of Cholesky's elimination,
    # which moves each weight by about cond(Z_t) u. At a standard deviation
    # of 1-10 and d >= 2 the worst change seen over 3000 clouds was 3.6e-13
    # relative; smaller or 1-D clouds are worse conditioned at the smallest
    # node (7.8e-11 at d = 1, N = 28, deviation 1.8).
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim)) * 10.0**log_scale
    perm = rng.permutation(n)
    mu = zeroth_moments(PointCloud(pts), estimate_error=False).mu0
    mu_perm = zeroth_moments(PointCloud(pts[perm]), estimate_error=False).mu0
    assert np.abs(mu_perm / mu[perm] - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "evaluate",
    [
        zeroth_moments,
        magnitude_moment,
        lambda c: moment_prefix_curve(c, MomentVector(np.arange(4.0), np.nan)),
    ],
    ids=["zeroth_moments", "magnitude_moment", "moment_prefix_curve"],
)
def test_duplicates_raise_even_when_every_node_underflows(evaluate):
    # The diameter underflows exp(-t * diameter) at every quadrature node;
    # the duplicate pair must be rejected before any node is solved or skipped.
    cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [1e6, 0.0], [0.0, 1e6]]))
    with pytest.raises(DuplicatePoints):
        evaluate(cloud)


def _awkward_points(seed, dim, shape, log_gap, log_scale, offset):
    """30 normal points at d = dim, or on one line, or in pairs 10**log_gap
    apart, scaled by 10**log_scale and shifted by offset."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(30, dim))
    if shape == "line":
        pts = np.outer(rng.normal(size=30), rng.normal(size=dim))
    elif shape == "near-duplicates":
        pts[1::2] = pts[::2] + 10.0**log_gap * rng.normal(size=(15, dim))
    return pts * 10.0**log_scale + offset


def _weights_at_one(cloud):
    wv = weights_at_scale(cloud, 1.0)
    return np.append(wv.weights, wv.magnitude)


def _approximate_hull(cloud):
    hull, report = approximate_hull(cloud, 1.0)
    return np.append(hull.equations, [hull.volume, report.magnitude_at_one])


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        _awkward_points,
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.sampled_from(["normal", "line", "near-duplicates"]),
        st.floats(-14.0, -8.0),
        st.floats(-300.0, 300.0),
        st.sampled_from([0.0, 1e8, 1e16]),
    )
)
@example(_awkward_points(0, 2, "normal", -12.0, -160.0, 0.0))  # DuplicatePoints
@example(_awkward_points(0, 2, "normal", -12.0, 300.0, 0.0))  # NonFinite
@example(_awkward_points(0, 2, "normal", -12.0, 0.0, 1e16))  # DuplicatePoints
@example(_awkward_points(0, 2, "normal", -12.0, -6.0, 0.0))
@example(_awkward_points(0, 2, "normal", -12.0, 150.0, 0.0))  # NonFinite from the hulls
@example(_awkward_points(0, 2, "line", -12.0, 0.0, 0.0))
@example(_awkward_points(0, 2, "near-duplicates", -11.85, 0.0, 0.0))
@example(_awkward_points(0, 2, "line", -8.0, 0.0, 1e8))  # flat to Qhull only
@example(_awkward_points(0, 4, "normal", -12.0, 105.0, 0.0))  # NonFinite, not a crash
def test_awkward_clouds_raise_typed_errors_or_give_finite_values(pts):
    # Extreme coordinate scales, near-duplicates and collinear sets: each
    # entry point raises a MagnitudeError or returns finite values only.
    cloud = PointCloud(pts)
    in_given_order = MomentVector(np.arange(cloud.size, 0.0, -1.0), np.nan)
    for evaluate in (
        _weights_at_one,
        lambda c: zeroth_moments(c, estimate_error=False).mu0,
        lambda c: magnitude_function(c, [0.5, 1.0, 2.0]),
        lambda c: moment_prefix_curve(c, in_given_order),
        _approximate_hull,
    ):
        try:
            values = evaluate(cloud)
        except MagnitudeError:
            continue
        assert np.all(np.isfinite(values))


#: Clouds for the dense oracle, with the relative tolerance it can resolve.
#: The annulus's first node has a similarity matrix of condition number
#: 4.6e6, so any two float64 solvers differ there: up to 3.6e-9 relative on
#: its interior points, every node solved or not.
ORACLE_CLOUDS = {
    "annulus-300": (generate(DatasetSpec("annulus", 300, 2, seed=3)), 1e-8),
    "near-pair-and-outlier": (
        PointCloud(np.array([[0.0, 0.0], [1e-3, 0.0], [1e6, 0.0]])),
        1e-12,
    ),
    "blob-x20": (
        generate(DatasetSpec("gaussian-blobs", 300, 2, seed=1)).scale_coordinates(20.0),
        1e-12,
    ),
}

#: (library call, dense oracle) on the points and the rule.
ORACLE_MOMENTS = {
    "zeroth": (
        lambda c, r: zeroth_moments(c, r, estimate_error=False).mu0,
        lambda p, r: oracles.dense_zeroth_moments(p, r.nodes, r.weights),
    ),
    "higher-n3": (
        lambda c, r: higher_moments(c, 3, r),
        lambda p, r: oracles.dense_zeroth_moments(p, r.nodes, r.weights, r.nodes**3),
    ),
    "laplace-s0.5": (
        lambda c, r: laplace_moment(c, 0.5, r),
        lambda p, r: oracles.dense_zeroth_moments(
            p, r.nodes, r.weights, np.exp(-0.5 * r.nodes)
        ),
    ),
    "magnitude": (
        lambda c, r: np.array([magnitude_moment(c, r)]),
        lambda p, r: np.array([oracles.dense_magnitude_moment(p, r.nodes, r.weights)]),
    ),
}


@pytest.mark.parametrize("cloud_id", ORACLE_CLOUDS)
@pytest.mark.parametrize("moment", ORACLE_MOMENTS)
def test_moments_match_dense_oracle(moment, cloud_id):
    # The oracle solves every node; the library stops at the certified tail
    # cut. Close points keep weights far from 1 at large t, where the
    # outlier's distance underflows exp(-t * d).
    cloud, rtol = ORACLE_CLOUDS[cloud_id]
    evaluate, oracle = ORACLE_MOMENTS[moment]
    rule = gauss_laguerre_rule()
    got = evaluate(cloud, rule)
    want = oracle(cloud.points, rule)
    assert np.abs(got / want - 1.0).max() <= rtol


@pytest.mark.parametrize("cloud_id", ORACLE_CLOUDS)
@pytest.mark.parametrize("moment", ORACLE_MOMENTS)
def test_tail_cut_changes_no_bit(monkeypatch, moment, cloud_id):
    # Against the same loop with the certificate refused, which solves every
    # node. The factor t^3 weights the skipped nodes up 1e5-fold or more: a
    # cut that left it out of the tail moves the annulus's mu_3 by 4 ulps.
    cloud, _ = ORACLE_CLOUDS[cloud_id]
    evaluate, _ = ORACLE_MOMENTS[moment]
    rule = gauss_laguerre_rule(64)
    solved = []
    real = moments.weights_at_scale
    monkeypatch.setattr(
        moments, "weights_at_scale", lambda c, t: solved.append(t) or real(c, t)
    )
    got = evaluate(cloud, rule)
    cut = len(solved)
    monkeypatch.setattr(moments, "_certify_lambda_min", lambda c, t, s: False)
    every_node = evaluate(cloud, rule)
    assert len(solved) - cut == 64
    assert cut < 64
    if cloud_id == "annulus-300":
        assert cut <= 48
    assert np.array_equal(got, every_node)


@st.composite
def _certificate_cases(draw):
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, (n, dim)) * scale
    if draw(st.booleans()):  # a pair 1e-6 apart
        step = rng.normal(size=dim)
        pts[1] = pts[0] + 1e-6 * step / np.linalg.norm(step)
    # The slack must not depend on where the cloud sits.
    away = rng.normal(size=dim)
    pts += draw(st.floats(0.0, 1e3)) * away / np.linalg.norm(away)
    node = draw(st.integers(0, 63))
    fraction = draw(st.floats(0.0, 1.0))
    return pts, node, fraction


@settings(max_examples=150, deadline=None)
@given(_certificate_cases())
def test_certificate_is_sound(case):
    pts, node, fraction = case
    cloud = PointCloud(pts)
    nodes = gauss_laguerre_rule(64).nodes
    dist = oracles.double_loop_distances(pts)
    lam = [np.linalg.eigvalsh(np.exp(-t * dist)).min() for t in nodes[node:]]
    sigma = fraction * lam[0]
    if moments._certify_lambda_min(cloud, nodes[node], sigma):
        # Schur's theorem carries the bound to every later node.
        assert min(lam) >= sigma
    if lam[0] > 1e-8:  # eigvalsh's error is then far below 1% of lambda_min
        assert not moments._certify_lambda_min(cloud, nodes[node], 1.01 * lam[0])


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


def test_zeroth_moments_take_both_solver_routes(monkeypatch):
    cloud = generate(DatasetSpec("gaussian-blobs", 300, 4, seed=36))
    answered = []
    real = magnitude._conjugate_gradient

    def counted(a, ones):
        w = real(a, ones)
        answered.append(w is not None)
        return w

    monkeypatch.setattr(magnitude, "_conjugate_gradient", counted)
    zeroth_moments(cloud, estimate_error=False)
    assert any(answered) and not all(answered)  # both solver routes ran


def test_error_estimate_bounds_order_doubling():
    rng = np.random.default_rng(33)
    cloud = PointCloud(rng.normal(size=(12, 2)))
    rule = gauss_laguerre_rule(32)
    mv = zeroth_moments(cloud, rule)
    fine = zeroth_moments(cloud, gauss_laguerre_rule(64), estimate_error=False)
    assert np.abs(mv.mu0 - fine.mu0).max() <= mv.estimated_error + 1e-15


def test_quadrature_divergence_on_a_coarse_rule():
    rng = np.random.default_rng(33)
    cloud = PointCloud(rng.normal(size=(12, 2)))
    with pytest.raises(QuadratureDivergence):
        zeroth_moments(cloud, gauss_laguerre_rule(4))
    zeroth_moments(cloud, gauss_laguerre_rule(16))


@pytest.mark.parametrize("offset", [10.0, 100.0, 1e3])
def test_translation_leaves_weights_and_moments(offset):
    # Translating rounds the coordinates by up to 1.1e-13 at offset 1e3,
    # which moves the weights here by at most 1.3e-9 and mu_0 by 2.1e-10.
    # Distances from the expansion ||a||^2 + ||b||^2 - 2 a.b moved the
    # weights by 4.7e-8 at offset 10 and 3e-4 at offset 1e3.
    cloud = generate(DatasetSpec("annulus", 300, 2, seed=0))
    moved = PointCloud(cloud.points + offset)
    for t in (1.0, 10.0):
        want = magnitude.weights_at_scale(cloud, t).weights
        got = magnitude.weights_at_scale(moved, t).weights
        assert np.abs(got / want - 1.0).max() <= 1e-8
    want = zeroth_moments(cloud, estimate_error=False).mu0
    got = zeroth_moments(moved, estimate_error=False).mu0
    assert np.abs(got / want - 1.0).max() <= 1e-8


@settings(max_examples=60, deadline=None)
@example(40, 2, 0.0, -1.0, 0)
@given(
    st.integers(3, 40),
    st.integers(2, 5),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_rigid_motion_leaves_weights_and_moments(n, dim, log_scale, log_t, seed):
    # A rotation and a shift of about 10 round the coordinates, and so the
    # distances, which the solves amplify by about cond(Z_t). Over 6000
    # random clouds across these ranges the worst change was 1.5e-13 of
    # max|w| and 4.7e-13 relative on mu_0. The worst corner is t = 0.1 with
    # N = 40, d = 2 and a standard deviation of 1, where cond(Z_t) has a long
    # tail: over 12400 clouds there the worst changes were 6.4e-12 and
    # 3.0e-11. Each bound is 10 times the worst, rounded up.
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim)) * 10.0**log_scale
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    rotation = q * np.sign(np.diag(r))  # Haar-distributed orthogonal
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] *= -1.0
    cloud = PointCloud(pts)
    moved = PointCloud(pts @ rotation.T + rng.normal(0.0, 10.0, dim))
    t = 10.0**log_t
    want = magnitude.weights_at_scale(cloud, t).weights
    got = magnitude.weights_at_scale(moved, t).weights
    assert np.abs(got - want).max() <= 7e-11 * np.abs(want).max()
    want = zeroth_moments(cloud, estimate_error=False).mu0
    got = zeroth_moments(moved, estimate_error=False).mu0
    assert np.abs(got / want - 1.0).max() <= 4e-10


def test_moments_nonnegative_and_finite():
    rng = np.random.default_rng(34)
    cloud = PointCloud(rng.normal(size=(25, 3)))
    mv = zeroth_moments(cloud, estimate_error=False)
    assert np.all(mv.mu0 >= 0)
    assert np.all(np.isfinite(mv.mu0))


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
