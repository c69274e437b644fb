import json
import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from magmoments import (
    FactorizationFailure,
    PointCloud,
    cli,
    hull_filter,
    moments,
    weights_at_scale,
)
from magmoments.cli import main


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def blob_csv(tmp_path):
    path = tmp_path / "pts.csv"
    assert run_cli(
        "datagen", "--kind", "blobs", "--n", "40", "--dim", "2",
        "--seed", "7", "--out", str(path),
    ) == 0
    return path


def test_datagen_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        run_cli("datagen", "--kind", "annulus", "--n", "25", "--dim", "2",
                "--seed", "3", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_weights_column_sums_to_magnitude(blob_csv, tmp_path):
    out = tmp_path / "w.csv"
    assert run_cli("weights", "--input", str(blob_csv), "--t", "1",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    w = np.array([float(r[-1]) for r in data])
    reported = float(lines[-1].split(",")[1])
    assert abs(w.sum() - reported) < 1e-10
    # CLI output equals the direct library call, full precision.
    cloud = PointCloud.from_csv(blob_csv)
    wv = weights_at_scale(cloud, 1.0)
    assert np.array_equal(w, np.array([float("%.17g" % v) for v in wv.weights]))


def test_moments_columns(blob_csv, tmp_path):
    out = tmp_path / "m.csv"
    assert run_cli("moments", "--input", str(blob_csv), "--order", "32",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("w,mu0,log1p_mu0")
    row = [float(v) for v in lines[1].split(",")]
    mu0, log_mu0 = row[-2], row[-1]
    assert log_mu0 == pytest.approx(math.log1p(mu0), rel=1e-12)


@pytest.mark.parametrize("t", ["0", "nan", "-1"])
def test_moments_rejects_bad_scale_before_the_node_loop(
    blob_csv, tmp_path, monkeypatch, capsys, t
):
    def no_loop(*args, **kwargs):
        raise AssertionError("the node loop ran")

    monkeypatch.setattr(cli, "zeroth_moments", no_loop)
    assert run_cli("moments", "--input", str(blob_csv), "--t", t,
                   "--out", str(tmp_path / "m.csv")) == 2
    assert "scale t must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("epsilon", ["-1", "nan"])
def test_hull_approx_rejects_bad_epsilon_before_the_node_loop(
    blob_csv, tmp_path, monkeypatch, capsys, epsilon
):
    def no_loop(*args, **kwargs):
        raise AssertionError("the node loop ran")

    monkeypatch.setattr(hull_filter, "zeroth_moments", no_loop)
    assert run_cli("hull-approx", "--input", str(blob_csv), "--epsilon", epsilon,
                   "--out", str(tmp_path / "approx.json")) == 2
    assert "epsilon must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "approx.json").exists()


def test_node_failure_in_a_pool_exits_one(blob_csv, tmp_path, monkeypatch, capsys,
                                          set_workers):
    set_workers(2)
    real = moments.weights_at_scale

    def fails_past_t1(cloud, t):
        if t > 1:
            raise FactorizationFailure("injected")
        return real(cloud, t)

    monkeypatch.setattr(moments, "weights_at_scale", fails_past_t1)
    for command in (["moments"], ["hull-approx", "--epsilon", "0.5"]):
        assert run_cli(*command, "--input", str(blob_csv),
                       "--out", str(tmp_path / "out")) == 1
        assert "FactorizationFailure: at quadrature node t=" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


def test_magfn_matches_library(blob_csv, tmp_path, capsys):
    assert run_cli("magfn", "--input", str(blob_csv), "--scales", "0.5,1,2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,magnitude"
    cloud = PointCloud.from_csv(blob_csv)
    mags = [float(line.split(",")[1]) for line in lines[1:]]
    for t, got in zip((0.5, 1.0, 2.0), mags):
        assert got == pytest.approx(weights_at_scale(cloud, t).magnitude, abs=1e-15)


def test_hull_approx_epsilon_zero_equals_hull(blob_csv, tmp_path):
    hull_out = tmp_path / "hull.json"
    approx_out = tmp_path / "approx.json"
    assert run_cli("hull", "--input", str(blob_csv), "--out", str(hull_out)) == 0
    assert run_cli("hull-approx", "--input", str(blob_csv), "--epsilon", "0",
                   "--out", str(approx_out)) == 0
    full = json.loads(hull_out.read_text())
    approx = json.loads(approx_out.read_text())
    assert approx["approxHull"]["volume"] == full["volume"]
    assert approx["removedIndices"] == []


def test_hull_off_export(blob_csv, tmp_path):
    off = tmp_path / "hull.off"
    assert run_cli("hull", "--input", str(blob_csv), "--off", str(off)) == 0
    assert off.read_text().startswith("OFF\n")


def test_threshold_convention_flag(blob_csv, tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("hull-approx", "--input", str(blob_csv), "--epsilon", "2",
                   "--threshold-convention", "paper", "--out", str(out)) == 0
    assert json.loads(out.read_text())["thresholdConvention"] == "paper"


def test_experiments_subcommand(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "dims": [2], "trialsPerDim": 2, "pointsPerTrial": 40,
        "seeds": [0, 1], "quadratureOrder": 16,
    }))
    out_dir = tmp_path / "results"
    assert run_cli("experiments", "table1", "--config", str(config),
                   "--out", str(out_dir)) == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "trials.jsonl").exists()
    assert (out_dir / "curves.npz").exists()
    # curves after table1 renders from its store; the files match a cold run.
    cold_dir = tmp_path / "cold"
    for out in (out_dir, cold_dir):
        assert run_cli("experiments", "curves", "--config", str(config),
                       "--out", str(out)) == 0
    warm = {p.name: p.read_bytes() for p in (out_dir / "curves").iterdir()}
    cold = {p.name: p.read_bytes() for p in (cold_dir / "curves").iterdir()}
    assert len(warm) == 4 and warm == cold


def test_every_csv_ends_lines_with_a_bare_newline(blob_csv, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "dims": [2], "trialsPerDim": 1, "pointsPerTrial": 40,
        "seeds": [0], "quadratureOrder": 16,
    }))
    out_dir = tmp_path / "results"
    for args in [
        ("weights", "--input", str(blob_csv), "--out", str(tmp_path / "w.csv")),
        ("moments", "--input", str(blob_csv), "--order", "16",
         "--out", str(tmp_path / "m.csv")),
        ("magfn", "--input", str(blob_csv), "--scales", "0.5,1",
         "--out", str(tmp_path / "f.csv")),
        ("experiments", "table1", "--config", str(config), "--out", str(out_dir)),
        ("experiments", "curves", "--config", str(config), "--out", str(out_dir)),
    ]:
        assert run_cli(*args) == 0
    written = [blob_csv, tmp_path / "w.csv", tmp_path / "m.csv", tmp_path / "f.csv",
               out_dir / "summary.csv", out_dir / "curves" / "dim2_seed0.csv"]
    for path in written:  # blob_csv is datagen's
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name


def test_unknown_config_key_exits_two(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"dims": [2], "trialsPerDims": 2}))
    assert run_cli("experiments", "table1", "--config", str(config),
                   "--out", str(tmp_path / "results")) == 2
    assert "trialsPerDims" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        pytest.param({"pointsPerTrial": 0}, id="no-points"),
        pytest.param({"dims": [0]}, id="dim-0"),
        pytest.param({"datasetSpec": {"kind": "spiral"}}, id="unknown-kind"),
        pytest.param({"dims": [3], "datasetSpec": {"kind": "annulus"}}, id="annulus-3d"),
        pytest.param({"quadratureOrder": 0}, id="order-0"),
        pytest.param(
            {"datasetSpec": {"kind": "gaussian-blobs", "params": {"sigma": [1]}}},
            id="sigma-list",
        ),
        pytest.param({"pointsPerTrial": 20.5}, id="fractional-points"),
        pytest.param({"seeds": [0.5]}, id="fractional-seed"),
    ],
)
def test_malformed_experiment_config_exits_two(tmp_path, config):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"trialsPerDim": 1, "pointsPerTrial": 20, **config}))
    for experiment in ("table1", "curves"):
        assert run_cli("experiments", experiment, "--config", str(path),
                       "--out", str(tmp_path / "results")) == 2
    assert not (tmp_path / "results").exists()


def test_missing_seed_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "magmoments.cli", "datagen", "--kind", "blobs",
         "--n", "5", "--dim", "2", "--out", "/tmp/x.csv"],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "param, name",
    [("center_coords=[0,0]", "center_coords"), ("center_range=5", "center_range")],
)
def test_malformed_blob_params_exit_two(tmp_path, capsys, param, name):
    out = tmp_path / "pts.csv"
    assert run_cli("datagen", "--kind", "blobs", "--n", "10", "--seed", "1",
                   "--out", str(out), "--param", param) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, param",
    [
        ("annulus", "inner={}"),
        ("annulus", "outer=[2]"),
        ("square", "side=[1]"),
        ("moons", 'noise={"a": 1}'),
        ("blobs", "sigma=[1]"),
        ("blobs", "centers={}"),
        ("blobs", "center_range=[[0], 1]"),
        ("blobs", "center_coords={}"),
    ],
)
def test_non_scalar_dataset_params_exit_two(tmp_path, capsys, kind, param):
    out = tmp_path / "pts.csv"
    assert run_cli("datagen", "--kind", kind, "--n", "10", "--seed", "1",
                   "--out", str(out), "--param", param) == 2
    assert param.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, param",
    [
        ("blobs", "centers=2.5"),
        ("blobs", "centers=true"),
        ("blobs", "sigma=true"),
        ("blobs", "center_range=[3,-3]"),
        ("blobs", "center_range=[false,3]"),
        ("annulus", "inner=false"),
        ("square", "side=true"),
        ("moons", "noise=false"),
    ],
)
def test_boolean_fractional_or_reversed_params_exit_two(tmp_path, capsys, kind, param):
    out = tmp_path / "pts.csv"
    assert run_cli("datagen", "--kind", kind, "--n", "10", "--seed", "1",
                   "--out", str(out), "--param", param) == 2
    assert param.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_centers_give_the_same_cloud(tmp_path):
    outs = [tmp_path / "int.csv", tmp_path / "float.csv"]
    for out, centers in zip(outs, ("centers=2", "centers=2.0")):
        assert run_cli("datagen", "--kind", "blobs", "--n", "30", "--seed", "4",
                       "--out", str(out), "--param", centers) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_numeric_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "dup.csv"
    bad.write_text("x0,x1\n0,0\n0,0\n1,1\n")
    assert run_cli("weights", "--input", str(bad), "--t", "1") == 1
    assert "DuplicatePoints" in capsys.readouterr().err


def test_validation_failure_exits_two(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run_cli("weights", "--input", str(missing), "--t", "1") == 2
    # --threads was removed with the node thread pool: a usage error.
    for command in (["moments"], ["hull-approx", "--epsilon", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "--input", str(missing), "--threads", "2",
                    "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
