import dataclasses
import json
import multiprocessing
import os
import warnings

import pytest

import magmoments
from magmoments import experiments, moments
from magmoments.errors import FactorizationFailure, InvalidSpec
from magmoments.experiments import (
    CURVE_STORE,
    ExperimentConfig,
    run_prefix_curves,
    run_table1,
    run_trial,
    trial_seed,
)
from magmoments.parallel import worker_count


def _tiny_config(**overrides):
    base = dict(
        dims=(2,),
        trials_per_dim=3,
        points_per_trial=60,
        seeds=(0, 1, 2),
        quadrature_order=32,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_json_round_trip():
    cfg = _tiny_config()
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_trial_seed_is_deterministic():
    assert trial_seed(3, 2) == trial_seed(3, 2)
    assert trial_seed(3, 2) != trial_seed(3, 3)
    assert trial_seed(4, 2) != trial_seed(3, 2)


def test_run_trial_record():
    cfg = _tiny_config()
    rec = run_trial(cfg, 2, 0)
    assert rec.dim == 2 and rec.seed == 0
    assert 1 <= rec.i90 <= cfg.points_per_trial
    assert rec.hull_vertex_count >= 3
    assert rec.full_volume > 0
    assert rec.prefix_curve[-1][0] == cfg.points_per_trial


def test_table1_outputs(tmp_path):
    cfg = _tiny_config()
    rows = run_table1(cfg, str(tmp_path))
    assert len(rows) == 1
    dim, mean_i90, std_i90, mean_v, std_v = rows[0]
    assert dim == 2 and mean_i90 >= 1 and mean_v >= 3
    summary = (tmp_path / "summary.csv").read_text()
    assert summary.startswith("dim,mean_i90,std_i90,mean_vertices,std_vertices")
    records = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
    assert len(records) == 3
    assert {r["seed"] for r in records} == {0, 1, 2}


def test_table1_reruns_byte_identical(tmp_path):
    cfg = _tiny_config()
    run_table1(cfg, str(tmp_path / "a"))
    run_table1(cfg, str(tmp_path / "b"))
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()
    # Per-trial records match except the wall-clock measurement.
    for pa, pb in zip(
        (tmp_path / "a" / "trials.jsonl").read_text().splitlines(),
        (tmp_path / "b" / "trials.jsonl").read_text().splitlines(),
    ):
        ra, rb = json.loads(pa), json.loads(pb)
        ra.pop("wallTime"), rb.pop("wallTime")
        assert ra == rb


def test_prefix_curves_outputs(tmp_path):
    cfg = _tiny_config(trials_per_dim=1, seeds=(0,))
    written = run_prefix_curves(cfg, str(tmp_path))
    csvs = [p for p in written if p.endswith(".csv")]
    svgs = [p for p in written if p.endswith(".svg")]
    assert len(csvs) == 1 and len(svgs) == 1
    lines = open(csvs[0]).read().splitlines()
    assert lines[0] == "i,vol,mag"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == cfg.points_per_trial
    vols = [float(r[1]) for r in rows]
    mags = [float(r[2]) for r in rows]
    # Final row is the full set; both curves are nondecreasing.
    assert int(rows[-1][0]) == cfg.points_per_trial
    assert all(a <= b + 1e-9 for a, b in zip(vols, vols[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(mags, mags[1:]))
    svg = open(svgs[0]).read()
    assert svg.count("<polyline") == 2
    assert 'stroke="blue"' in svg and 'stroke="orange"' in svg
    assert "stroke-dasharray" in svg  # the 90% rule


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(volume_fraction=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(trials_per_dim=2, seeds=(1,))


@pytest.mark.parametrize(
    "raw, error",
    [
        pytest.param('{"pointsPerTrial": 0}', InvalidSpec, id="no-points"),
        pytest.param('{"dims": [2, 0]}', InvalidSpec, id="dim-0"),
        pytest.param('{"datasetSpec": {"kind": "spiral"}}', InvalidSpec, id="unknown-kind"),
        pytest.param(
            '{"dims": [2, 3], "datasetSpec": {"kind": "annulus"}}', InvalidSpec,
            id="annulus-3d",
        ),
        pytest.param('{"quadratureOrder": 0}', ValueError, id="order-0"),
        pytest.param('{"datasetSpec": "blobs"}', ValueError, id="dataset-not-object"),
        pytest.param(
            '{"datasetSpec": {"kind": "gaussian-blobs", "params": {"sigma": [1]}}}',
            InvalidSpec, id="sigma-list",
        ),
        pytest.param(
            '{"datasetSpec": {"kind": "square", "params": [1]}}', InvalidSpec,
            id="params-not-object",
        ),
        pytest.param(
            '{"trialsPerDim": 2, "seeds": [1.5, 1]}', ValueError, id="fractional-seed"
        ),
        pytest.param('{"trialsPerDim": 2, "seeds": [1, 1]}', ValueError, id="repeated-seed"),
        pytest.param('{"trialsPerDim": 2, "seeds": [0, -1]}', ValueError, id="negative-seed"),
        pytest.param('{"trialsPerDim": 1, "seeds": [true]}', ValueError, id="boolean-seed"),
        pytest.param('{"trialsPerDim": true}', ValueError, id="boolean-trials"),
        pytest.param('{"trialsPerDim": 2.5}', ValueError, id="fractional-trials"),
        pytest.param('{"quadratureOrder": 32.5}', ValueError, id="fractional-order"),
        pytest.param('{"pointsPerTrial": 30.5}', ValueError, id="fractional-points"),
    ],
)
def test_config_rejects_malformed_trials_when_built(raw, error):
    # Each of these once ran every trial to a warning and an empty table,
    # crashed with a TypeError, or, for seeds [1.5, 1], ran seed 1 twice and
    # averaged both runs into the table.
    with pytest.raises(error):
        ExperimentConfig.from_json(raw)


def test_config_takes_integral_floats_as_ints():
    cfg = _tiny_config(points_per_trial=60.0, trials_per_dim=2.0, seeds=(0.0, 1))
    assert (cfg.points_per_trial, cfg.trials_per_dim, cfg.seeds) == (60, 2, (0, 1))
    assert run_table1(cfg) == run_table1(_tiny_config(trials_per_dim=2, seeds=(0, 1)))


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="trialsPerDims"):
        ExperimentConfig.from_json('{"dims": [2], "trialsPerDims": 5}')
    with pytest.raises(ValueError, match="object"):
        ExperimentConfig.from_json("[2, 3]")
    # Configs written while the node thread pool existed fail loudly.
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig.from_json('{"threads": 2}')


def test_table1_and_curves_in_one_dimension(tmp_path):
    cfg = _tiny_config(dims=(1,), trials_per_dim=2, seeds=(0, 1))
    rows = run_table1(cfg, str(tmp_path))
    assert [row[0] for row in rows] == [1]
    records = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
    assert [r["hullVertexCount"] for r in records] == [2, 2]  # no failure lines
    assert len(run_prefix_curves(cfg, str(tmp_path))) == 4


def test_run_trial_counts_vertices_without_an_incremental_hull(monkeypatch):
    cfg = _tiny_config()
    want = run_trial(cfg, 2, 0).hull_vertex_count
    real = experiments.moment_prefix_curve

    def no_hull(cloud, moments):
        return real(cloud, moments)[0], None

    monkeypatch.setattr(experiments, "moment_prefix_curve", no_hull)
    assert run_trial(cfg, 2, 0).hull_vertex_count == want


def _store_config():
    return _tiny_config(dims=(2, 3), trials_per_dim=2, seeds=(0, 1))


def _curve_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted((out_dir / "curves").iterdir())}


@pytest.fixture(scope="module")
def cold_curves(tmp_path_factory):
    """Curve files of a curves run in an empty directory."""
    out = tmp_path_factory.mktemp("cold")
    run_prefix_curves(_store_config(), str(out))
    return _curve_files(out)


class _CallLog:
    """(dim, seed) of every run_trial call, in this process or a forked
    worker: one line per call, with the calling process id, appended to a
    file.

    Calls in a pool's workers overlap in time, so the log reads back in
    (dim, seed) order, which is the in-process call order of the configs
    these tests use.
    """

    def __init__(self, path):
        self.path = path
        self.clear()

    def append(self, dim, base_seed):
        with open(self.path, "a") as fh:
            fh.write(f"{dim} {base_seed} {os.getpid()}\n")

    def clear(self):
        self.path.write_text("")

    def _lines(self):
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]

    def calls(self):
        return sorted(line[:2] for line in self._lines())

    def pids(self):
        return {line[2] for line in self._lines()}

    def __eq__(self, other):
        return self.calls() == list(other)

    def __repr__(self):
        return repr(self.calls())


@pytest.fixture
def trial_calls(tmp_path, monkeypatch):
    """(dim, seed) of every run_trial call that run_prefix_curves makes."""
    calls = _CallLog(tmp_path / "trial_calls.log")
    real = experiments.run_trial

    def counted(config, dim, base_seed):
        calls.append(dim, base_seed)
        return real(config, dim, base_seed)

    monkeypatch.setattr(experiments, "run_trial", counted)
    return calls


@pytest.fixture
def in_process(set_workers):
    set_workers(1)


def _fail(*args):
    raise AssertionError("run_trial called on a warm directory")


def test_curves_from_store_match_fresh_trials(tmp_path, monkeypatch, cold_curves):
    cfg = _store_config()
    run_table1(cfg, str(tmp_path))
    assert (tmp_path / CURVE_STORE).exists()
    monkeypatch.setattr(experiments, "run_trial", _fail)
    written = run_prefix_curves(cfg, str(tmp_path))
    assert len(written) == 2 * len(cfg.dims) * len(cfg.seeds)
    assert _curve_files(tmp_path) == cold_curves


def _store_for(**overrides):
    def write(cfg, out, monkeypatch):
        run_table1(dataclasses.replace(cfg, **overrides), str(out))

    return write


def _store_of_other_version(cfg, out, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(magmoments, "__version__", magmoments.__version__ + "+other")
        run_table1(cfg, str(out))


def _truncated_store(cfg, out, monkeypatch):
    run_table1(cfg, str(out))
    data = (out / CURVE_STORE).read_bytes()
    (out / CURVE_STORE).write_bytes(data[: len(data) // 2])


def _garbage_store(cfg, out, monkeypatch):
    (out / CURVE_STORE).write_bytes(b"not a curve store\n" * 64)


_STORE_WRITERS = pytest.mark.parametrize(
    "write_store",
    [
        pytest.param(_store_for(trials_per_dim=1, seeds=(1,)), id="other-seeds"),
        pytest.param(_store_for(points_per_trial=50), id="other-points"),
        pytest.param(_store_for(quadrature_order=16), id="other-order"),
        pytest.param(_store_of_other_version, id="other-version"),
        pytest.param(_truncated_store, id="truncated"),
        pytest.param(_garbage_store, id="garbage"),
    ],
)


@pytest.mark.usefixtures("in_process")
@_STORE_WRITERS
def test_mismatched_curve_store_is_ignored(
    tmp_path, monkeypatch, cold_curves, trial_calls, write_store
):
    cfg = _store_config()
    write_store(cfg, tmp_path, monkeypatch)
    trial_calls.clear()
    run_prefix_curves(cfg, str(tmp_path))
    assert trial_calls == [(d, s) for d in cfg.dims for s in cfg.seeds]
    assert _curve_files(tmp_path) == cold_curves


@_STORE_WRITERS
def test_mismatched_curve_store_is_ignored_in_a_pool(
    tmp_path, monkeypatch, cold_curves, trial_calls, write_store, set_workers
):
    set_workers(2)
    test_mismatched_curve_store_is_ignored(
        tmp_path, monkeypatch, cold_curves, trial_calls, write_store
    )
    assert os.getpid() not in trial_calls.pids()  # the trials ran in workers


@pytest.mark.usefixtures("in_process")
def test_failed_trial_is_not_stored(tmp_path, monkeypatch, cold_curves, trial_calls):
    cfg = _store_config()
    real = experiments.run_trial

    def fails_on_dim3_seed1(config, dim, base_seed):
        if (dim, base_seed) == (3, 1):
            raise FactorizationFailure("injected")
        return real(config, dim, base_seed)

    with monkeypatch.context() as m:
        m.setattr(experiments, "run_trial", fails_on_dim3_seed1)
        with pytest.warns(UserWarning, match="dim=3 seed=1 failed"):
            run_table1(cfg, str(tmp_path))
        # The store lacks the failed trial, so curves reruns it and fails again.
        with pytest.raises(FactorizationFailure):
            run_prefix_curves(cfg, str(tmp_path))
    trial_calls.clear()
    run_prefix_curves(cfg, str(tmp_path))
    assert trial_calls == [(3, 1)]
    assert _curve_files(tmp_path) == cold_curves


def test_failed_trial_is_not_stored_in_a_pool(
    tmp_path, monkeypatch, cold_curves, trial_calls, set_workers
):
    set_workers(2)
    test_failed_trial_is_not_stored(tmp_path, monkeypatch, cold_curves, trial_calls)


def _host_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outputs(out_dir):
    """Every file under out_dir, trials.jsonl without its wall times."""
    files = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = str(path.relative_to(out_dir))
        files[name] = path.read_bytes()
        if path.name == "trials.jsonl":
            files[name] = [json.loads(line) for line in files[name].splitlines()]
            for record in files[name]:
                record.pop("wallTime", None)
    return files


@pytest.mark.skipif(_host_cores() < 2, reason="a trial pool needs at least 2 cores")
def test_pool_and_in_process_outputs_are_byte_identical(tmp_path, monkeypatch):
    cfg = _store_config()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    outputs = {}
    for blas_threads in (None, "1"):
        if blas_threads:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        pooled = worker_count(len(cfg.dims) * len(cfg.seeds)) >= 2
        assert pooled == (blas_threads == "1")
        cold, warm = tmp_path / f"cold-{pooled}", tmp_path / f"warm-{pooled}"
        run_prefix_curves(cfg, str(cold))
        run_table1(cfg, str(warm))
        run_prefix_curves(cfg, str(warm))
        outputs[pooled] = (_outputs(cold), _outputs(warm))
    assert outputs[True] == outputs[False]
    assert len(outputs[True][1]) == 3 + 2 * len(cfg.dims) * len(cfg.seeds)


def _fails_on_dim3_seed0(real):
    def run_trial(config, dim, base_seed):
        if (dim, base_seed) == (3, 0):
            raise FactorizationFailure("injected")
        return real(config, dim, base_seed)

    return run_trial


def test_trial_failing_in_a_worker_matches_in_process(tmp_path, monkeypatch, set_workers):
    cfg = _store_config()
    monkeypatch.setattr(experiments, "run_trial", _fails_on_dim3_seed0(run_trial))
    seen = {}
    for workers in (1, 2):
        set_workers(workers)
        out = tmp_path / f"workers{workers}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_table1(cfg, str(out / "table1"))
        with pytest.raises(FactorizationFailure, match="injected"):
            run_prefix_curves(cfg, str(out / "curves"))
        seen[workers] = ([str(w.message) for w in caught], _outputs(out))
    assert seen[1] == seen[2]
    messages, files = seen[2]
    assert messages == ["trial dim=3 seed=0 failed: injected"]
    assert files["table1/trials.jsonl"][-1] == {
        "failure": {"dim": 3, "seed": 0, "error": "injected"}
    }
    # curves wrote the dim-2 trials, then raised at (3, 0).
    assert sorted(name for name in files if name.startswith("curves/")) == [
        f"curves/curves/dim2_seed{s}.{ext}" for s in (0, 1) for ext in ("csv", "svg")
    ]


def test_trial_workers_solve_their_nodes_in_line(tmp_path, monkeypatch, set_workers):
    # Pools do not nest: every node of a trial is solved in the one worker
    # process that runs the trial, though its cloud is above the node
    # pool's size floor.
    set_workers(2)
    node_calls = _CallLog(tmp_path / "node_calls.log")
    trial = []
    real_trial, real_weights = experiments.run_trial, moments.weights_at_scale

    def run_trial(config, dim, base_seed):
        trial[:] = [dim, base_seed]
        return real_trial(config, dim, base_seed)

    def weights_at_scale(cloud, t):
        node_calls.append(*trial)
        return real_weights(cloud, t)

    monkeypatch.setattr(experiments, "run_trial", run_trial)
    monkeypatch.setattr(moments, "weights_at_scale", weights_at_scale)
    cfg = _store_config()
    assert cfg.points_per_trial >= moments.POOL_FLOOR
    run_table1(cfg)
    pids = {}
    for dim, base_seed, pid in node_calls._lines():
        pids.setdefault((dim, base_seed), set()).add(pid)
    assert sorted(pids) == [(d, s) for d in cfg.dims for s in cfg.seeds]
    assert all(len(trial_pids) == 1 for trial_pids in pids.values())
    assert os.getpid() not in set().union(*pids.values())
    assert multiprocessing.active_children() == []
