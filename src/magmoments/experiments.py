"""Experiment harness: per-dimension summary statistics and prefix curves.

For each (dimension, trial) a Gaussian-blob cloud is generated, its
zeroth moments computed, and the prefix curve of hull volume and
magnitude recorded for points taken in descending moment order. I90 is
the smallest prefix size whose hull reaches the configured fraction
(default 90%) of the full hull volume.

Every trial is fully determined by (dim, trial seed): rerunning an
identical config at a given BLAS thread setting reproduces every file
byte for byte, except the ``wallTime`` of each ``trials.jsonl`` line.

Given an output directory, ``run_table1`` also stores every successful
trial's prefix curve in ``curves.npz``, keyed by the config and the
package version. ``run_prefix_curves`` renders from that store when the
key matches and reruns only the trials it lacks; the output is
byte-identical either way.

Trials are independent, so both run them on a pool of forked worker
processes when the BLAS thread setting leaves at least two cores free
(``parallel.worker_count``, capped by the trial count); each trial then
solves its quadrature nodes in-line. With BLAS unpinned (OpenBLAS then
takes every core) trials run in-process, one after another. Records,
warnings, failure lines and files are the same either way.
"""

from __future__ import annotations

import functools
import io
import json
import os
import time
import warnings
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .datagen import DatasetSpec, _number, generate
from .errors import InvalidSpec, MagnitudeError
from .geometry import atomic_write, csv_text
from .hull_exact import convex_hull
from .hull_filter import moment_prefix_curve
from .moments import gauss_laguerre_rule, zeroth_moments
from .parallel import ordered_map, worker_count

#: Prefix-curve store that table1 writes and curves reads, in the out dir.
CURVE_STORE = "curves.npz"

#: JSON key of each ExperimentConfig field, in to_json order.
_JSON_KEYS = {
    "dims": "dims",
    "trials_per_dim": "trialsPerDim",
    "points_per_trial": "pointsPerTrial",
    "dataset": "datasetSpec",
    "quadrature_order": "quadratureOrder",
    "volume_fraction": "volumeFraction",
    "seeds": "seeds",
}


@dataclass(frozen=True)
class ExperimentConfig:
    dims: tuple = (2, 3, 4, 5)
    trials_per_dim: int = 20
    points_per_trial: int = 1000
    dataset: dict = field(
        default_factory=lambda: {"kind": "gaussian-blobs", "params": {}}
    )
    quadrature_order: int = 64
    volume_fraction: float = 0.9
    seeds: tuple = ()

    def __post_init__(self):
        if not 0 < self.volume_fraction < 1:
            raise ValueError("volume_fraction must be in (0, 1)")
        for name in ("trials_per_dim", "points_per_trial", "quadrature_order"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.trials_per_dim < 1:
            raise ValueError("trials_per_dim must be >= 1")
        if self.quadrature_order < 1:
            raise ValueError("quadrature_order must be >= 1")
        if not isinstance(self.dataset, dict):
            raise ValueError("dataset must be an object with 'kind' and 'params'")
        seeds = tuple(_integer("seeds", s) for s in self.seeds)
        seeds = seeds or tuple(range(self.trials_per_dim))
        if len(seeds) != self.trials_per_dim:
            raise ValueError("seeds must have one entry per trial")
        if min(seeds) < 0 or len(set(seeds)) < len(seeds):
            raise ValueError(f"seeds must be distinct and >= 0, got {list(seeds)}")
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "dims", tuple(_integer("dims", d) for d in self.dims))
        for dim in self.dims:  # a bad spec raises before any trial runs
            self._dataset_spec(dim, 0)

    def _dataset_spec(self, dim: int, seed: int) -> DatasetSpec:
        return DatasetSpec(
            kind=self.dataset.get("kind", "gaussian-blobs"),
            count=self.points_per_trial,
            dim=dim,
            seed=seed,
            params=self.dataset.get("params", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Config from JSON; absent keys take the defaults, unknown keys raise."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("experiment config must be a JSON object")
        fields = {key: name for name, key in _JSON_KEYS.items()}
        unknown = sorted(set(raw) - set(fields))
        if unknown:
            raise ValueError(f"unknown experiment config key(s): {', '.join(unknown)}")
        return cls(**{fields[key]: value for key, value in raw.items()})

    def to_json(self) -> str:
        return json.dumps(
            {key: getattr(self, name) for name, key in _JSON_KEYS.items()}, indent=2
        )


def _integer(name: str, value) -> int:
    """``value`` by datagen's integer rule (1000.0 is 1000; 1.5 and True raise)."""
    try:
        return _number(name, value, int)
    except InvalidSpec as exc:
        raise ValueError(str(exc)) from None


@dataclass(frozen=True)
class TrialRecord:
    dim: int
    seed: int
    i90: int
    hull_vertex_count: int
    prefix_curve: tuple
    wall_time: float

    @property
    def full_volume(self) -> float:
        return self.prefix_curve[-1][1]


def trial_seed(base: int, dim: int) -> int:
    """Stream-splitting rule: one PCG64 seed per (trial seed, dim) pair."""
    return int(np.random.SeedSequence(entropy=[int(base), int(dim)]).generate_state(1)[0])


def run_trial(config: ExperimentConfig, dim: int, base_seed: int) -> TrialRecord:
    start = time.perf_counter()
    cloud = generate(config._dataset_spec(dim, trial_seed(base_seed, dim)))
    rule = gauss_laguerre_rule(config.quadrature_order)
    moments = zeroth_moments(cloud, rule, estimate_error=False)
    curve, vertex_count = moment_prefix_curve(cloud, moments)
    target = config.volume_fraction * curve[-1][1]
    i90 = next(i for i, vol, _ in curve if vol >= target)
    if vertex_count is None:  # d = 1, or no prefix was full-dimensional
        vertex_count = convex_hull(cloud).vertex_count
    return TrialRecord(
        dim=dim,
        seed=base_seed,
        i90=i90,
        hull_vertex_count=vertex_count,
        prefix_curve=tuple(curve),
        wall_time=time.perf_counter() - start,
    )


def _trial_outcome(config: ExperimentConfig, trial: tuple):
    """The (dim, seed) trial's record, or the MagnitudeError it raised."""
    dim, base_seed = trial
    try:
        return run_trial(config, dim, base_seed)
    except MagnitudeError as exc:
        return exc


def _run_trials(config: ExperimentConfig, trials: list[tuple]) -> list:
    """``_trial_outcome`` of each (dim, seed), in input order.

    A pool of forked workers runs them when ``worker_count`` allows two
    or more; otherwise they run here, one after another. Any exception
    other than a trial's MagnitudeError propagates.

    A pool's workers inherit scipy from this process, which imports it
    just before the fork. Imported in each worker after the fork, it
    raised their peak RSS from 73.6 to 86.1 MB (paper configuration, one
    trial per dimension, two workers).
    """
    outcome = functools.partial(_trial_outcome, config)
    workers = worker_count(len(trials))
    if workers > 1:
        import scipy.spatial  # noqa: F401  (also loads scipy.linalg, scipy.special)
    with ordered_map(outcome, trials, workers) as outcomes:
        return list(outcomes)


def run_table1(config: ExperimentConfig, out_dir=None) -> list[tuple]:
    """Summary rows (dim, mean I90, std I90, mean vertices, std vertices).

    Failed trials are excluded from the statistics with a warning; they
    are never silently dropped. When an output directory is given,
    per-trial records go to trials.jsonl and the prefix curves of the
    successful trials to the curve store.
    """
    records: list[TrialRecord] = []
    failures: list[dict] = []
    trials = [(dim, base_seed) for dim in config.dims for base_seed in config.seeds]
    for (dim, base_seed), outcome in zip(trials, _run_trials(config, trials)):
        if isinstance(outcome, TrialRecord):
            records.append(outcome)
        else:
            warnings.warn(f"trial dim={dim} seed={base_seed} failed: {outcome}")
            failures.append({"dim": dim, "seed": base_seed, "error": str(outcome)})
    records.sort(key=lambda r: (r.dim, r.seed))
    rows = []
    for dim in config.dims:
        sub = [r for r in records if r.dim == dim]
        if not sub:
            continue
        i90 = np.array([r.i90 for r in sub], dtype=float)
        verts = np.array([r.hull_vertex_count for r in sub], dtype=float)
        rows.append(
            (
                dim,
                float(i90.mean()),
                float(i90.std(ddof=1)) if len(sub) > 1 else 0.0,
                float(verts.mean()),
                float(verts.std(ddof=1)) if len(sub) > 1 else 0.0,
            )
        )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        header = ("dim", "mean_i90", "std_i90", "mean_vertices", "std_vertices")
        atomic_write(os.path.join(out_dir, "summary.csv"), csv_text(header, rows))
        lines = []
        for r in records:
            lines.append(
                json.dumps(
                    {
                        "dim": r.dim,
                        "seed": r.seed,
                        "I90": r.i90,
                        "hullVertexCount": r.hull_vertex_count,
                        "fullVolume": r.full_volume,
                        "wallTime": r.wall_time,
                    }
                )
            )
        for f in failures:
            lines.append(json.dumps({"failure": f}))
        atomic_write(os.path.join(out_dir, "trials.jsonl"), "\n".join(lines) + "\n")
        store = io.BytesIO()
        np.savez(
            store,
            key=np.array(_store_key(config)),
            **{
                f"dim{r.dim}_seed{r.seed}": np.array(r.prefix_curve, dtype=float)
                for r in records
            },
        )
        atomic_write(os.path.join(out_dir, CURVE_STORE), store.getvalue())
    return rows


def _store_key(config: ExperimentConfig) -> str:
    from . import __version__

    return config.to_json() + "\n" + __version__


def _stored_curves(config: ExperimentConfig, out_dir) -> dict:
    """Prefix curves from the out dir's curve store, by trial stem: (N, 3)
    arrays of rows (i, volume, magnitude).

    Empty when the store is missing, unreadable, or written for another
    config or package version.
    """
    try:
        with np.load(os.path.join(out_dir, CURVE_STORE)) as store:
            if str(store["key"]) != _store_key(config):
                return {}
            return {name: store[name] for name in store.files if name != "key"}
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        return {}


def run_prefix_curves(config: ExperimentConfig, out_dir) -> list[str]:
    """Per-trial prefix-curve CSVs and SVG plots with the 90% marker.

    Curves come from the curve store that ``run_table1`` left in out_dir
    when its key matches; trials it lacks are run afresh, all before the
    first file is written. A failed trial raises its error once the files
    of the trials before it are written.
    Returns the list of written file paths.
    """
    stored = _stored_curves(config, out_dir)
    missing = [
        (dim, base_seed)
        for dim in config.dims
        for base_seed in config.seeds
        if f"dim{dim}_seed{base_seed}" not in stored
    ]
    fresh = dict(zip(missing, _run_trials(config, missing)))
    curves_dir = os.path.join(out_dir, "curves")
    os.makedirs(curves_dir, exist_ok=True)
    written = []
    for dim in config.dims:
        for base_seed in config.seeds:
            stem = f"dim{dim}_seed{base_seed}"
            curve = stored.get(stem)
            if curve is None:
                outcome = fresh[(dim, base_seed)]
                if not isinstance(outcome, TrialRecord):
                    raise outcome
                curve = outcome.prefix_curve
            csv_path = os.path.join(curves_dir, stem + ".csv")
            atomic_write(csv_path, csv_text(("i", "vol", "mag"), curve))
            svg_path = os.path.join(curves_dir, stem + ".svg")
            atomic_write(svg_path, _curve_svg(curve, config.volume_fraction))
            written.extend([csv_path, svg_path])
    return written


def _curve_svg(curve, fraction) -> str:
    """Hand-emitted SVG: volume and magnitude polylines, a horizontal rule
    where the volume reaches the target fraction, and axis ticks."""
    width, height, margin = 640, 400, 40
    n = curve[-1][0]
    full_vol = curve[-1][1] or 1.0
    full_mag = curve[-1][2] or 1.0

    def x(i):
        return margin + (width - 2 * margin) * (i - 1) / max(n - 1, 1)

    def y(frac):
        return height - margin - (height - 2 * margin) * frac

    vol_pts = " ".join(f"{x(i):.2f},{y(v / full_vol):.2f}" for i, v, _ in curve)
    mag_pts = " ".join(f"{x(i):.2f},{y(m / full_mag):.2f}" for i, _, m in curve)
    rule_y = y(fraction)
    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        ticks.append(
            f'<line x1="{margin - 4}" y1="{y(frac):.2f}" x2="{margin}" '
            f'y2="{y(frac):.2f}" stroke="black"/>'
            f'<text x="4" y="{y(frac) + 4:.2f}" font-size="10">{frac:.2f}</text>'
        )
    for i in np.linspace(1, n, 5).astype(int):
        ticks.append(
            f'<line x1="{x(i):.2f}" y1="{height - margin}" x2="{x(i):.2f}" '
            f'y2="{height - margin + 4}" stroke="black"/>'
            f'<text x="{x(i) - 8:.2f}" y="{height - margin + 16}" font-size="10">{i}</text>'
        )
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<rect width="{width}" height="{height}" fill="white"/>
<polyline points="{vol_pts}" fill="none" stroke="blue" stroke-width="1.5"/>
<polyline points="{mag_pts}" fill="none" stroke="orange" stroke-width="1.5"/>
<line x1="{margin}" y1="{rule_y:.2f}" x2="{width - margin}" y2="{rule_y:.2f}" stroke="black" stroke-dasharray="4 3"/>
<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>
<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>
{''.join(ticks)}
</svg>
"""
