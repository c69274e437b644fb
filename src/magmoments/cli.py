"""Command-line entry point.

Every subcommand is a thin adapter over the library: it parses flags,
calls the corresponding module, and writes the result atomically
(temp-then-rename). Exit status 0 on success, 2 on validation errors,
1 on numeric failure (the module error is surfaced verbatim).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import datagen, experiments, hull_filter
from .errors import InvalidSpec, MagnitudeError
from .geometry import FLOAT_FMT, PointCloud, atomic_write
from .hull_exact import convex_hull, to_off
from .magnitude import magnitude_function, weights_at_scale
from .moments import gauss_laguerre_rule, zeroth_moments


def _write_or_print(path, text: str) -> None:
    if path:
        atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _load_cloud(path: str) -> PointCloud:
    if path.endswith(".json"):
        with open(path) as fh:
            return PointCloud.from_json(fh.read())
    return PointCloud.from_csv(path)


def _fmt_row(values) -> str:
    return ",".join(FLOAT_FMT % v for v in values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magmoments",
        description="Magnitude, per-point moments, and moment-filtered convex hulls "
        "of finite Euclidean point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic dataset")
    p.add_argument("--kind", required=True,
                   choices=["annulus", "square", "moons", "noisy-moons", "blobs",
                            "gaussian-blobs"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, required=True,
                   help="64-bit PRNG seed (required: no hidden entropy)")
    p.add_argument("--out", required=True)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE", help="kind-specific parameter")

    p = sub.add_parser("weights", help="per-point weights and magnitude at scale t")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("moments", help="per-point zeroth moments")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--t", type=float, default=1.0,
                   help="scale for the exported weight column")
    p.add_argument("--out")

    p = sub.add_parser("magfn", help="magnitude function t -> |tX|")
    p.add_argument("--input", required=True)
    p.add_argument("--scales", required=True,
                   help="comma-separated scales, e.g. 0.1,1,10")
    p.add_argument("--out")

    p = sub.add_parser("hull", help="exact convex hull")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--off", help="write OFF-format hull here")

    p = sub.add_parser("hull-approx", help="moment-filtered approximate hull")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True,
                   help="error budget; 'inf' removes all but the top d+1 moments")
    p.add_argument("--threshold-convention", choices=["derived", "paper"],
                   default="derived")
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--out", required=True)

    p = sub.add_parser("experiments", help="run the experiment harness")
    exp_sub = p.add_subparsers(dest="experiment", required=True)
    for name in ("table1", "curves"):
        q = exp_sub.add_parser(name)
        q.add_argument("--config", help="JSON config (ExperimentConfig fields)")
        q.add_argument("--out", required=True, help="results directory")
        q.add_argument("--seed", type=int,
                       help="base seed when no config is given")
    return parser


def _cmd_datagen(args) -> int:
    params = {}
    for item in args.param:
        key, _, value = item.partition("=")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    kind = {"moons": "noisy-moons", "blobs": "gaussian-blobs"}.get(args.kind, args.kind)
    spec = datagen.DatasetSpec(kind, args.n, args.dim, args.seed, params)
    datagen.generate(spec).to_csv(args.out)
    return 0


def _cmd_weights(args) -> int:
    cloud = _load_cloud(args.input)
    wv = weights_at_scale(cloud, args.t)
    if args.format == "json":
        text = json.dumps(
            {
                "t": args.t,
                "magnitude": wv.magnitude,
                "weights": [float(v) for v in wv.weights],
            }
        ) + "\n"
    else:
        header = [f"x{i}" for i in range(cloud.dim)] + ["w"]
        lines = [",".join(header)]
        lines += [
            _fmt_row(list(cloud.points[i]) + [wv.weights[i]])
            for i in range(cloud.size)
        ]
        lines.append(f"# magnitude,{FLOAT_FMT % wv.magnitude}")
        text = "\n".join(lines) + "\n"
    _write_or_print(args.out, text)
    return 0


def _cmd_moments(args) -> int:
    cloud = _load_cloud(args.input)
    wv = weights_at_scale(cloud, args.t)  # rejects a bad --t before the node loop
    rule = gauss_laguerre_rule(args.order)
    mv = zeroth_moments(cloud, rule, estimate_error=False)
    header = [f"x{i}" for i in range(cloud.dim)] + ["w", "mu0", "log1p_mu0"]
    lines = [",".join(header)]
    log_mu = np.log1p(mv.mu0)
    for i in range(cloud.size):
        lines.append(
            _fmt_row(list(cloud.points[i]) + [wv.weights[i], mv.mu0[i], log_mu[i]])
        )
    _write_or_print(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_magfn(args) -> int:
    cloud = _load_cloud(args.input)
    scales = [float(s) for s in args.scales.split(",") if s]
    pairs = magnitude_function(cloud, scales)
    lines = ["t,magnitude"] + [_fmt_row(p) for p in pairs]
    _write_or_print(args.out, "\n".join(lines) + "\n")
    return 0


def _hull_report(hull) -> dict:
    return {
        "dim": hull.dim,
        "degenerate": hull.degenerate,
        "volume": hull.volume,
        "vertexCount": hull.vertex_count,
        "vertexIndices": list(hull.vertex_indices),
    }


def _cmd_hull(args) -> int:
    cloud = _load_cloud(args.input)
    hull = convex_hull(cloud)
    report = _hull_report(hull)
    # 12 significant digits for the printed volume.
    sys.stdout.write("volume %.12g\n" % hull.volume)
    if args.off:
        atomic_write(args.off, to_off(hull))
    if args.out:
        atomic_write(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_hull_approx(args) -> int:
    cloud = _load_cloud(args.input)
    epsilon = float(args.epsilon)
    rule = gauss_laguerre_rule(args.order)
    hull, report = hull_filter.approximate_hull(
        cloud, epsilon, rule, convention=args.threshold_convention
    )
    full = convex_hull(cloud)
    payload = {
        "epsilon": epsilon,
        "thresholdConvention": report.convention,
        "magnitudeAtOne": report.magnitude_at_one,
        "keptIndices": list(report.kept_indices),
        "removedIndices": list(report.removed_indices),
        "approxHull": _hull_report(hull),
        "fullHull": _hull_report(full),
    }
    atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_experiments(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = experiments.ExperimentConfig.from_json(fh.read())
    else:
        if args.seed is None:
            raise ValueError("experiments need --config or an explicit --seed")
        config = experiments.ExperimentConfig(
            seeds=tuple(range(args.seed, args.seed + 20))
        )
    if args.experiment == "table1":
        experiments.run_table1(config, args.out)
    else:
        experiments.run_prefix_curves(config, args.out)
    return 0


_COMMANDS = {
    "datagen": _cmd_datagen,
    "weights": _cmd_weights,
    "moments": _cmd_moments,
    "magfn": _cmd_magfn,
    "hull": _cmd_hull,
    "hull-approx": _cmd_hull_approx,
    "experiments": _cmd_experiments,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MagnitudeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
