"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  The fit verdict is
reported in the JSON payload, never via the exit code, so pipelines read the
report instead of guessing from status.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from hellfit import bayes_threshold, mc_validate
from hellfit.criterion import (
    evaluate_fitness,
    ks_two_sample,
    pairwise_marginal_scan,
    pairwise_partitions,
)
from hellfit.dataset import load_dataset
from hellfit.divergence import generator_by_name
from hellfit.partition import PartitionSpec, build_moving_partition, tree_to_json


def _epsilon_arg(text):
    value = float(text)
    if not 0 < value < 0.5:
        raise argparse.ArgumentTypeError("epsilon must be in (0, 0.5)")
    return value


def _delta_arg(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("delta must be a finite value > 0")
    return value


def _fan_arg(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("branching values must be >= 2")
    return value


def _branching_arg(text):
    parts = [_fan_arg(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else parts


def _bounds_arg(text):
    out = []
    for pair in text.split(","):
        lo, hi = pair.split(":")
        out.append((float(lo), float(hi)))
    return out


def _positive_int_arg(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hellfit",
        description="Two-sample closeness via equal-mass bins and the Hellinger distance",
    )
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument(
        "--format", choices=["json", "csv", "pretty"], default="json"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run the model fitness criterion on two files")
    fit.add_argument("--mother", required=True)
    fit.add_argument("--model", required=True)
    fit.add_argument("--depth", type=_positive_int_arg, required=True)
    fit.add_argument("--branching", type=_branching_arg, required=True)
    fit.add_argument("--epsilon", type=_epsilon_arg, required=True)
    fit.add_argument("--bounds", type=_bounds_arg, help="per-axis lo:hi pairs, comma separated")

    thr = sub.add_parser("threshold", help="Bayes-error threshold machinery")
    thr.add_argument("--generator", default="hellinger")
    group = thr.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=_epsilon_arg)
    group.add_argument("--delta", type=_delta_arg)

    sim = sub.add_parser("simulate", help="reproduce a simulation table")
    sim.add_argument("--table", type=int, choices=range(1, 7), required=True)
    sim.add_argument("--n1", type=_positive_int_arg, nargs="+")
    sim.add_argument("--n2", type=_positive_int_arg, default=10**7)
    sim.add_argument("--k", type=_positive_int_arg)
    sim.add_argument("--branching", type=_fan_arg, default=4)
    sim.add_argument("--epsilon", type=_epsilon_arg, default=0.05)
    sim.add_argument("--seed", type=int, default=0)

    val = sub.add_parser("validate", help="Monte Carlo check of a risk theorem")
    val.add_argument("--theorem", type=int, choices=[2, 3, 4], required=True)
    val.add_argument("--n", type=_positive_int_arg)
    val.add_argument("--n1", type=_positive_int_arg, default=10**3)
    val.add_argument("--n2", type=_positive_int_arg, default=10**5)
    val.add_argument("--replicates", type=_positive_int_arg)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument(
        "--config",
        choices=["identical-normals", "shifted-normals"],
        default="identical-normals",
        help="mother/model pair for the theorem-4 bound",
    )

    part = sub.add_parser("partition", help="build and dump a moving partition")
    part.add_argument("--model", required=True)
    part.add_argument("--depth", type=_positive_int_arg, required=True)
    part.add_argument("--branching", type=_branching_arg, required=True)
    part.add_argument("--bounds", type=_bounds_arg)

    pair = sub.add_parser("pairwise", help="depth-2 criterion on every coordinate pair")
    pair.add_argument("--mother", required=True)
    pair.add_argument("--model", required=True)
    pair.add_argument("--branching", type=_fan_arg, default=4)
    pair.add_argument("--epsilon", type=_epsilon_arg, required=True)

    return parser


def _nulls(value):
    """The value with every non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {key: _nulls(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_nulls(item) for item in value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(args, payload, rows=None):
    """Write the payload in the requested format; csv writes the tabular rows.

    Non-finite floats in the payload are written as null (None), so the json
    output is strict JSON.
    """
    payload = _nulls(payload)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    elif args.format == "pretty":
        text = "\n".join(f"{key}: {value}" for key, value in payload.items()) + "\n"
    else:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _write(args, text)


def _write(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_fit(args):
    mother = load_dataset(args.mother, bounds=args.bounds)
    model = load_dataset(args.model, bounds=args.bounds)
    spec = PartitionSpec(depth=args.depth, branching=args.branching)
    report = evaluate_fitness(mother, model, spec, args.epsilon)
    payload = report.to_dict()
    # 1-d KS baseline; applied per coordinate for k > 1
    payload["ks_baseline"] = [
        dict(
            zip(
                ("statistic", "p_value"),
                ks_two_sample(mother.values[:, i], model.values[:, i]),
            )
        )
        for i in range(mother.k)
    ]
    _emit(args, payload)


def _run_threshold(args):
    gen = generator_by_name(args.generator)
    payload = bayes_threshold.threshold_report(
        gen, epsilon=args.epsilon, delta=args.delta
    )
    _emit(args, payload)


def _run_simulate(args):
    rows = mc_validate.reproduce_table(
        args.table,
        n1_values=args.n1,
        n2=args.n2,
        epsilon=args.epsilon,
        seed=args.seed,
        k=args.k,
        branching=args.branching,
    )
    flat = [
        {k: (json.dumps(v) if isinstance(v, list) else v) for k, v in row.items()}
        for row in rows
    ]
    _emit(args, {"table": args.table, "rows": rows}, rows=flat)


def _run_validate(args):
    if args.theorem == 3:
        config = mc_validate.ExperimentConfig(
            distribution=mc_validate.UniformCube(1),
            spec=PartitionSpec(depth=1, branching=4),
            n=args.n or 1000,
            replicates=args.replicates or 2000,
            seed=args.seed,
        )
        est = mc_validate.one_sample_risk_moving(config)
        payload = {"theorem": 3, **est.__dict__}
    elif args.theorem == 2:
        true_m = [0.25, 0.25, 0.25, 0.25]
        config = mc_validate.ExperimentConfig(
            distribution=None,
            spec=PartitionSpec(depth=1, branching=4),
            n=args.n or 100,
            replicates=args.replicates or 10**5,
            seed=args.seed,
        )
        est = mc_validate.one_sample_risk_fixed(config, true_m)
        payload = {"theorem": 2, "true_m": true_m, **est.__dict__}
    else:
        if args.config == "identical-normals":
            mother = mc_validate.MultivariateNormal([0.0], [[1.0]])
            model = mc_validate.MultivariateNormal([0.0], [[1.0]])
            spec = PartitionSpec(depth=1, branching=4)
        else:
            mother = mc_validate.MultivariateNormal.shifted(2, 0.1, 0.1)
            model = mc_validate.MultivariateNormal(np.zeros(2), np.eye(2))
            spec = PartitionSpec(depth=2, branching=4)
        report = mc_validate.bias_bound_check(
            mother,
            model,
            spec,
            n1=args.n1,
            n2=args.n2,
            replicates=args.replicates or 500,
            seed=args.seed,
        )
        payload = {"theorem": 4, "config": args.config, **report.__dict__}
    _emit(args, payload)


def _run_partition(args):
    model = load_dataset(args.model, bounds=args.bounds)
    spec = PartitionSpec(depth=args.depth, branching=args.branching)
    tree = build_moving_partition(model, spec)
    _write(args, tree_to_json(tree) + "\n")


def _run_pairwise(args):
    mother = load_dataset(args.mother)
    model = load_dataset(args.model)
    matrix, reports = pairwise_marginal_scan(
        mother, pairwise_partitions(model, args.branching), args.epsilon
    )
    payload = {
        "epsilon": args.epsilon,
        "threshold": bayes_threshold.delta_star_hellinger(args.epsilon),
        "lhs_matrix": [list(row) for row in matrix],
        "pairs": [
            {"pair": [i + 1, j + 1], **report.to_dict()}
            for (i, j), report in sorted(reports.items())
        ],
    }
    _emit(args, payload)


# each command's runner and the --format values it can write
_RUNNERS = {
    "fit": (_run_fit, ("json", "pretty")),
    "threshold": (_run_threshold, ("json", "pretty")),
    "simulate": (_run_simulate, ("json", "csv", "pretty")),
    "validate": (_run_validate, ("json", "pretty")),
    "partition": (_run_partition, ("json",)),
    "pairwise": (_run_pairwise, ("json", "pretty")),
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner, formats = _RUNNERS[args.command]
    if args.format not in formats:
        parser.error(
            f"{args.command} does not support --format {args.format}; "
            f"supported: {', '.join(formats)}"
        )
    try:
        runner(args)
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"hellfit: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
