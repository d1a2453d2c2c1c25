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

from hellfit import bayes_threshold
from hellfit.criterion import fit_payload, pairwise_payload
from hellfit.dataset import load_dataset
from hellfit.divergence import generator_by_name
from hellfit.partition import PartitionSpec, build_moving_partition, tree_to_dict


def _checked(convert, ok, message):
    """An argparse type: ``convert`` the text, and refuse a value that is not ``ok``."""

    def check(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    check.__name__ = convert.__name__  # argparse names it when the text does not convert
    return check


_epsilon_arg = _checked(float, lambda v: 0 < v < 0.5, "epsilon must be in (0, 0.5)")
_delta_arg = _checked(float, lambda v: 0 < v < math.inf, "delta must be a finite value > 0")
_fan_arg = _checked(int, lambda v: v >= 2, "branching values must be >= 2")
_positive_int_arg = _checked(int, lambda v: v >= 1, "must be a positive integer")


def _branching_arg(text):
    try:
        parts = [_fan_arg(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return parts[0] if len(parts) == 1 else parts


def _bounds_arg(text):
    out = []
    for pair in text.split(","):
        try:
            lo, hi = pair.split(":")
            out.append((float(lo), float(hi)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid lo:hi pair of floats: {pair!r}") from None
    return out


_BOUNDS_HELP = (
    "per-axis LO:HI pairs, comma separated; write --bounds=LO:HI,... with the '=', "
    "or a negative LO reads as an option"
)


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
    fit.add_argument("--bounds", type=_bounds_arg, help=_BOUNDS_HELP)

    thr = sub.add_parser("threshold", help="Bayes-error threshold machinery")
    thr.add_argument("--generator", default="hellinger")
    group = thr.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=_epsilon_arg)
    group.add_argument("--delta", type=_delta_arg)

    sim = sub.add_parser("simulate", help="reproduce a simulation table")
    sim.add_argument("--table", type=int, choices=range(1, 7), required=True)
    sim.add_argument("--n1", type=_positive_int_arg, nargs="+", help="tables 1-4 only")
    sim.add_argument("--n2", type=_positive_int_arg, default=10**7)
    sim.add_argument("--k", type=_positive_int_arg)
    sim.add_argument("--branching", type=_fan_arg, default=4)
    sim.add_argument("--epsilon", type=_epsilon_arg, help="tables 1-4 only (default 0.05)")
    sim.add_argument("--seed", type=int, default=0)

    val = sub.add_parser("validate", help="Monte Carlo check of a risk theorem")
    val.add_argument("--theorem", type=int, choices=[2, 3, 4], required=True)
    val.add_argument("--n", type=_positive_int_arg, help="theorems 2 and 3 only")
    val.add_argument("--n1", type=_positive_int_arg, help="theorem 4 only (default 1000)")
    val.add_argument("--n2", type=_positive_int_arg, help="theorem 4 only (default 100000)")
    val.add_argument("--replicates", type=_positive_int_arg)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument(
        "--config",
        choices=["identical-normals", "shifted-normals"],
        help="mother/model pair for the theorem-4 bound (default identical-normals)",
    )

    part = sub.add_parser("partition", help="build and dump a moving partition")
    part.add_argument("--model", required=True)
    part.add_argument("--depth", type=_positive_int_arg, required=True)
    part.add_argument("--branching", type=_branching_arg, required=True)
    part.add_argument("--bounds", type=_bounds_arg, help=_BOUNDS_HELP)

    pair = sub.add_parser("pairwise", help="depth-2 criterion on every coordinate pair")
    pair.add_argument("--mother", required=True)
    pair.add_argument("--model", required=True)
    pair.add_argument("--branching", type=_fan_arg, default=4)
    pair.add_argument("--epsilon", type=_epsilon_arg, required=True)

    return parser


def _emit(args, payload):
    """Write the payload in the requested format, to ``--output`` or stdout.

    Non-finite floats in the payload are written as null (None), so the json
    output is strict JSON.  csv writes the tabular ``payload["rows"]``, a
    list cell as its JSON text.
    """
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    if args.format == "csv":
        buf = io.StringIO()
        rows = payload["rows"]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: json.dumps(v) if isinstance(v, list) else v for k, v in row.items()})
        text = buf.getvalue()
    elif args.format == "pretty":
        text = "\n".join(f"{key}: {value}" for key, value in payload.items()) + "\n"
    else:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_fit(args):
    mother = load_dataset(args.mother, bounds=args.bounds)
    model = load_dataset(args.model, bounds=args.bounds)
    if args.depth < model.k == mother.k:  # a mismatch is fit_payload's runtime error
        raise argparse.ArgumentError(None, (
            f"argument --depth: depth {args.depth} leaves coordinates "
            f"{list(range(args.depth, model.k))} of k = {model.k} unsplit, and a close "
            f"verdict says nothing about them; use --depth {model.k}, or hellfit pairwise "
            "to score every coordinate pair"
        ))
    spec = PartitionSpec(depth=args.depth, branching=args.branching)
    _emit(args, fit_payload(mother, model, spec, args.epsilon))


def _run_threshold(args):
    gen = generator_by_name(args.generator)
    payload = bayes_threshold.threshold_report(
        gen, epsilon=args.epsilon, delta=args.delta
    )
    _emit(args, payload)


def _run_simulate(args):
    from hellfit import mc_validate  # for simulate and validate only

    rows = mc_validate.reproduce_table(
        args.table,
        n1_values=args.n1,
        n2=args.n2,
        epsilon=args.epsilon,
        seed=args.seed,
        k=args.k,
        branching=args.branching,
    )
    _emit(args, {"table": args.table, "rows": rows})


def _run_validate(args):
    from hellfit import mc_validate

    _emit(args, mc_validate.validate_payload(
        args.theorem, args.n, args.n1, args.n2, args.replicates, args.seed, args.config
    ))


def _run_partition(args):
    model = load_dataset(args.model, bounds=args.bounds)
    spec = PartitionSpec(depth=args.depth, branching=args.branching)
    _emit(args, tree_to_dict(build_moving_partition(model, spec)))


def _run_pairwise(args):
    mother = load_dataset(args.mother)
    model = load_dataset(args.model)
    _emit(args, pairwise_payload(mother, model, args.branching, args.epsilon))


def _unread_flag(args):
    """The usage error for a flag given to a table or theorem that never reads
    it, or None."""
    if args.command == "simulate" and args.table >= 5:
        mode, unread = f"table {args.table}", ("n1", "epsilon")
    elif args.command == "validate":
        mode = f"theorem {args.theorem}"
        unread = ("n",) if args.theorem == 4 else ("n1", "n2", "config")
    else:
        return None
    for name in unread:
        if getattr(args, name) is not None:
            return f"argument --{name}: not read by {mode}"
    return None


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
    if args.command == "simulate" and args.table >= 5 and args.k is not None and args.k < 2:
        parser.error("argument --k: tables 5 and 6 scan coordinate pairs and need k >= 2")
    if isinstance(getattr(args, "branching", None), list) and len(args.branching) != args.depth:
        parser.error(
            f"argument --branching: {len(args.branching)} values for --depth {args.depth}; "
            "give one value or one per level"
        )
    unread = _unread_flag(args)
    if unread:
        parser.error(unread)
    try:
        runner(args)
    except argparse.ArgumentError as exc:  # found once the input files are read
        parser.error(str(exc))
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"hellfit: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
