"""The three benchmark workloads: their inputs, their CLI ops and their
correctness gate.

Each workload is a fixed cycle of `hellfit` command lines.  Inputs come only
from the seed; the program sees nothing but the generated files and argv.
Only the standard library is imported at module level, so the orchestrator
can read the workload table without importing hellfit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

FLOAT_RTOL = 1e-12

# fit-csv sizes: mother 1e5 x 3 shifted normal, model 3e5 x 3 N(0, I)
FIT_N1 = 10**5
FIT_N2 = 3 * 10**5
FIT_ARGS = ["--depth", "3", "--branching", "4", "--epsilon", "0.05"]

# pairwise: Tables 5 and 6 at k=6 share the model sample (stream 1) and
# differ in the mother size; each op runs k(k-1)/2 = 15 depth-2 builds.
PAIR_K = 6
PAIR_N2 = 5 * 10**5
PAIR_N1 = {5: 10**3, 6: 10**4}

P_PRIME = 15  # free parameters of the depth-2, branching-4 partitions of pairwise and bias-mc

# bias-mc: theorem-4 bound, one depth-2 build per replicate
BIAS_N1 = 10**3
BIAS_N2 = 10**5
BIAS_REPLICATES = 20


@dataclass(frozen=True)
class Op:
    """One command line of a workload's cycle."""

    label: str
    argv: tuple[str, ...]
    model_rows: int  # model rows partitioned by one run of this op


@dataclass
class Prepared:
    """What set-up hands to the op loop and the gate."""

    ops: list[Op]
    data: dict  # in-memory inputs the gate may recompute from


# ---------------------------------------------------------------- set-up


def _setup_fit(seed: int, workdir: Path) -> Prepared:
    import numpy as np
    from hellfit import dataset, mc_validate
    from hellfit.dataset import RngStream

    mother = mc_validate.MultivariateNormal.shifted(3, 0.1, 0.1).sample(
        FIT_N1, RngStream(seed, 0)
    )
    model = mc_validate.MultivariateNormal(np.zeros(3), np.eye(3)).sample(
        FIT_N2, RngStream(seed, 1)
    )
    mother_path = workdir / "mother.csv"
    model_path = workdir / "model.csv"
    dataset.save_dataset(mother, mother_path)
    dataset.save_dataset(model, model_path)
    argv = ("fit", "--mother", str(mother_path), "--model", str(model_path), *FIT_ARGS)
    return Prepared([Op("fit", argv, FIT_N2)], {"mother": mother, "model": model})


def _setup_pairwise(seed: int, workdir: Path) -> Prepared:
    ops = [
        Op(
            f"table-{table}",
            ("simulate", "--table", str(table), "--k", str(PAIR_K),
             "--n2", str(PAIR_N2), "--seed", str(seed)),
            PAIR_N2 * PAIR_K * (PAIR_K - 1) // 2,
        )
        for table in (5, 6)
    ]
    return Prepared(ops, {})


def _setup_bias(seed: int, workdir: Path) -> Prepared:
    argv = ("validate", "--theorem", "4", "--config", "shifted-normals",
            "--n1", str(BIAS_N1), "--n2", str(BIAS_N2),
            "--replicates", str(BIAS_REPLICATES), "--seed", str(seed))
    return Prepared([Op("theorem-4", argv, BIAS_N2 * BIAS_REPLICATES)], {})


# ---------------------------------------------------------------- checks
#
# A check returns a list of problems; an empty list passes.  It sees the
# parsed payload, the op, the set-up data and the expected payload (if the
# workload computes one after the loop).


def _check_fit(payload, op, root, expected):
    import jsonschema

    problems = []
    schema = json.loads(
        (root / "src/hellfit/schemas/fitness_report.schema.json").read_text()
    )
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        problems.append(f"schema: {exc.message}")
        return problems
    if payload["lhs"] != payload["hellinger_hat"] + payload["bias_n1"] + payload["bias_n2"]:
        problems.append("lhs != hellinger_hat + bias_n1 + bias_n2")
    close = payload["lhs"] < payload["threshold"]
    if (payload["verdict"] == "close") != close:
        problems.append(f"verdict {payload['verdict']} disagrees with lhs < threshold")
    if (payload["n1"], payload["n2"]) != (FIT_N1, FIT_N2):
        problems.append(f"n1, n2 = {payload['n1']}, {payload['n2']}")
    if expected is not None and payload != expected:
        problems.append("report differs from the criterion run on the in-memory samples")
    return problems


def _check_pairwise(payload, op, root, expected):
    table = int(op.argv[2])
    rows = payload.get("rows", [])
    problems = []
    pairs = [[i, j] for i in range(1, PAIR_K + 1) for j in range(i + 1, PAIR_K + 1)]
    if payload.get("table") != table or [r.get("pair") for r in rows] != pairs:
        return [f"table {payload.get('table')}: rows do not cover the {len(pairs)} pairs"]
    n1 = PAIR_N1[table]
    floor = P_PRIME / (2.0 * n1) + math.sqrt(8.0 * P_PRIME / PAIR_N2)
    for row in rows:
        if (row["n1"], row["n2"]) != (n1, PAIR_N2):
            problems.append(f"pair {row['pair']}: n1, n2 = {row['n1']}, {row['n2']}")
        if not (math.isfinite(row["lhs"]) and row["lhs"] >= floor):
            problems.append(f"pair {row['pair']}: lhs {row['lhs']} below the bias terms")
    return problems


def _check_bias(payload, op, root, expected):
    problems = []
    if (payload.get("theorem"), payload.get("config"), payload.get("replicates")) != (
        4, "shifted-normals", BIAS_REPLICATES
    ):
        return ["payload is not the requested theorem-4 run"]
    if not payload["adequate"]:
        problems.append("replicates reported inadequate")
    if payload["correction"] != math.sqrt(8.0 * P_PRIME / BIAS_N2):
        problems.append(f"correction {payload['correction']} != sqrt(8 p'/n2)")
    for key in ("mean_true", "mean_estimated", "se_true", "se_estimated", "slack"):
        if not math.isfinite(payload[key]):
            problems.append(f"{key} is not finite")
    bound = payload["mean_estimated"] + payload["correction"] + payload["slack"]
    if payload["holds"] != (payload["mean_true"] <= bound):
        problems.append("holds disagrees with mean_true <= mean_estimated + correction + slack")
    return problems


def _expected_fit(prepared):
    """The fit report computed from the in-memory samples, bypassing ingest."""
    from hellfit.criterion import evaluate_fitness, ks_two_sample
    from hellfit.partition import PartitionSpec

    mother, model = prepared.data["mother"], prepared.data["model"]
    payload = evaluate_fitness(
        mother, model, PartitionSpec(depth=3, branching=4), 0.05
    ).to_dict()
    payload["ks_baseline"] = [
        dict(zip(("statistic", "p_value"),
                 ks_two_sample(mother.values[:, i], model.values[:, i])))
        for i in range(mother.k)
    ]
    return json.loads(json.dumps(payload))


# ---------------------------------------------------------------- fingerprints
#
# The result fields pinned against bench/reference.json: exact for verdicts
# and integer fields, within FLOAT_RTOL for floats.


def _fingerprint_fit(payload):
    keys = ("verdict", "p_prime", "zero_bins", "lhs", "hellinger_hat")
    return {key: payload[key] for key in keys}


def _fingerprint_pairwise(payload):
    return {"lhs": [row["lhs"] for row in payload["rows"]]}


def _fingerprint_bias(payload):
    keys = ("mean_true", "mean_estimated", "holds")
    return {key: payload[key] for key in keys}


def fingerprint_mismatches(got, want, path="") -> list[str]:
    """Differences between two fingerprints; floats compare within FLOAT_RTOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path or 'fingerprint'}: keys differ"]
        out = []
        for key in want:
            out += fingerprint_mismatches(got[key], want[key], f"{path}.{key}".lstrip("."))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += fingerprint_mismatches(g, w, f"{path}[{i}]")
        return out
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    check: object
    fingerprint: object
    expected: object = None  # prepared -> payload every op must equal


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-csv",
            _setup_fit,
            _check_fit,
            _fingerprint_fit,
            _expected_fit,
        ),
        Workload(
            "pairwise",
            _setup_pairwise,
            _check_pairwise,
            _fingerprint_pairwise,
        ),
        Workload(
            "bias-mc",
            _setup_bias,
            _check_bias,
            _fingerprint_bias,
        ),
    )
}
