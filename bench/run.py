"""hellfit benchmark: one workload, one run.

    python3 bench/run.py --workload fit-csv --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts WORKERS fresh interpreters
one after another (bench/worker.py).  Each imports `hellfit.cli` from the
checkout's src/, generates the workload's inputs from the seed, and runs the
workload's ops for its share of --seconds.  Pooling the ops of several
interpreters keeps one interpreter's luck (memory placement, a slow spell of
the host) from setting the run's figures.  BLAS/OpenMP threads are capped at
the number of usable cores.

With --trace 0 the end-to-end metrics are reported; with --trace 1 the
per-layer metrics, from spans recorded around hellfit's public functions on
every other cycle of ops.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.

--record-reference stores this run's result fingerprints in
bench/reference.json under the workload and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

BENCH = Path(__file__).resolve().parent
WORKERS = 3  # interpreters per run; setup_s and peak_rss_mb are their medians
DEADLINE_S = 170.0  # a run must end within 180 s

# per-layer metrics averaged per traced op: (metric, unit, span name, field)
PER_OP = [
    ("dataset.load.calls", "count", "dataset.load", "calls"),
    ("dataset.load.s", "s", "dataset.load", "s"),
    ("dataset.load.rows", "count", "dataset.load", "rows"),
    ("dataset.sample.s", "s", "dataset.sample", "s"),
    ("dataset.sample.rows", "count", "dataset.sample", "rows"),
    ("dataset.project.calls", "count", "dataset.project", "calls"),
    ("dataset.project.s", "s", "dataset.project", "s"),
    ("partition.build.calls", "count", "partition.build", "calls"),
    ("partition.build.s", "s", "partition.build", "s"),
    ("partition.build.rows", "count", "partition.build", "rows"),
    ("partition.count.calls", "count", "partition.count", "calls"),
    ("partition.count.s", "s", "partition.count", "s"),
    ("partition.count.rows", "count", "partition.count", "rows"),
    ("divergence.hellinger.calls", "count", "divergence.hellinger", "calls"),
    ("divergence.hellinger.s", "s", "divergence.hellinger", "s"),
    ("criterion.evaluate.calls", "count", "criterion.evaluate", "calls"),
    ("criterion.evaluate.self_s", "s", "criterion.evaluate", "self_s"),
    ("criterion.ks.s", "s", "criterion.ks", "s"),
    ("mc_validate.true_masses.calls", "count", "mc_validate.true_masses", "calls"),
    ("mc_validate.true_masses.s", "s", "mc_validate.true_masses", "s"),
    ("mc_validate.region_mass.calls", "count", "mc_validate.region_mass", "calls"),
    ("mc_validate.scan.self_s", "s", "mc_validate.scan", "self_s"),
    ("mc_validate.bias_bound.self_s", "s", "mc_validate.bias_bound", "self_s"),
    ("cli.run.self_s", "s", "cli.run", "self_s"),
]
# per-layer metrics of set-up, median over the run's set-ups
PER_SETUP = [
    ("dataset.save.s", "s", "dataset.save", "s"),
    ("dataset.save.rows", "count", "dataset.save", "rows"),
]

NOTES = [
    "op_s_p50 is the only latency percentile: a run holds fewer than 20 ops, "
    "so no higher percentile has 10 samples beyond it",
    "the layers have no queues or retries, and the code is single-threaded, "
    "so there is no wait time to report",
    "per-layer counts and seconds are per traced op; dataset.save.* and "
    "cli.import_s are per set-up (median of the run's interpreters)",
]


def _parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-reference", action="store_true")
    return p.parse_args()


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _provenance(root, nproc):
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    head = _read(root / ".git/HEAD")
    if head and head.startswith("ref: "):
        head = _read(root / ".git" / head[5:])
    digest = hashlib.sha256()
    for path in sorted((root / "src/hellfit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "blas_threads": nproc,
        "git_revision": head,
        "src_sha256": digest.hexdigest(),
    }


def _spawn_worker(root, args, env, workdir, index, deadline):
    result = workdir / f"result-{index}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--root", str(root), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result),
    ]
    if args.trace:
        spans = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}-{index}.jsonl"
        cmd += ["--spans", str(spans)]
    spawned = monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {index} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker {index} exited with code {rc}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready_monotonic"] - spawned
    return out


def _end_to_end(workers, ops):
    times = [r["seconds"] for r in ops]
    return {
        "op_s_p50": (statistics.median(times), "s"),
        "model_rows_per_s": (sum(r["model_rows"] for r in ops) / sum(times), "rows/s"),
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }


def _per_layer(workers, ops):
    traced = [r for r in ops if r["traced"]]
    untraced = [r for r in ops if not r["traced"]]
    n = len(traced)

    def total(span, field):
        return sum(w["trace"]["ops"]["layers"].get(span, {}).get(field, 0.0) for w in workers)

    out = {name: (total(span, field) / n, unit) for name, unit, span, field in PER_OP}
    for name, unit, span, field in PER_SETUP:
        values = [w["trace"]["setup"]["layers"].get(span, {}).get(field, 0.0) for w in workers]
        out[name] = (statistics.median(values), unit)
    load_s = total("dataset.load", "s")
    out["dataset.load.mb_per_s"] = (
        total("dataset.load", "bytes") / load_s / 1e6 if load_s else 0.0, "MB/s"
    )
    roots = [r for w in workers for r in w["trace"]["ops"]["roots"].values()]
    out["partition.build.distinct_root_frac"] = (
        statistics.fmean(len(set(r)) / len(r) for r in roots) if roots else 0.0, "frac"
    )
    out["cli.import_s"] = (statistics.median(w["import_s"] for w in workers), "s")
    out["cli.emit.bytes"] = (statistics.fmean(r["bytes"] for r in traced), "bytes")
    out["op.unattributed_frac"] = (
        total("cli.run", "self_s") / sum(r["seconds"] for r in traced), "frac"
    )
    out["trace.overhead_frac"] = (
        statistics.median(r["seconds"] for r in traced)
        / statistics.median(r["seconds"] for r in untraced) - 1.0,
        "frac",
    )
    return out


def _record_reference(args, worker):
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    reference.setdefault(args.workload, {})[str(args.seed)] = worker["fingerprints"]
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    args = _parse()
    started = monotonic()
    root = BENCH.parent
    if not (root / "src/hellfit/cli.py").is_file():
        print(f"bench: no hellfit sources under {root / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    out_dir = root / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workers = [
            _spawn_worker(root, args, env, workdir, i, started + DEADLINE_S)
            for i in range(WORKERS)
        ]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected_src = (root / "src/hellfit/cli.py").resolve()
    for w in workers:
        if Path(w["hellfit_file"]).resolve() != expected_src:
            print(f"bench: imported {w['hellfit_file']}, not {expected_src}", file=sys.stderr)
            return 1

    provenance = _provenance(root, nproc)
    provenance.update(workers[0]["versions"], workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace)
    ops = [r for w in workers for r in w["ops"]]
    metrics = (_per_layer if args.trace else _end_to_end)(workers, ops)
    failed = sum(1 for r in ops if r["problems"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)} over {WORKERS} interpreters  "
          f"reference checked: {workers[0]['reference_checked']}")
    print("provenance " + json.dumps(provenance))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_ops_frac {failed / len(ops)!r} frac ({failed} of {len(ops)} ops)")
    if args.trace and workers[0]["trace"]["missing_targets"]:
        print("not traced (attribute missing): " + ", ".join(workers[0]["trace"]["missing_targets"]))
    for note in NOTES:
        print("note: " + note)
    for r in ops:
        for problem in r["problems"][:3]:
            print(f"bench: op {r['label']} failed: {problem}", file=sys.stderr)

    summary = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "provenance": provenance, "ops": ops}, indent=1)
    )
    if args.record_reference and failed == 0:
        _record_reference(args, workers[0])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
