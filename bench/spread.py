"""Repeat bench/run.py over seeds and summarise the spread of every metric.

    python3 bench/spread.py --seeds 0-9 --trace 0 [--workloads pairwise] [--out FILE]
    python3 bench/spread.py --seeds 0 --trace 0 1     # every metric once, per workload

Run from the root of a checkout.  Runs go one at a time, with the command and
run length from BENCHMARK.json.  For each workload and metric it prints the
median, the first and third quartiles (statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    p.add_argument("--trace", type=int, nargs="+", choices=[0, 1], default=[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict = {}
    provenance = None
    for trace, workload, seed in (
        (t, w, s) for t in args.trace for w in args.workloads for s in args.seeds
    ):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        provenance = provenance or next(
            json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")
        )
        runs.setdefault(workload, []).append({"seed": seed, "trace": trace, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                          if trace == 0)
        print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
              f"ops={result['attempted']} failed={result['failed']} {values}", flush=True)

    summary: dict = {}
    for workload, results in runs.items():
        names = dict.fromkeys(name for r in results for name in r["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else None
            unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
            summary.setdefault(workload, {})[name] = {
                "unit": unit,
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds.get(name),
            }
    print(f"{'workload':10} {'metric':36} {'unit':>7} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} bound")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:10} {name:36} {s['unit']:>7} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {spread:>8} {s['bound'] if s['bound'] is not None else ''}")
        failed = sum(r["failed"] for r in runs[workload])
        attempted = sum(r["attempted"] for r in runs[workload])
        print(f"{workload:10} {'failed_ops_frac':36} {'frac':>7} {failed / attempted:14.6g} "
              f"({failed} of {attempted} ops)")
    if args.out:
        args.out.write_text(json.dumps(
            {"provenance": provenance, "seeds": args.seeds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
