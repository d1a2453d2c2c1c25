"""One workload in one fresh interpreter: import, set up, run ops, gate.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It notes
the system-wide monotonic time at which set-up is done, then runs the
workload's ops one at a time (a single-client closed loop) through
`hellfit.cli.run(argv)` until the requested seconds have passed, checks every
op's output, and writes a JSON result file for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

_start = perf_counter()
import hellfit.cli  # noqa: E402  (timed: this is cli.import_s)

IMPORT_S = perf_counter() - _start

import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    return p.parse_args()


def _run_op(op, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = hellfit.cli.run(list(op.argv))
            else:
                rc = tracer.call("cli.run", hellfit.cli.run, (list(op.argv),))
            t1 = perf_counter()
        except Exception:
            t1 = perf_counter()
            rc = None
            err.write(traceback.format_exc())
    return rc, t1 - t0, out.getvalue(), err.getvalue()


def _gate(wl, op, rc, stdout, stderr, root, expected, reference):
    """Problems with one op's output; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-300:]}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = wl.check(payload, op, root, expected)
    if not problems and reference is not None and op.label in reference:
        problems = workloads.fingerprint_mismatches(
            wl.fingerprint(payload), reference[op.label]
        )
    return problems


def main():
    args = _parse()
    wl = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    targets = spans.hellfit_targets() if tracer else []

    if tracer:
        tracer.op = "setup"
        tracer.install(targets)
    prepared = wl.setup(args.seed, args.workdir)
    if tracer:
        tracer.uninstall()
    result = {
        "ready_monotonic": monotonic(),
        "import_s": IMPORT_S,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "hellfit_file": hellfit.cli.__file__,
    }
    ops = prepared.ops
    ops_run = []
    min_ops = len(ops) * (2 if tracer else 1)
    loop_start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - loop_start < args.seconds:
        op = ops[i % len(ops)]
        # traced runs alternate whole cycles: untraced, traced, untraced, ...
        traced = tracer is not None and (i // len(ops)) % 2 == 1
        if traced:
            tracer.op = i
            tracer.install(targets)
        rc, seconds, stdout, stderr = _run_op(op, tracer if traced else None)
        if traced:
            tracer.uninstall()
        ops_run.append((op, traced, rc, seconds, stdout, stderr))
        i += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the measured ops.
    ref_path = Path(__file__).with_name("reference.json")
    reference = None
    if ref_path.exists():
        reference = json.loads(ref_path.read_text()).get(args.workload, {}).get(str(args.seed))
    expected = wl.expected(prepared) if wl.expected else None
    records = []
    fingerprints = {}
    first_stdout = {}
    for op, traced, rc, seconds, stdout, stderr in ops_run:
        problems = _gate(wl, op, rc, stdout, stderr, args.root, expected, reference)
        if not problems and op.label not in fingerprints:
            fingerprints[op.label] = wl.fingerprint(json.loads(stdout))
        # every repeat of an op must print the same bytes
        if first_stdout.setdefault(op.label, stdout) != stdout:
            problems.append("output differs from the first run of the same op")
        records.append({
            "label": op.label,
            "traced": traced,
            "seconds": seconds,
            "model_rows": op.model_rows,
            "bytes": len(stdout.encode()),
            "problems": problems,
        })

    result.update({
        "ops": records,
        "fingerprints": fingerprints,
        "peak_rss_mb": peak_rss_mb,
        "reference_checked": reference is not None,
    })
    if tracer:
        traced_ops = [i for i, r in enumerate(records) if r["traced"]]
        result["trace"] = {
            "setup": spans.layer_totals(tracer.spans, ["setup"]),
            "ops": spans.layer_totals(tracer.spans, traced_ops),
            "missing_targets": tracer.missing,
        }
        if args.spans:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
