"""In-memory span tracer for the traced benchmark run.

The tracer replaces hellfit's public functions, at the module or class
attribute where their callers look them up, with wrappers that record a span
(name, start, end, parent span, op id) and a few counts.  Spans stay in
memory and are written out when the worker exits.  Nothing is wrapped unless
`install` is called, so untraced ops run the program untouched.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, or None
    op: object  # op index, or "setup"
    counts: dict = field(default_factory=dict)


# The instrument's own counting work (hashing a root column, stat-ing a file)
# is recorded under this name, so that it is not charged to the layer around it.
INSTRUMENT = "trace.count"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span; count(args, kwargs, result)
        may return extra counts for it."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if count is not None:
            begin = perf_counter()
            span.counts.update(count(args, kwargs, result))
            self.spans.append(Span(INSTRUMENT, begin, perf_counter(), parent, self.op))
        return result

    def install(self, targets):
        """Wrap each (owner, attribute, span name, count) target in place."""
        for owner, attr, name, count in targets:
            original = vars(owner).get(attr)
            if original is None:
                where = f"{getattr(owner, '__name__', owner)}.{attr}"
                if where not in self.missing:
                    self.missing.append(where)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, count))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "counts": s.counts,
                }) + "\n")


# ---------------------------------------------------------------- targets


def _load_counts(args, kwargs, result):
    return {"rows": result.n, "bytes": os.path.getsize(args[0])}


def _rows_of_first(args, kwargs, result):
    return {"rows": args[0].n}


def _sample_counts(args, kwargs, result):
    return {"rows": result.n}


def _build_counts(args, kwargs, result):
    sample, spec = args[0], args[1]
    axis = spec.axis_at(0)
    column = np.ascontiguousarray(sample.values[:, axis])
    digest = hashlib.blake2b(column, digest_size=16).hexdigest()
    return {"rows": sample.n, "root": f"{axis}:{digest}"}


def _count_counts(args, kwargs, result):
    return {"rows": args[1].n}


def hellfit_targets():
    """Every lookup of a wrapped function on the three workloads' paths."""
    from hellfit import cli, criterion, dataset, mc_validate

    return [
        (cli, "load_dataset", "dataset.load", _load_counts),
        (dataset, "save_dataset", "dataset.save", _rows_of_first),
        (mc_validate, "sample_mvn", "dataset.sample", _sample_counts),
        (dataset.Dataset, "project", "dataset.project", None),
        (criterion, "build_moving_partition", "partition.build", _build_counts),
        (mc_validate, "build_moving_partition", "partition.build", _build_counts),
        (criterion, "count_into_bins", "partition.count", _count_counts),
        (mc_validate, "count_into_bins", "partition.count", _count_counts),
        (criterion, "hellinger", "divergence.hellinger", None),
        (mc_validate, "hellinger", "divergence.hellinger", None),
        (cli, "evaluate_fitness", "criterion.evaluate", None),
        (mc_validate, "evaluate_fitness", "criterion.evaluate", None),
        (cli, "ks_two_sample", "criterion.ks", None),
        (mc_validate, "true_leaf_masses", "mc_validate.true_masses", None),
        (mc_validate.MultivariateNormal, "region_mass", "mc_validate.region_mass", None),
        (mc_validate, "pairwise_marginal_scan", "mc_validate.scan", None),
        (mc_validate, "bias_bound_check", "mc_validate.bias_bound", None),
    ]


# ---------------------------------------------------------------- aggregation


def layer_totals(spans: list[Span], ops) -> dict:
    """Per span name, summed over the spans of the given ops: calls, s
    (inclusive), self_s (span minus its child spans) and every numeric count.
    Root-column keys of builds are kept per op under "roots"."""
    ops = set(ops)
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    totals: dict = defaultdict(lambda: defaultdict(float))
    roots: dict = defaultdict(list)
    for i, s in enumerate(spans):
        if s.op not in ops:
            continue
        t = totals[s.name]
        t["calls"] += 1
        t["s"] += s.end - s.start
        t["self_s"] += s.end - s.start - child_s[i]
        for key, value in s.counts.items():
            if key == "root":
                roots[s.op].append(value)
            else:
                t[key] += value
    return {"layers": totals, "roots": roots}
