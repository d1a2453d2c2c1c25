"""Differential test: the level-major partition against a recursive reference.

The reference below is the node-tree implementation the level-major layout
replaced, trimmed to what this test calls.  Both must give the same leaves,
counts, point locations, model probabilities and JSON bytes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hellfit.dataset import Dataset, RngStream
from hellfit.partition import (
    CapacityError,
    PartitionSpec,
    build_fixed_partition,
    build_moving_partition,
    count_into_bins,
    locate,
    model_pmf,
    tree_from_json,
    tree_to_json,
)


# ---------------------------------------------------------------- reference


class _Node:
    def __init__(self, axis=None, breaks=None, children=None, leaf=None):
        self.axis = axis
        self.breaks = breaks
        self.children = children
        self.leaf = leaf  # (index, path, intervals, count)


def ref_build_moving(sample, spec):
    axes = tuple(spec.axis_at(level) for level in range(spec.depth))
    leaves = []

    def build(values, path, intervals):
        level = len(path)
        if level == spec.depth:
            leaves.append((len(leaves), path, tuple(intervals), len(values)))
            return _Node(leaf=leaves[-1])
        bins = spec.branching[len(path)]
        n = len(values)
        if n < bins:
            raise CapacityError(f"region {path}")
        axis = axes[level]
        values = values[np.argsort(values[:, axis], kind="stable")]
        col = values[:, axis]
        cuts = [n * j // bins for j in range(bins + 1)]
        breaks = col[np.asarray(cuts[1:-1], dtype=int) - 1]
        lo_bound, hi_bound = sample.bounds[axis]
        children = []
        for j in range(bins):
            lo = lo_bound if j == 0 else breaks[j - 1]
            hi = hi_bound if j == bins - 1 else breaks[j]
            children.append(
                build(values[cuts[j]:cuts[j + 1]], path + (j,), intervals + [(lo, hi)])
            )
        return _Node(axis=axis, breaks=breaks, children=children)

    root = build(sample.values, (), [])
    return root, leaves, axes, sample.bounds


def ref_build_fixed(grid, bounds):
    grid = [np.asarray(g, dtype=float) for g in grid]
    k = len(grid)
    bounds = tuple(bounds) if bounds else tuple((-np.inf, np.inf) for _ in range(k))
    leaves = []

    def build(path, intervals):
        level = len(path)
        if level == k:
            leaves.append((len(leaves), path, tuple(intervals), None))
            return _Node(leaf=leaves[-1])
        breaks = grid[level]
        lo_bound, hi_bound = bounds[level]
        children = []
        for j in range(breaks.size + 1):
            lo = lo_bound if j == 0 else breaks[j - 1]
            hi = hi_bound if j == breaks.size else breaks[j]
            children.append(build(path + (j,), intervals + [(lo, hi)]))
        return _Node(axis=level, breaks=breaks, children=children)

    root = build((), [])
    return root, leaves, tuple(range(k)), bounds


def ref_locate(root, point):
    node = root
    while node.leaf is None:
        j = int(np.searchsorted(node.breaks, point[node.axis], side="left"))
        node = node.children[j]
    return node.leaf[0]


def ref_count(root, leaf_count, values):
    counts = np.zeros(leaf_count, dtype=np.int64)

    def descend(node, values):
        if node.leaf is not None:
            counts[node.leaf[0]] += len(values)
            return
        idx = np.searchsorted(node.breaks, values[:, node.axis], side="left")
        for j, child in enumerate(node.children):
            sub = values[idx == j]
            if len(sub):
                descend(child, sub)

    descend(root, values)
    return counts


def ref_model_pmf(root, leaves):
    sizes = {}

    def walk(node, path):
        if node.leaf is not None:
            return
        sizes[path] = len(node.children)
        for j, child in enumerate(node.children):
            walk(child, path + (j,))

    walk(root, ())
    probs = np.empty(len(leaves))
    for index, path, _, _ in leaves:
        total = 1
        for level in range(len(path)):
            total *= sizes[path[:level]]
        probs[index] = 1.0 / total
    return probs


def _endpoint(x):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def ref_to_json(k, axes, bounds, leaves):
    doc = {
        "dimension": k,
        "depth": len(axes),
        "axes": list(axes),
        "bounds": [[_endpoint(lo), _endpoint(hi)] for lo, hi in bounds],
        "leaves": [
            {
                "path": list(path),
                "intervals": [[_endpoint(lo), _endpoint(hi)] for lo, hi in intervals],
                "count": count,
            }
            for _, path, intervals, count in leaves
        ],
    }
    return json.dumps(doc, indent=2)


# ------------------------------------------------------------------ inputs


@st.composite
def moving_cases(draw):
    k = draw(st.integers(1, 3))
    depth = draw(st.integers(1, k))
    axis_order = None
    if draw(st.booleans()):
        axis_order = tuple(draw(st.permutations(range(k)))[:depth])
    kind = draw(st.sampled_from(["int", "per-level"]))
    if kind == "int":
        branching = draw(st.integers(2, 4))
    else:
        branching = [draw(st.integers(2, 4)) for _ in range(depth)]
    spec = PartitionSpec(depth=depth, branching=branching, axis_order=axis_order)
    rng = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    n = draw(st.integers(8, 300))
    bounded = draw(st.booleans())
    if bounded:
        values = 1.0 - rng.random((n, k))  # in (0, 1]
        bounds = tuple((0.0, 1.0) for _ in range(k))
    else:
        values = rng.standard_normal((n, k))
        bounds = ()
    if draw(st.booleans()):  # coarse rounding: many ties, on breaks too
        values = np.ceil(values * 4) / 4 if bounded else np.round(values * 2) / 2
    return Dataset(values, bounds), spec, rng


def _probe(rng, sample, leaves):
    """Fresh points, the building rows, and points on interval endpoints."""
    edges = [hi for _, _, intervals, _ in leaves for _, hi in intervals if np.isfinite(hi)]
    on_edges = rng.choice(edges or [0.0], size=(100, sample.k))
    return np.vstack([rng.standard_normal((50, sample.k)) * 2, sample.values, on_edges])


def assert_same(tree, ref, values):
    root, leaves, axes, bounds = ref
    assert tree.axes == axes and tree.bounds == tuple(bounds)
    assert [(l.index, l.path, l.intervals, l.count) for l in tree.leaves] == leaves
    assert tree.leaf_count == len(leaves)
    np.testing.assert_array_equal(
        count_into_bins(tree, Dataset(values)), ref_count(root, len(leaves), values)
    )
    points = values[::5]
    assert [locate(tree, p) for p in points] == [ref_locate(root, p) for p in points]
    text = tree_to_json(tree)
    assert text == ref_to_json(tree.k, axes, bounds, leaves)
    again = tree_from_json(text)
    assert tree_to_json(again) == text
    np.testing.assert_array_equal(
        count_into_bins(again, Dataset(values)), ref_count(root, len(leaves), values)
    )


# ------------------------------------------------------------------- tests


@given(moving_cases())
@settings(max_examples=150, deadline=None)
def test_moving_partition_matches_reference(case):
    sample, spec, rng = case
    try:
        ref = ref_build_moving(sample, spec)
    except CapacityError:
        with pytest.raises(CapacityError):
            build_moving_partition(sample, spec)
        return
    tree = build_moving_partition(sample, spec)
    assert_same(tree, ref, _probe(rng, sample, ref[1]))
    assert model_pmf(tree).tobytes() == ref_model_pmf(ref[0], ref[1]).tobytes()


@given(
    st.lists(
        st.lists(st.integers(-8, 8), max_size=3, unique=True).map(sorted),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_fixed_partition_matches_reference(grid, bounded, seed):
    grid = [[g / 2 for g in axis] for axis in grid]
    bounds = [(-5.0, 5.0)] * len(grid) if bounded else None
    tree = build_fixed_partition(grid, bounds)
    ref = ref_build_fixed(grid, bounds)
    rng = RngStream(seed).generator()
    values = np.vstack(
        [
            np.clip(rng.standard_normal((60, len(grid))) * 3, -4.9, 4.9),
            np.round(rng.standard_normal((60, len(grid))) * 4) / 2,  # on the breaks
        ]
    )
    assert_same(tree, ref, values)
    with pytest.raises(ValueError):
        model_pmf(tree)


def test_fixed_axis_without_breakpoints():
    grid = [[0.0], [], [-1.0, 1.0]]
    tree = build_fixed_partition(grid)
    ref = ref_build_fixed(grid, None)
    values = RngStream(9).generator().standard_normal((300, 3))
    assert tree.leaf_count == 6
    assert_same(tree, ref, values)
