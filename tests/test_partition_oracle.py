"""Differential test: the level-major partition against a recursive reference.

The reference below is the node-tree implementation the level-major layout
replaced, trimmed to what this test calls.  Both must give the same leaves,
counts, point locations, model probabilities and JSON bytes.  Where the
building sample has an atom at a break, the reference marks it and the build
must raise ``DegeneratePartitionError`` instead.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hellfit.dataset import Dataset, RngStream
from hellfit.partition import (
    CapacityError,
    DegeneratePartitionError,
    PartitionSpec,
    build_moving_partition,
    count_into_bins,
    assign,
    leaf_edges,
    model_pmf,
    tree_to_dict,
)


# ---------------------------------------------------------------- reference


class _Node:
    def __init__(self, axis=None, breaks=None, children=None, leaf=None):
        self.axis = axis
        self.breaks = breaks
        self.children = children
        self.leaf = leaf  # (index, path, intervals, count)


def ref_build_moving(sample, spec):
    """The recursive build, plus the error a level-by-level build must raise.

    A region too small for its bins gets no children, and a region where the
    order statistics at ``cut - 1`` and ``cut`` are equal (an atom at a
    break) is still split by position, so every region is visited.  Of the
    regions with such a defect, the one at the lowest level decides the
    expected error, capacity before atoms, then the first in path order.
    """
    axes = tuple(spec.axis_at(level) for level in range(spec.depth))
    leaves, defects = [], []  # defects: (level, 0 capacity / 1 atom, path, axis)

    def build(values, path, intervals):
        level = len(path)
        if level == spec.depth:
            leaves.append((len(leaves), path, tuple(intervals), len(values)))
            return _Node(leaf=leaves[-1])
        bins = spec.branching[len(path)]
        n = len(values)
        axis = axes[level]
        if n < bins:
            defects.append((level, 0, path, axis))
            return _Node()
        values = values[np.argsort(values[:, axis], kind="stable")]
        col = values[:, axis]
        cuts = [n * j // bins for j in range(bins + 1)]
        breaks = col[np.asarray(cuts[1:-1], dtype=int) - 1] + 0.0  # -0.0 written as 0.0
        if np.any(breaks == col[np.asarray(cuts[1:-1], dtype=int)]):
            defects.append((level, 1, path, axis))
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
    return root, leaves, axes, sample.bounds, min(defects, default=None)


def expected_error(defect):
    """The error type and message start a build must raise for a defect."""
    _, atom, path, axis = defect
    if atom:
        return DegeneratePartitionError, rf"region {re.escape(str(path))}: .* axis {axis};"
    return CapacityError, rf"region {re.escape(str(path))}: \d+ building points"


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


@st.composite
def edge_cases(draw):
    """Constant columns, sizes at capacity, extreme magnitudes, values on a bound."""
    k = draw(st.integers(1, 3))
    depth = draw(st.integers(1, k))
    branching = [draw(st.integers(2, 4)) for _ in range(depth)]
    spec = PartitionSpec(depth=depth, branching=branching)
    rng = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    kind = draw(st.sampled_from(["constant", "capacity", "huge", "subnormal", "on-bound"]))
    n = int(np.prod(branching)) + draw(st.integers(0, 1))
    if kind != "capacity":
        n = draw(st.integers(n, 200))
    values, bounds = rng.standard_normal((n, k)), ()
    if kind == "constant":
        # on a split axis: the build raises at that level or above
        values[:, draw(st.integers(0, depth - 1))] = draw(st.sampled_from([0.0, -1e300, 5e-324]))
    elif kind == "huge":
        values *= 1e300
    elif kind == "subnormal":  # distinct multiples of the smallest subnormal
        values = rng.integers(-(2**40), 2**40, (n, k)) * 5e-324
    elif kind == "on-bound":
        values = 1.0 - rng.random((n, k))  # in (0, 1]
        values[rng.random((n, k)) < draw(st.sampled_from([0.01, 0.2]))] = 1.0
        bounds = tuple((0.0, 1.0) for _ in range(k))
    return Dataset(values, bounds), spec, rng


def _probe(rng, sample, leaves):
    """Fresh points, the building rows, and points on interval endpoints."""
    edges = [hi for _, _, intervals, _ in leaves for _, hi in intervals if np.isfinite(hi)]
    on_edges = rng.choice(edges or [0.0], size=(100, sample.k))
    return np.vstack([rng.standard_normal((50, sample.k)) * 2, sample.values, on_edges])


def leaf_rows(tree):
    """(index, path, intervals, count) of every leaf, read from the level arrays."""
    lows, highs = (edges.T.tolist() for edges in leaf_edges(tree))
    paths = np.ndindex(*tree.fans)
    return [
        (i, path, tuple(zip(lo, hi)), count)
        for i, (path, lo, hi, count) in enumerate(zip(paths, lows, highs, tree.counts))
    ]


def assert_same(tree, ref, values):
    root, leaves, axes, bounds = ref[:4]
    assert tree.axes == axes and tree.bounds == tuple(bounds)
    assert leaf_rows(tree) == leaves
    assert tree.leaf_count == len(leaves)
    np.testing.assert_array_equal(
        count_into_bins(tree, Dataset(values)), ref_count(root, len(leaves), values)
    )
    points = values[::5]
    located = [assign(tree, p[None, :])[0] for p in points]  # one row at a time
    assert located == [ref_locate(root, p) for p in points]
    text = json.dumps(tree_to_dict(tree), indent=2)
    assert text == ref_to_json(tree.k, axes, bounds, leaves)


# ------------------------------------------------------------------- tests


def assert_matches_reference(sample, spec, rng):
    """The build raises the reference's expected error, or equals the reference."""
    ref = ref_build_moving(sample, spec)
    if ref[4] is not None:
        error, message = expected_error(ref[4])
        with pytest.raises(error, match=message):
            build_moving_partition(sample, spec)
        return
    tree = build_moving_partition(sample, spec)
    assert_same(tree, ref, _probe(rng, sample, ref[1]))
    assert model_pmf(tree).tobytes() == ref_model_pmf(ref[0], ref[1]).tobytes()


@given(moving_cases())
@settings(max_examples=150, deadline=None)
def test_moving_partition_matches_reference(case):
    assert_matches_reference(*case)


@given(edge_cases())
@settings(max_examples=150, deadline=None)
def test_edge_cases_match_reference(case):
    assert_matches_reference(*case)


def test_zero_break_sign_independent_of_row_order():
    # -0.0 == 0.0 under assign's rule, so which signed zero the selection
    # lands on must not reach the breaks or the JSON
    values = np.array([0.0, -0.0, 0.5, 0.0, -0.5, 0.5, 1.5, 1.0])[:, None]
    spec = PartitionSpec(depth=1, branching=2)
    rng = RngStream(10).generator()
    for order in [np.arange(8), *(rng.permutation(8) for _ in range(20))]:
        sample = Dataset(values[order])
        assert_matches_reference(sample, spec, rng)
        tree = build_moving_partition(sample, spec)
        assert tree.breaks[0][0, 0] == 0.0 and not np.signbit(tree.breaks[0][0, 0])


@pytest.mark.parametrize("fans", [(128, 256, 2), (129, 256, 2)])
def test_child_ids_around_the_int16_limit(fans):
    # level 1 has 2**15 children (ids up to 32767), then 129 * 256
    values = RngStream(11).generator().standard_normal((math.prod(fans) + 500, 3))
    sample, spec = Dataset(values), PartitionSpec(depth=3, branching=list(fans))
    tree, ref = build_moving_partition(sample, spec), ref_build_moving(sample, spec)
    assert ref[4] is None  # no atom: the build must equal the reference
    assert leaf_rows(tree) == ref[1]
    assert count_into_bins(tree, sample).tolist() == list(tree.counts)


@pytest.mark.parametrize("fans", [(16, 16, 2), (17, 16, 2)], ids=["256-children", "272-children"])
def test_child_ids_around_the_uint8_limit(fans):
    # level 1 has 256 children (uint8 ids up to 255), then 272 (uint16 ids)
    sample = Dataset(RngStream(12).generator().standard_normal((math.prod(fans) + 500, 3)))
    spec = PartitionSpec(depth=3, branching=list(fans))
    assert_matches_reference(sample, spec, RngStream(13).generator())
