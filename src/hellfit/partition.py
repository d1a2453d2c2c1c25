"""Recursive equal-mass partitions and discretization into bin counts.

The moving partition splits the space coordinate by coordinate.  At each
region the split points are order statistics of the building sample restricted
to that region, taken at indices floor(n_region * s / branching).  Intervals
are half-open (lo, hi]; the first and last interval of every split extend to
the axis support bounds.

A partition is stored level by level with one fan-out per level.
``breaks[level]`` is a ``(regions, fan - 1)`` array holding the sorted split
points of every region at that level, regions in lexicographic path order.
The children of region ``r`` are the regions ``r * fan + j`` of the next level,
``j = 0 .. fan - 1``.  A leaf id is the region's number below the last level,
so one step per level, ``ids = ids * fan + #(breaks[ids] < x[axis])``, assigns
a point to its leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import json
import math
import numbers

import numpy as np

from hellfit.dataset import Dataset


class CapacityError(ValueError):
    """Building sample too small for the requested branching."""


@dataclass(frozen=True)
class PartitionSpec:
    """How to split: depth, branching per level, axis order.

    ``branching`` is an int (the same number of bins at every split) or a
    sequence of one bin count per level; it is stored as a tuple with one
    entry per level.
    """

    depth: int
    branching: int | tuple[int, ...] = 2
    axis_order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        b = self.branching
        if isinstance(b, numbers.Integral):
            b = [b] * self.depth
        elif not isinstance(b, (list, tuple)):
            raise ValueError("branching must be an int or one int per level")
        object.__setattr__(self, "branching", tuple(int(bins) for bins in b))
        if len(self.branching) != self.depth:
            raise ValueError("per-level branching list must have one entry per level")
        if self.axis_order is not None:
            order = tuple(int(a) for a in self.axis_order)
            if len(order) != self.depth or len(set(order)) != self.depth:
                raise ValueError("axis_order must be a permutation of depth distinct axes")
            object.__setattr__(self, "axis_order", order)
        if min(self.branching) < 2:
            raise ValueError("every branching value must be >= 2")

    def axis_at(self, level: int) -> int:
        if self.axis_order is not None:
            return self.axis_order[level]
        return level


@dataclass(frozen=True)
class Leaf:
    index: int
    path: tuple[int, ...]
    intervals: tuple[tuple[float, float], ...]  # one (lo, hi] per split step
    count: int | None  # building-sample count; None for fixed grids


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """Immutable nested-region partition stored level by level.

    ``breaks[level]`` is a ``(regions, fan - 1)`` array whose row ``r`` holds
    the sorted split points of region ``r`` of that level; ``counts`` holds the
    building-sample count per leaf, or is None for fixed grids.  ``leaves`` is
    a derived view in lexicographic order.
    """

    k: int
    axes: tuple[int, ...]  # split axis per level
    bounds: tuple[tuple[float, float], ...]
    breaks: tuple[np.ndarray, ...]
    counts: tuple[int, ...] | None

    @property
    def depth(self) -> int:
        return len(self.axes)

    @property
    def leaf_count(self) -> int:
        return math.prod(level.shape[1] + 1 for level in self.breaks)

    @cached_property
    def leaves(self) -> tuple[Leaf, ...]:
        chains = [((), ())]
        for axis, level in zip(self.axes, self.breaks):
            lo, hi = self.bounds[axis]
            chains = [
                (path + (j,), intervals + (edge,))
                for (path, intervals), b in zip(chains, level)
                for j, edge in enumerate(zip([lo, *b], [*b, hi]))
            ]
        counts = self.counts or (None,) * len(chains)
        return tuple(
            Leaf(i, path, intervals, count)
            for i, ((path, intervals), count) in enumerate(zip(chains, counts))
        )


def build_moving_partition(model_sample: Dataset, spec: PartitionSpec) -> PartitionTree:
    """Equal-mass recursive partition built from the model sample."""
    if spec.depth > model_sample.k:
        raise ValueError("partition depth exceeds sample dimension")
    axes = tuple(spec.axis_at(level) for level in range(spec.depth))
    if max(axes) >= model_sample.k:
        raise ValueError("axis_order references a missing coordinate")

    # region r of the current level owns rows[starts[r]:starts[r + 1]], in the
    # order a stable sort of its parent region left them
    rows = np.arange(model_sample.n)
    starts = np.array([0, model_sample.n])
    breaks = []
    for level, (axis, fan) in enumerate(zip(axes, spec.branching)):
        sizes = np.diff(starts)
        if np.any(sizes < fan):
            r = int(np.argmax(sizes < fan))  # the first short region in level order
            path = tuple(map(int, np.unravel_index(r, spec.branching[:level])))
            raise CapacityError(
                f"region {path}: {sizes[r]} building points cannot fill {fan} bins"
            )
        cuts = sizes[:, None] * np.arange(fan + 1) // fan  # child offsets per region
        col = model_sample.values[rows, axis]
        level_breaks = np.empty((len(sizes), fan - 1))
        for r, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            order = np.argsort(col[lo:hi], kind="stable")
            rows[lo:hi] = rows[lo:hi][order]
            # order statistics, 1-indexed
            level_breaks[r] = col[lo + order[cuts[r, 1:-1] - 1]]
        breaks.append(level_breaks)
        starts = np.append(0, (starts[:-1, None] + cuts[:, 1:]).ravel())
    counts = tuple(np.diff(starts).tolist())
    return PartitionTree(model_sample.k, axes, model_sample.bounds, tuple(breaks), counts)


def build_fixed_partition(grid, bounds=None) -> PartitionTree:
    """Sample-independent product grid from per-axis sorted breakpoint lists."""
    grid = [np.asarray(g, dtype=float) for g in grid]
    k = len(grid)
    if k < 1:
        raise ValueError("need breakpoints for at least one axis")
    for i, g in enumerate(grid):
        if g.size and np.any(np.diff(g) <= 0):
            raise ValueError(f"axis {i}: breakpoints must be strictly increasing")
    bounds = tuple(bounds) if bounds else tuple((-np.inf, np.inf) for _ in range(k))
    breaks, regions = [], 1
    for g in grid:
        breaks.append(np.tile(g, (regions, 1)))
        regions *= g.size + 1
    return PartitionTree(k, tuple(range(k)), bounds, tuple(breaks), None)


def assign(tree: PartitionTree, values) -> np.ndarray:
    """Leaf id of every row of values, the leaf whose (lo, hi] chain holds it."""
    values = np.asarray(values, dtype=float)
    ids = np.zeros(len(values), dtype=np.intp)
    for axis, level in zip(tree.axes, tree.breaks):
        ids = ids * (level.shape[1] + 1) + (level[ids] < values[:, axis, None]).sum(1)
    return ids


def locate(tree: PartitionTree, point) -> int:
    """Index of the unique leaf whose (lo, hi] interval chain contains point."""
    return int(assign(tree, np.asarray(point, dtype=float)[None, :])[0])


def count_into_bins(tree: PartitionTree, sample: Dataset):
    """Vector of per-leaf row counts for the sample; sums to sample.n."""
    if sample.k != tree.k:
        raise ValueError(f"sample dimension {sample.k} != tree dimension {tree.k}")
    return np.bincount(assign(tree, sample.values), minlength=tree.leaf_count)


def model_pmf(tree: PartitionTree) -> np.ndarray:
    """Theoretical equal-mass leaf probabilities 1/(product of branchings)."""
    if tree.counts is None:
        raise ValueError("model_pmf requires a moving partition")
    return np.full(tree.leaf_count, 1.0 / tree.leaf_count)


def free_param_count(tree: PartitionTree) -> int:
    """Free parameters of the induced multinomial: leaf count minus one."""
    return tree.leaf_count - 1


def _endpoint_to_json(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def tree_to_json(tree: PartitionTree) -> str:
    doc = {
        "dimension": tree.k,
        "depth": tree.depth,
        "axes": list(tree.axes),
        "bounds": [[_endpoint_to_json(lo), _endpoint_to_json(hi)] for lo, hi in tree.bounds],
        "leaves": [
            {
                "path": list(leaf.path),
                "intervals": [
                    [_endpoint_to_json(lo), _endpoint_to_json(hi)]
                    for lo, hi in leaf.intervals
                ],
                "count": leaf.count,
            }
            for leaf in tree.leaves
        ],
    }
    return json.dumps(doc, indent=2)


def tree_from_json(text: str) -> PartitionTree:
    """Partition from ``tree_to_json`` output.

    Raises ValueError unless the document's leaves are exactly the
    lexicographic leaves of the partition that their ``hi`` ends describe.
    """
    doc = json.loads(text)
    axes, k, entries = tuple(doc["axes"]), doc["dimension"], doc["leaves"]
    bounds = tuple((float(lo), float(hi)) for lo, hi in doc["bounds"])
    paths = [tuple(entry["path"]) for entry in entries]
    chains = [tuple((float(lo), float(hi)) for lo, hi in e["intervals"]) for e in entries]
    counts = [entry["count"] for entry in entries]
    depth = len(axes)
    if doc["depth"] != depth or len(bounds) != k or not set(axes) <= set(range(k)):
        raise ValueError("partition document axes do not match its depth and dimension")
    if {(len(path), len(chain)) for path, chain in zip(paths, chains)} != {(depth, depth)}:
        raise ValueError("partition document leaves need one interval per level")
    fans = [max(path[level] for path in paths) + 1 for level in range(depth)]
    if len(paths) != math.prod(fans):
        raise ValueError("partition document leaf count is not the product of its fan-outs")
    # level l: the hi end of the first leaf below each child of every region
    his = np.array([[hi for _, hi in chain] for chain in chains])
    breaks = tuple(
        his[:, level].reshape(math.prod(fans[:level]), fan, -1)[:, :-1, 0]
        for level, fan in enumerate(fans)
    )
    tree = PartitionTree(k, axes, bounds, breaks, None if None in counts else tuple(counts))
    rebuilt = [(leaf.path, leaf.intervals, leaf.count) for leaf in tree.leaves]
    if rebuilt != list(zip(paths, chains, counts)) or any(
        np.any(np.diff(level) < 0) for level in tree.breaks
    ):
        raise ValueError("partition document leaves do not tile their regions")
    return tree
