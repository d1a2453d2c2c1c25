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

A leaf's path is its child index at every level, and leaves are numbered in
lexicographic path order, ``np.ndindex(*tree.fans)``.  ``leaf_edges`` reads
every leaf's (lo, hi] per level from the level arrays; ``tree_to_dict``
builds the JSON document from those arrays.  This module is the only one
that knows how a partition is stored and split: ``build_moving_partition``
and ``pairwise_partitions`` share the per-level split ``_split_level``.

The moving build runs level by level on a permutation of the row indices,
reading each split axis from its column, a contiguous view, one region's
rows at a time.  Per region, ``np.partition`` calls with one index each
select the order statistic just below every cut, which is the break; the one
at the cut is the least value above it.  Where a level follows, each row's
child is found by value with ``assign``'s rule, one comparison of the row
with every break of its region, and the rows are regrouped by one stable
sort of the child ids, in the smallest unsigned type that holds them; after
the last level no child is computed.  When the two order statistics at a
cut are equal, building points tie across the break (an atom of the model
sample) and the build raises ``DegeneratePartitionError``: splitting tied
rows by position would give leaf counts that ``assign`` cannot reproduce.
Otherwise the children by value are exactly the children by position, so
every leaf count equals a recount of the building sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import math
import numbers

import numpy as np

from hellfit.dataset import Dataset, ordered, usable_cpus


class CapacityError(ValueError):
    """Building sample too small for the requested branching."""


class DegeneratePartitionError(ValueError):
    """Building points tie across a break: the model sample has an atom there."""


def _integral(values) -> bool:
    """True when every entry is an integer (Python or numpy), not a float."""
    return all(isinstance(value, numbers.Integral) for value in values)


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
        if not isinstance(self.depth, numbers.Integral) or self.depth < 1:
            raise ValueError("depth must be an int >= 1")
        b = self.branching
        if isinstance(b, numbers.Integral):
            b = [b] * self.depth
        elif not isinstance(b, (list, tuple)) or not _integral(b):
            raise ValueError("branching must be an int or one int per level")
        object.__setattr__(self, "branching", tuple(int(bins) for bins in b))
        if len(self.branching) != self.depth:
            raise ValueError("per-level branching list must have one entry per level")
        if self.axis_order is not None:
            order = tuple(self.axis_order)
            if not _integral(order) or len(order) != self.depth or len(set(order)) != self.depth:
                raise ValueError("axis_order must be a permutation of depth distinct axes")
            object.__setattr__(self, "axis_order", tuple(int(a) for a in order))
        if min(self.branching) < 2:
            raise ValueError("every branching value must be >= 2")

    def axis_at(self, level: int) -> int:
        return level if self.axis_order is None else self.axis_order[level]


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """Immutable nested-region partition stored level by level.

    ``breaks[level]`` is a ``(regions, fan - 1)`` array whose row ``r`` holds
    the sorted split points of region ``r`` of that level; ``counts`` holds the
    building-sample count per leaf.  Leaves are numbered in lexicographic path
    order, ``np.ndindex(*fans)``, and ``leaf_edges`` reads their intervals from
    the level arrays.
    """

    k: int
    axes: tuple[int, ...]  # split axis per level
    bounds: tuple[tuple[float, float], ...]
    breaks: tuple[np.ndarray, ...]
    counts: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.axes)

    @property
    def fans(self) -> tuple[int, ...]:
        return tuple(level.shape[1] + 1 for level in self.breaks)

    @property
    def leaf_count(self) -> int:
        return math.prod(self.fans)


def leaf_edges(tree: PartitionTree) -> tuple[np.ndarray, np.ndarray]:
    """(lows, highs), each ``(depth, leaf_count)``: every leaf's (lo, hi] per level.

    Read from the level arrays: each region's breaks padded with the axis
    bounds, repeated down to the leaves below each child.
    """
    lows, highs = [], []
    for axis, level in zip(tree.axes, tree.breaks):
        lo, hi = tree.bounds[axis]
        edges = np.column_stack([np.full(len(level), lo), level, np.full(len(level), hi)])
        below = tree.leaf_count // edges[:, 1:].size  # leaves under each child
        lows.append(np.repeat(edges[:, :-1].ravel(), below))
        highs.append(np.repeat(edges[:, 1:].ravel(), below))
    return np.array(lows), np.array(highs)


def build_moving_partition(model_sample: Dataset, spec: PartitionSpec) -> PartitionTree:
    """Equal-mass recursive partition built from the model sample."""
    if spec.depth > model_sample.k:
        raise ValueError("partition depth exceeds sample dimension")
    axes = tuple(spec.axis_at(level) for level in range(spec.depth))
    if max(axes) >= model_sample.k:
        raise ValueError("axis_order references a missing coordinate")
    rows, starts, breaks = None, np.array([0, model_sample.n]), []
    for level, axis in enumerate(axes):
        column = model_sample.values[:, axis]
        split, rows, starts = _split_level(column, rows, starts, axis, spec.branching, level)
        breaks.append(split)
    counts = tuple(np.diff(starts).tolist())
    return PartitionTree(model_sample.k, axes, model_sample.bounds, tuple(breaks), counts)


def pairwise_partitions(model: Dataset, branching: int) -> dict:
    """One depth-2 partition per coordinate pair (i, j), i < j, splitting i then j.

    Each tree equals ``build_moving_partition`` with ``axis_order=(i, j)``;
    axis i's root level is split once and shared by every pair (i, j).
    """
    if model.k < 2:
        raise ValueError("pairwise scan needs k >= 2")
    fans, every_row = (branching, branching), np.array([0, model.n])

    def pair(i, j, root, rows, starts):
        split, _, ends = _split_level(model.values[:, j], rows, starts, j, fans, 1)
        counts = tuple(np.diff(ends).tolist())
        return (i, j), PartitionTree(model.k, (i, j), model.bounds, (root, split), counts)

    def roots():  # one batch of pairs per root, split on the calling thread
        for i in range(model.k - 1):
            root = _split_level(model.values[:, i], None, every_row, i, fans, 0)
            yield [partial(pair, i, j, *root) for j in range(i + 1, model.k)]

    return dict(ordered(roots(), 1, usable_cpus()))


def _split_level(column, rows, starts, axis, fans, level):
    """Split every region of ``level`` into ``fans[level]`` equal-count children on ``axis``.

    ``column`` is the sample's ``axis`` column, a contiguous view of the
    caller's data: a gather from it is several times faster than one across
    the rows of a row-major matrix.  Region ``r`` owns
    ``rows[starts[r]:starts[r + 1]]``; at level 0 ``rows`` is None, for one
    region holding every row in order.  ``fans`` holds the fan-out of every
    level.  Returns the level's ``(regions, fan - 1)`` breaks and the next
    level's rows and starts.  Children are computed only where a level
    follows: child ``r * fan + j`` holds region ``r``'s rows in
    ``(break j - 1, break j]``, and a row's ``j`` is the number of breaks
    below its value, ``assign``'s rule.  After the last level the rows are
    returned as they came.  Each region's values are gathered on their own,
    ``column[rows[lo:hi]]``, so no n-row temporary is made below the root,
    and selected in a copy, except at a last level below the root, where
    nothing reads the gather afterwards.  The child ids take the smallest
    unsigned type that holds them, so up to 256 children are regrouped by a
    one-pass radix sort; at level 0 the stable sort of the ids is itself the
    next level's rows.
    """
    fan, sizes = fans[level], np.diff(starts)
    if np.any(sizes < fan):
        r = int(np.argmax(sizes < fan))  # the first short region in level order
        raise CapacityError(
            f"region {_path(r, fans[:level])}: {sizes[r]} building points cannot fill {fan} bins"
        )
    cuts = sizes[:, None] * np.arange(fan + 1) // fan  # child offsets per region
    breaks, last = np.empty((len(sizes), fan - 1)), level + 1 == len(fans)
    if not last:
        child = np.empty(starts[-1], np.min_scalar_type(len(sizes) * fan - 1))
    for r, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        region = column[lo:hi] if rows is None else column[rows[lo:hi]]
        below = cuts[r, 1:-1] - 1  # 0-indexed order statistics just below each cut
        stats = _select(region if last and rows is not None else region.copy(), below)
        breaks[r] = stats[below] + 0.0  # a zero break is +0.0, whatever order its rows are in
        # the order statistic at a cut is the least value above the one just below it
        if np.any(stats[below] == np.minimum.reduceat(stats, below + 1)):
            raise DegeneratePartitionError(
                f"region {_path(r, fans[:level])}: building points tie at a break on axis "
                f"{axis}; a moving partition needs a continuous model sample"
            )
        del stats  # freed before the next allocation: glibc then reuses its pages, not fresh ones
        if not last:
            child[lo:hi] = r * fan
            for b in breaks[r]:  # one pass per break: no (fan - 1) x n temporary
                child[lo:hi] += b < region
    if not last:  # children, regrouped by a stable sort of their ids
        order = np.argsort(child, kind="stable")
        rows = order if rows is None else rows[order]
    return breaks, rows, np.append(0, (starts[:-1, None] + cuts[:, 1:]).ravel())


def _select(x, ks):
    """``x``, reordered in place so that ``x[k]`` is its k-th smallest value for each k in ``ks``.

    ``ks`` is sorted.  It is bisected into one k per ``partition`` call:
    numpy selects a single k several times faster than a list of them (three
    cuts of a 5e5-row region on an AVX-512 Xeon: 3.2 ms against 13.6 ms).
    """
    if len(ks):
        m = len(ks) // 2
        x.partition(ks[m])
        _select(x[: ks[m]], ks[:m])
        _select(x[ks[m] + 1 :], ks[m + 1 :] - ks[m] - 1)
    return x


def _path(region: int, shape) -> tuple[int, ...]:
    return tuple(map(int, np.unravel_index(region, shape)))


def assign(tree: PartitionTree, values) -> np.ndarray:
    """Leaf id of every row of values, the leaf whose (lo, hi] chain holds it."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-d matrix of rows, not shape {values.shape}")
    if values.shape[1] != tree.k:
        raise ValueError(f"sample dimension {values.shape[1]} != tree dimension {tree.k}")
    ids = np.zeros(len(values), dtype=np.intp)
    for axis, level in zip(tree.axes, tree.breaks):
        column, child = values[:, axis], ids * (level.shape[1] + 1)
        for breaks in level.T:  # one pass per break: no (n, fan - 1) temporary
            child += breaks[ids] < column
        ids = child
    return ids


def count_into_bins(tree: PartitionTree, sample: Dataset):
    """Vector of per-leaf row counts for the sample; sums to sample.n."""
    return np.bincount(assign(tree, sample.values), minlength=tree.leaf_count)


def model_pmf(tree: PartitionTree) -> np.ndarray:
    """Theoretical equal-mass leaf probabilities 1/(product of branchings)."""
    return np.full(tree.leaf_count, 1.0 / tree.leaf_count)


def free_param_count(tree: PartitionTree) -> int:
    """Free parameters of the induced multinomial: leaf count minus one."""
    return tree.leaf_count - 1


def _json_endpoints(x) -> list:
    """``x`` as nested lists, each infinite endpoint written as "inf" or "-inf"."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isinf(x), np.where(x > 0, "inf", "-inf"), x.astype(object)).tolist()


def tree_to_dict(tree: PartitionTree) -> dict:
    """The partition as a JSON-ready document: every leaf's path, (lo, hi] per level and count."""
    chains = _json_endpoints(np.stack(leaf_edges(tree), axis=-1).swapaxes(0, 1))
    return {
        "dimension": tree.k,
        "depth": tree.depth,
        "axes": list(tree.axes),
        "bounds": _json_endpoints(tree.bounds),
        "leaves": [
            {"path": list(path), "intervals": chain, "count": count}
            for path, chain, count in zip(np.ndindex(*tree.fans), chains, tree.counts)
        ],
    }
