import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hellfit import partition
from hellfit.dataset import Dataset, RngStream, UsageError
from hellfit.partition import (
    CapacityError,
    DegeneratePartitionError,
    PartitionSpec,
    PartitionTree,
    assign,
    build_moving_partition,
    count_into_bins,
    free_param_count,
    leaf_edges,
    model_pmf,
    pairwise_partitions,
    tree_to_dict,
)


@pytest.fixture
def eight_point_tree():
    sample = Dataset(np.arange(0.1, 0.81, 0.1).reshape(-1, 1))
    return build_moving_partition(sample, PartitionSpec(depth=1, branching=4)), sample


def orthants(k):
    """The k-dimensional partition split once at 0 on every axis, built directly."""
    breaks = tuple(np.zeros((2**level, 1)) for level in range(k))
    return PartitionTree(k, tuple(range(k)), ((-np.inf, np.inf),) * k, breaks, (1,) * 2**k)


class TestMovingPartition:
    def test_hand_worked_intervals(self, eight_point_tree):
        tree, _ = eight_point_tree
        lows, highs = leaf_edges(tree)
        chains = list(zip(lows[0].tolist(), highs[0].tolist()))
        assert chains[0] == (-np.inf, 0.2)
        assert chains[1] == (0.2, 0.4)
        assert chains[2] == (0.4, 0.6)
        assert chains[3][0] == 0.6 and np.isposinf(chains[3][1])

    def test_building_counts_are_index_differences(self, eight_point_tree):
        tree, _ = eight_point_tree
        assert list(tree.counts) == [2, 2, 2, 2]

    def test_64_leaves_for_depth3_branching4(self):
        sample = Dataset(RngStream(0).generator().standard_normal((5000, 3)))
        tree = build_moving_partition(sample, PartitionSpec(depth=3, branching=4))
        assert tree.leaf_count == 64
        assert free_param_count(tree) == 63

    def test_capacity_error(self):
        sample = Dataset(np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(CapacityError, match=r"region \(\)"):
            build_moving_partition(sample, PartitionSpec(depth=1, branching=4))

    @pytest.mark.parametrize(
        "branching", [(4, 1), 1, (4, 3, 2), {(): 2, (0,): 2, (1,): 4}, [4.7, 2], (4, 2.0), 3.0]
    )
    def test_bad_branching_rejected_at_construction(self, branching):
        with pytest.raises(ValueError, match="branching"):
            PartitionSpec(depth=2, branching=branching)

    @pytest.mark.parametrize(
        "depth, branching, message",
        [
            (3, (4, 3), "branching: 2 values for depth 3; give one value or one per level"),
            (2, [4, 3, 2], "branching: 3 values for depth 2; give one value or one per level"),
            (2, (4, 1), "every branching value must be >= 2"),
            (0, 4, "depth must be an int >= 1"),
        ],
    )
    def test_refusals_are_usage_errors(self, depth, branching, message):
        with pytest.raises(UsageError) as exc:
            PartitionSpec(depth=depth, branching=branching)
        assert str(exc.value) == message

    @pytest.mark.parametrize("axis_order", [(1.9, 0), (1.0, 0.0), ("1", "0")])
    def test_non_integer_axis_order_rejected(self, axis_order):
        with pytest.raises(ValueError, match="axis_order must be a permutation"):
            PartitionSpec(depth=2, branching=2, axis_order=axis_order)

    @pytest.mark.parametrize("depth", [2.0, 2.5, 0, -1])
    def test_depth_must_be_a_positive_int(self, depth):
        with pytest.raises(ValueError, match="depth must be an int >= 1"):
            PartitionSpec(depth=depth, branching=2)

    def test_numpy_integers_accepted(self):
        spec = PartitionSpec(
            depth=np.int64(2),
            branching=(np.int64(3), np.int32(2)),
            axis_order=tuple(np.arange(2)[::-1]),
        )
        assert spec.branching == (3, 2) and spec.axis_order == (1, 0)
        assert all(type(v) is int for v in spec.branching + spec.axis_order)
        assert PartitionSpec(depth=2, branching=np.int64(4)).branching == (4, 4)

    def test_branching_stored_per_level(self):
        assert PartitionSpec(depth=3, branching=4).branching == (4, 4, 4)
        assert PartitionSpec(depth=2, branching=[2, 3]).branching == (2, 3)

    def test_depth_exceeding_dimension(self):
        sample = Dataset(np.zeros((10, 1)) + np.arange(10).reshape(-1, 1))
        with pytest.raises(ValueError, match="depth"):
            build_moving_partition(sample, PartitionSpec(depth=2, branching=2))

    def test_bounded_support_propagates(self):
        sample = Dataset(
            np.linspace(0.1, 0.9, 9).reshape(-1, 1), bounds=((0.0, 1.0),)
        )
        tree = build_moving_partition(sample, PartitionSpec(depth=1, branching=3))
        lows, highs = leaf_edges(tree)
        assert lows[0, 0] == 0.0
        assert highs[0, -1] == 1.0

    @pytest.mark.parametrize(
        "k, build",
        [
            (1, lambda sample: build_moving_partition(sample, PartitionSpec(1, 4))),
            (2, lambda sample: build_moving_partition(sample, PartitionSpec(2, 4))),
            (3, lambda sample: pairwise_partitions(sample, 4)),
        ],
        ids=["depth-1-on-k-1", "depth-2-on-k-2", "pairwise"],
    )
    def test_build_leaves_the_sample_untouched(self, k, build):
        # the selection reorders values in place wherever nothing reads them afterwards
        sample = Dataset(RngStream(12).generator().standard_normal((400, k)))
        before = sample.values.tobytes()
        build(sample)
        assert sample.values.tobytes() == before


class TestLocate:
    """Point location: ``assign`` on single rows, and its input checks."""

    def test_boundary_belongs_to_lower_bin(self, eight_point_tree):
        tree, _ = eight_point_tree
        assert assign(tree, [[0.2]])[0] == 0
        assert assign(tree, [[0.200001]])[0] == 1

    def test_unbounded_first_bin(self, eight_point_tree):
        tree, _ = eight_point_tree
        assert assign(tree, [[-1e9]])[0] == 0

    @pytest.mark.parametrize("point", [[0.1, 0.2, 99.0], [0.1]])
    def test_point_of_another_dimension(self, point):
        tree = orthants(2)
        with pytest.raises(ValueError, match=f"sample dimension {len(point)} != tree dimension 2"):
            assign(tree, [point])

    def test_assign_needs_rows(self):
        tree = orthants(2)
        with pytest.raises(ValueError, match=r"2-d matrix of rows, not shape \(2,\)"):
            assign(tree, np.array([0.5, 0.7]))


class TestCounting:
    def test_self_consistency(self, eight_point_tree):
        tree, sample = eight_point_tree
        counts = count_into_bins(tree, sample)
        assert counts.tolist() == list(tree.counts)

    def test_all_mass_in_first_chain(self, eight_point_tree):
        tree, _ = eight_point_tree
        low = Dataset(np.full((5, 1), -100.0))
        counts = count_into_bins(tree, low)
        assert counts.tolist() == [5, 0, 0, 0]

    def test_dimension_mismatch(self, eight_point_tree):
        tree, _ = eight_point_tree
        with pytest.raises(ValueError, match="dimension"):
            count_into_bins(tree, Dataset(np.zeros((2, 2)) + 1.0))


class TestModelPmf:
    def test_uniform_depth1(self, eight_point_tree):
        tree, _ = eight_point_tree
        assert model_pmf(tree).tolist() == [0.25] * 4

    def test_uniform_depth3(self):
        sample = Dataset(RngStream(1).generator().standard_normal((4096, 3)))
        tree = build_moving_partition(sample, PartitionSpec(depth=3, branching=4))
        probs = model_pmf(tree)
        assert np.all(probs == 1 / 64)
        assert probs.sum() == 1.0


class TestProperties:
    def test_coverage_and_exclusivity_random_trees(self):
        rng = RngStream(3).generator()
        for trial in range(100):
            k = int(rng.integers(1, 4))
            depth = int(rng.integers(1, k + 1))
            branching = int(rng.integers(2, 5))
            n = max(branching**depth * 3, 30)
            sample = Dataset(rng.standard_normal((n, k)))
            tree = build_moving_partition(
                sample, PartitionSpec(depth=depth, branching=branching)
            )
            points = rng.standard_normal((100, k)) * 3
            idx = [assign(tree, p[None, :])[0] for p in points]
            assert all(0 <= i < tree.leaf_count for i in idx)
            counts = count_into_bins(tree, Dataset(points))
            assert counts.sum() == len(points)
            np.testing.assert_array_equal(
                counts, np.bincount(idx, minlength=tree.leaf_count)
            )

    def test_interval_chains_tile_support(self):
        sample = Dataset(RngStream(4).generator().standard_normal((500, 2)))
        tree = build_moving_partition(sample, PartitionSpec(depth=2, branching=3))
        lows, highs = leaf_edges(tree)
        leaves = list(zip(np.ndindex(*tree.fans), lows[1], highs[1]))
        # group leaves by first-coordinate bin; second-level intervals must tile
        for first in range(3):
            group = sorted((path[1], lo, hi) for path, lo, hi in leaves if path[0] == first)
            assert np.isneginf(group[0][1])
            assert np.isposinf(group[-1][2])
            for a, b in zip(group, group[1:]):
                assert a[2] == b[1]

    def test_permutation_invariance(self):
        rng = RngStream(5).generator()
        values = rng.standard_normal((200, 2))
        spec = PartitionSpec(depth=2, branching=3)
        t1 = build_moving_partition(Dataset(values), spec)
        shuffled = values[rng.permutation(200)]
        t2 = build_moving_partition(Dataset(shuffled), spec)
        for a, b in zip(leaf_edges(t1), leaf_edges(t2)):
            np.testing.assert_array_equal(a, b)
        assert t1.counts == t2.counts

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_equal_mass_within_floor_bound(self, seed, branching):
        rng = RngStream(seed).generator()
        n = int(rng.integers(branching * 2, 500))
        sample = Dataset(rng.standard_normal((n, 1)))
        tree = build_moving_partition(sample, PartitionSpec(depth=1, branching=branching))
        counts = list(tree.counts)
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1  # depth 1: floor slack is 1

    def test_exact_equal_mass_when_divisible(self):
        sample = Dataset(RngStream(6).generator().standard_normal((4 * 4 * 9, 2)))
        tree = build_moving_partition(sample, PartitionSpec(depth=2, branching=4))
        assert set(tree.counts) == {9}

    def test_tied_values_deterministic(self):
        # 6 x 0.0 and 2 x 1.0 in 4 bins: 0.0 sits on both sides of the first cuts
        values = np.array([[0.0]] * 6 + [[1.0]] * 2)
        spec = PartitionSpec(depth=1, branching=4)
        errors = []
        for sample in (Dataset(values), Dataset(values[::-1].copy())):
            with pytest.raises(DegeneratePartitionError, match=r"region \(\): .* axis 0") as exc:
                build_moving_partition(sample, spec)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_atom_below_the_root_names_its_region(self):
        x = np.arange(16.0)  # root region j holds rows 4j .. 4j + 3
        y = RngStream(10).generator().standard_normal(16)
        y[8:12] = 7.0  # region (2,) is one value on axis 1
        sample = Dataset(np.column_stack([x, y]))
        with pytest.raises(DegeneratePartitionError, match=r"region \(2,\): .* axis 1"):
            build_moving_partition(sample, PartitionSpec(depth=2, branching=4))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_leaf_counts_equal_a_value_based_recount(self, seed, k, branching, coarse):
        rng = RngStream(seed).generator()
        depth = int(rng.integers(1, k + 1))
        values = rng.standard_normal((int(rng.integers(branching**depth, 400)), k))
        if coarse:  # ties everywhere; only builds without an atom at a break succeed
            values = np.round(values * 4) / 4
        sample = Dataset(values)
        try:
            tree = build_moving_partition(sample, PartitionSpec(depth, branching))
        except (CapacityError, DegeneratePartitionError):
            return
        assert count_into_bins(tree, sample).tolist() == list(tree.counts)


# ------------------------------------------------------ the pairwise scan's pool


def scan_outcome(model, branching):
    """The pairwise trees as bytes in their order, or the type and message of the error raised."""
    try:
        trees = pairwise_partitions(model, branching)
    except (CapacityError, DegeneratePartitionError) as exc:
        return type(exc), str(exc)
    return [
        (key, tree.axes, tree.bounds, [b.tobytes() for b in tree.breaks], tree.counts)
        for key, tree in trees.items()
    ]


def serial_outcome(model, branching):
    """``scan_outcome`` of one independent build per pair, in (i, j) order."""
    trees = []
    for i, j in [(i, j) for i in range(model.k) for j in range(i + 1, model.k)]:
        try:
            tree = build_moving_partition(model, PartitionSpec(2, branching, (i, j)))
        except (CapacityError, DegeneratePartitionError) as exc:
            return type(exc), str(exc)
        breaks = [b.tobytes() for b in tree.breaks]
        trees.append(((i, j), tree.axes, tree.bounds, breaks, tree.counts))
    return trees


def defective(defect, k=4):
    """A model sample with the named defect: atoms on the listed axes, or too few rows."""
    values = RngStream(21).generator().standard_normal((15 if defect == "capacity" else 400, k))
    if defect.startswith("atom"):
        for axis in map(int, defect.split("-")[1:]):
            values[:, axis] = np.round(values[:, axis])  # an atom at the root median
    return Dataset(values)


class TestPairwisePool:
    """``pairwise_partitions`` splits the second levels on a thread pool."""

    def test_one_worker_gives_the_same_trees(self, monkeypatch):
        model = Dataset(RngStream(22).generator().standard_normal((3000, 5)))
        pooled = scan_outcome(model, 4)
        monkeypatch.setattr(partition, "usable_cpus", lambda: 1)
        assert scan_outcome(model, 4) == pooled == serial_outcome(model, 4)

    @pytest.mark.parametrize("defect", ["none", "atom-1", "atom-1-2", "atom-2", "capacity"])
    def test_a_slow_first_pair_keeps_the_order_and_the_first_error(self, monkeypatch, defect):
        split = partition._split_level

        def slow_first_pair(column, rows, starts, axis, fans, level):
            if level == 1 and axis == 1:  # pair (0, 1) alone splits axis 1 below a root
                time.sleep(0.05)
            return split(column, rows, starts, axis, fans, level)

        monkeypatch.setattr(partition, "_split_level", slow_first_pair)
        model = defective(defect)
        got = scan_outcome(model, 4)
        assert got == serial_outcome(model, 4)
        assert isinstance(got, list) == (defect == "none")

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_the_rows_of_at_most_two_roots_are_alive(self, monkeypatch, cpus):
        """A root's rows live from its split until the last of its pairs is split.

        The pairs are slowed, so that the calling thread would run ahead if it
        could; eight workers and 10 us thread switches interleave them finely.
        """
        k, split, lock = 6, partition._split_level, threading.Lock()
        roots, unsplit, alive = {}, {}, []  # roots: id of a root's rows -> (its axis, the rows)

        def counted(column, rows, starts, axis, fans, level):
            if level == 0:
                with lock:
                    unsplit[axis] = k - 1 - axis  # the pairs of this root still to split
                    alive.append(sum(map(bool, unsplit.values())))
            result = split(column, rows, starts, axis, fans, level)
            if level == 0:
                roots[id(result[1])] = axis, result[1]
            else:
                time.sleep(0.005)
                with lock:
                    unsplit[roots[id(rows)][0]] -= 1
            return result

        monkeypatch.setattr(partition, "_split_level", counted)
        monkeypatch.setattr(partition, "usable_cpus", lambda: cpus)
        model = Dataset(RngStream(23).generator().standard_normal((2000, k)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = scan_outcome(model, 4)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert got == serial_outcome(model, 4)
        assert len(alive) == k - 1 and max(alive) <= 2 and not any(unsplit.values())

    @pytest.mark.parametrize("defect", ["none", "capacity", "atom-1"])
    def test_the_pool_leaves_no_thread_behind(self, defect):
        before = threading.active_count()
        got = scan_outcome(defective(defect), 4)
        assert isinstance(got, list) == (defect == "none")
        assert threading.active_count() == before


def assign_2d(tree, values):
    """``assign`` as a 2-D gather per level: each row against all breaks of its region."""
    ids = np.zeros(len(values), dtype=np.intp)
    for axis, level in zip(tree.axes, tree.breaks):
        ids = ids * (level.shape[1] + 1) + (level[ids] < values[:, axis, None]).sum(1)
    return ids


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_assign_matches_a_2d_gather(seed, depth, bounded):
    """Per-level branching, any axis order, finite bounds, and points on the breaks."""
    rng = RngStream(seed).generator()
    k = depth + int(rng.integers(0, 2))
    fans = tuple(int(fan) for fan in rng.integers(2, 5, size=depth))
    axes = tuple(int(a) for a in rng.permutation(k)[:depth])
    bounds = ((-3.0, 3.0),) * k if bounded else ()
    model = Dataset(rng.uniform(-2.9, 3.0, size=(int(rng.integers(200, 500)), k)), bounds)
    tree = build_moving_partition(model, PartitionSpec(depth, fans, axis_order=axes))
    points = rng.uniform(-3.0, 3.0, size=(300, k))
    for axis, level in zip(tree.axes, tree.breaks):  # a third of the rows sit on a break
        points[:100, axis] = rng.choice(level.ravel(), 100)
    if bounded:
        points[100:110] = 3.0  # the top of the support
    points = np.asfortranarray(points) if rng.integers(2) else points
    assert np.array_equal(assign(tree, points), assign_2d(tree, points))
    assert np.array_equal(assign(tree, model.values), assign_2d(tree, model.values))


class TestSerialization:
    def test_round_trip_lossless(self):
        sample = Dataset(RngStream(7).generator().standard_normal((100, 2)))
        tree = build_moving_partition(sample, PartitionSpec(depth=2, branching=3))
        leaves = json.loads(json.dumps(tree_to_dict(tree)))["leaves"]
        chains = np.array([leaf["intervals"] for leaf in leaves], dtype=float)
        lows, highs = leaf_edges(tree)
        np.testing.assert_array_equal(chains[..., 0], lows.T)
        np.testing.assert_array_equal(chains[..., 1], highs.T)
        assert tuple(leaf["count"] for leaf in leaves) == tree.counts

    def test_infinite_endpoints_as_strings(self):
        sample = Dataset(np.arange(8.0).reshape(-1, 1))
        tree = build_moving_partition(sample, PartitionSpec(depth=1, branching=2))
        text = json.dumps(tree_to_dict(tree), allow_nan=False)
        assert '"-inf"' in text and '"inf"' in text
