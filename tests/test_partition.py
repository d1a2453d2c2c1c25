import json
from itertools import pairwise

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
    free_param_count,
    locate,
    model_pmf,
    tree_from_json,
    tree_to_json,
)


@pytest.fixture
def eight_point_tree():
    sample = Dataset(np.arange(0.1, 0.81, 0.1).reshape(-1, 1))
    return build_moving_partition(sample, PartitionSpec(depth=1, branching=4)), sample


class TestMovingPartition:
    def test_hand_worked_intervals(self, eight_point_tree):
        tree, _ = eight_point_tree
        chains = [leaf.intervals[0] for leaf in tree.leaves]
        assert chains[0] == (-np.inf, 0.2)
        assert chains[1] == (0.2, 0.4)
        assert chains[2] == (0.4, 0.6)
        assert chains[3][0] == 0.6 and np.isposinf(chains[3][1])

    def test_building_counts_are_index_differences(self, eight_point_tree):
        tree, _ = eight_point_tree
        assert [leaf.count for leaf in tree.leaves] == [2, 2, 2, 2]

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
        "branching", [(4, 1), 1, (4, 3, 2), {(): 2, (0,): 2, (1,): 4}]
    )
    def test_bad_branching_rejected_at_construction(self, branching):
        with pytest.raises(ValueError, match="branching"):
            PartitionSpec(depth=2, branching=branching)

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
        assert tree.leaves[0].intervals[0][0] == 0.0
        assert tree.leaves[-1].intervals[0][1] == 1.0


class TestFixedPartition:
    def test_single_breakpoint(self):
        tree = build_fixed_partition([[0.0]])
        assert tree.leaf_count == 2
        assert locate(tree, [0.0]) == 0
        assert locate(tree, [1e-9]) == 1

    def test_quadrants(self):
        tree = build_fixed_partition([[0.0], [0.0]])
        assert tree.leaf_count == 4
        assert locate(tree, [-1, -1]) == 0
        assert locate(tree, [1, 1]) == 3

    def test_unsorted_breakpoints(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_fixed_partition([[1.0, 1.0]])

    def test_counts_unset(self):
        tree = build_fixed_partition([[0.0]])
        assert all(leaf.count is None for leaf in tree.leaves)


class TestLocate:
    def test_boundary_belongs_to_lower_bin(self, eight_point_tree):
        tree, _ = eight_point_tree
        assert locate(tree, [0.2]) == 0
        assert locate(tree, [0.200001]) == 1

    def test_unbounded_first_bin(self, eight_point_tree):
        tree, _ = eight_point_tree
        assert locate(tree, [-1e9]) == 0


class TestCounting:
    def test_self_consistency(self, eight_point_tree):
        tree, sample = eight_point_tree
        counts = count_into_bins(tree, sample)
        assert counts.tolist() == [leaf.count for leaf in tree.leaves]

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

    def test_fixed_tree_rejected(self):
        tree = build_fixed_partition([[0.0]])
        with pytest.raises(ValueError):
            model_pmf(tree)


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
            idx = [locate(tree, p) for p in points]
            assert all(0 <= i < tree.leaf_count for i in idx)
            counts = count_into_bins(tree, Dataset(points))
            assert counts.sum() == len(points)
            np.testing.assert_array_equal(
                counts, np.bincount(idx, minlength=tree.leaf_count)
            )

    def test_interval_chains_tile_support(self):
        sample = Dataset(RngStream(4).generator().standard_normal((500, 2)))
        tree = build_moving_partition(sample, PartitionSpec(depth=2, branching=3))
        # group leaves by first-coordinate bin; second-level intervals must tile
        for first in range(3):
            group = [l for l in tree.leaves if l.path[0] == first]
            group.sort(key=lambda l: l.path[1])
            assert np.isneginf(group[0].intervals[1][0])
            assert np.isposinf(group[-1].intervals[1][1])
            for a, b in zip(group, group[1:]):
                assert a.intervals[1][1] == b.intervals[1][0]

    def test_permutation_invariance(self):
        rng = RngStream(5).generator()
        values = rng.standard_normal((200, 2))
        spec = PartitionSpec(depth=2, branching=3)
        t1 = build_moving_partition(Dataset(values), spec)
        shuffled = values[rng.permutation(200)]
        t2 = build_moving_partition(Dataset(shuffled), spec)
        assert [l.intervals for l in t1.leaves] == [l.intervals for l in t2.leaves]
        assert [l.count for l in t1.leaves] == [l.count for l in t2.leaves]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_equal_mass_within_floor_bound(self, seed, branching):
        rng = RngStream(seed).generator()
        n = int(rng.integers(branching * 2, 500))
        sample = Dataset(rng.standard_normal((n, 1)))
        tree = build_moving_partition(sample, PartitionSpec(depth=1, branching=branching))
        counts = [l.count for l in tree.leaves]
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1  # depth 1: floor slack is 1

    def test_exact_equal_mass_when_divisible(self):
        sample = Dataset(RngStream(6).generator().standard_normal((4 * 4 * 9, 2)))
        tree = build_moving_partition(sample, PartitionSpec(depth=2, branching=4))
        assert {l.count for l in tree.leaves} == {9}

    def test_tied_values_deterministic(self):
        values = np.array([[0.0]] * 6 + [[1.0]] * 2)
        spec = PartitionSpec(depth=1, branching=4)
        t1 = build_moving_partition(Dataset(values), spec)
        t2 = build_moving_partition(Dataset(values.copy()), spec)
        assert [l.intervals for l in t1.leaves] == [l.intervals for l in t2.leaves]
        # duplicated order statistics produce empty-width intervals
        widths = [hi - lo for lo, hi in (l.intervals[0] for l in t1.leaves)]
        assert 0.0 in widths


class TestSerialization:
    def test_round_trip_lossless(self):
        sample = Dataset(RngStream(7).generator().standard_normal((100, 2)))
        tree = build_moving_partition(sample, PartitionSpec(depth=2, branching=3))
        again = tree_from_json(tree_to_json(tree))
        assert [l.intervals for l in again.leaves] == [l.intervals for l in tree.leaves]
        assert [l.count for l in again.leaves] == [l.count for l in tree.leaves]
        points = RngStream(8).generator().standard_normal((200, 2))
        for p in points:
            assert locate(tree, p) == locate(again, p)

    def test_infinite_endpoints_as_strings(self):
        sample = Dataset(np.arange(8.0).reshape(-1, 1))
        tree = build_moving_partition(sample, PartitionSpec(depth=1, branching=2))
        text = tree_to_json(tree)
        assert '"-inf"' in text and '"inf"' in text

    def assert_rejected(self, corrupt):
        sample = Dataset(RngStream(9).generator().standard_normal((60, 2)))
        tree = build_moving_partition(sample, PartitionSpec(depth=2, branching=3))
        doc = json.loads(tree_to_json(tree))
        corrupt(doc["leaves"])
        with pytest.raises(ValueError, match="partition document"):
            tree_from_json(json.dumps(doc))

    def test_duplicated_leaf_rejected(self):
        self.assert_rejected(lambda leaves: leaves.insert(1, leaves[0]))

    def test_interval_disagreeing_with_sibling_rejected(self):
        def corrupt(leaves):
            leaves[1]["intervals"][1][0] += 1e-3  # leaf 0 still ends at the old value

        self.assert_rejected(corrupt)

    def test_leaf_missing_a_level_rejected(self):
        self.assert_rejected(lambda leaves: leaves[2]["path"].pop())

    def test_regions_with_different_fan_outs_rejected(self):
        # region 0 split in 2 and region 1 in 4: not one fan-out per level
        leaves = [
            {"path": [i, j], "intervals": [[i - 1.0, float(i)], [lo, hi]], "count": 1}
            for i, fan in enumerate([2, 4])
            for j, (lo, hi) in enumerate(pairwise(np.linspace(-1, 1, fan + 1).tolist()))
        ]
        doc = {"dimension": 2, "depth": 2, "axes": [0, 1],
               "bounds": [[-1.0, 1.0], [-1.0, 1.0]], "leaves": leaves}
        with pytest.raises(ValueError, match="partition document"):
            tree_from_json(json.dumps(doc))
