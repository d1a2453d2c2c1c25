import math
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import multivariate_normal, norm

from hellfit import mc_validate
from hellfit.criterion import (
    bias_correction,
    evaluate_fitness,
    pairwise_marginal_scan,
    pairwise_payload,
)
from hellfit.dataset import Dataset, RngStream, ar_covariance
from hellfit.divergence import generator_by_name, hellinger
from hellfit.mc_validate import (
    BiasBoundReport,
    MultivariateNormal,
    UniformCube,
    bias_bound_check,
    fixed_risk_prediction,
    one_sample_risk_fixed,
    one_sample_risk_moving,
    reproduce_table,
    validate_payload,
)
from hellfit.partition import (
    CapacityError,
    PartitionSpec,
    PartitionTree,
    build_moving_partition,
    count_into_bins,
    free_param_count,
    leaf_edges,
    model_pmf,
    pairwise_partitions,
)


def grid_tree(grid):
    """The unbounded product grid with these per-axis breakpoints, axis i split at level i."""
    breaks, regions = [], 1
    for g in grid:
        breaks.append(np.tile(np.asarray(g, dtype=float), (regions, 1)))
        regions *= len(g) + 1
    k, bounds = len(grid), ((-np.inf, np.inf),) * len(grid)
    return PartitionTree(k, tuple(range(k)), bounds, tuple(breaks), (0,) * regions)


def grid_leaf_mass(dist, grid, path):
    """Mass of the leaf at ``path`` of the product grid with these breakpoints."""
    masses = dist.leaf_masses(grid_tree(grid))
    return masses[np.ravel_multi_index(path, [len(g) + 1 for g in grid])]


class TestDistributions:
    def test_uniform_region_mass(self):
        cube = UniformCube(2)
        assert grid_leaf_mass(cube, [[0.5], [0.25]], (0, 1)) == pytest.approx(0.5 * 0.75)

    def test_uniform_sampling_in_bounds(self):
        ds = UniformCube(3).sample(1000, RngStream(0))
        assert ds.k == 3
        assert np.all(ds.values > 0) and np.all(ds.values <= 1)

    def test_mvn_independent_mass_factorizes(self):
        dist = MultivariateNormal([0.0, 1.0], np.diag([1.0, 4.0]))
        expected = norm.cdf(0.0) * (norm.cdf(3.0, 1.0, 2.0) - norm.cdf(1.0, 1.0, 2.0))
        mass = grid_leaf_mass(dist, [[0.0], [1.0, 3.0]], (0, 1))  # (-inf, 0] x (1, 3]
        assert mass == pytest.approx(expected, rel=1e-12)

    def test_mvn_correlated_mass_vs_mc(self):
        dist = MultivariateNormal.shifted(2, 0.0, 0.5)
        mass = grid_leaf_mass(dist, [[-0.5, 0.8], [0.0]], (1, 1))  # (-0.5, 0.8] x (0, inf)
        pts = dist.sample(200000, RngStream(1)).values
        inside = (
            (pts[:, 0] > -0.5) & (pts[:, 0] <= 0.8) & (pts[:, 1] > 0.0)
        ).mean()
        assert mass == pytest.approx(inside, abs=4 * math.sqrt(0.25 / 200000) + 1e-4)

    def test_mvn_whole_space_mass_one(self):
        dist = MultivariateNormal.shifted(2, 0.3, 0.2)
        assert grid_leaf_mass(dist, [[], []], (0, 0)) == pytest.approx(1.0, abs=1e-6)

    def test_shifted_family_parameters(self):
        dist = MultivariateNormal.shifted(3, 0.1, 0.2)
        assert np.allclose(dist.mean, 0.1)
        assert dist.cov[0, 0] == pytest.approx(1.2)
        assert dist.cov[0, 1] == pytest.approx(0.2 * 0.95)
        assert dist.cov[0, 2] == pytest.approx(0.2 * 0.95**2)

    def test_true_leaf_masses_sum_to_one(self):
        dist = MultivariateNormal([0.0], [[1.0]])
        sample = dist.sample(4000, RngStream(2))
        tree = build_moving_partition(sample, PartitionSpec(depth=1, branching=4))
        masses = dist.leaf_masses(tree)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        # equal-mass splits of the sampling distribution: each mass near 1/4
        assert np.all(np.abs(masses - 0.25) < 0.03)


def reference_normal_cdf(x) -> np.ndarray:
    """``_normal_cdf`` one element at a time: ``math.erf`` below |z| = 1, a
    reflected ``math.erfc`` from it on, NaN included."""

    def one(value):
        z = value * math.sqrt(0.5)
        if abs(z) < 1.0:
            return 0.5 + 0.5 * math.erf(z)
        tail = 0.5 * math.erfc(abs(z))
        return 1.0 - tail if z > 0 else tail

    return np.array([one(value) for value in x.ravel().tolist()]).reshape(x.shape)


# |z| = 1 (x = +-sqrt 2) and the doubles beside it, signed zeros, infinities, NaN
CDF_EDGES = [np.nextafter(math.sqrt(2), 0), math.sqrt(2), np.nextafter(math.sqrt(2), 2)]
CDF_EDGES += [-x for x in CDF_EDGES] + [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]


class TestNormalCdf:
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=3, max_dims=3, max_side=5),
            elements=st.floats() | st.sampled_from(CDF_EDGES) | st.floats(-3.0, 3.0),
        )
    )
    @example(np.array(CDF_EDGES).reshape(2, 3, 2))
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit_the_per_element_reference(self, x):
        assert mc_validate._normal_cdf(x).tobytes() == reference_normal_cdf(x).tobytes()


def reference_box_mass(dist, axes, box) -> float:
    """One box at a time: the per-box mass that ``leaf_masses`` replaced."""
    if isinstance(dist, UniformCube):
        mass = 1.0
        for (lo, hi) in box:
            mass *= min(max(hi, 0.0), 1.0) - min(max(lo, 0.0), 1.0)
        return mass
    axes = list(axes)
    sub_cov = dist.cov[np.ix_(axes, axes)]
    sub_mean = dist.mean[axes]
    off_diag = sub_cov - np.diag(np.diag(sub_cov))
    if len(axes) == 1 or not np.any(off_diag):
        mass = 1.0
        for i, (lo, hi) in enumerate(box):
            sd = math.sqrt(sub_cov[i, i])
            mass *= norm.cdf(hi, sub_mean[i], sd) - norm.cdf(lo, sub_mean[i], sd)
        return mass
    joint = multivariate_normal(mean=sub_mean, cov=sub_cov, seed=0)
    lowers = np.array([lo for lo, _ in box])
    uppers = np.array([hi for _, hi in box])
    total = 0.0
    for mask in range(1 << len(axes)):
        corner = uppers.copy()
        sign = 1.0
        for i in range(len(axes)):
            if mask >> i & 1:
                corner[i] = lowers[i]
                sign = -sign
        if np.any(np.isneginf(corner)):
            continue
        total += sign * float(joint.cdf(corner))
    return max(total, 0.0)


def reference_leaf_masses(tree, dist) -> np.ndarray:
    lows, highs = (edges.T.tolist() for edges in leaf_edges(tree))
    boxes = [list(zip(lo, hi)) for lo, hi in zip(lows, highs)]
    return np.array([reference_box_mass(dist, tree.axes, box) for box in boxes])


# Absolute tolerance of a normal leaf mass against scipy: the per-box reference
# evaluates the same CDFs, but through scipy's compiled erf and orthant code.
NORMAL_ATOL = 1e-15


def assert_matches_reference(dist, tree, got):
    want = reference_leaf_masses(tree, dist)
    if isinstance(dist, UniformCube):
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=NORMAL_ATOL)


class TestLeafMassesDifferential:
    """``leaf_masses`` against the per-box reference: byte for byte for the
    cube, within ``NORMAL_ATOL`` for the normal."""

    DISTRIBUTIONS = {
        "cube-1": UniformCube(1),
        "cube-2": UniformCube(2),
        "cube-3": UniformCube(3),
        "normal-1": MultivariateNormal([0.3], [[2.0]]),
        "normal-2-factorized": MultivariateNormal([0.0, 1.0], np.diag([1.0, 4.0])),
        "normal-2-correlated": MultivariateNormal.shifted(2, 0.1, 0.1),
        "normal-3-factorized": MultivariateNormal([0.0, 1.0, -1.0], np.diag([1.0, 4.0, 0.5])),
    }
    GRIDS = {
        1: [[[-0.5, 0.2, 0.7, 1.5]], [[]]],
        2: [
            [[-0.5, 0.2, 0.7], [0.1, 0.9]],
            [[0.3], []],
            [[], [-1.0, 0.5, 2.0]],
            [[0.3, 0.3 + 1e-10], [0.3, 0.3 + 1e-10]],  # round-off can sum below 0
        ],
        3: [[[0.1, 0.6], [-0.3, 0.4, 1.2], [0.5]]],
    }

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_moving_trees(self, name, seed):
        dist = self.DISTRIBUTIONS[name]
        fans = [5, 3, 2][: dist.k]
        tree = build_moving_partition(
            dist.sample(2000, RngStream(20, seed)), PartitionSpec(depth=dist.k, branching=fans)
        )
        got = dist.leaf_masses(tree)
        assert_matches_reference(dist, tree, got)
        assert np.all(got > 0) and got.sum() == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_fixed_grids_with_infinite_bounds(self, name):
        dist = self.DISTRIBUTIONS[name]
        for grid in self.GRIDS[dist.k]:
            tree = grid_tree(grid)
            assert np.isinf(tree.bounds).all()
            assert_matches_reference(dist, tree, dist.leaf_masses(tree))

    def test_permuted_axes(self):
        dist = MultivariateNormal.shifted(3, 0.1, 0.5)
        tree = build_moving_partition(
            dist.sample(2000, RngStream(21)), PartitionSpec(depth=2, branching=4, axis_order=(2, 0))
        )
        assert_matches_reference(dist, tree, dist.leaf_masses(tree))


def last_axis_masses(dist, tree, panels=256):
    """Three correlated split axes by the integral conditioned on the last axis,
    not the first, on ``panels`` panels of numpy's 20-point Gauss-Legendre rule."""
    axes = list(tree.axes)
    cov = dist.cov[np.ix_(axes, axes)]
    sd = np.sqrt(np.diag(cov))
    c = cov / np.outer(sd, sd)
    z = (np.array(leaf_edges(tree)) - dist.mean[axes][:, None]) / sd[:, None]
    s = np.sqrt(1 - c[:2, 2] ** 2)  # given X2 = x, axes 0 and 1 have means c[:2, 2] x
    r = (c[0, 1] - c[0, 2] * c[1, 2]) / (s[0] * s[1])
    t, w = np.polynomial.legendre.leggauss(20)
    lo, hi = np.clip(z[:, 2], -9.0, 9.0)
    total = np.zeros(tree.leaf_count)
    for panel in range(panels):
        x = lo + (hi - lo) * (panel + (1 + t[:, None]) / 2) / panels
        cond = (z[:, :2, None] - c[:2, 2, None, None] * x) / s[:, None, None]
        density = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        rect = mc_validate._rectangle(*cond, r).reshape(x.shape)
        total += (hi - lo) / (2 * panels) * (w @ (density * rect))
    return total


def one_call_masses(dist, tree):
    """The first-axis integral of ``leaf_masses`` with every leaf in one ``_rectangle``
    call: the same helpers, nodes and weighted product, no blocks of leaves."""
    axes = list(tree.axes)
    cov = dist.cov[np.ix_(axes, axes)]
    sd = np.sqrt(np.diag(cov))
    c = cov / np.outer(sd, sd)
    z = (np.array(leaf_edges(tree)) - dist.mean[axes][:, None]) / sd[:, None]
    s = np.sqrt(1 - c[1:, 0] ** 2)
    t, w = (np.array(half) for half in mc_validate._GAUSS_LEGENDRE[20])
    frac = (np.arange(32)[:, None] + np.concatenate([1 - t, 1 + t]) / 2).ravel() / 32
    lo, hi = np.clip(z[:, 0], -9.0, 9.0)
    x = lo + (hi - lo) * frac[:, None]
    cond = (z[:, 1:, None] - c[1:, 0, None, None] * x) / s[:, None, None]
    rect = mc_validate._rectangle(*cond, (c[1, 2] - c[1, 0] * c[2, 0]) / (s[0] * s[1]))
    phi = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    return (hi - lo) / 64 * (np.tile(np.concatenate([w, w]), 32) @ (phi * rect.reshape(x.shape)))


class TestTrivariateMasses:
    """Three correlated split axes: the integral over the first axis against the
    one over the last, against scipy's CDF, and as a distribution."""

    DISTRIBUTIONS = {
        "shifted-0.1": MultivariateNormal.shifted(3, 0.1, 0.1),
        "shifted-1": MultivariateNormal.shifted(3, 1.0, 1.0),
        "ar-0.9": MultivariateNormal([0.0, 0.5, -0.5], ar_covariance(3, 0.9)),
        "ar-0.99": MultivariateNormal(np.zeros(3), ar_covariance(3, 0.99)),
        "ar-0.999": MultivariateNormal(np.zeros(3), ar_covariance(3, 0.999)),
        "ar-negative": MultivariateNormal(
            [0.3, 0.0, 0.0], np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]) * ar_covariance(3, -0.8)
        ),
    }

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_matches_last_axis_integral(self, name):
        dist = self.DISTRIBUTIONS[name]
        trees = [
            build_moving_partition(
                dist.sample(2000, RngStream(22)), PartitionSpec(depth=3, branching=[3, 2, 2])
            ),
            build_moving_partition(
                dist.sample(2000, RngStream(23)),
                PartitionSpec(depth=3, branching=2, axis_order=(2, 0, 1)),
            ),
            grid_tree([[-0.4, 1.1], [0.2], [-1.5, 0.0, 0.7]]),
        ]
        for tree in trees:
            got = dist.leaf_masses(tree)
            np.testing.assert_allclose(got, last_axis_masses(dist, tree), rtol=0, atol=1e-15)
            assert np.all(got >= 0) and abs(got.sum() - 1.0) <= 1e-12

    # Orthant probabilities P(X <= q) of shifted(3, 0.1, 0.1).  scipy integrates
    # three dimensions by randomized quasi-Monte Carlo, here at its tightest
    # settings.  Over seeds 0-9 its value at these corners spread over at most
    # SCIPY_SPREAD (max - min), and the seeds' mean lay within 2.2e-9 of a
    # 30-digit mpmath integral, so an exact value is within two spreads of any
    # one seed.
    CORNERS = [(-0.7, 0.2, 0.9), (0.5, -1.2, 1.8), (1.1, 0.4, -0.3)]
    SCIPY_SPREAD = 4e-9

    def test_matches_scipy_corners(self):
        dist = self.DISTRIBUTIONS["shifted-0.1"]
        joint = multivariate_normal(
            dist.mean, dist.cov, seed=0, abseps=1e-12, releps=1e-12, maxpts=10**7
        )
        for corner in self.CORNERS:
            got = dist.leaf_masses(grid_tree([[q] for q in corner]))[0]  # (-inf, q]
            assert abs(got - joint.cdf(corner)) <= 2 * self.SCIPY_SPREAD

    @given(
        factor=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        scales=st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3),
        grid=st.lists(
            st.lists(st.floats(-8.0, 8.0), max_size=3).map(sorted), min_size=3, max_size=3
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_masses_are_a_distribution(self, factor, scales, grid):
        lower = np.diag(scales)
        lower[np.tril_indices(3, -1)] = factor
        masses = MultivariateNormal(np.zeros(3), lower @ lower.T).leaf_masses(grid_tree(grid))
        assert np.all(masses >= 0)
        assert abs(masses.sum() - 1.0) <= 1e-12

    def test_blocks_of_leaves_keep_the_bits_and_bound_the_memory(self):
        """512 leaves: ``_rectangle`` runs on blocks of leaves, so its 20-node
        temporaries stop growing with the tree (about 0.37 MB a leaf in one call,
        a 145 MB tracemalloc peak here), and the masses equal the one-call formula."""
        dist = self.DISTRIBUTIONS["shifted-0.1"]
        spec = PartitionSpec(depth=3, branching=8)
        tree = build_moving_partition(dist.sample(20000, RngStream(24)), spec)
        tracemalloc.start()
        try:
            got = dist.leaf_masses(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert got.tobytes() == one_call_masses(dist, tree).tobytes()

    def test_four_correlated_axes_raise_naming_them(self):
        dist = MultivariateNormal.shifted(4, 0.1, 0.1)
        with pytest.raises(ValueError, match=re.escape("[0, 1, 2, 3]")):
            dist.leaf_masses(grid_tree([[0.0]] * 4))
        factorized = MultivariateNormal(np.zeros(4), np.eye(4))
        assert factorized.leaf_masses(grid_tree([[0.0]] * 4)) == pytest.approx([1 / 16] * 16)


class TestBivariateMasses:
    """Two correlated split axes against scipy's rectangle probability, box by
    box, across the orthant method's branches: the 6, 12 and 20-point rules,
    the expansion for |r| >= 0.925, negative r, infinite limits and h = k."""

    CORRELATIONS = [-0.999, -0.95, -0.6, -0.2, 0.0, 0.0864, 0.5, 0.74, 0.76, 0.924, 0.926, 0.99]
    BREAKS = [-2.5, -0.7, 0.2, 0.9, 3.1]
    GRIDS = [[BREAKS, BREAKS], [BREAKS, [-1.0, 0.2]], [[], BREAKS], [[], []]]

    @pytest.mark.parametrize("r", CORRELATIONS)
    @pytest.mark.parametrize("scales", [(1.5, 1.5), (0.7, 2.0)], ids=["equal", "unequal"])
    def test_matches_scipy_rectangles(self, r, scales):
        # equal scales and a shared mean make h = k on the diagonal corners
        mean = np.array([0.2, 0.2])
        s1, s2 = scales
        cov = np.array([[s1 * s1, r * s1 * s2], [r * s1 * s2, s2 * s2]])
        dist = MultivariateNormal(mean, cov)
        joint = multivariate_normal(mean, cov)
        for grid in self.GRIDS:
            tree = grid_tree(grid)
            lows, highs = leaf_edges(tree)
            want = [joint.cdf(hi, lower_limit=lo) for lo, hi in zip(lows.T, highs.T)]
            np.testing.assert_allclose(dist.leaf_masses(tree), want, rtol=0, atol=NORMAL_ATOL)

    @given(
        r=st.floats(-0.999, 0.999),
        scales=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        mean=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        grid=st.lists(
            st.lists(st.floats(-8.0, 8.0), max_size=5).map(sorted), min_size=2, max_size=2
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_masses_are_a_distribution(self, r, scales, mean, grid):
        s1, s2 = scales
        cov = [[s1 * s1, r * s1 * s2], [r * s1 * s2, s2 * s2]]
        masses = MultivariateNormal(mean, cov).leaf_masses(grid_tree(grid))
        assert np.all(masses >= 0)
        assert abs(masses.sum() - 1.0) <= 1e-12


class TestNotPositiveDefinite:
    """A split sub-covariance that is not positive definite raises, on every path."""

    @pytest.mark.parametrize(
        "cov",
        [
            [[0.0]],
            [[-1.0]],
            np.diag([1.0, 0.0]),
            np.diag([1.0, -1.0]),
            [[1.0, 1.0], [1.0, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]],
        ],
        ids=["zero", "negative", "zero-factorized", "negative-factorized", "singular-2",
             "indefinite-2", "indefinite-3"],
    )
    def test_raises_naming_the_axes(self, cov):
        cov = np.asarray(cov)
        dist = MultivariateNormal(np.zeros(len(cov)), cov)
        tree = grid_tree([[0.0]] * len(cov))
        axes = list(range(len(cov)))
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(f"split axes {axes}")):
            dist.leaf_masses(tree)

    def test_only_the_split_axes_are_checked(self):
        # axis 1 has zero variance but is never split
        dist = MultivariateNormal([0.0, 0.0, 0.0], np.diag([1.0, 0.0, 2.0]))
        tree = build_moving_partition(
            Dataset(RngStream(23).generator().standard_normal((400, 3))),
            PartitionSpec(depth=2, branching=2, axis_order=(2, 0)),
        )
        assert dist.leaf_masses(tree).sum() == pytest.approx(1.0, abs=1e-12)


class TestMovingRisk:
    def test_uniform_leading_term(self):
        est = one_sample_risk_moving(
            UniformCube(1), PartitionSpec(depth=1, branching=4), n=1000, replicates=2000, seed=0
        )
        assert est.prediction == pytest.approx(3 / 2000, rel=1e-12)
        assert abs(est.mean - est.prediction) < 3 * est.standard_error + 0.1 * est.prediction
        assert 0.9 < est.ratio < 1.1

    # the paper's correlated family is scored with the exact three-axis masses
    @pytest.mark.parametrize(
        "dist, spec, p_prime",
        [
            (MultivariateNormal(np.zeros(2), np.eye(2)), PartitionSpec(depth=2, branching=4), 15),
            (MultivariateNormal.shifted(3, 0.1, 0.1), PartitionSpec(depth=3, branching=2), 7),
        ],
        ids=["independent-2d", "shifted-3d"],
    )
    def test_normal(self, dist, spec, p_prime):
        est = one_sample_risk_moving(dist, spec, n=10**4, replicates=120, seed=1)
        assert est.prediction == pytest.approx(p_prime / (2 * 10**4), rel=1e-12)
        assert 0.85 < est.ratio < 1.15

    def test_rate_is_inverse_n(self):
        sizes = [10**3, 4 * 10**3, 16 * 10**3]
        reps = [800, 300, 120]
        means = []
        for n, r in zip(sizes, reps):
            est = one_sample_risk_moving(
                UniformCube(1), PartitionSpec(depth=1, branching=4), n=n, replicates=r, seed=2
            )
            means.append(est.mean)
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_requires_known_masses(self):
        with pytest.raises(ValueError, match="known masses"):
            one_sample_risk_moving(
                object(), PartitionSpec(depth=1, branching=4), n=100, replicates=2
            )

    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError, match="replicates"):
            one_sample_risk_moving(
                UniformCube(1), PartitionSpec(depth=1, branching=4), n=100, replicates=0
            )
        with pytest.raises(ValueError, match="replicates"):
            one_sample_risk_fixed([0.25] * 4, 100, 0)

    def test_deterministic_given_seed(self):
        args = (UniformCube(1), PartitionSpec(depth=1, branching=4), 200, 20, 3)
        assert one_sample_risk_moving(*args) == one_sample_risk_moving(*args)


class TestFixedRisk:
    def test_prediction_uniform_quarters(self):
        pred = fixed_risk_prediction(generator_by_name("hellinger"), [0.25] * 4, 100)
        assert pred == pytest.approx(0.015 + 2.71875e-4, rel=1e-12)
        assert pred == pytest.approx(0.0152719, abs=5e-8)

    def test_prediction_n1000(self):
        pred = fixed_risk_prediction(generator_by_name("hellinger"), [0.25] * 4, 1000)
        assert pred == pytest.approx(0.0015 + 2.71875e-6, rel=1e-12)

    def test_mc_agrees_uniform(self):
        est = one_sample_risk_fixed([0.25] * 4, n=100, replicates=10**5, seed=4)
        assert abs(est.mean - est.prediction) < 3 * est.standard_error

    def test_mc_agrees_skewed(self):
        true_m = [0.7, 0.1, 0.1, 0.1]
        big_m = 1 / 0.7 + 30
        pred = fixed_risk_prediction(generator_by_name("hellinger"), true_m, 200)
        d3, d4 = -1.5, 3.75
        by_hand = 3 / 400 + (
            4 * d3 * (-10 + big_m) + 3 * d4 * (-7 + big_m)
        ) / (24 * 200**2)
        assert pred == pytest.approx(by_hand, rel=1e-12)
        est = one_sample_risk_fixed(true_m, n=200, replicates=10**5, seed=5)
        assert abs(est.mean - est.prediction) < 3 * est.standard_error

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            fixed_risk_prediction(generator_by_name("hellinger"), [0.5, 0.5, 0.0], 100)
        with pytest.raises(ValueError, match="positive"):
            one_sample_risk_fixed([0.5, 0.5, 0.0], n=100, replicates=10)

    @pytest.mark.parametrize("true_m", [[0.2, 0.2], [0.7, 0.7], [0.25, 0.25, 0.25, 0.25 + 2e-9]])
    def test_masses_off_one_rejected(self, true_m):
        with pytest.raises(ValueError, match="sum to 1"):
            fixed_risk_prediction(generator_by_name("hellinger"), true_m, 100)
        with pytest.raises(ValueError, match="sum to 1"):
            one_sample_risk_fixed(true_m, n=100, replicates=10)

    def test_rounding_in_the_masses_accepted(self):
        true_m = [0.1] * 10  # sums to 0.9999999999999999
        assert fixed_risk_prediction(generator_by_name("hellinger"), true_m, 100) > 0
        assert one_sample_risk_fixed(true_m, n=100, replicates=10).replicates == 10

    def test_leading_terms_match_moving_risk(self):
        # Theorems 2 and 3 share the p'/(2n) leading term
        n = 10**6
        pred_fixed = fixed_risk_prediction(generator_by_name("hellinger"), [0.25] * 4, n)
        assert pred_fixed == pytest.approx(3 / (2 * n), rel=1e-3)


class TestBiasBound:
    def test_identical_normals(self):
        report = bias_bound_check(
            MultivariateNormal([0.0], [[1.0]]),
            MultivariateNormal([0.0], [[1.0]]),
            PartitionSpec(depth=1, branching=4),
            n1=10**3,
            n2=10**4,
            replicates=60,
            seed=6,
        )
        assert report.holds and report.adequate
        # with identical laws the true divergence is tiny, far below the bound
        assert report.mean_true < 0.1 * report.correction

    def test_shifted_pair(self):
        report = bias_bound_check(
            MultivariateNormal.shifted(2, 0.1, 0.1),
            MultivariateNormal(np.zeros(2), np.eye(2)),
            PartitionSpec(depth=2, branching=4),
            n1=10**3,
            n2=10**4,
            replicates=30,
            seed=7,
        )
        assert report.holds

    def test_single_replicate_flagged(self):
        report = bias_bound_check(
            MultivariateNormal([0.0], [[1.0]]),
            MultivariateNormal([0.0], [[1.0]]),
            PartitionSpec(depth=1, branching=4),
            n1=100,
            n2=1000,
            replicates=1,
            seed=8,
        )
        assert not report.adequate
        assert not report.holds
        assert math.isnan(report.slack)

    def test_zero_replicates_rejected(self):
        normal = MultivariateNormal([0.0], [[1.0]])
        with pytest.raises(ValueError, match="replicates"):
            bias_bound_check(
                normal, normal, PartitionSpec(depth=1, branching=4),
                n1=100, n2=1000, replicates=0,
            )


def theorem_4_config(name):
    """The CLI's theorem-4 pairs: (mother, model, spec)."""
    if name == "identical-normals":
        normal = MultivariateNormal([0.0], [[1.0]])
        return normal, normal, PartitionSpec(depth=1, branching=4)
    return (
        MultivariateNormal.shifted(2, 0.1, 0.1),
        MultivariateNormal(np.zeros(2), np.eye(2)),
        PartitionSpec(depth=2, branching=4),
    )


def serial_bias_report(mother, model, spec, n1, n2, replicates, seed):
    """``bias_bound_check`` as one loop on the calling thread, replicate after replicate."""
    d_true, d_hat = np.empty(replicates), np.empty(replicates)
    for rep in range(replicates):
        tree = build_moving_partition(model.sample(n2, RngStream(seed, 2 * rep)), spec)
        d_true[rep] = hellinger(mother.leaf_masses(tree), model.leaf_masses(tree))
        counts = count_into_bins(tree, mother.sample(n1, RngStream(seed, 2 * rep + 1)))
        d_hat[rep] = hellinger(counts / n1, model_pmf(tree))
    se_true = np.std(d_true, ddof=1) / math.sqrt(replicates) if replicates > 1 else math.nan
    se_hat = np.std(d_hat, ddof=1) / math.sqrt(replicates) if replicates > 1 else math.nan
    correction = bias_correction(free_param_count(tree), n1, n2)[1]
    slack = 3.0 * math.hypot(se_true, se_hat)
    mean_true, mean_hat = float(np.mean(d_true)), float(np.mean(d_hat))
    return BiasBoundReport(
        mean_true=mean_true,
        se_true=float(se_true),
        mean_estimated=mean_hat,
        se_estimated=float(se_hat),
        correction=correction,
        slack=slack,
        holds=replicates > 1 and mean_true <= mean_hat + correction + slack,
        replicates=replicates,
        adequate=replicates > 1,
    )


def outcome(run):
    """A run's report as text, or the type and message of the error it raised."""
    try:
        return repr(run())
    except (CapacityError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


class TestBiasBoundDrawAhead:
    """``bias_bound_check`` draws replicate r + 1's model sample while replicate r is built."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("replicates", [1, 2, 7])
    @pytest.mark.parametrize("config", ["identical-normals", "shifted-normals"])
    def test_reports_equal_the_serial_loop(self, config, replicates, seed):
        mother, model, spec = theorem_4_config(config)
        before = threading.active_count()
        report = bias_bound_check(mother, model, spec, 10**3, 10**4, replicates, seed)
        assert threading.active_count() == before
        serial = serial_bias_report(mother, model, spec, 10**3, 10**4, replicates, seed)
        assert repr(report) == repr(serial)

    def test_a_build_error_while_the_next_draw_runs_is_the_serial_one(self, monkeypatch):
        mother, model, spec = theorem_4_config("shifted-normals")
        sample, drawing = model.sample, threading.Event()

        def slow_later_draws(n, rng):
            if rng.stream_id:
                drawing.set()
                time.sleep(0.05)
            return sample(n, rng)

        def build_once_the_next_draw_runs(model_sample, spec):
            assert drawing.wait(timeout=10)
            return build_moving_partition(model_sample, spec)

        serial = outcome(lambda: serial_bias_report(mother, model, spec, 100, 10, 3, 0))
        assert serial[0] is CapacityError
        monkeypatch.setattr(model, "sample", slow_later_draws)
        monkeypatch.setattr(mc_validate, "build_moving_partition", build_once_the_next_draw_runs)
        before = threading.active_count()
        assert outcome(lambda: bias_bound_check(mother, model, spec, 100, 10, 3, 0)) == serial
        assert threading.active_count() == before

    def test_a_covariance_not_positive_definite_raises_the_serial_error(self):
        mother, model, spec = theorem_4_config("shifted-normals")
        model = MultivariateNormal(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
        serial = outcome(lambda: serial_bias_report(mother, model, spec, 100, 1000, 3, 0))
        assert serial[0] is np.linalg.LinAlgError
        before = threading.active_count()
        assert outcome(lambda: bias_bound_check(mother, model, spec, 100, 1000, 3, 0)) == serial
        assert threading.active_count() == before

    @pytest.mark.parametrize("n1, n2, name", [(0, 1000, "n1"), (-1, 1000, "n1"), (100, 0, "n2")])
    def test_sizes_below_one_are_rejected_before_any_draw(self, monkeypatch, n1, n2, name):
        mother, model, spec = theorem_4_config("identical-normals")

        def sample(*args):
            raise AssertionError("sampled before the sizes were checked")

        monkeypatch.setattr(MultivariateNormal, "sample", sample)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            bias_bound_check(mother, model, spec, n1, n2, replicates=3)
        assert threading.active_count() == before

    def test_at_most_one_sample_is_drawn_ahead(self, monkeypatch):
        """Each draw starts once every earlier sample but one has its tree, and a
        sample is dropped once its tree is built.

        The builds are slowed, so that draws would run ahead if they could; 10 us
        thread switches interleave the two threads finely.
        """
        mother, model, spec = theorem_4_config("shifted-normals")
        sample, build = model.sample, build_moving_partition
        drawn, built, ahead, alive = [], [], [], []  # alive: live samples at each mass call

        def counted_sample(n, rng):
            ahead.append(rng.stream_id // 2 - len(built))
            result = sample(n, rng)
            drawn.append((rng.stream_id, weakref.ref(result)))
            return result

        def slow_build(model_sample, spec):
            time.sleep(0.005)
            result = build(model_sample, spec)
            built.append(model_sample.n)
            return result

        def counted(masses):  # a distribution's leaf_masses, counting live samples first
            def counted_masses(tree):
                alive.append(sum(ref() is not None for _, ref in drawn[: len(built)]))
                return masses(tree)

            return counted_masses

        monkeypatch.setattr(model, "sample", counted_sample)
        monkeypatch.setattr(mc_validate, "build_moving_partition", slow_build)
        for dist in (mother, model):
            monkeypatch.setattr(dist, "leaf_masses", counted(dist.leaf_masses))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = bias_bound_check(mother, model, spec, 10**3, 10**4, 8, 4)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert repr(report) == repr(serial_bias_report(mother, model, spec, 10**3, 10**4, 8, 4))
        assert [stream for stream, _ in drawn] == list(range(0, 16, 2))
        assert max(ahead) <= 1 and len(built) == 8
        assert alive == [0] * 16  # two mass calls a replicate; its own sample is gone


class TestReproduceTable:
    def test_table4_far_apart(self):
        rows = reproduce_table(4, n1_values=[10**4], n2=10**5, seed=9)
        assert len(rows) == 1
        assert 0.55 < rows[0]["distance"] < 0.85
        assert rows[0]["verdict"] == "not-shown-close"

    def test_table1_identical(self):
        rows = reproduce_table(1, n1_values=[10**4], n2=10**6, seed=10)
        row = rows[0]
        assert row["alpha"] == 0.0 and row["beta"] == 0.0
        assert row["distance"] < 5e-3
        assert row["lhs"] == pytest.approx(
            row["distance"] + 63 / (2 * 10**4) + math.sqrt(8 * 63 / 10**6), rel=1e-12
        )

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            reproduce_table(7)

    @pytest.mark.parametrize("table_id", [5, 6])
    def test_pairwise_k1_rejected_before_sampling(self, table_id, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled before k was checked")

        monkeypatch.setattr(MultivariateNormal, "sample", sample)
        with pytest.raises(ValueError, match="pairwise scan needs k >= 2"):
            reproduce_table(table_id, n2=1000, k=1)

    @pytest.mark.parametrize("table_id", [5, 6])
    def test_pairwise_rows_are_read_off_the_pairwise_payload(self, table_id):
        n1 = {5: 10**3, 6: 10**4}[table_id]
        mother = MultivariateNormal.shifted(3, 0.1, 0.1).sample(n1, RngStream(4, 0))
        model = MultivariateNormal(np.zeros(3), np.eye(3)).sample(6000, RngStream(4, 1))
        pairs = pairwise_payload(mother, model, 4, 0.05)["pairs"]
        assert [pair["pair"] for pair in pairs] == [[1, 2], [1, 3], [2, 3]]
        assert reproduce_table(table_id, n2=6000, seed=4, k=3) == [
            {"table": table_id, "pair": pair["pair"], "n1": n1, "n2": 6000, "lhs": pair["lhs"]}
            for pair in pairs
        ]


class TestValidatePayload:
    @pytest.mark.parametrize(
        "kwargs, words",
        [
            (dict(theorem=1), "no check for theorem 1 with config 'identical-normals'"),
            (dict(theorem=4, config="normals"), "no check for theorem 4 with config 'normals'"),
        ],
    )
    def test_unknown_theorem_or_config_raises(self, kwargs, words):
        with pytest.raises(ValueError, match=re.escape(words)):
            validate_payload(**kwargs, replicates=1)

    def test_none_takes_the_default_and_a_given_value_is_kept(self):
        assert validate_payload(2, replicates=50) == validate_payload(2, n=100, replicates=50)
        payload = validate_payload(3, n=40, replicates=5)
        assert (payload["replicates"], payload["prediction"]) == (5, 3 / 80)


class TestPairwiseScan:
    def test_matrix_shape_and_consistency(self):
        mother = MultivariateNormal.shifted(3, 0.1, 0.1).sample(2000, RngStream(11, 0))
        model = MultivariateNormal(np.zeros(3), np.eye(3)).sample(
            50000, RngStream(11, 1)
        )
        matrix, reports = pairwise_marginal_scan(
            mother, pairwise_partitions(model, 4), 0.05
        )
        assert matrix.shape == (3, 3)
        assert np.isnan(matrix[1, 0]) and np.isnan(matrix[0, 0])
        for (i, j), report in reports.items():
            assert matrix[i, j] == report.lhs
            assert report.p_prime == 15

    def test_k2_matches_full_evaluate(self):
        mother = MultivariateNormal.shifted(2, 0.1, 0.1).sample(2000, RngStream(12, 0))
        model = MultivariateNormal(np.zeros(2), np.eye(2)).sample(
            40000, RngStream(12, 1)
        )
        matrix, _ = pairwise_marginal_scan(mother, pairwise_partitions(model, 4), 0.05)
        direct = evaluate_fitness(
            mother, model, PartitionSpec(depth=2, branching=4), 0.05
        )
        assert matrix[0, 1] == pytest.approx(direct.lhs, rel=1e-12)

    def test_k1_rejected(self):
        sample = Dataset(RngStream(13).generator().standard_normal((100, 1)))
        with pytest.raises(ValueError, match="k >= 2"):
            pairwise_partitions(sample, 4)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_pairs_match_projected_evaluate(self, k, bounded):
        # differential: each pair partition splits the full sample on axes
        # (i, j); the reference projects both samples onto those two columns
        rng = RngStream(14, k).generator()
        if bounded:
            bounds = tuple((-1.0, 1.0 + i) for i in range(k))
            mother_values = 1.0 - rng.random((1500, k))  # in (0, 1]
            model_values = 1.0 - rng.random((6000, k)) ** 2
        else:
            bounds = ()
            mother_values = rng.standard_normal((1500, k)) + 0.1
            model_values = rng.standard_normal((6000, k))
        mother = Dataset(mother_values, bounds)
        model = Dataset(model_values, bounds)
        matrix, reports = pairwise_marginal_scan(
            mother, pairwise_partitions(model, 3), 0.05
        )
        assert list(reports) == [(i, j) for i in range(k) for j in range(i + 1, k)]
        for (i, j), report in reports.items():

            def project(ds):
                return Dataset(ds.values[:, [i, j]], tuple(ds.bounds[a] for a in (i, j)))

            expected = evaluate_fitness(
                project(mother), project(model), PartitionSpec(depth=2, branching=3), 0.05
            )
            assert report == expected
            assert matrix[i, j] == expected.lhs
