import math

import numpy as np
import pytest
from scipy.stats import norm

from hellfit.criterion import evaluate_fitness, pairwise_marginal_scan, pairwise_partitions
from hellfit.dataset import Dataset, RngStream
from hellfit.divergence import generator_by_name
from hellfit.mc_validate import (
    BiasBoundReport,
    ExperimentConfig,
    MultivariateNormal,
    UniformCube,
    bias_bound_check,
    fixed_risk_prediction,
    one_sample_risk_fixed,
    one_sample_risk_moving,
    reproduce_table,
    true_leaf_masses,
)
from hellfit.partition import PartitionSpec, build_moving_partition


class TestDistributions:
    def test_uniform_region_mass(self):
        cube = UniformCube(2)
        assert cube.region_mass([0, 1], [(-np.inf, 0.5), (0.25, np.inf)]) == pytest.approx(
            0.5 * 0.75
        )

    def test_uniform_sampling_in_bounds(self):
        ds = UniformCube(3).sample(1000, RngStream(0))
        assert ds.k == 3
        assert np.all(ds.values > 0) and np.all(ds.values <= 1)

    def test_mvn_independent_mass_factorizes(self):
        dist = MultivariateNormal([0.0, 1.0], np.diag([1.0, 4.0]))
        box = [(-np.inf, 0.0), (1.0, 3.0)]
        expected = norm.cdf(0.0) * (norm.cdf(3.0, 1.0, 2.0) - norm.cdf(1.0, 1.0, 2.0))
        assert dist.region_mass([0, 1], box) == pytest.approx(expected, rel=1e-12)

    def test_mvn_correlated_mass_vs_mc(self):
        dist = MultivariateNormal.shifted(2, 0.0, 0.5)
        box = [(-0.5, 0.8), (0.0, np.inf)]
        mass = dist.region_mass([0, 1], box)
        pts = dist.sample(200000, RngStream(1)).values
        inside = (
            (pts[:, 0] > -0.5) & (pts[:, 0] <= 0.8) & (pts[:, 1] > 0.0)
        ).mean()
        assert mass == pytest.approx(inside, abs=4 * math.sqrt(0.25 / 200000) + 1e-4)

    def test_mvn_whole_space_mass_one(self):
        dist = MultivariateNormal.shifted(2, 0.3, 0.2)
        box = [(-np.inf, np.inf), (-np.inf, np.inf)]
        assert dist.region_mass([0, 1], box) == pytest.approx(1.0, abs=1e-6)

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
        masses = true_leaf_masses(tree, dist)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        # equal-mass splits of the sampling distribution: each mass near 1/4
        assert np.all(np.abs(masses - 0.25) < 0.03)


class TestMovingRisk:
    def test_uniform_leading_term(self):
        config = ExperimentConfig(
            distribution=UniformCube(1),
            spec=PartitionSpec(depth=1, branching=4),
            n=1000,
            replicates=2000,
            seed=0,
        )
        est = one_sample_risk_moving(config)
        assert est.prediction == pytest.approx(3 / 2000, rel=1e-12)
        assert abs(est.mean - est.prediction) < 3 * est.standard_error + 0.1 * est.prediction
        assert 0.9 < est.ratio < 1.1

    def test_normal_2d(self):
        config = ExperimentConfig(
            distribution=MultivariateNormal(np.zeros(2), np.eye(2)),
            spec=PartitionSpec(depth=2, branching=4),
            n=10**4,
            replicates=120,
            seed=1,
        )
        est = one_sample_risk_moving(config)
        assert est.prediction == pytest.approx(15 / (2 * 10**4), rel=1e-12)
        assert 0.85 < est.ratio < 1.15

    def test_rate_is_inverse_n(self):
        sizes = [10**3, 4 * 10**3, 16 * 10**3]
        reps = [800, 300, 120]
        means = []
        for n, r in zip(sizes, reps):
            config = ExperimentConfig(
                distribution=UniformCube(1),
                spec=PartitionSpec(depth=1, branching=4),
                n=n,
                replicates=r,
                seed=2,
            )
            means.append(one_sample_risk_moving(config).mean)
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_requires_known_masses(self):
        config = ExperimentConfig(
            distribution=object(),
            spec=PartitionSpec(depth=1, branching=4),
            n=100,
            replicates=2,
        )
        with pytest.raises(ValueError, match="known masses"):
            one_sample_risk_moving(config)

    def test_zero_replicates_rejected(self):
        config = ExperimentConfig(
            distribution=UniformCube(1),
            spec=PartitionSpec(depth=1, branching=4),
            n=100,
            replicates=0,
        )
        with pytest.raises(ValueError, match="replicates"):
            one_sample_risk_moving(config)

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(
            distribution=UniformCube(1),
            spec=PartitionSpec(depth=1, branching=4),
            n=200,
            replicates=20,
            seed=3,
        )
        assert one_sample_risk_moving(config) == one_sample_risk_moving(config)


class TestFixedRisk:
    def test_prediction_uniform_quarters(self):
        pred = fixed_risk_prediction(generator_by_name("hellinger"), [0.25] * 4, 100)
        assert pred == pytest.approx(0.015 + 2.71875e-4, rel=1e-12)
        assert pred == pytest.approx(0.0152719, abs=5e-8)

    def test_prediction_n1000(self):
        pred = fixed_risk_prediction(generator_by_name("hellinger"), [0.25] * 4, 1000)
        assert pred == pytest.approx(0.0015 + 2.71875e-6, rel=1e-12)

    def test_mc_agrees_uniform(self):
        config = ExperimentConfig(
            distribution=None,
            spec=PartitionSpec(depth=1, branching=4),
            n=100,
            replicates=10**5,
            seed=4,
        )
        est = one_sample_risk_fixed(config, [0.25] * 4)
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
        config = ExperimentConfig(
            distribution=None,
            spec=PartitionSpec(depth=1, branching=4),
            n=200,
            replicates=10**5,
            seed=5,
        )
        est = one_sample_risk_fixed(config, true_m)
        assert abs(est.mean - est.prediction) < 3 * est.standard_error

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            fixed_risk_prediction(generator_by_name("hellinger"), [0.5, 0.5, 0.0], 100)

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
