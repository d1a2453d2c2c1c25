import json
import math

import numpy as np
import pytest
import scipy.stats

from hellfit.criterion import (
    FitnessReport,
    bias_correction,
    evaluate_fitness,
    implied_epsilon,
    ks_two_sample,
    score_fitness,
)
from hellfit.dataset import Dataset, RngStream, ar_covariance, sample_mvn
from hellfit.partition import PartitionSpec, build_fixed_partition, build_moving_partition


class TestBiasCorrection:
    def test_table_column_arithmetic(self):
        b1, b2 = bias_correction(63, 10**7, 10**7)
        assert b1 == pytest.approx(3.15e-6, rel=1e-12)
        assert b2 == pytest.approx(7.0993e-3, rel=1e-4)
        assert b1 + b2 == pytest.approx(7.10e-3, abs=5e-5)

    def test_mixed_sizes(self):
        b1, b2 = bias_correction(63, 10**4, 10**7)
        assert b1 == pytest.approx(3.15e-3, rel=1e-12)
        assert b2 == pytest.approx(7.0993e-3, rel=1e-4)

    def test_unit_arithmetic(self):
        assert bias_correction(1, 1, 8) == (0.5, 1.0)

    def test_scaling_laws(self):
        _, b2 = bias_correction(63, 100, 1000)
        _, b2_double = bias_correction(63, 100, 2000)
        assert b2_double == pytest.approx(b2 / math.sqrt(2), rel=1e-12)
        b1, _ = bias_correction(63, 100, 1000)
        b1_double, _ = bias_correction(63, 200, 1000)
        assert b1_double == pytest.approx(b1 / 2, rel=1e-12)

    def test_domain_errors(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                bias_correction(*bad)


class TestImpliedEpsilon:
    def test_case_values(self):
        assert implied_epsilon(0.0133) == pytest.approx(0.0408, abs=5e-5)
        assert implied_epsilon(0.02) == pytest.approx(0.05, rel=1e-12)
        assert implied_epsilon(0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            implied_epsilon(-0.1)


class TestEvaluateFitness:
    def test_self_comparison_zero_distance(self):
        values = RngStream(0).generator().standard_normal((400, 1))
        sample = Dataset(values)
        report = evaluate_fitness(
            sample, sample, PartitionSpec(depth=1, branching=4), 0.3
        )
        assert report.hellinger_hat == 0.0
        assert report.zero_bins == 0
        assert report.verdict == "close"

    def test_report_invariants(self):
        rng = RngStream(1).generator()
        mother = Dataset(rng.standard_normal((2000, 2)))
        model = Dataset(rng.standard_normal((5000, 2)))
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=2, branching=4), 0.05
        )
        assert report.lhs == report.hellinger_hat + report.bias_n1 + report.bias_n2
        assert (report.verdict == "close") == (report.lhs < report.threshold)
        assert report.implied_epsilon == pytest.approx(
            math.sqrt(report.lhs / 8), rel=1e-14
        )
        assert report.implied_bayes_error == 0.5 - report.implied_epsilon
        assert report.p_prime == 15
        assert report.n1 == 2000 and report.n2 == 5000
        assert 0.0 <= report.hellinger_hat <= 4.0

    def test_identical_3d_normals_matches_table(self):
        # D should be small; LHS dominated by the bias sum 7.10e-3 < 0.02
        mother = sample_mvn(10**5, np.zeros(3), np.eye(3), RngStream(10, 0))
        model = sample_mvn(2 * 10**6, np.zeros(3), np.eye(3), RngStream(10, 1))
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=3, branching=4), 0.05
        )
        assert report.p_prime == 63
        assert report.hellinger_hat < 2e-3
        assert report.verdict == "close"

    def test_far_apart_not_shown_close(self):
        mother = sample_mvn(5000, [5.0], [[1.0]], RngStream(11, 0))
        model = sample_mvn(5000, [0.0], [[1.0]], RngStream(11, 1))
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=1, branching=4), 0.05
        )
        assert report.verdict == "not-shown-close"
        assert report.hellinger_hat > 1.0

    def test_verdict_flips_once_in_epsilon(self):
        rng = RngStream(2).generator()
        mother = Dataset(rng.standard_normal((500, 1)) + 0.3)
        model = Dataset(rng.standard_normal((2000, 1)))
        spec = PartitionSpec(depth=1, branching=4)
        verdicts = [
            evaluate_fitness(mother, model, spec, float(eps)).verdict
            for eps in np.arange(0.01, 0.5, 0.01)
        ]
        flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
        assert flips == 1
        assert verdicts[0] == "not-shown-close" and verdicts[-1] == "close"

    def test_asymmetry_partition_from_model(self):
        rng = RngStream(3).generator()
        a = Dataset(rng.standard_normal((3000, 1)))
        b = Dataset(rng.standard_normal((3000, 1)) * 1.3)
        spec = PartitionSpec(depth=1, branching=8)
        fwd = evaluate_fitness(a, b, spec, 0.05)
        rev = evaluate_fitness(b, a, spec, 0.05)
        assert fwd.hellinger_hat != rev.hellinger_hat

    def test_dimension_mismatch(self):
        rng = RngStream(4).generator()
        with pytest.raises(ValueError, match="dimension"):
            evaluate_fitness(
                Dataset(rng.standard_normal((100, 1))),
                Dataset(rng.standard_normal((100, 2))),
                PartitionSpec(depth=1, branching=2),
                0.05,
            )

    def test_epsilon_domain(self):
        sample = Dataset(RngStream(5).generator().standard_normal((100, 1)))
        with pytest.raises(ValueError, match="epsilon"):
            evaluate_fitness(sample, sample, PartitionSpec(depth=1, branching=2), 0.6)

    def test_json_round_trip(self):
        values = RngStream(6).generator().standard_normal((200, 1))
        report = evaluate_fitness(
            Dataset(values), Dataset(values), PartitionSpec(depth=1, branching=4), 0.3
        )
        payload = json.loads(report.to_json())
        assert payload == report.to_dict()
        assert payload["verdict"] == "close"


class TestScoreFitness:
    def test_one_tree_many_mothers_matches_evaluate(self):
        # differential: scoring one built partition equals a fresh
        # build-and-score per mother
        rng = RngStream(21).generator()
        model = Dataset(rng.standard_normal((12000, 3)))
        spec = PartitionSpec(depth=2, branching=(3, 5), axis_order=(2, 0))
        tree = build_moving_partition(model, spec)
        for n1, shift, epsilon in [(500, 0.0, 0.05), (3000, 0.2, 0.1), (12000, 1.0, 0.3)]:
            mother = Dataset(rng.standard_normal((n1, 3)) + shift)
            assert score_fitness(tree, mother, epsilon) == evaluate_fitness(
                mother, model, spec, epsilon
            )

    def test_n2_is_building_sample_size(self):
        rng = RngStream(22).generator()
        tree = build_moving_partition(
            Dataset(rng.standard_normal((4321, 2))), PartitionSpec(depth=2, branching=4)
        )
        report = score_fitness(tree, Dataset(rng.standard_normal((100, 2))), 0.05)
        assert report.n2 == 4321

    def test_fixed_grid_rejected(self):
        tree = build_fixed_partition([[0.0], [0.0]])
        mother = Dataset(RngStream(23).generator().standard_normal((100, 2)))
        with pytest.raises(ValueError, match="moving partition"):
            score_fitness(tree, mother, 0.05)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, -0.1])
    def test_epsilon_domain(self, epsilon):
        rng = RngStream(24).generator()
        tree = build_moving_partition(
            Dataset(rng.standard_normal((100, 1))), PartitionSpec(depth=1, branching=2)
        )
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 0.5\)"):
            score_fitness(tree, Dataset(rng.standard_normal((10, 1))), epsilon)


class TestWorkflowGolden:
    """End-to-end regression on a frozen synthetic regression-residual pair."""

    def build(self):
        n1 = 9568
        ratio = 40
        rng = RngStream(99).generator()
        y = rng.normal(454.0, 17.0, size=n1)
        noise_scale = 6.5
        y_model = y[None, :] + rng.normal(0.0, noise_scale, size=(ratio, n1))
        mother = Dataset(y.reshape(-1, 1))
        model = Dataset(y_model.reshape(-1, 1))
        return mother, model

    def test_frozen_report(self):
        mother, model = self.build()
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=1, branching=11), 0.05
        )
        assert report.p_prime == 10
        assert report.n1 == 9568 and report.n2 == 9568 * 40
        # frozen values from this fixed seed; regression guard only
        assert report.hellinger_hat == pytest.approx(0.0037271292655012447, rel=1e-9)
        assert report.lhs == pytest.approx(0.01870757781549337, rel=1e-9)
        assert report.verdict == "close"
        assert report.implied_epsilon == pytest.approx(0.048357494010098076, rel=1e-9)

    def test_baseline_ks_detects_noise(self):
        mother, model = self.build()
        stat, p = ks_two_sample(mother.values[:, 0], model.values[:, 0])
        # extra noise makes the pooled KS reject even though the criterion
        # deems the distributions close at eps = 0.05
        assert p < 0.05


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.arange(10.0)
        stat, p = ks_two_sample(x, x)
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_interleaved_thirds(self):
        stat, _ = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
        assert stat == pytest.approx(1 / 3, rel=1e-12)

    def test_statistic_matches_scipy(self):
        rng = RngStream(12).generator()
        for _ in range(10):
            x = rng.standard_normal(300)
            y = rng.standard_normal(400) + rng.uniform(-0.3, 0.3)
            stat, _ = ks_two_sample(x, y)
            ref = scipy.stats.ks_2samp(x, y, method="asymp")
            assert stat == pytest.approx(ref.statistic, abs=1e-12)

    def test_pvalue_matches_limiting_distribution(self):
        # kstwobign is an independent implementation of the same limit law
        rng = RngStream(14).generator()
        for _ in range(10):
            x = rng.standard_normal(500)
            y = rng.standard_normal(600) + rng.uniform(-0.2, 0.2)
            stat, p = ks_two_sample(x, y)
            en = 500 * 600 / 1100
            ref = scipy.stats.kstwobign.sf(math.sqrt(en) * stat)
            assert p == pytest.approx(ref, rel=1e-8, abs=1e-14)

    def test_null_pvalues_not_small(self):
        rng = RngStream(13).generator()
        small = 0
        for _ in range(100):
            x = rng.standard_normal(10**4)
            y = rng.standard_normal(10**4)
            _, p = ks_two_sample(x, y)
            small += p <= 0.001
        assert small <= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestFitnessReportShape:
    def test_is_frozen(self):
        report = FitnessReport(
            hellinger_hat=0.0, p_prime=1, n1=1, n2=1, bias_n1=0.5, bias_n2=1.0,
            lhs=1.5, epsilon=0.1, threshold=0.08, verdict="not-shown-close",
            implied_epsilon=0.433, implied_bayes_error=0.067, zero_bins=0,
        )
        with pytest.raises(AttributeError):
            report.lhs = 2.0
