"""Acceptance suite: one test per published-results criterion.

Each test prints a single PASS line (visible even under capture) once its
assertions hold; a failing test reports through pytest as usual.  The heavier
fixtures are shared across tests so the whole file stays desk-scale.
"""

import functools
import math

import numpy as np
import pytest

from hellfit.bayes_threshold import (
    a_set_infimum,
    alpha_of_delta,
    capital_delta_star,
    delta_star_hellinger,
    hellinger_alpha_approx,
)
from hellfit.criterion import (
    bias_correction,
    evaluate_fitness,
    pairwise_marginal_scan,
    pairwise_partitions,
    score_fitness,
)
from hellfit.dataset import Dataset, RngStream
from hellfit.divergence import (
    alpha_generator,
    dual_generator,
    f_divergence,
    generator_by_name,
    hellinger,
)
from hellfit.mc_validate import (
    ExperimentConfig,
    MultivariateNormal,
    UniformCube,
    bias_bound_check,
    fixed_risk_prediction,
    one_sample_risk_fixed,
    one_sample_risk_moving,
)
from hellfit.partition import (
    PartitionSpec,
    build_moving_partition,
    count_into_bins,
    free_param_count,
    locate,
    model_pmf,
)

HELLINGER = generator_by_name("hellinger")
CHI2 = generator_by_name("chi2")

N2 = 10**7
SQRT_TERM = math.sqrt(8 * 63 / N2)  # 7.099295739719539e-3


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


@functools.lru_cache(maxsize=None)
def moving_risk(n, replicates):
    config = ExperimentConfig(
        distribution=UniformCube(1),
        spec=PartitionSpec(depth=1, branching=4),
        n=n,
        replicates=replicates,
        seed=0,
    )
    return one_sample_risk_moving(config)


@pytest.fixture(scope="module")
def model_tree_3d():
    """One shared partition of an n2 = 1e7 standard-normal model sample for
    Tables 1/3/4; the partition depends only on the model sample."""
    model_sample = MultivariateNormal(np.zeros(3), np.eye(3)).sample(N2, RngStream(0, 0))
    return build_moving_partition(model_sample, PartitionSpec(depth=3, branching=4))


def table_report(model_tree, alpha, beta, n1, epsilon=0.05, stream=1):
    mother = MultivariateNormal.shifted(3, alpha, beta).sample(
        n1, RngStream(0, stream)
    )
    return score_fitness(model_tree, mother, epsilon)


def test_criterion_1_threshold_constants(capsys):
    got_005 = delta_star_hellinger(0.05)
    got_001 = delta_star_hellinger(0.01)
    # exact in the arithmetic actually performed (8 * eps**2); the printed
    # decimals 1/50 and 1/1250 are matched to one ulp
    assert got_005 == 8 * 0.05**2
    assert got_001 == 8 * 0.01**2
    assert got_005 == pytest.approx(0.02, abs=5e-18)
    assert got_001 == pytest.approx(0.0008, abs=5e-19)
    announce(capsys, "PASS criterion 1: threshold constants 8eps^2 = 1/50 and 1/1250")


def test_criterion_2_theorem_1_machinery(capsys):
    for delta in np.arange(0.01, 3.5001, 0.01):
        star = capital_delta_star(HELLINGER, float(delta))
        assert star.value == pytest.approx(1 / (1 - delta / 4) ** 2, abs=1e-10)
    got = alpha_of_delta(HELLINGER, 0.02)
    assert got == pytest.approx(0.45, abs=0.005)
    assert got == pytest.approx(hellinger_alpha_approx(0.02), abs=0.005)
    assert a_set_infimum(HELLINGER, 0.02) == pytest.approx(got, abs=1e-12)
    for delta in (0.05, 0.1, 0.5, 1.0, 2.0):
        assert capital_delta_star(CHI2, delta).value == pytest.approx(
            1 + 2 * delta, abs=1e-8
        )
    announce(
        capsys,
        "PASS criterion 2: Delta*(hellinger) closed form to 1e-10, "
        "alpha(0.02) = 0.45 +- 0.005, chi^2 Delta* = 1+2delta to 1e-8",
    )


def test_criterion_3_moving_region_risk(capsys):
    est = moving_risk(1000, 2000)
    assert est.prediction == pytest.approx(1.5e-3, rel=1e-12)
    assert abs(est.mean - est.prediction) <= 0.10 * est.prediction
    assert abs(est.mean - est.prediction) <= 3 * est.standard_error + 0.10 * est.prediction
    sizes = [10**3, 4 * 10**3, 16 * 10**3]
    reps = [2000, 800, 400]
    means = [moving_risk(n, r).mean for n, r in zip(sizes, reps)]
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    assert slope == pytest.approx(-1.0, abs=0.1)
    announce(
        capsys,
        f"PASS criterion 3: moving-region risk {est.mean:.3e} vs 1.5e-3 "
        f"(within 10%), log-log slope {slope:.3f} = -1 +- 0.1",
    )


def test_criterion_4_fixed_region_risk(capsys):
    # derivatives re-derived from f(x) = 2(1-sqrt(x))^2 = 2 - 4 x^(1/2) + 2x:
    # f'''(x) = -(3/2) x^(-5/2)  -> f'''(1) = -3/2
    # f''''(x) = (15/4) x^(-7/2) -> f''''(1) = 15/4
    # prediction: 3/200 + (1/24n^2)[4(-3/2)(-10+16) + 3(15/4)(-7+16)]
    n = 100
    by_hand = 3 / (2 * n) + (4 * (-1.5) * 6 + 3 * 3.75 * 9) / (24 * n**2)
    assert by_hand == pytest.approx(0.0152719, abs=5e-8)
    assert fixed_risk_prediction(HELLINGER, [0.25] * 4, n) == pytest.approx(
        by_hand, rel=1e-12
    )
    config = ExperimentConfig(
        distribution=None,
        spec=PartitionSpec(depth=1, branching=4),
        n=n,
        replicates=10**5,
        seed=1,
    )
    est = one_sample_risk_fixed(config, [0.25] * 4)
    assert abs(est.mean - est.prediction) <= 3 * est.standard_error
    announce(
        capsys,
        f"PASS criterion 4: fixed-region MC mean {est.mean:.6f} within 3 SE "
        f"of expansion 0.0152719 (R=1e5)",
    )


def test_criterion_5_table_1(capsys, model_tree_3d):
    r5 = table_report(model_tree_3d, 0.0, 0.0, 10**5, stream=1)
    assert r5.p_prime == 63
    assert 2e-4 <= r5.hellinger_hat <= 5e-4
    # arithmetic check of the bias sum at n1 = 1e5: 63/(2e5) + sqrt(504/1e7)
    assert r5.lhs == pytest.approx(
        r5.hellinger_hat + 3.15e-4 + SQRT_TERM, abs=1e-5
    )
    r4 = table_report(model_tree_3d, 0.0, 0.0, 10**4, stream=2)
    # published n1=1e4 cell corrected for its decimal-exponent typo
    assert r4.lhs == pytest.approx(
        r4.hellinger_hat + 3.15e-3 + SQRT_TERM, abs=1e-5
    )
    assert r4.lhs == pytest.approx(1.36e-2, rel=0.10)
    r7 = table_report(model_tree_3d, 0.0, 0.0, N2, stream=3)
    assert r7.lhs == pytest.approx(7.11e-3, abs=5e-4)
    announce(
        capsys,
        f"PASS criterion 5: table-1 cells D={r5.hellinger_hat:.3e}, "
        f"LHS(1e5)={r5.lhs:.4e}, LHS(1e4)={r4.lhs:.4e} ~ 1.36e-2, "
        f"LHS(1e7)={r7.lhs:.4e} ~ 7.11e-3",
    )


def test_criterion_6_tables_3_and_4(capsys, model_tree_3d):
    r3 = table_report(model_tree_3d, 0.1, 0.1, 10**5, stream=4)
    assert r3.lhs == pytest.approx(2.9e-2, rel=0.10)
    assert r3.verdict == "not-shown-close"  # epsilon = 0.05
    loose = table_report(model_tree_3d, 0.1, 0.1, 10**5, epsilon=0.1, stream=4)
    assert loose.verdict == "close"
    r4 = table_report(model_tree_3d, 1.0, 1.0, 10**5, stream=5)
    assert r4.lhs == pytest.approx(0.70, rel=0.05)
    assert r4.verdict == "not-shown-close"
    announce(
        capsys,
        f"PASS criterion 6: LHS(alpha=beta=0.1)={r3.lhs:.4e} ~ 2.9e-2 "
        f"(not-shown-close at 0.05, close at 0.1); "
        f"LHS(alpha=beta=1)={r4.lhs:.3f} ~ 0.70",
    )


def test_criterion_7_pairwise_scan(capsys):
    k = 5  # reduced scale; pairwise cells do not depend on k
    mother_dist = MultivariateNormal.shifted(k, 0.1, 0.1)
    model = MultivariateNormal(np.zeros(k), np.eye(k)).sample(N2, RngStream(1, 0))
    partitions = pairwise_partitions(model, 4)  # shared by both mother sizes
    mother_large = mother_dist.sample(10**4, RngStream(1, 1))
    matrix_large, _ = pairwise_marginal_scan(mother_large, partitions, 0.05)
    cells_large = matrix_large[np.triu_indices(k, 1)]
    assert np.all(cells_large < 0.02)
    mother_small = mother_dist.sample(10**3, RngStream(1, 2))
    matrix_small, _ = pairwise_marginal_scan(mother_small, partitions, 0.05)
    cells_small = matrix_small[np.triu_indices(k, 1)]
    assert np.any(cells_small >= 0.02)
    announce(
        capsys,
        f"PASS criterion 7: pairwise scan k={k}: all {cells_large.size} cells "
        f"< 0.02 at n1=1e4 (max {cells_large.max():.4f}); "
        f"{int(np.sum(cells_small >= 0.02))} cells >= 0.02 at n1=1e3 "
        f"(max {cells_small.max():.4f})",
    )


def test_criterion_8_bias_bound(capsys):
    identical = bias_bound_check(
        MultivariateNormal([0.0], [[1.0]]),
        MultivariateNormal([0.0], [[1.0]]),
        PartitionSpec(depth=1, branching=4),
        n1=10**3,
        n2=10**5,
        replicates=500,
        seed=2,
    )
    assert identical.adequate and identical.holds
    shifted = bias_bound_check(
        MultivariateNormal.shifted(2, 0.1, 0.1),
        MultivariateNormal(np.zeros(2), np.eye(2)),
        PartitionSpec(depth=2, branching=4),
        n1=10**3,
        n2=10**5,
        replicates=200,
        seed=3,
    )
    assert shifted.adequate and shifted.holds
    announce(
        capsys,
        "PASS criterion 8: bias bound holds with 3-SE slack on identical "
        f"(ED={identical.mean_true:.2e} <= {identical.mean_estimated:.2e}"
        f"+{identical.correction:.2e}) and shifted "
        f"(ED={shifted.mean_true:.2e} <= {shifted.mean_estimated:.2e}"
        f"+{shifted.correction:.2e}) configurations",
    )


def test_criterion_9_property_suites(capsys):
    rng = RngStream(4).generator()

    # partition: coverage, exclusivity, permutation invariance
    for trial in range(100):
        k = int(rng.integers(1, 4))
        depth = int(rng.integers(1, k + 1))
        branching = int(rng.integers(2, 5))
        n = max(branching**depth * 4, 50)
        values = rng.standard_normal((n, k))
        spec = PartitionSpec(depth=depth, branching=branching)
        tree = build_moving_partition(Dataset(values), spec)
        points = rng.standard_normal((100, k)) * 3
        counts = count_into_bins(tree, Dataset(points))
        assert counts.sum() == len(points)  # coverage
        idx = np.array([locate(tree, p) for p in points])
        np.testing.assert_array_equal(  # exclusivity: unique bin per point
            counts, np.bincount(idx, minlength=tree.leaf_count)
        )
        shuffled = build_moving_partition(Dataset(values[rng.permutation(n)]), spec)
        assert [l.intervals for l in shuffled.leaves] == [
            l.intervals for l in tree.leaves
        ]
    big = rng.standard_normal((10**4, 2))
    big_tree = build_moving_partition(
        Dataset(big), PartitionSpec(depth=2, branching=4)
    )
    assert count_into_bins(big_tree, Dataset(big)).sum() == 10**4

    # divergence axioms on 1e3 random pmf triples
    gen = alpha_generator(0.5)
    dual = dual_generator(gen)
    for _ in range(10**3):
        raw = rng.random((3, 5)) + 1e-3
        m1, m2, m3 = (row / row.sum() for row in raw)
        d = f_divergence(gen, m1, m2)
        assert d >= -1e-12  # non-negativity
        assert f_divergence(dual, m2, m1) == pytest.approx(d, rel=1e-9, abs=1e-12)
        h12, h13, h23 = hellinger(m1, m2), hellinger(m1, m3), hellinger(m3, m2)
        assert h12 <= 4.0 + 1e-12
        # sqrt of the Hellinger divergence is a metric
        assert math.sqrt(h12) <= math.sqrt(h13) + math.sqrt(h23) + 1e-12

    # FitnessReport exact-arithmetic invariants
    mother = Dataset(rng.standard_normal((2000, 2)))
    model = Dataset(rng.standard_normal((8000, 2)))
    report = evaluate_fitness(mother, model, PartitionSpec(depth=2, branching=4), 0.05)
    assert report.lhs == report.hellinger_hat + report.bias_n1 + report.bias_n2
    assert (report.verdict == "close") == (report.lhs < report.threshold)
    assert report.threshold == 8.0 * 0.05**2
    assert report.implied_epsilon == math.sqrt(report.lhs / 8.0)
    assert report.implied_bayes_error == 0.5 - report.implied_epsilon
    assert report.bias_n1 == report.p_prime / (2.0 * report.n1)
    assert report.bias_n2 == math.sqrt(8.0 * report.p_prime / report.n2)
    assert bias_correction(report.p_prime, report.n1, report.n2) == (
        report.bias_n1,
        report.bias_n2,
    )
    announce(
        capsys,
        "PASS criterion 9: partition coverage/exclusivity/permutation "
        "invariance (100 trees), divergence axioms (1e3 pmf triples), "
        "FitnessReport exact invariants",
    )
