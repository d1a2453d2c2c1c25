"""Monte Carlo checks of the asymptotic risk results and table reproduction.

Built-in distributions expose both a sampler and exact region masses, so the
realized partitions can be scored against the truth.  Replicates each own an
independent RngStream and are reduced in replicate-index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
from scipy.stats import multivariate_normal, norm

from hellfit.dataset import Dataset, RngStream, ar_covariance, sample_mvn
from hellfit.divergence import (
    DivergenceGenerator,
    alpha_generator,
    derivatives_at_one,
    f_divergence,
    hellinger,
)
from hellfit.partition import (
    PartitionSpec,
    PartitionTree,
    build_moving_partition,
    free_param_count,
    count_into_bins,
    model_pmf,
)
from hellfit.criterion import pairwise_marginal_scan, pairwise_partitions, score_fitness


class UniformCube:
    """Independent U(0, 1) coordinates."""

    def __init__(self, k: int):
        self.k = k
        self.bounds = tuple((0.0, 1.0) for _ in range(k))

    def sample(self, n: int, rng: RngStream) -> Dataset:
        return Dataset(rng.generator().random((n, self.k)), self.bounds)

    def region_mass(self, axes, box) -> float:
        mass = 1.0
        for (lo, hi) in box:
            mass *= min(max(hi, 0.0), 1.0) - min(max(lo, 0.0), 1.0)
        return mass


class MultivariateNormal:
    """N(mean, cov) with exact axis-aligned box masses.

    Masses factorize over axes when the coordinates involved are
    uncorrelated; otherwise the joint rectangle probability is computed by
    inclusion-exclusion over the (quasi-Monte Carlo) normal CDF.
    """

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self.k = self.mean.size
        self.bounds = tuple((-np.inf, np.inf) for _ in range(self.k))

    @classmethod
    def shifted(cls, k: int, alpha: float, beta: float, rho: float = 0.95):
        """The simulation family N(alpha * 1, I + beta * V), V_ij = rho^|i-j|."""
        return cls(np.full(k, alpha), np.eye(k) + beta * ar_covariance(k, rho))

    def sample(self, n: int, rng: RngStream) -> Dataset:
        return sample_mvn(n, self.mean, self.cov, rng)

    def region_mass(self, axes, box) -> float:
        axes = list(axes)
        sub_cov = self.cov[np.ix_(axes, axes)]
        sub_mean = self.mean[axes]
        off_diag = sub_cov - np.diag(np.diag(sub_cov))
        if len(axes) == 1 or not np.any(off_diag):
            mass = 1.0
            for i, (lo, hi) in enumerate(box):
                sd = math.sqrt(sub_cov[i, i])
                mass *= norm.cdf(hi, sub_mean[i], sd) - norm.cdf(lo, sub_mean[i], sd)
            return mass
        dist = multivariate_normal(mean=sub_mean, cov=sub_cov, seed=0)
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
            total += sign * float(dist.cdf(corner))
        return max(total, 0.0)


def true_leaf_masses(tree: PartitionTree, dist) -> np.ndarray:
    """Probability of each leaf region under the given distribution."""
    masses = np.empty(tree.leaf_count)
    for leaf in tree.leaves:
        masses[leaf.index] = dist.region_mass(tree.axes, leaf.intervals)
    return masses


@dataclass(frozen=True)
class ExperimentConfig:
    distribution: object
    spec: PartitionSpec
    n: int
    replicates: int
    seed: int = 0
    generator: DivergenceGenerator = field(default_factory=lambda: alpha_generator(0.0))


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    standard_error: float
    replicates: int
    prediction: float
    ratio: float


def _standard_error(values) -> float:
    """Standard error of the mean; nan, without a warning, below two values."""
    if len(values) < 2:
        return float("nan")
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def one_sample_risk_moving(config: ExperimentConfig) -> RiskEstimate:
    """Mean divergence between true and equal-mass leaf masses over replicates
    of sample-built partitions; the asymptotic prediction is p'/(2n)."""
    dist = config.distribution
    if not hasattr(dist, "region_mass"):
        raise ValueError("moving-region risk needs a distribution with known masses")
    if config.replicates < 1:
        raise ValueError("replicates must be >= 1")
    values = np.empty(config.replicates)
    p_prime = None
    for rep in range(config.replicates):
        sample = dist.sample(config.n, RngStream(config.seed, rep))
        tree = build_moving_partition(sample, config.spec)
        truth = true_leaf_masses(tree, dist)
        equal = model_pmf(tree)
        values[rep] = f_divergence(config.generator, truth, equal)
        p_prime = free_param_count(tree)
    mean = float(np.mean(values))
    se = _standard_error(values)
    prediction = p_prime / (2.0 * config.n)
    return RiskEstimate(mean, se, config.replicates, prediction, mean / prediction)


def fixed_risk_prediction(f: DivergenceGenerator, true_m, n: int) -> float:
    """Two-term risk expansion p'/(2n) + n^-2 correction for fixed bins."""
    true_m = np.asarray(true_m, dtype=float)
    if np.any(true_m <= 0):
        raise ValueError("true bin masses must all be positive")
    p_prime = true_m.size - 1
    big_m = float(np.sum(1.0 / true_m))
    d3, d4 = derivatives_at_one(f)
    second = (
        4 * d3 * (-3 * p_prime - 1 + big_m) + 3 * d4 * (-2 * p_prime - 1 + big_m)
    ) / (24.0 * n**2)
    return p_prime / (2.0 * n) + second


def one_sample_risk_fixed(config: ExperimentConfig, true_m) -> RiskEstimate:
    """Mean divergence between true and empirical multinomial frequencies on
    fixed bins, against the two-term expansion."""
    true_m = np.asarray(true_m, dtype=float)
    if np.any(true_m <= 0):
        raise ValueError("true bin masses must all be positive")
    f = config.generator
    rng = RngStream(config.seed, 0).generator()
    counts = rng.multinomial(config.n, true_m, size=config.replicates)
    m_hat = counts / config.n
    ratios = m_hat / true_m
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = true_m * np.asarray(f.evaluate(ratios), dtype=float)
    terms = np.where(m_hat == 0, true_m * f.at_zero, terms)
    values = terms.sum(axis=1)
    mean = float(np.mean(values))
    se = _standard_error(values)
    prediction = fixed_risk_prediction(f, true_m, config.n)
    return RiskEstimate(mean, se, config.replicates, prediction, mean / prediction)


@dataclass(frozen=True)
class BiasBoundReport:
    mean_true: float
    se_true: float
    mean_estimated: float
    se_estimated: float
    correction: float  # sqrt(8 p' / n2)
    slack: float  # 3 combined standard errors
    holds: bool
    replicates: int
    adequate: bool  # False when replicates < 2 (no standard error)


def bias_bound_check(
    mother,
    model,
    spec: PartitionSpec,
    n1: int,
    n2: int,
    replicates: int,
    seed: int = 0,
) -> BiasBoundReport:
    """Checks E D[m1:m2] <= E D[m1_hat:m2_hat] + sqrt(8 p'/n2) with 3-SE slack.

    Per replicate the partition is rebuilt from a fresh model sample; the
    true-mass divergence uses exact region masses under both distributions.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    d_true = np.empty(replicates)
    d_hat = np.empty(replicates)
    p_prime = None
    for rep in range(replicates):
        model_sample = model.sample(n2, RngStream(seed, 2 * rep))
        tree = build_moving_partition(model_sample, spec)
        m1 = true_leaf_masses(tree, mother)
        m2 = true_leaf_masses(tree, model)
        d_true[rep] = hellinger(m1, m2)
        mother_sample = mother.sample(n1, RngStream(seed, 2 * rep + 1))
        counts = count_into_bins(tree, mother_sample)
        d_hat[rep] = hellinger(counts / n1, model_pmf(tree))
        p_prime = free_param_count(tree)
    correction = math.sqrt(8.0 * p_prime / n2)
    adequate = replicates >= 2
    se_true, se_hat = _standard_error(d_true), _standard_error(d_hat)
    slack = 3.0 * math.hypot(se_true, se_hat)  # nan unless adequate
    mean_true = float(np.mean(d_true))
    mean_hat = float(np.mean(d_hat))
    holds = adequate and mean_true <= mean_hat + correction + slack
    return BiasBoundReport(
        mean_true=mean_true,
        se_true=se_true,
        mean_estimated=mean_hat,
        se_estimated=se_hat,
        correction=correction,
        slack=slack,
        holds=holds,
        replicates=replicates,
        adequate=adequate,
    )


_TABLE_SHIFT = {1: (0.0, 0.0), 2: (0.01, 0.01), 3: (0.1, 0.1), 4: (1.0, 1.0)}
_PAIRWISE_N1 = {5: 10**3, 6: 10**4}


def reproduce_table(
    table_id: int,
    n1_values=None,
    n2: int = 10**7,
    epsilon: float = 0.05,
    seed: int = 0,
    k: int | None = None,
    branching: int = 4,
):
    """Rows of one of the six simulation tables (single run per cell).

    Tables 1-4: one k=3 depth-3 partition scored at several mother sample sizes.
    Tables 5-6: the pairwise two-dimensional scan at fixed n1.
    """
    if table_id in _TABLE_SHIFT:
        alpha, beta = _TABLE_SHIFT[table_id]
        k = 3 if k is None else k
        spec = PartitionSpec(depth=k, branching=branching)
        mother = MultivariateNormal.shifted(k, alpha, beta)
        model = MultivariateNormal(np.zeros(k), np.eye(k))
        if n1_values is None:
            n1_values = [10**5, 10**4]
        tree = build_moving_partition(model.sample(n2, RngStream(seed, 0)), spec)
        rows = []
        for i, n1 in enumerate(n1_values):
            mother_sample = mother.sample(n1, RngStream(seed, 1 + i))
            report = score_fitness(tree, mother_sample, epsilon)
            rows.append(
                {
                    "table": table_id,
                    "alpha": alpha,
                    "beta": beta,
                    "n1": n1,
                    "n2": n2,
                    "distance": report.hellinger_hat,
                    "lhs": report.lhs,
                    "verdict": report.verdict,
                }
            )
        return rows
    if table_id in _PAIRWISE_N1:
        k = 10 if k is None else k
        n1 = _PAIRWISE_N1[table_id]
        mother = MultivariateNormal.shifted(k, 0.1, 0.1)
        model = MultivariateNormal(np.zeros(k), np.eye(k))
        mother_sample = mother.sample(n1, RngStream(seed, 0))
        partitions = pairwise_partitions(model.sample(n2, RngStream(seed, 1)), branching)
        _, reports = pairwise_marginal_scan(mother_sample, partitions, epsilon)
        return [
            {"table": table_id, "pair": [i + 1, j + 1], "n1": n1, "n2": n2, "lhs": r.lhs}
            for (i, j), r in reports.items()
        ]
    raise ValueError("table_id must be in 1..6")

