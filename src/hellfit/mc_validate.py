"""Monte Carlo checks of the asymptotic risk results and table reproduction.

Built-in distributions expose a sampler and ``leaf_masses(tree)``, the exact
probability of every leaf of a built partition, so the realized partitions can
be scored against the truth.  Leaf masses are computed for all leaves at once
from the partition's level arrays (``partition.leaf_edges``), with no per-leaf
Python loop.  Replicates each own an independent RngStream and are reduced in
replicate-index order.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

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
    leaf_edges,
    model_pmf,
    pairwise_partitions,
)
from hellfit.criterion import bias_correction, pairwise_marginal_scan, score_fitness

_HELLINGER = alpha_generator(0.0)


class UniformCube:
    """Independent U(0, 1) coordinates; a leaf's mass is the product, level by
    level, of its intervals clipped to [0, 1]."""

    def __init__(self, k: int):
        self.k = k
        self.bounds = tuple((0.0, 1.0) for _ in range(k))

    def sample(self, n: int, rng: RngStream) -> Dataset:
        return Dataset(rng.generator().random((n, self.k)), self.bounds)

    def leaf_masses(self, tree: PartitionTree) -> np.ndarray:
        mass = 1.0
        for lo, hi in zip(*leaf_edges(tree)):
            mass *= np.clip(hi, 0.0, 1.0) - np.clip(lo, 0.0, 1.0)
        return mass


class MultivariateNormal:
    """N(mean, cov) with exact leaf masses.

    Masses factorize over the split axes when those coordinates are
    uncorrelated: per level one vectorized ``norm.cdf`` difference, multiplied
    down the levels.  Otherwise each leaf's rectangle probability is summed by
    inclusion-exclusion over its 2^d corners, one batched ``cdf`` of a single
    frozen distribution per corner pattern.  scipy's CDF is deterministic in
    2-D; from 3-D on it is a randomized quasi-Monte Carlo integral (seed 0),
    whose stream runs across all leaves of a call.  Only ``leaf_masses``
    imports ``scipy.stats`` (about 1.4 s), so sampling never loads it.
    """

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self.k = self.mean.size

    @classmethod
    def shifted(cls, k: int, alpha: float, beta: float, rho: float = 0.95):
        """The simulation family N(alpha * 1, I + beta * V), V_ij = rho^|i-j|."""
        return cls(np.full(k, alpha), np.eye(k) + beta * ar_covariance(k, rho))

    def sample(self, n: int, rng: RngStream) -> Dataset:
        return sample_mvn(n, self.mean, self.cov, rng)

    def leaf_masses(self, tree: PartitionTree) -> np.ndarray:
        from scipy.stats import multivariate_normal, norm

        axes = list(tree.axes)
        sub_cov = self.cov[np.ix_(axes, axes)]
        sub_mean = self.mean[axes]
        lows, highs = leaf_edges(tree)
        if len(axes) == 1 or not np.any(sub_cov - np.diag(np.diag(sub_cov))):
            mass = 1.0
            for mean, var, lo, hi in zip(sub_mean, np.diag(sub_cov), lows, highs):
                sd = math.sqrt(var)
                mass *= norm.cdf(hi, mean, sd) - norm.cdf(lo, mean, sd)
            return mass
        dist = multivariate_normal(mean=sub_mean, cov=sub_cov, seed=0)
        total = np.zeros(tree.leaf_count)
        for mask in range(1 << len(axes)):  # inclusion-exclusion over the 2^d corners
            bits = mask >> np.arange(len(axes)) & 1
            corners = np.where(bits[:, None] == 1, lows, highs).T
            rows = ~np.any(np.isneginf(corners), axis=1)  # a -inf corner has mass 0
            if rows.any():
                total[rows] += (-1.0) ** bits.sum() * dist.cdf(corners[rows])
        return np.maximum(total, 0.0)


def true_leaf_masses(tree: PartitionTree, dist) -> np.ndarray:
    """Probability of each leaf region under the given distribution."""
    return dist.leaf_masses(tree)


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


def one_sample_risk_moving(
    distribution, spec: PartitionSpec, n: int, replicates: int, seed: int = 0
) -> RiskEstimate:
    """Mean Hellinger divergence between true and equal-mass leaf masses over
    replicates of sample-built partitions; the asymptotic prediction is p'/(2n)."""
    if not hasattr(distribution, "leaf_masses"):
        raise ValueError("moving-region risk needs a distribution with known masses")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    values = np.empty(replicates)
    p_prime = None
    for rep in range(replicates):
        sample = distribution.sample(n, RngStream(seed, rep))
        tree = build_moving_partition(sample, spec)
        truth = true_leaf_masses(tree, distribution)
        equal = model_pmf(tree)
        values[rep] = f_divergence(_HELLINGER, truth, equal)
        p_prime = free_param_count(tree)
    mean = float(np.mean(values))
    se = _standard_error(values)
    prediction = p_prime / (2.0 * n)
    return RiskEstimate(mean, se, replicates, prediction, mean / prediction)


def fixed_risk_prediction(f: DivergenceGenerator, true_m, n: int) -> float:
    """Two-term risk expansion p'/(2n) + n^-2 correction for fixed bins."""
    true_m = np.asarray(true_m, dtype=float)
    if np.any(true_m <= 0):
        raise ValueError("true bin masses must all be positive")
    if abs(math.fsum(true_m) - 1.0) > 1e-9:
        raise ValueError(f"true bin masses must sum to 1, not {math.fsum(true_m)!r}")
    p_prime = true_m.size - 1
    big_m = float(np.sum(1.0 / true_m))
    d3, d4 = derivatives_at_one(f)
    second = (
        4 * d3 * (-3 * p_prime - 1 + big_m) + 3 * d4 * (-2 * p_prime - 1 + big_m)
    ) / (24.0 * n**2)
    return p_prime / (2.0 * n) + second


def one_sample_risk_fixed(true_m, n: int, replicates: int, seed: int = 0) -> RiskEstimate:
    """Mean Hellinger divergence between true and empirical multinomial
    frequencies on fixed bins, against the two-term expansion."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    true_m = np.asarray(true_m, dtype=float)
    prediction = fixed_risk_prediction(_HELLINGER, true_m, n)  # rejects bad masses before sampling
    counts = RngStream(seed, 0).generator().multinomial(n, true_m, size=replicates)
    values = (true_m * _HELLINGER.evaluate(counts / n / true_m)).sum(axis=1)
    mean = float(np.mean(values))
    se = _standard_error(values)
    return RiskEstimate(mean, se, replicates, prediction, mean / prediction)


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
    true-mass divergence uses exact leaf masses under both distributions.
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
    correction = bias_correction(p_prime, n1, n2)[1]
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
        if k < 2:
            raise ValueError("pairwise scan needs k >= 2")
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

