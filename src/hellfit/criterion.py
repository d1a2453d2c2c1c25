"""The model fitness criterion: bias-corrected Hellinger distance between the
discretized samples, compared against the 8 eps^2 threshold.

The partition is always built from the MODEL sample; the mother sample is
only counted into its bins, so one built partition scores any number of
mother samples (``score_fitness``).  The pairwise marginal scan is one
depth-2 partition per coordinate pair, scored the same way.  The conclusion
is one-sided: the verdict is "close" when the inequality holds and
"not-shown-close" otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
import json
import math

import numpy as np
from scipy.special import kolmogorov

from hellfit.bayes_threshold import delta_star_hellinger
from hellfit.dataset import Dataset
from hellfit.divergence import hellinger
from hellfit.partition import (
    PartitionSpec,
    PartitionTree,
    build_moving_partition,
    count_into_bins,
    free_param_count,
    model_pmf,
)


@dataclass(frozen=True)
class FitnessReport:
    hellinger_hat: float
    p_prime: int
    n1: int
    n2: int
    bias_n1: float
    bias_n2: float
    lhs: float
    epsilon: float
    threshold: float
    verdict: str  # "close" | "not-shown-close"
    implied_epsilon: float
    implied_bayes_error: float
    zero_bins: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def bias_correction(p_prime: int, n1: int, n2: int) -> tuple[float, float]:
    """(p'/(2 n1), sqrt(8 p'/n2))."""
    if p_prime < 1 or n1 < 1 or n2 < 1:
        raise ValueError("p_prime, n1 and n2 must be positive")
    return p_prime / (2.0 * n1), math.sqrt(8.0 * p_prime / n2)


def implied_epsilon(lhs: float) -> float:
    """Solve 8 eps^2 = lhs for eps."""
    if lhs < 0:
        raise ValueError("lhs must be >= 0")
    return math.sqrt(lhs / 8.0)


def evaluate_fitness(
    mother: Dataset, model: Dataset, spec: PartitionSpec, epsilon: float
) -> FitnessReport:
    """Full criterion pipeline on two samples: build from the model, then score."""
    delta_star_hellinger(epsilon)  # rejects epsilon before the build
    if mother.k != model.k:
        raise ValueError(f"dimension mismatch: mother k={mother.k}, model k={model.k}")
    return score_fitness(build_moving_partition(model, spec), mother, epsilon)


def score_fitness(tree: PartitionTree, mother: Dataset, epsilon: float) -> FitnessReport:
    """The criterion for a mother sample on a partition built from a model sample.

    The partition depends only on the model sample, so one built partition
    scores any number of mother samples; n2 is its building-sample size.
    """
    threshold = delta_star_hellinger(epsilon)
    counts = count_into_bins(tree, mother)
    m1_hat = counts / mother.n
    m2_hat = model_pmf(tree)
    d_hat = hellinger(m1_hat, m2_hat)
    p_prime = free_param_count(tree)
    n2 = sum(tree.counts)
    bias_n1, bias_n2 = bias_correction(p_prime, mother.n, n2)
    lhs = d_hat + bias_n1 + bias_n2
    eps_implied = implied_epsilon(lhs)
    return FitnessReport(
        hellinger_hat=d_hat,
        p_prime=p_prime,
        n1=mother.n,
        n2=n2,
        bias_n1=bias_n1,
        bias_n2=bias_n2,
        lhs=lhs,
        epsilon=epsilon,
        threshold=threshold,
        verdict="close" if lhs < threshold else "not-shown-close",
        implied_epsilon=eps_implied,
        implied_bayes_error=0.5 - eps_implied,
        zero_bins=int(np.count_nonzero(counts == 0)),
    )


def pairwise_partitions(model: Dataset, branching: int) -> dict:
    """One depth-2 partition per coordinate pair (i, j), i < j, splitting i then j."""
    if model.k < 2:
        raise ValueError("pairwise scan needs k >= 2")
    return {
        (i, j): build_moving_partition(
            model, PartitionSpec(depth=2, branching=branching, axis_order=(i, j))
        )
        for i in range(model.k)
        for j in range(i + 1, model.k)
    }


def pairwise_marginal_scan(mother: Dataset, partitions: dict, epsilon: float):
    """The criterion on every pair partition of ``pairwise_partitions``.

    Returns (matrix, reports): an upper-triangular matrix of left-hand-side
    values (nan elsewhere) and the per-pair FitnessReport objects.
    """
    matrix = np.full((mother.k, mother.k), np.nan)
    reports: dict[tuple[int, int], FitnessReport] = {}
    for (i, j), tree in partitions.items():
        reports[(i, j)] = report = score_fitness(tree, mother, epsilon)
        matrix[i, j] = report.lhs
    return matrix, reports


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The p-value uses the limiting Kolmogorov distribution evaluated at
    sqrt(nx ny / (nx + ny)) times the statistic.
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())
    y = np.sort(np.asarray(y, dtype=float).ravel())
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    statistic = float(np.max(np.abs(cdf_x - cdf_y)))
    effective = x.size * y.size / (x.size + y.size)
    p_value = float(kolmogorov(math.sqrt(effective) * statistic))
    return statistic, p_value
