"""The model fitness criterion: bias-corrected Hellinger distance between the
discretized samples, compared against the 8 eps^2 threshold.

The partition is always built from the MODEL sample; the mother sample is
only counted into its bins, so one built partition scores any number of
mother samples (``score_fitness``).  The pairwise marginal scan scores the
depth-2 partition of every coordinate pair the same way.  The conclusion
is one-sided: the verdict is "close" when the inequality holds and
"not-shown-close" otherwise.  ``fit_payload`` is the whole report that
``hellfit fit`` prints: the criterion and a per-coordinate KS baseline;
``pairwise_payload`` is the whole report of ``hellfit pairwise``.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import partial
import math

import numpy as np

from hellfit.bayes_threshold import delta_star_hellinger
from hellfit.dataset import Dataset, ordered, usable_cpus
from hellfit.divergence import hellinger
from hellfit.partition import (
    PartitionSpec,
    PartitionTree,
    build_moving_partition,
    count_into_bins,
    free_param_count,
    model_pmf,
    pairwise_partitions,
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
    close_reachable: bool  # bias_n1 + bias_n2 < threshold: else the sizes alone decide the verdict

    def to_dict(self) -> dict:
        return asdict(self)


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


def fit_payload(mother: Dataset, model: Dataset, spec: PartitionSpec, epsilon: float) -> dict:
    """The ``evaluate_fitness`` report as a dict, then ``ks_baseline``: exactly what
    ``hellfit fit`` prints.

    ``ks_baseline`` is ``ks_two_sample`` on each coordinate, in column order.
    The columns run as one batch of ``dataset.ordered`` on one thread per
    usable CPU, so the values and any error are those of a serial loop; a
    mother/model dimension mismatch raises before any build or KS test.
    """
    payload = evaluate_fitness(mother, model, spec, epsilon).to_dict()
    calls = [partial(ks_two_sample, *pair) for pair in zip(mother.values.T, model.values.T)]
    tests = ordered([calls], 1, usable_cpus())
    payload["ks_baseline"] = [dict(zip(("statistic", "p_value"), test)) for test in tests]
    return payload


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
        implied_bayes_error=max(0.0, 0.5 - eps_implied),  # a rate: lhs > 2 gives eps > 1/2
        zero_bins=int(np.count_nonzero(counts == 0)),
        close_reachable=bool(bias_n1 + bias_n2 < threshold),
    )


def pairwise_marginal_scan(mother: Dataset, partitions: dict, epsilon: float):
    """The criterion on every pair partition of ``partition.pairwise_partitions``.

    Returns (matrix, reports): an upper-triangular matrix of left-hand-side
    values (nan elsewhere) and the per-pair FitnessReport objects.
    """
    matrix = np.full((mother.k, mother.k), np.nan)
    reports: dict[tuple[int, int], FitnessReport] = {}
    for (i, j), tree in partitions.items():
        reports[(i, j)] = report = score_fitness(tree, mother, epsilon)
        matrix[i, j] = report.lhs
    return matrix, reports


def pairwise_payload(mother: Dataset, model: Dataset, branching: int, epsilon: float) -> dict:
    """Exactly what ``hellfit pairwise`` prints: ``pairwise_marginal_scan`` on
    ``pairwise_partitions(model, branching)``, its matrix as nested lists and
    one report per pair (i, j), i < j, labelled 1-based ``[i + 1, j + 1]``."""
    matrix, reports = pairwise_marginal_scan(
        mother, pairwise_partitions(model, branching), epsilon
    )
    return {
        "epsilon": epsilon,
        "threshold": delta_star_hellinger(epsilon),
        "lhs_matrix": matrix.tolist(),
        "pairs": [
            {"pair": [i + 1, j + 1], **report.to_dict()}
            for (i, j), report in sorted(reports.items())
        ],
    }


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The p-value is the survival function of the limiting Kolmogorov
    distribution at sqrt(nx ny / (nx + ny)) times the statistic, summed as a
    short series by ``_kolmogorov_sf``.  Both samples must be non-empty and
    finite.

    Each sample is sorted in a copy of its own; call the smaller one s (x
    when nx <= ny) and the other b.  At each distinct value u of s the
    counts of s below u and at or below u are the ends of u's run, and those
    of b are ``searchsorted`` left and right.  The statistic is the largest
    |F_s - F_b| over these 2 |u| points, and that is exact: each point is
    the pair of CDFs at a pooled point (or both zero), and between two
    values of s, F_s is constant and F_b monotone, so the gap at any pooled
    point lies between those at the right of one value of s and the left of
    the next.  The counts are those at the pooled points, and swapping the
    samples negates each gap exactly, so the statistic is that of the max
    over every pooled point, bit for bit.  Beyond the two sorted copies,
    8 (nx + ny) bytes, it holds O(min(nx, ny)).
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())  # nan sorts last, -inf first
    y = np.sort(np.asarray(y, dtype=float).ravel())
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    if not (np.isfinite(x[[0, -1]]).all() and np.isfinite(y[[0, -1]]).all()):
        raise ValueError("both samples must be finite")
    small, big = (x, y) if x.size <= y.size else (y, x)
    starts = np.empty(small.size + 1, bool)  # the first of each run of ties, then the end
    starts[0] = starts[-1] = True
    np.not_equal(small[1:], small[:-1], out=starts[1:-1])
    runs = np.flatnonzero(starts)  # #small below each distinct value, then small.size
    del starts
    distinct = small[runs[:-1]]
    statistic = 0.0
    for side, below in (("left", runs[:-1]), ("right", runs[1:])):  # below, at or below
        gap = np.searchsorted(big, distinct, side) / big.size
        np.subtract(below / small.size, gap, out=gap)
        statistic = max(statistic, float(np.max(np.abs(gap, out=gap))))
    effective = x.size * y.size / (x.size + y.size)
    p_value = _kolmogorov_sf(math.sqrt(effective) * statistic)
    return statistic, p_value


_KS_CUTOVER = 0.82  # below it the first series converges faster, above it the second


def _kolmogorov_sf(x: float) -> float:
    """Q(x) = P(K > x) for the limiting Kolmogorov distribution K.

    Q = 1 - (sqrt(2 pi)/x) sum_k exp(-(2k-1)^2 pi^2/(8x^2)) up to the cut-over,
    Q = 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2) above it.  The first term left out
    is below 1e-19 of the sum on either side (u^24 with u = exp(-pi^2/(8x^2))
    <= 0.16, and v^35 with v = exp(-2x^2) <= 0.27), and Q(x) = 1 in doubles
    for x <= 0.1, where the first sum is below 1e-50.
    """
    if x <= 0.1:
        return 1.0
    if x <= _KS_CUTOVER:
        terms = (math.exp(-((2 * k - 1) * math.pi) ** 2 / (8.0 * x * x)) for k in (1, 2, 3))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * math.fsum(terms)
    return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 6))
