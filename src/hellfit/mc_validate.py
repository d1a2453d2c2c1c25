"""Monte Carlo checks of the asymptotic risk results and table reproduction.

The checks draw from the laws of ``hellfit.models``, whose ``leaf_masses(tree)``
gives the exact probability of every leaf of a built partition, so the realized
partitions can be scored against the truth.  Replicates each own an independent
RngStream and are reduced in replicate-index order.  ``validate_payload`` is the
whole report that ``hellfit validate`` prints, and ``reproduce_table`` the rows
of ``hellfit simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import math

import numpy as np

from hellfit.dataset import RngStream, UsageError, ordered
from hellfit.divergence import (
    DivergenceGenerator,
    alpha_generator,
    derivatives_at_one,
    f_divergence,
    hellinger,
)
from hellfit.partition import (
    PartitionSpec,
    build_moving_partition,
    free_param_count,
    count_into_bins,
    model_pmf,
)
from hellfit.criterion import bias_correction, pairwise_payload, score_fitness
from hellfit.models import MultivariateNormal, UniformCube

_HELLINGER = alpha_generator(0.0)


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
        truth = distribution.leaf_masses(tree)
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
    Each model sample is dropped once its tree is built.  All of them,
    replicate 0's too, are drawn on ``ordered``'s one thread, so they stay in its
    malloc arena; drawing replicate 0 on the calling thread left one in each
    arena and raised the peak RSS of a 1e5 x 2 check by 3 MB more.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    for name, n in (("n1", n1), ("n2", n2)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1")
    d_true, d_hat, p_prime = [], [], None
    draws = ([partial(model.sample, n2, RngStream(seed, 2 * rep))] for rep in range(replicates))
    for model_sample in ordered(draws, 1, 1):  # not enumerate: its reused tuple keeps the sample
        tree = build_moving_partition(model_sample, spec)
        del model_sample  # the draw ahead is now the only model sample alive
        d_true.append(hellinger(mother.leaf_masses(tree), model.leaf_masses(tree)))
        counts = count_into_bins(tree, mother.sample(n1, RngStream(seed, 2 * len(d_hat) + 1)))
        d_hat.append(hellinger(counts / n1, model_pmf(tree)))
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


def validate_payload(theorem, n=None, n1=None, n2=None, replicates=None, seed=0, config=None):
    """Exactly what ``hellfit validate`` prints: one theorem's Monte Carlo check, a dict.

    None means "not given" and takes the theorem's default.  Theorem 2 checks
    the fixed bins m = (1/4, 1/4, 1/4, 1/4) at n 100 over 1e5 replicates, and
    theorem 3 ``UniformCube(1)`` at depth 1 and branching 4, n 1000 over 2000
    replicates; both read ``n`` only.  Theorem 4 reads ``n1``, ``n2`` and
    ``config`` (default identical-normals: N(0, 1) twice at depth 1;
    shifted-normals: ``MultivariateNormal.shifted(2, 0.1, 0.1)`` against
    N(0, I) at depth 2; branching 4), with n1 1e3, n2 1e5 and 500 replicates.
    An argument the theorem does not read raises UsageError if given.
    """

    def given(value, default):
        return default if value is None else value

    if theorem in (2, 3):
        _refuse_unread(f"theorem {theorem}", n1=n1, n2=n2, config=config)
    elif theorem == 4:
        _refuse_unread("theorem 4", n=n)
    if theorem == 2:
        true_m = [0.25] * 4
        est = one_sample_risk_fixed(true_m, given(n, 100), given(replicates, 10**5), seed)
        return {"theorem": 2, "true_m": true_m, **est.__dict__}
    if theorem == 3:
        spec = PartitionSpec(depth=1, branching=4)
        n, replicates = given(n, 1000), given(replicates, 2000)
        est = one_sample_risk_moving(UniformCube(1), spec, n, replicates, seed)
        return {"theorem": 3, **est.__dict__}
    config = given(config, "identical-normals")
    if (theorem, config) == (4, "identical-normals"):
        mother = model = MultivariateNormal([0.0], [[1.0]])
        spec = PartitionSpec(depth=1, branching=4)
    elif (theorem, config) == (4, "shifted-normals"):
        mother = MultivariateNormal.shifted(2, 0.1, 0.1)
        model = MultivariateNormal(np.zeros(2), np.eye(2))
        spec = PartitionSpec(depth=2, branching=4)
    else:
        raise ValueError(f"no check for theorem {theorem!r} with config {config!r}")
    n1, n2, replicates = given(n1, 10**3), given(n2, 10**5), given(replicates, 500)
    report = bias_bound_check(mother, model, spec, n1, n2, replicates, seed)
    return {"theorem": 4, "config": config, **report.__dict__}


def _refuse_unread(mode, **arguments):
    """Raise UsageError naming the first of ``arguments`` that is given (not None)."""
    for name, value in arguments.items():
        if value is not None:
            raise UsageError(f"{name} is not read by {mode}")


_TABLE_SHIFT = {1: (0.0, 0.0), 2: (0.01, 0.01), 3: (0.1, 0.1), 4: (1.0, 1.0)}
_PAIRWISE_N1 = {5: 10**3, 6: 10**4}


def reproduce_table(
    table_id: int,
    n1_values=None,
    n2: int = 10**7,
    epsilon: float | None = None,
    seed: int = 0,
    k: int | None = None,
    branching: int = 4,
):
    """Rows of one of the six simulation tables (single run per cell).

    Tables 1-4: one k=3 depth-3 partition scored at several mother sample
    sizes, at ``epsilon`` (None: 0.05).  Tables 5-6: the pairwise
    two-dimensional scan at fixed n1 and k >= 2 (None: 10); they read neither
    ``n1_values`` nor ``epsilon``, and raise UsageError if either is given.
    """
    if table_id in _TABLE_SHIFT:
        alpha, beta = _TABLE_SHIFT[table_id]
        k = 3 if k is None else k
        spec = PartitionSpec(depth=k, branching=branching)
        mother = MultivariateNormal.shifted(k, alpha, beta)
        model = MultivariateNormal(np.zeros(k), np.eye(k))
        if n1_values is None:
            n1_values = [10**5, 10**4]
        epsilon = 0.05 if epsilon is None else epsilon
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
        _refuse_unread(f"table {table_id}", n1_values=n1_values, epsilon=epsilon)
        k = 10 if k is None else k
        if k < 2:
            raise UsageError(f"table {table_id}: pairwise scan needs k >= 2, not {k}")
        n1 = _PAIRWISE_N1[table_id]
        mother = MultivariateNormal.shifted(k, 0.1, 0.1)
        model = MultivariateNormal(np.zeros(k), np.eye(k))
        mother_sample = mother.sample(n1, RngStream(seed, 0))
        payload = pairwise_payload(  # the rows keep lhs only, which no epsilon changes
            mother_sample, model.sample(n2, RngStream(seed, 1)), branching, 0.05
        )
        return [
            {"table": table_id, "pair": pair["pair"], "n1": n1, "n2": n2, "lhs": pair["lhs"]}
            for pair in payload["pairs"]
        ]
    raise ValueError("table_id must be in 1..6")

