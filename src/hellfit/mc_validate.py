"""Monte Carlo checks of the asymptotic risk results and table reproduction.

Built-in distributions expose a sampler and ``leaf_masses(tree)``, the exact
probability of every leaf of a built partition, so the realized partitions can
be scored against the truth.  Leaf masses are computed for all leaves at once
from the partition's level arrays (``partition.leaf_edges``), with no per-leaf
Python loop.  Normal leaf masses are exact and numpy-only: ``math.erf``, and
Genz's bivariate method for up to three correlated split axes.  Replicates each
own an independent RngStream and are reduced in replicate-index order.
``validate_payload`` is the whole report that ``hellfit validate`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import math

import numpy as np

from hellfit.dataset import Dataset, RngStream, ar_covariance, ordered, sample_mvn
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
)
from hellfit.criterion import bias_correction, pairwise_payload, score_fitness

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


_ERF = np.frompyfunc(math.erf, 1, 1)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, in ndtr's form: erf for |z| < 1 and a
    reflected erfc beyond (NaN too), z = x / sqrt(2); one libm call an element."""
    z = x * math.sqrt(0.5)
    near = np.abs(z) < 1.0
    cdf = np.empty_like(z)
    cdf[near] = 0.5 + 0.5 * _ERF(z[near]).astype(float)
    far = z[~near]
    tail = 0.5 * _ERFC(np.abs(far)).astype(float)
    cdf[~near] = np.where(far > 0, 1.0 - tail, tail)
    return cdf


# Half of each Gauss-Legendre rule on [-1, 1] (nodes t > 0 and their weights),
# as tabulated by Genz for 6, 12 and 20 points
_GAUSS_LEGENDRE = {
    6: (
        [0.9324695142031522, 0.6612093864662647, 0.2386191860831970],
        [0.1713244923791705, 0.3607615730481384, 0.4679139345726904],
    ),
    12: (
        [0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
         0.5873179542866171, 0.3678314989981802, 0.1252334085114692],
        [0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
         0.2031674267230659, 0.2334925365383547, 0.2491470458134029],
    ),
    20: (
        [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
         0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
         0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
         0.07652652113349733],
        [0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
         0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
         0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
         0.1527533871307259],
    ),
}


def _bvnu(h: np.ndarray, k: np.ndarray, r: float) -> np.ndarray:
    """P(X > h, Y > k), elementwise, for standard normals X, Y of correlation r.

    Genz's BVNU (Statistics and Computing 14, 2004), after Drezner and
    Wesolowsky: Gauss-Legendre quadrature over asin(r) for |r| < 0.925, an
    asymptotic expansion about |r| = 1 beyond.  Infinite limits reduce to the
    independent product.
    """
    upper = _normal_cdf(-h) * _normal_cdf(-k)
    finite = np.isfinite(h) & np.isfinite(k)
    h, k = h[finite], k[finite]
    t, half = _GAUSS_LEGENDRE[6 if abs(r) < 0.3 else 12 if abs(r) < 0.75 else 20]
    x = np.concatenate([1.0 - np.array(t), 1.0 + np.array(t)])[:, None]  # nodes on [0, 2]
    w = np.array(half + half)
    if abs(r) < 0.925:
        asr = math.asin(r) / 2
        sn = np.sin(asr * x)
        bvn = w @ np.exp((sn * (h * k) - (h * h + k * k) / 2) / (1 - sn * sn))
        bvn = bvn * asr / (2 * math.pi) + upper[finite]
    else:
        if r < 0:
            k = -k
        hk = h * k
        bvn = 0.0
        if abs(r) < 1:
            as_ = 1 - r * r
            a = math.sqrt(as_)
            bs = (h - k) ** 2
            asr = -(bs / as_ + hk) / 2
            c = (4 - hk) / 8
            d = (12 - hk) / 80
            bvn = np.where(
                asr > -100,
                a * np.exp(asr) * (1 - c * (bs - as_) * (1 - d * bs) / 3 + c * d * as_ * as_),
                0.0,
            )
            b = np.sqrt(bs)
            sp = math.sqrt(2 * math.pi) * _normal_cdf(-b / a)
            tail = np.exp(-np.maximum(hk, -100) / 2) * sp * b * (1 - c * bs * (1 - d * bs) / 3)
            bvn = np.where(hk > -100, bvn - tail, bvn)
            xs = (a / 2 * x) ** 2
            asr = -(bs / xs + hk) / 2
            sp = 1 + c * xs * (1 + 5 * d * xs)
            rs = np.sqrt(1 - xs)
            ep = np.exp(-(hk / 2) * xs / (1 + rs) ** 2) / rs
            terms = np.where(asr > -100, np.exp(asr) * (sp - ep), 0.0)
            bvn = (a / 2 * (w @ terms) - bvn) / (2 * math.pi)
        if r > 0:
            bvn = bvn + _normal_cdf(-np.maximum(h, k))
        else:
            between = np.where(
                h < 0, _normal_cdf(k) - _normal_cdf(h), _normal_cdf(-h) - _normal_cdf(-k)
            )
            bvn = np.where(h >= k, -bvn, between - bvn)
    upper[finite] = np.clip(bvn, 0.0, 1.0)
    return upper


def _rectangle(lo, hi, r: float) -> np.ndarray:
    """P(lo < (X, Y) <= hi), elementwise, for standard normals X, Y of correlation r.

    ``lo`` and ``hi`` stack the X and Y limits on their first axis; the result
    is flat.  The mass is U(xl, yl) - U(xu, yl) - U(xl, yu) + U(xu, yu), U the
    upper orthant ``_bvnu``.
    """
    (xl, yl), (xu, yu) = lo, hi
    u = _bvnu(np.concatenate([xl, xu] * 2), np.concatenate([yl, yl, yu, yu]), r).reshape(4, -1)
    return np.clip(u[0] - u[1] - u[2] + u[3], 0.0, 1.0)


# Leaves per _rectangle call of a three-axis leaf_masses, which bounds _bvnu's
# 20-node temporaries: at 512 leaves the call peaks near 11 MB (tracemalloc),
# against 145 MB with every leaf at once
_LEAF_BLOCK = 16


class MultivariateNormal:
    """N(mean, cov) with exact leaf masses.

    Masses factorize over the split axes when those coordinates are
    uncorrelated: per level one vectorized normal CDF difference, multiplied
    down the levels.  Two correlated split axes take Genz's bivariate method
    (``_bvnu``) for all leaves at once, four upper orthants per rectangle.
    Three correlated split axes condition on the first: a leaf's mass is the
    integral over its first-axis interval of the normal density times the
    rectangle probability of the other two given that value, by 32 panels of
    the 20-point Gauss-Legendre rule, with the interval clipped to +-9
    standard deviations.  Four or more correlated split axes raise
    ``ValueError``.
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
        axes = list(tree.axes)
        sub_cov = self.cov[np.ix_(axes, axes)]
        sub_mean = self.mean[axes]
        try:
            np.linalg.cholesky(sub_cov)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                f"covariance of the split axes {axes} is not positive definite"
            ) from None
        sd = np.sqrt(np.diag(sub_cov))
        lows, highs = leaf_edges(tree)
        # (lower, upper) x split axis x leaf, in standard units
        z = (np.array([lows, highs]) - sub_mean[:, None]) / sd[:, None]
        if len(axes) == 1 or not np.any(sub_cov - np.diag(np.diag(sub_cov))):
            cdf = _normal_cdf(z)
            return np.prod(cdf[1] - cdf[0], axis=0)
        c = sub_cov / np.outer(sd, sd)  # correlations
        if len(axes) == 2:
            return _rectangle(*z, c[0, 1])
        if len(axes) > 3:
            raise ValueError(f"exact masses take at most 3 correlated split axes, not {axes}")
        s = np.sqrt(1 - c[1:, 0] ** 2)  # given X0 = x, axes 1 and 2 have means c[1:, 0] x, sds s
        t, w = (np.array(half) for half in _GAUSS_LEGENDRE[20])
        frac = (np.arange(32)[:, None] + np.concatenate([1 - t, 1 + t]) / 2).ravel() / 32
        lo, hi = np.clip(z[:, 0], -9.0, 9.0)
        x = lo + (hi - lo) * frac[:, None]  # node x leaf
        r = (c[1, 2] - c[1, 0] * c[2, 0]) / (s[0] * s[1])
        rect = np.empty_like(x)
        for at in range(0, x.shape[1], _LEAF_BLOCK):
            leaves = slice(at, at + _LEAF_BLOCK)
            cond = (z[:, 1:, None, leaves] - c[1:, 0, None, None] * x[:, leaves]) / s[:, None, None]
            rect[:, leaves] = _rectangle(*cond, r).reshape(len(frac), -1)
        phi = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        # each panel's weights sum to 2, so the 32 panels' to 64
        return (hi - lo) / 64 * (np.tile(np.concatenate([w, w]), 32) @ (phi * rect))


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
    """

    def given(value, default):
        return default if value is None else value

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
        payload = pairwise_payload(
            mother_sample, model.sample(n2, RngStream(seed, 1)), branching, epsilon
        )
        return [
            {"table": table_id, "pair": pair["pair"], "n1": n1, "n2": n2, "lhs": pair["lhs"]}
            for pair in payload["pairs"]
        ]
    raise ValueError("table_id must be in 1..6")

