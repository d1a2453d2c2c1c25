"""Distributions with known laws: samplers and exact leaf masses.

The criterion itself reads nothing but the two samples; these laws are what
its checks (``mc_validate``) and the simulation tables draw from.  Each exposes
``sample(n, rng)`` and ``leaf_masses(tree)``, the exact probability of every
leaf of a built partition, computed for all leaves at once from the
partition's level arrays (``partition.leaf_edges``), with no per-leaf Python
loop.  Normal leaf masses are exact and numpy-only: ``math.erf``, and Genz's
bivariate method for up to three correlated split axes.
"""

from __future__ import annotations

import math

import numpy as np

from hellfit.dataset import Dataset, RngStream
from hellfit.partition import PartitionTree, leaf_edges


def ar_covariance(k: int, rho: float) -> np.ndarray:
    """Symmetric positive-definite matrix with entries rho**|i-j|."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not abs(rho) < 1:
        raise ValueError("|rho| must be < 1")
    idx = np.arange(k)
    return rho ** np.abs(idx[:, None] - idx[None, :])


class UniformCube:
    """Independent U(0, 1) coordinates; a leaf's mass is the product, level by
    level, of its intervals clipped to [0, 1]."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, not {k}")
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
        """Refuses, with ValueError, a mean and covariance that the sampler and
        ``leaf_masses`` would read as two different laws: a mean not a nonempty
        vector, a covariance not k x k, non-finite entries, or a covariance
        asymmetric beyond rounding (the Cholesky draw reads its lower triangle
        only, the masses its upper one too).  Positive definiteness is checked
        where it is used: by the draw, and by ``leaf_masses`` on the split axes.
        """
        self.mean, self.cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
        self.k = self.mean.size
        if self.mean.ndim != 1 or not self.k:
            raise ValueError(f"mean must be a nonempty vector, not of shape {self.mean.shape}")
        if self.cov.shape != (self.k, self.k):
            raise ValueError(f"cov must be {self.k} x {self.k} like the mean, not {self.cov.shape}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.cov).all()):
            raise ValueError("mean and cov must have finite entries only")
        if np.abs(self.cov - self.cov.T).max() > 1e-12 * np.abs(self.cov).max():
            raise ValueError("cov must be symmetric")

    @classmethod
    def shifted(cls, k: int, alpha: float, beta: float, rho: float = 0.95):
        """The simulation family N(alpha * 1, I + beta * V), V_ij = rho^|i-j|."""
        return cls(np.full(k, alpha), np.eye(k) + beta * ar_covariance(k, rho))

    def sample(self, n: int, rng: RngStream) -> Dataset:
        """Draw n i.i.d. multivariate normal rows via lower-triangular Cholesky.

        The values are those of ``mean + z @ L.T`` for one ``(n, k)`` standard
        normal draw ``z``, bit for bit.  ``z`` is drawn in blocks of
        ``max(2**12, 2**18 // k**2)`` rows, the same stream as one draw, and each
        block is multiplied into its slice of the column-major sample, so ``z`` is
        held whole only when it is one block.  The rows past the last whole block
        join it, so no block but a sole one is shorter than the block rows: a
        short product can take another BLAS kernel, whose sums may differ in the
        last bit (blocks under 2**12 rows broke bit-equality at k = 12 and 16).
        OpenBLAS wakes its threads from about 2**19 multiply-adds, and a woken
        thread spins for about 0.1 s after the call, on a core the partition build
        that follows would use; a block is ``k * k`` multiply-adds a row, so every
        product, a folded last block included, stays under that for k <= 8, and
        whole blocks do for k <= 11.  Few blocks mean few ``standard_normal``
        calls, each of which gives the GIL back and takes it again: a 1e5 x 2
        sample is one call, not the 25 of 2**12-row blocks, which matters where
        the draw runs on a thread beside a build, as in the theorem-4 check.  The
        first block is drawn before the sample is allocated; the other order made
        glibc map fresh pages for every later block.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        lower = np.linalg.cholesky(self.cov)  # raises LinAlgError if not SPD
        generator, k = rng.generator(), self.k
        rows = max(1 << 12, (1 << 18) // (k * k))
        starts = range(0, max(n // rows, 1) * rows, rows)
        ends = [*starts[1:], n]
        z = generator.standard_normal((ends[0], k))
        columns = np.empty((k, n))  # (k, n): the transpose is the column-major sample
        for lo, hi in zip(starts, ends):
            if lo:
                z = generator.standard_normal((hi - lo, k))
            np.matmul(lower, z.T, out=columns[:, lo:hi])
        columns += self.mean[:, None]
        return Dataset(columns.T)

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
