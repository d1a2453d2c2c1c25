"""f-divergences between discrete distributions.

Every generator is a member of the one-parameter family

    f_a(x) = 4/(1-a^2) (1 - x^((1+a)/2)) + 2/(1-a) (x-1)     a != +-1
    f_1(x) = x log x + 1 - x
    f_-1(x) = -log x + x - 1

normalized so that f(1) = f'(1) = 0 and f''(1) = 1.  The family contains the
Hellinger distance (a=0), the Kullback-Leibler pair (a=-1 gives KL(m1||m2),
a=+1 the reverse) and the chi-square divergence (a=3), and it is closed under
the dual x f(1/x), which maps a to -a.

The zero-bin conventions live here and nowhere else: f(0) is ``at_zero``, and
``evaluate`` returns exactly that value at x = 0, so a bin with m2 = 0
contributes m1 f(0) through the ordinary formula; a bin with m1 = 0
contributes m2 ``slope_at_infinity`` (lim f(t)/t) in ``f_divergence``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import math

import numpy as np

_POLE_GAP = 1e-6


@dataclass(frozen=True)
class DivergenceGenerator:
    """The member f_alpha of the one-parameter family, with a report label.

    ``alpha`` is finite and either exactly +-1 or at least 1e-6 away from
    +-1: just off +-1 the coefficients 4/(1-a^2) and 2/(1-a) cancel
    catastrophically (at a = 1 - 3e-8, f(2) reads 0.3994 against 0.3863 at
    a = 1).
    """

    alpha: float
    label: str

    def __post_init__(self):
        a = self.alpha
        if not math.isfinite(a * a) or (abs(a) != 1.0 and abs(abs(a) - 1.0) < _POLE_GAP):
            raise ValueError(
                f"{self.label}: alpha must be finite, and +-1 or at least {_POLE_GAP:g} "
                f"from +-1, not {a!r}"
            )

    def evaluate(self, x):
        """f_alpha(x), vectorized over x >= 0; exactly ``at_zero`` at x = 0."""
        a, x = self.alpha, np.asarray(x, dtype=float)
        zero = x == 0
        x = np.where(zero, 1.0, x)  # any point of the domain; replaced by f(0) below
        if a == 1.0:
            out = x * np.log(x) + 1 - x
        elif a == -1.0:
            out = -np.log(x) + x - 1
        else:
            out = 4 / (1 - a**2) * (1 - x ** ((1 + a) / 2)) + 2 / (1 - a) * (x - 1)
        out = np.where(zero, self.at_zero, out)
        return out if out.ndim else float(out)

    @property
    def at_zero(self) -> float:
        """f(0); +inf for alpha <= -1."""
        return 2 / (1 + self.alpha) if self.alpha > -1 else math.inf

    @property
    def slope_at_infinity(self) -> float:
        """lim f(t)/t as t -> inf; +inf for alpha >= 1."""
        return 2 / (1 - self.alpha) if self.alpha < 1 else math.inf


def alpha_generator(alpha: float) -> DivergenceGenerator:
    """Member of the one-parameter divergence family."""
    alpha = float(alpha)
    return DivergenceGenerator(alpha, f"alpha:{alpha!r}")


_NAMED = {
    "hellinger": 0.0,
    "kl": -1.0,
    "reverse-kl": 1.0,
    "chi2": 3.0,
}


def generator_by_name(name: str) -> DivergenceGenerator:
    """Resolve "hellinger", "kl", "reverse-kl", "chi2" or "alpha:<value>",
    labelled with the name as given."""
    alpha = _NAMED.get(name)
    if alpha is None and name.startswith("alpha:"):
        with contextlib.suppress(ValueError):
            alpha = float(name.split(":", 1)[1])
    if alpha is None:
        raise ValueError(f"unknown generator {name!r}")
    return DivergenceGenerator(alpha, name)


def dual_generator(f: DivergenceGenerator) -> DivergenceGenerator:
    """x -> x f(1/x); swaps the roles of the two distributions."""
    return DivergenceGenerator(-f.alpha, f"dual({f.label})")


def f_divergence(f: DivergenceGenerator, m1, m2) -> float:
    """sum_i m1_i f(m2_i / m1_i) with the standard zero-bin conventions.

    m1_i = 0 contributes m2_i * slope_at_infinity (nothing when m2_i = 0 too);
    m2_i = 0 with m1_i > 0 contributes m1_i * f(0).  The terms are summed in
    bin order with ``math.fsum``; the result is inf when any term is.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise ValueError("probability vectors must have equal length")
    occupied = (m1 != 0) | (m2 != 0)
    m1, m2 = m1[occupied], m2[occupied]
    with np.errstate(divide="ignore", invalid="ignore"):  # m1 = 0 terms are replaced
        terms = np.where(m1 == 0, m2 * f.slope_at_infinity, m1 * f.evaluate(m2 / m1))
    if np.isinf(terms).any():
        return math.inf
    return math.fsum(terms)


def hellinger(m1, m2) -> float:
    """2 sum (sqrt(m1_i) - sqrt(m2_i))^2; in [0, 4]."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise ValueError("probability vectors must have equal length")
    diffs = np.sqrt(m1) - np.sqrt(m2)
    return 2.0 * math.fsum(diffs * diffs)


def derivatives_at_one(f: DivergenceGenerator) -> tuple[float, float]:
    """(f'''(1), f''''(1)), in closed form."""
    a = f.alpha
    if a == 1.0:
        return -1.0, 2.0
    if a == -1.0:
        return -2.0, 6.0
    c = (1 + a) / 2
    coef = -4 / (1 - a**2)
    return coef * c * (c - 1) * (c - 2), coef * c * (c - 1) * (c - 2) * (c - 3)
