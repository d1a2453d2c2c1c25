"""Conversion between divergence values and Bayes-error-rate guarantees.

If the divergence between two densities is below delta, the Bayes error rate
of discriminating between them is at least

    alpha(delta) = min( 1/(2 Delta*(delta)), inf{ t | (x, t) in A(delta) } )

where Delta*(delta) >= 1 solves (1/D) f(D) + (1 - 1/D) f(0) = delta and

    A(delta) = { (x, t) | x f((1-2t)/x + 1) + (1-x) f((2t-1)/(1-x) + 1) = delta,
                 0 < x < 2t < 1 }.

For the Hellinger generator, Delta* has the closed form 1/(1 - delta/4)^2,
the infimum is approximately (1 - sqrt(delta/2))/2 for delta <= 1/2, and the
threshold guaranteeing Bayes error >= 1/2 - eps is 8 eps^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from hellfit.divergence import DivergenceGenerator

_ROOT_TOL = 1e-12
_BISECT_ITERATIONS = 128
_GRID_SIZE = 2048  # logit-spaced x values of the A-set scan


class DeltaStarResult(NamedTuple):
    value: float
    feasible: bool


def capital_delta_star(f: DivergenceGenerator, delta: float) -> DeltaStarResult:
    """Unique Delta >= 1 with (1/Delta) f(Delta) + (1 - 1/Delta) f(0) = delta.

    When f(0) is infinite the equation has no root; the branch is flagged
    infeasible and the degenerate value 1 is returned (its 1/(2 Delta*) term
    is then 1/2 and never binds in alpha_of_delta).  When the left side
    saturates below delta the result is +inf (the branch value tends to 0).
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if math.isinf(f.at_zero):
        return DeltaStarResult(1.0, False)

    def g(d):
        return float(f.evaluate(d)) / d + (1 - 1 / d) * f.at_zero - delta

    lo, hi = 1.0, 2.0
    glo = g(lo)
    if glo > 0:
        raise ValueError("bracket failure: g(1) should be -delta < 0")
    while g(hi) < 0:
        hi *= 2.0
        if hi > 1e15:
            return DeltaStarResult(math.inf, True)
    root = brentq(g, lo, hi, xtol=_ROOT_TOL, rtol=4 * np.finfo(float).eps)
    return DeltaStarResult(float(root), True)


def _boundary_curve(f: DivergenceGenerator, x, t):
    """x f((1-2t)/x + 1) + (1-x) f((2t-x)/(1-x)), vectorized."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    first = np.asarray(f.evaluate((1 - 2 * t) / x + 1), dtype=float)
    second_arg = (2 * t - x) / (1 - x)
    with np.errstate(all="ignore"):
        second = np.where(
            second_arg > 0,
            np.asarray(f.evaluate(np.maximum(second_arg, 1e-300)), dtype=float),
            f.at_zero,
        )
    return x * first + (1 - x) * second


def a_set_infimum(f: DivergenceGenerator, delta: float) -> float:
    """inf{ t | (x, t) in A(delta) }, by per-x bisection over an x grid.

    For each x the defining curve is monotone in t on (x/2, 1/2), decreasing
    to 0 at t = 1/2, so a single bisection finds the unique t with value
    delta whenever the curve reaches delta at all.  Returns 1/2 when the set
    is empty.  The grid is logit-spaced; a refinement pass tightens the
    incumbent minimum.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")

    def scan(xs):
        xs = np.asarray(xs, dtype=float)
        lo = xs / 2 + 1e-15
        hi = np.full_like(xs, 0.5)
        # feasibility: curve value at the lower t end must reach delta
        top = _boundary_curve(f, xs, lo)
        feasible = top >= delta
        if not np.any(feasible):
            return None, None
        xs, lo, hi = xs[feasible], lo[feasible], hi[feasible]
        for _ in range(_BISECT_ITERATIONS):
            mid = 0.5 * (lo + hi)
            val = _boundary_curve(f, xs, mid)
            above = val > delta  # curve decreases in t: root is above mid
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
            if np.max(hi - lo) < 1e-13:
                break
        t = 0.5 * (lo + hi)
        best = int(np.argmin(t))
        return float(t[best]), float(xs[best])

    u = np.linspace(-12.0, 12.0, _GRID_SIZE)
    xs = 1.0 / (1.0 + np.exp(-u))
    t_best, x_best = scan(xs)
    if t_best is None:
        return 0.5
    span = 24.0 / _GRID_SIZE  # neighbor spacing in logit units
    u_best = math.log(x_best / (1 - x_best))
    u_fine = np.linspace(u_best - 2 * span, u_best + 2 * span, 257)
    xs_fine = 1.0 / (1.0 + np.exp(-u_fine))
    t_fine, _ = scan(xs_fine)
    if t_fine is not None:
        t_best = min(t_best, t_fine)
    return t_best


def _alpha_branches(f: DivergenceGenerator, delta: float):
    """(Delta* result, 1/(2 Delta*) branch, A-set infimum branch) at delta."""
    if delta <= 0:
        raise ValueError("delta must be > 0")
    star = capital_delta_star(f, delta)
    branch1 = 1.0 / (2.0 * star.value) if star.feasible else 0.5
    return star, branch1, a_set_infimum(f, delta)


def alpha_of_delta(f: DivergenceGenerator, delta: float) -> float:
    """Bayes-error lower bound for divergence below delta (Theorem-style min)."""
    _, branch1, branch2 = _alpha_branches(f, delta)
    return min(branch1, branch2)


def delta_star_hellinger(epsilon: float) -> float:
    """Hellinger threshold 8 eps^2 guaranteeing Bayes error >= 1/2 - eps."""
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 0.5)")
    return 8.0 * epsilon**2


def hellinger_alpha_approx(delta: float) -> float:
    """(1 - sqrt(delta/2))/2; valid for 0 < delta <= 1/2."""
    if not 0 < delta <= 0.5:
        raise ValueError("delta must be in (0, 0.5]")
    return (1.0 - math.sqrt(delta / 2.0)) / 2.0


def threshold_report(f: DivergenceGenerator, epsilon=None, delta=None) -> dict:
    """Everything the CLI `threshold` subcommand reports, as a dict."""
    if (epsilon is None) == (delta is None):
        raise ValueError("give exactly one of epsilon or delta")
    out = {"generator": f.label}
    if epsilon is not None:
        delta = delta_star_hellinger(epsilon)
        out["epsilon"] = epsilon
        out["delta_star"] = delta
    else:
        out["delta"] = delta
    star, branch1, branch2 = _alpha_branches(f, delta)
    out["alpha_of_delta"] = min(branch1, branch2)
    out["branch_values"] = {
        "half_inverse_delta_star": branch1,
        "a_set_infimum": branch2,
        "delta_star_feasible": star.feasible,
        "capital_delta_star": star.value,
    }
    out["approximation"] = (
        hellinger_alpha_approx(delta) if 0 < delta <= 0.5 else None
    )
    return out
