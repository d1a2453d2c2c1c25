"""Conversion between divergence values and Bayes-error-rate guarantees.

If the divergence between two densities is below delta, the Bayes error rate
of discriminating between them is at least

    alpha(delta) = min( 1/(2 Delta*(delta)), inf{ t | (x, t) in A(delta) } )

where Delta*(delta) >= 1 solves (1/D) f(D) + (1 - 1/D) f(0) = delta and

    A(delta) = { (x, t) | x f((1-2t)/x + 1) + (1-x) f((2t-1)/(1-x) + 1) = delta,
                 0 < x < 2t < 1 }.

Delta* is in closed form for every member f_a of the alpha family.  For
a != +-1, f(0) = 2/(1+a), and the (1 - 1/D) terms, 2/(1-a) from f(D)/D and
2/(1+a) from f(0), add up to 4/(1-a^2), so the left side is
4/(1-a^2) (1 - D^((a-1)/2)) and

    Delta* = exp( 2/(a-1) log1p(-delta (1-a)(1+a)/4) ),

which is +inf when the log1p argument is <= -1 (|a| < 1 and
delta >= 4/(1-a^2)).  For a = 1 the left side is log D, so Delta* = e^delta;
for a <= -1, f(0) is infinite and there is no root.  Hellinger (a = 0) gives
1/(1 - delta/4)^2 and chi-square (a = 3) gives 1 + 2 delta.

The A-set infimum has no closed form for a != 0 and is a numeric scan: a
bisection in t over a logit-spaced x grid.  For Hellinger it is
(1 - sqrt(1 - (1 - delta/4)^2))/2, approximately (1 - sqrt(delta/2))/2 for
delta <= 1/2, and the threshold guaranteeing Bayes error >= 1/2 - eps is
8 eps^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from hellfit.divergence import DivergenceGenerator

_BISECT_ITERATIONS = 128
_GRID_SIZE = 2048  # logit-spaced x values of the A-set scan


class DeltaStarResult(NamedTuple):
    value: float
    feasible: bool


def capital_delta_star(f: DivergenceGenerator, delta: float) -> DeltaStarResult:
    """Unique Delta >= 1 with (1/Delta) f(Delta) + (1 - 1/Delta) f(0) = delta,
    in closed form (see the module docstring).

    When f(0) is infinite (alpha <= -1) the equation has no root; the branch
    is flagged infeasible and the degenerate value 1 is returned, whose
    1/(2 Delta*) term is 1/2 and never binds in alpha_of_delta.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if math.isinf(f.evaluate(0.0)):
        return DeltaStarResult(1.0, False)
    a = f.alpha
    shift = -delta * (1 - a) * (1 + a) / 4  # 0 at a = 1
    if shift <= -1:
        return DeltaStarResult(math.inf, True)
    log_root = delta if a == 1.0 else 2 / (a - 1) * math.log1p(shift)
    try:
        return DeltaStarResult(math.exp(log_root), True)
    except OverflowError:
        return DeltaStarResult(math.inf, True)


def _boundary_curve(f: DivergenceGenerator, x, t):
    """x f((1-2t)/x + 1) + (1-x) f((2t-x)/(1-x)), vectorized."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    first = f.evaluate((1 - 2 * t) / x + 1)
    second_arg = (2 * t - x) / (1 - x)
    with np.errstate(all="ignore"):
        second = f.evaluate(np.maximum(second_arg, 0.0))
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
    star = capital_delta_star(f, delta)
    branch1 = 1.0 / (2.0 * star.value)
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
