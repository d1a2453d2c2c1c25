import math

import numpy as np
import pytest

from hellfit.bayes_threshold import (
    a_set_infimum,
    alpha_of_delta,
    capital_delta_star,
    delta_star_hellinger,
    hellinger_alpha_approx,
    threshold_report,
)
from hellfit.divergence import alpha_generator, generator_by_name

HELLINGER = generator_by_name("hellinger")
CHI2 = generator_by_name("chi2")
REVERSE_KL = generator_by_name("reverse-kl")
KL = generator_by_name("kl")


class TestCapitalDeltaStar:
    def test_hellinger_closed_form_grid(self):
        # closed form: 1 / (1 - delta/4)^2
        for delta in np.arange(0.01, 3.9, 0.07):
            star = capital_delta_star(HELLINGER, float(delta))
            assert star.feasible
            assert star.value == pytest.approx(1 / (1 - delta / 4) ** 2, abs=1e-10)

    def test_hellinger_worked_value(self):
        star = capital_delta_star(HELLINGER, 0.02)
        assert star.value == pytest.approx(1 / 0.995**2, abs=1e-10)

    def test_chi2_analytic(self):
        # with f(x) = (x-1)^2/2: (1/D)f(D) + (1-1/D)f(0) = (D-1)/2, root 1+2d
        for delta in (0.1, 0.5, 1.0):
            star = capital_delta_star(CHI2, delta)
            assert star.value == pytest.approx(1 + 2 * delta, abs=1e-8)
        assert capital_delta_star(CHI2, 0.1).value == pytest.approx(1.2, abs=1e-8)

    def test_small_delta_limit(self):
        assert capital_delta_star(HELLINGER, 1e-10).value == pytest.approx(
            1.0, abs=1e-6
        )

    def test_infinite_f0_flagged_infeasible(self):
        star = capital_delta_star(KL, 0.1)
        assert star.value == 1.0 and not star.feasible

    def test_saturation_returns_inf(self):
        # Hellinger left side tends to 4 as Delta -> inf
        star = capital_delta_star(HELLINGER, 5.0)
        assert math.isinf(star.value) and star.feasible

    def test_domain_error(self):
        with pytest.raises(ValueError):
            capital_delta_star(HELLINGER, 0.0)


def brentq_delta_star(f, delta):
    """Reference Delta*: the root of the defining equation, bracketed by
    doubling from 1 and found by brentq; inf past a 1e15 cutoff."""
    from scipy.optimize import brentq

    f0 = f.evaluate(0.0)

    def g(d):
        return float(f.evaluate(d)) / d + (1 - 1 / d) * f0 - delta

    hi = 2.0
    while g(hi) < 0:
        hi *= 2.0
        if hi > 1e15:
            return math.inf
    return brentq(g, 1.0, hi, xtol=1e-12, rtol=4 * np.finfo(float).eps)


class TestClosedForm:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.0, 3.0, 5.0])
    def test_matches_root_finder(self, alpha):
        f = alpha_generator(alpha)
        compared = 0
        for delta in np.geomspace(1e-6, 50.0, 60):
            reference = brentq_delta_star(f, float(delta))
            if math.isfinite(reference):
                compared += 1
                star = capital_delta_star(f, float(delta))
                assert star.feasible
                assert star.value == pytest.approx(reference, rel=1e-9)
        assert compared >= 30

    def test_exact_identities(self):
        for delta in (1e-8, 0.02, 0.3, 1.0, 3.5):
            assert capital_delta_star(HELLINGER, delta).value == pytest.approx(
                (1 - delta / 4) ** -2, rel=1e-14
            )
            assert capital_delta_star(CHI2, delta).value == pytest.approx(
                1 + 2 * delta, rel=1e-14
            )
            assert capital_delta_star(REVERSE_KL, delta).value == pytest.approx(
                math.exp(delta), rel=1e-14
            )

    def test_finite_beyond_the_old_cutoff(self):
        # 1 - 20 (0.1)(1.9)/4 = 1/20, so Delta* = 20^20
        star = capital_delta_star(alpha_generator(0.9), 20.0)
        assert star.feasible and star.value == pytest.approx(20.0**20, rel=1e-9)
        assert math.isinf(brentq_delta_star(alpha_generator(0.9), 20.0))

    def test_no_cancellation_next_to_the_pole(self):
        star = capital_delta_star(alpha_generator(1 - 1e-6), 0.02)
        assert star.value == pytest.approx(math.exp(0.02), rel=1e-7)

    @pytest.mark.parametrize("alpha, delta", [(1.0, 1000.0), (3.0, 1e308), (0.0, 4.0)])
    def test_overflow_and_saturation_are_inf(self, alpha, delta):
        star = capital_delta_star(alpha_generator(alpha), delta)
        assert math.isinf(star.value) and star.feasible

    def test_alpha_below_minus_one_infeasible(self):
        star = capital_delta_star(alpha_generator(-3.0), 0.1)
        assert star == (1.0, False)


class TestASetInfimum:
    def test_hellinger_two_point_oracle(self):
        # the infimum is reached at the symmetric two-point pair
        for delta in np.geomspace(0.001, 3.9, 40):
            expected = 0.5 * (1 - math.sqrt(1 - (1 - delta / 4) ** 2))
            assert a_set_infimum(HELLINGER, float(delta)) == pytest.approx(expected, abs=1e-9)

    def test_matches_approximation_small_delta(self):
        got = a_set_infimum(HELLINGER, 0.02)
        assert got == pytest.approx(hellinger_alpha_approx(0.02), abs=0.005)
        assert got == pytest.approx(0.45, abs=0.005)

    def test_matches_approximation_at_half(self):
        assert a_set_infimum(HELLINGER, 0.5) == pytest.approx(0.25, abs=0.02)

    def test_taylor_regime(self):
        delta = 1e-8
        expected = 0.5 - math.sqrt(delta / 2) / 2
        assert a_set_infimum(HELLINGER, delta) == pytest.approx(expected, abs=1e-4)

    def test_works_for_infinite_f0(self):
        got = a_set_infimum(REVERSE_KL, 0.1)
        assert 0.0 < got < 0.5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            a_set_infimum(HELLINGER, -1.0)


class TestAlphaOfDelta:
    def test_worked_hellinger(self):
        branch1 = 0.5 * (1 - 0.02 / 4) ** 2
        assert branch1 == pytest.approx(0.49502, abs=1e-4)
        got = alpha_of_delta(HELLINGER, 0.02)
        assert got == pytest.approx(0.45, abs=0.005)
        assert got < branch1

    def test_implied_epsilon(self):
        assert 0.5 - alpha_of_delta(HELLINGER, 0.02) == pytest.approx(0.05, abs=0.005)

    def test_small_delta_tends_to_half(self):
        assert alpha_of_delta(HELLINGER, 1e-10) == pytest.approx(0.5, abs=1e-4)

    def test_monotone_non_increasing(self):
        deltas = [0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0]
        values = [alpha_of_delta(HELLINGER, d) for d in deltas]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_round_trip_in_approximation_regime(self):
        for eps in np.arange(0.01, 0.26, 0.03):
            got = 0.5 - alpha_of_delta(HELLINGER, 8 * float(eps) ** 2)
            assert got == pytest.approx(float(eps), abs=0.01)

    def test_branch_dominance_hellinger(self):
        for delta in (0.05, 0.2, 0.5):
            star = capital_delta_star(HELLINGER, delta)
            assert 1 / (2 * star.value) > a_set_infimum(HELLINGER, delta)

    def test_infeasible_branch_falls_back(self):
        got = alpha_of_delta(KL, 0.1)
        assert got == pytest.approx(a_set_infimum(KL, 0.1), abs=1e-12)


class TestSimpleThreshold:
    def test_published_constants(self):
        assert delta_star_hellinger(0.05) == pytest.approx(0.02, abs=1e-15)
        assert delta_star_hellinger(0.01) == pytest.approx(0.0008, abs=1e-17)

    def test_domain_errors(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                delta_star_hellinger(bad)


class TestApproximation:
    def test_arithmetic(self):
        assert hellinger_alpha_approx(0.02) == pytest.approx(0.45)
        assert hellinger_alpha_approx(0.5) == pytest.approx(0.25)
        assert hellinger_alpha_approx(0.0008) == pytest.approx(0.49)

    def test_domain(self):
        with pytest.raises(ValueError):
            hellinger_alpha_approx(0.6)
        with pytest.raises(ValueError):
            hellinger_alpha_approx(0.0)


class TestThresholdReport:
    def test_epsilon_form(self):
        out = threshold_report(HELLINGER, epsilon=0.05)
        assert out["delta_star"] == pytest.approx(0.02, abs=1e-15)
        assert out["alpha_of_delta"] == pytest.approx(0.45, abs=0.005)
        branches = out["branch_values"]
        assert branches["delta_star_feasible"] is True
        assert branches["half_inverse_delta_star"] == pytest.approx(0.49502, abs=1e-4)
        assert out["approximation"] == pytest.approx(0.45, abs=1e-12)

    def test_delta_form(self):
        out = threshold_report(CHI2, delta=0.1)
        assert out["branch_values"]["capital_delta_star"] == pytest.approx(1.2, abs=1e-8)

    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            threshold_report(HELLINGER)
        with pytest.raises(ValueError):
            threshold_report(HELLINGER, epsilon=0.05, delta=0.02)
