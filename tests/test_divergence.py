import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hellfit.divergence import (
    alpha_generator,
    derivatives_at_one,
    dual_generator,
    f_divergence,
    generator_by_name,
    hellinger,
)


def reference_f_divergence(f, m1, m2):
    """The per-element loop that ``f_divergence`` vectorizes, kept as a reference."""
    terms = []
    for a, b in zip(np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)):
        if a == 0.0:
            if b == 0.0:
                continue
            term = b * f.slope_at_infinity
        elif b == 0.0:
            term = a * f.at_zero
        else:
            term = a * float(f.evaluate(b / a))
        if math.isinf(term):
            return math.inf
        terms.append(term)
    return math.fsum(terms)


def reference_evaluate(alpha, x):
    """The family's closed form at x > 0, through the same numpy loops as a
    one-element array."""
    x = np.array([x], dtype=float)
    if alpha == 1.0:
        return (x * np.log(x) + 1 - x)[0]
    if alpha == -1.0:
        return (-np.log(x) + x - 1)[0]
    return (4 / (1 - alpha**2) * (1 - x ** ((1 + alpha) / 2)) + 2 / (1 - alpha) * (x - 1))[0]


def same_bits(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


DIFFERENTIAL_GENERATORS = [
    "hellinger", "kl", "reverse-kl", "chi2",
    "alpha:0.5", "alpha:-0.5", "alpha:3", "alpha:-3", "alpha:100",
]


class TestAlphaGenerator:
    def test_hellinger_pointwise(self):
        gen = alpha_generator(0.0)
        assert gen.evaluate(1.0) == 0.0
        assert gen.evaluate(4.0) == pytest.approx(2.0)
        assert gen.evaluate(0.0) == pytest.approx(2.0)
        assert gen.at_zero == pytest.approx(2.0)
        assert gen.slope_at_infinity == pytest.approx(2.0)

    def test_kl_branch(self):
        gen = alpha_generator(-1.0)
        # f(x) = -ln x + x - 1 gives D = KL(m1 || m2)
        assert gen.evaluate(math.e) == pytest.approx(math.e - 2.0)
        assert math.isinf(gen.at_zero)
        assert gen.slope_at_infinity == pytest.approx(1.0)

    def test_reverse_kl_branch(self):
        gen = alpha_generator(1.0)
        assert gen.evaluate(1.0) == 0.0
        assert gen.evaluate(0.0) == 1.0  # x ln x -> 0, so f(0) = 1
        assert gen.at_zero == pytest.approx(1.0)
        assert math.isinf(gen.slope_at_infinity)

    def test_chi2_values(self):
        gen = alpha_generator(3.0)
        # f(x) = (x-1)^2 / 2
        assert gen.evaluate(3.0) == pytest.approx(2.0)
        assert gen.at_zero == pytest.approx(0.5)
        assert math.isinf(gen.slope_at_infinity)

    def test_boundary_formulas(self):
        for alpha in (-0.5, 0.0, 0.5):
            gen = alpha_generator(alpha)
            assert gen.at_zero == pytest.approx(2 / (1 + alpha))
            assert gen.slope_at_infinity == pytest.approx(2 / (1 - alpha))

    def test_vectorized_evaluate(self):
        gen = alpha_generator(0.0)
        x = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(gen.evaluate(x), [0.5, 0.0, 2.0])

    @given(
        st.one_of(
            st.floats(-30, 30).filter(lambda a: min(abs(a - 1), abs(a + 1)) >= 1e-3),
            st.sampled_from([-1.0, 0.0, 1.0, 3.0, -3.0, 100.0]),
        ),
        st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_evaluate_at_zero_is_at_zero_and_unchanged_elsewhere(self, alpha, x):
        gen = alpha_generator(alpha)
        assert gen.evaluate(0.0) == gen.at_zero
        with np.errstate(over="ignore"):  # x ** ((1+a)/2) may overflow for a far from 0
            got, want = gen.evaluate(x), reference_evaluate(alpha, x)
            mixed = gen.evaluate(np.array([0.0, x, -0.0]))
        assert same_bits(got, want) or (np.isnan(got) and np.isnan(want))
        assert mixed[0] == mixed[2] == gen.at_zero
        assert same_bits(mixed[1], want) or (np.isnan(mixed[1]) and np.isnan(want))

    @given(
        st.one_of(st.floats(-0.9, 0.9), st.sampled_from([-1.0, 1.0, 3.0])),
        st.floats(0.01, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization_everywhere(self, alpha, x):
        gen = alpha_generator(alpha)
        h = 1e-5
        assert gen.evaluate(1.0) == pytest.approx(0.0, abs=1e-12)
        d1 = (gen.evaluate(1 + h) - gen.evaluate(1 - h)) / (2 * h)
        assert d1 == pytest.approx(0.0, abs=1e-6)
        assert gen.evaluate(x) >= -1e-12

    @given(
        st.one_of(
            st.floats(-30, 30).filter(lambda a: min(abs(a - 1), abs(a + 1)) >= 1e-3),
            st.sampled_from([-1.0, 1.0]),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_family_is_normalized_and_convex(self, alpha):
        f = alpha_generator(alpha).evaluate
        assert f(1.0) == 0.0
        grid = np.logspace(-2, 2, 17)
        vals, mids = f(grid), f(0.5 * (grid[:-1] + grid[1:]))
        finite = np.isfinite(vals[:-1]) & np.isfinite(vals[1:]) & np.isfinite(mids)
        assert np.all(mids[finite] <= 0.5 * (vals[:-1] + vals[1:])[finite] + 1e-9)


class TestGeneratorByName:
    def test_known_names(self):
        assert generator_by_name("hellinger").alpha == 0.0
        assert generator_by_name("kl").alpha == -1.0
        assert generator_by_name("reverse-kl").alpha == 1.0
        assert generator_by_name("chi2").alpha == 3.0

    def test_alpha_prefix(self):
        assert generator_by_name("alpha:0.5").alpha == 0.5

    def test_label_is_the_name_as_given(self):
        assert generator_by_name("kl").label == "kl"
        assert generator_by_name("alpha:0.5").label == "alpha:0.5"
        assert generator_by_name("alpha:0.5000001").label == "alpha:0.5000001"

    def test_alpha_generator_label_is_exact(self):
        assert alpha_generator(0.5000001).label == "alpha:0.5000001"
        assert alpha_generator(0.5).label != alpha_generator(0.5000001).label
        assert alpha_generator(1 / 3).label == f"alpha:{1 / 3!r}"

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            generator_by_name("tv")


class TestDual:
    def test_dual_swaps_boundary_values(self):
        gen = alpha_generator(0.5)
        dual = dual_generator(gen)
        assert dual.at_zero == pytest.approx(gen.slope_at_infinity)
        assert dual.slope_at_infinity == pytest.approx(gen.at_zero)

    def test_dual_negates_alpha(self):
        assert dual_generator(alpha_generator(0.5)).alpha == -0.5

    def test_dual_swaps_arguments(self):
        m1 = [0.2, 0.3, 0.5]
        m2 = [0.4, 0.4, 0.2]
        gen = alpha_generator(-1.0)
        forward = f_divergence(gen, m1, m2)
        backward = f_divergence(dual_generator(gen), m2, m1)
        assert forward == pytest.approx(backward, rel=1e-10)

    def test_hellinger_self_dual(self):
        gen = alpha_generator(0.0)
        dual = dual_generator(gen)
        x = np.logspace(-2, 2, 21)
        np.testing.assert_allclose(dual.evaluate(x), gen.evaluate(x), rtol=1e-12)


class TestFDivergence:
    M1 = [0.5, 0.5]
    M2 = [0.25, 0.75]

    def test_worked_kl(self):
        got = f_divergence(generator_by_name("kl"), self.M1, self.M2)
        # equals KL(m1 || m2) = 0.5 ln 2 + 0.5 ln(2/3)
        assert got == pytest.approx(0.5 * math.log(4 / 3), rel=1e-12)
        assert got == pytest.approx(0.14384, abs=5e-6)

    def test_worked_hellinger(self):
        got = f_divergence(generator_by_name("hellinger"), self.M1, self.M2)
        by_hand = 2 * (
            (math.sqrt(0.5) - math.sqrt(0.25)) ** 2
            + (math.sqrt(0.5) - math.sqrt(0.75)) ** 2
        )
        assert got == pytest.approx(by_hand, rel=1e-12)
        assert got == pytest.approx(0.13629, abs=1e-5)
        assert hellinger(self.M1, self.M2) == pytest.approx(got, abs=1e-12)

    def test_identity_of_indiscernibles(self):
        assert f_divergence(alpha_generator(0.0), self.M1, self.M1) == 0.0

    def test_zero_bin_in_second(self):
        # m2_i = 0, m1_i > 0 contributes m1_i * f(0)
        gen = alpha_generator(0.0)
        got = f_divergence(gen, [0.5, 0.5], [1.0, 0.0])
        by_hand = 0.5 * 2 * (1 - math.sqrt(2)) ** 2 + 0.5 * gen.at_zero
        assert got == pytest.approx(by_hand, rel=1e-12)

    def test_zero_bin_in_first(self):
        # m1_i = 0, m2_i > 0 contributes m2_i * slope_at_infinity
        gen = alpha_generator(0.0)
        got = f_divergence(gen, [1.0, 0.0], [0.5, 0.5])
        by_hand = 1.0 * 2 * (1 - math.sqrt(0.5)) ** 2 + 0.5 * 2
        assert got == pytest.approx(by_hand, rel=1e-12)

    def test_both_zero_contributes_nothing(self):
        gen = alpha_generator(0.0)
        assert f_divergence(gen, [1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_infinite_kl_on_unmatched_support(self):
        assert math.isinf(f_divergence(generator_by_name("kl"), [0.5, 0.5], [1.0, 0.0]))

    def test_disjoint_support_maximum(self):
        assert hellinger([1.0, 0.0], [0.0, 1.0]) == pytest.approx(4.0)
        assert math.isinf(
            f_divergence(generator_by_name("kl"), [1.0, 0.0], [0.0, 1.0])
        )

    @pytest.mark.parametrize("name", DIFFERENTIAL_GENERATORS)
    def test_matches_the_loop_with_zero_bins(self, name):
        gen = generator_by_name(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        for _ in range(300):
            k = int(rng.integers(1, 9))
            m1 = rng.random(k) * (rng.random(k) > 0.3)  # zero bins on either side,
            m2 = rng.random(k) * (rng.random(k) > 0.3)  # and on both
            m1 /= m1.sum() or 1.0
            m2 /= m2.sum() or 1.0
            with np.errstate(all="ignore"):  # the loop may overflow where inf is the answer
                want = reference_f_divergence(gen, m1, m2)
            assert same_bits(f_divergence(gen, m1, m2), want), (m1, m2)

    @pytest.mark.parametrize(
        "m1, m2",
        [
            ([0.5, 0.5], [1.0, 0.0]),  # m2 = 0: kl's f(0) is inf
            ([0.0, 0.5, 0.5], [0.0, 0.5, 0.5]),
            ([0.0, 1.0], [0.5, 0.5]),
            ([0.0, 0.0], [0.0, 0.0]),
            ([1.0, 0.0], [0.0, 1.0]),
            ([], []),
            # m2/m1 overflows: a nan term (reverse-kl) beside an infinite one
            ([5e-324, 0.0, 1.0], [0.5, 0.5, 0.0]),
        ],
    )
    @pytest.mark.parametrize("name", DIFFERENTIAL_GENERATORS)
    def test_matches_the_loop_on_edge_cases(self, name, m1, m2):
        gen = generator_by_name(name)
        with np.errstate(all="ignore"):
            want = reference_f_divergence(gen, m1, m2)
            got = f_divergence(gen, m1, m2)
        assert same_bits(got, want) or (math.isnan(got) and math.isnan(want))

    def test_infinite_term_gives_inf(self):
        kl = generator_by_name("kl")
        assert f_divergence(kl, [0.25, 0.25, 0.5], [0.5, 0.5, 0.0]) == math.inf
        assert reference_f_divergence(kl, [0.25, 0.25, 0.5], [0.5, 0.5, 0.0]) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f_divergence(alpha_generator(0.0), [0.5, 0.5], [1.0])

    @given(
        st.lists(st.floats(0.01, 10), min_size=2, max_size=8),
        st.lists(st.floats(0.01, 10), min_size=2, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegativity(self, w1, w2):
        size = min(len(w1), len(w2))
        m1 = np.asarray(w1[:size]) / math.fsum(w1[:size])
        m2 = np.asarray(w2[:size]) / math.fsum(w2[:size])
        assert f_divergence(alpha_generator(0.0), m1, m2) >= -1e-12

    def test_hellinger_sqrt_form_matches_generator(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m1 = rng.random(6) + 0.01
            m2 = rng.random(6) + 0.01
            m1, m2 = m1 / m1.sum(), m2 / m2.sum()
            assert hellinger(m1, m2) == pytest.approx(
                f_divergence(alpha_generator(0.0), m1, m2), abs=1e-12
            )


class TestDerivativesAtOne:
    def test_hellinger_closed_form(self):
        d3, d4 = derivatives_at_one(alpha_generator(0.0))
        assert d3 == pytest.approx(-1.5, rel=1e-12)
        assert d4 == pytest.approx(3.75, rel=1e-12)

    def test_kl_closed_form(self):
        d3, d4 = derivatives_at_one(alpha_generator(-1.0))
        assert (d3, d4) == (pytest.approx(-2.0), pytest.approx(6.0))

    def test_reverse_kl_closed_form(self):
        d3, d4 = derivatives_at_one(alpha_generator(1.0))
        assert (d3, d4) == (pytest.approx(-1.0), pytest.approx(2.0))
