import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from hellfit import criterion
from hellfit.criterion import (
    FitnessReport,
    bias_correction,
    evaluate_fitness,
    fit_payload,
    implied_epsilon,
    ks_two_sample,
    score_fitness,
)
from hellfit.dataset import Dataset, RngStream
from hellfit.models import MultivariateNormal, ar_covariance
from hellfit.partition import (
    CapacityError,
    DegeneratePartitionError,
    PartitionSpec,
    build_moving_partition,
    pairwise_partitions,
)


class TestBiasCorrection:
    def test_table_column_arithmetic(self):
        b1, b2 = bias_correction(63, 10**7, 10**7)
        assert b1 == pytest.approx(3.15e-6, rel=1e-12)
        assert b2 == pytest.approx(7.0993e-3, rel=1e-4)
        assert b1 + b2 == pytest.approx(7.10e-3, abs=5e-5)

    def test_mixed_sizes(self):
        b1, b2 = bias_correction(63, 10**4, 10**7)
        assert b1 == pytest.approx(3.15e-3, rel=1e-12)
        assert b2 == pytest.approx(7.0993e-3, rel=1e-4)

    def test_unit_arithmetic(self):
        assert bias_correction(1, 1, 8) == (0.5, 1.0)

    def test_scaling_laws(self):
        _, b2 = bias_correction(63, 100, 1000)
        _, b2_double = bias_correction(63, 100, 2000)
        assert b2_double == pytest.approx(b2 / math.sqrt(2), rel=1e-12)
        b1, _ = bias_correction(63, 100, 1000)
        b1_double, _ = bias_correction(63, 200, 1000)
        assert b1_double == pytest.approx(b1 / 2, rel=1e-12)

    def test_domain_errors(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                bias_correction(*bad)


class TestImpliedEpsilon:
    def test_case_values(self):
        assert implied_epsilon(0.0133) == pytest.approx(0.0408, abs=5e-5)
        assert implied_epsilon(0.02) == pytest.approx(0.05, rel=1e-12)
        assert implied_epsilon(0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            implied_epsilon(-0.1)


class TestEvaluateFitness:
    def test_self_comparison_zero_distance(self):
        values = RngStream(0).generator().standard_normal((400, 1))
        sample = Dataset(values)
        report = evaluate_fitness(
            sample, sample, PartitionSpec(depth=1, branching=4), 0.3
        )
        assert report.hellinger_hat == 0.0
        assert report.zero_bins == 0
        assert report.verdict == "close"

    def test_report_invariants(self):
        rng = RngStream(1).generator()
        mother = Dataset(rng.standard_normal((2000, 2)))
        model = Dataset(rng.standard_normal((5000, 2)))
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=2, branching=4), 0.05
        )
        assert report.lhs == report.hellinger_hat + report.bias_n1 + report.bias_n2
        assert (report.verdict == "close") == (report.lhs < report.threshold)
        assert report.close_reachable is (report.bias_n1 + report.bias_n2 < report.threshold)
        assert report.implied_epsilon == pytest.approx(
            math.sqrt(report.lhs / 8), rel=1e-14
        )
        assert report.implied_bayes_error == 0.5 - report.implied_epsilon
        assert report.p_prime == 15
        assert report.n1 == 2000 and report.n2 == 5000
        assert 0.0 <= report.hellinger_hat <= 4.0

    def test_identical_3d_normals_matches_table(self):
        # D should be small; LHS dominated by the bias sum 7.10e-3 < 0.02
        mother = MultivariateNormal(np.zeros(3), np.eye(3)).sample(10**5, RngStream(10, 0))
        model = MultivariateNormal(np.zeros(3), np.eye(3)).sample(2 * 10**6, RngStream(10, 1))
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=3, branching=4), 0.05
        )
        assert report.p_prime == 63
        assert report.hellinger_hat < 2e-3
        assert report.verdict == "close" and report.close_reachable

    def test_fit_csv_sizes_cannot_reach_close(self):
        # p' = 63 at n2 = 3e5: bias_n2 = sqrt(8 * 63 / 3e5) = 0.041 is above the
        # threshold 0.02, so even two samples of one distribution get not-shown-close
        mother = MultivariateNormal(np.zeros(3), np.eye(3)).sample(10**5, RngStream(12, 0))
        model = MultivariateNormal(np.zeros(3), np.eye(3)).sample(3 * 10**5, RngStream(12, 1))
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=3, branching=4), 0.05
        )
        assert report.p_prime == 63
        assert report.bias_n2 == pytest.approx(0.041, abs=5e-4)
        assert report.bias_n2 > report.threshold
        assert report.close_reachable is False and report.verdict == "not-shown-close"
        assert report.to_dict()["close_reachable"] is False

    def test_far_apart_not_shown_close(self):
        mother = MultivariateNormal([5.0], [[1.0]]).sample(5000, RngStream(11, 0))
        model = MultivariateNormal([0.0], [[1.0]]).sample(5000, RngStream(11, 1))
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=1, branching=4), 0.05
        )
        assert report.verdict == "not-shown-close"
        assert report.hellinger_hat > 1.0

    def test_verdict_flips_once_in_epsilon(self):
        rng = RngStream(2).generator()
        mother = Dataset(rng.standard_normal((500, 1)) + 0.3)
        model = Dataset(rng.standard_normal((2000, 1)))
        spec = PartitionSpec(depth=1, branching=4)
        verdicts = [
            evaluate_fitness(mother, model, spec, float(eps)).verdict
            for eps in np.arange(0.01, 0.5, 0.01)
        ]
        flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
        assert flips == 1
        assert verdicts[0] == "not-shown-close" and verdicts[-1] == "close"

    def test_asymmetry_partition_from_model(self):
        rng = RngStream(3).generator()
        a = Dataset(rng.standard_normal((3000, 1)))
        b = Dataset(rng.standard_normal((3000, 1)) * 1.3)
        spec = PartitionSpec(depth=1, branching=8)
        fwd = evaluate_fitness(a, b, spec, 0.05)
        rev = evaluate_fitness(b, a, spec, 0.05)
        assert fwd.hellinger_hat != rev.hellinger_hat

    def test_dimension_mismatch(self):
        rng = RngStream(4).generator()
        with pytest.raises(ValueError, match="dimension"):
            evaluate_fitness(
                Dataset(rng.standard_normal((100, 1))),
                Dataset(rng.standard_normal((100, 2))),
                PartitionSpec(depth=1, branching=2),
                0.05,
            )

    def test_epsilon_domain(self):
        sample = Dataset(RngStream(5).generator().standard_normal((100, 1)))
        with pytest.raises(ValueError, match="epsilon"):
            evaluate_fitness(sample, sample, PartitionSpec(depth=1, branching=2), 0.6)

    def test_json_round_trip(self):
        values = RngStream(6).generator().standard_normal((200, 1))
        report = evaluate_fitness(
            Dataset(values), Dataset(values), PartitionSpec(depth=1, branching=4), 0.3
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload == report.to_dict()
        assert payload["verdict"] == "close"


class TestFitPayload:
    def test_dimension_mismatch_raises_before_any_build_or_ks(self, monkeypatch):
        def never(*args):
            raise AssertionError("called after a dimension mismatch")

        monkeypatch.setattr(criterion, "build_moving_partition", never)
        monkeypatch.setattr(criterion, "ks_two_sample", never)
        rng = RngStream(8).generator()
        with pytest.raises(ValueError, match="dimension mismatch: mother k=2, model k=3"):
            fit_payload(
                Dataset(rng.standard_normal((100, 2))),
                Dataset(rng.standard_normal((400, 3))),
                PartitionSpec(depth=1, branching=2),
                0.05,
            )


class TestScoreFitness:
    def test_one_tree_many_mothers_matches_evaluate(self):
        # differential: scoring one built partition equals a fresh
        # build-and-score per mother
        rng = RngStream(21).generator()
        model = Dataset(rng.standard_normal((12000, 3)))
        spec = PartitionSpec(depth=2, branching=(3, 5), axis_order=(2, 0))
        tree = build_moving_partition(model, spec)
        for n1, shift, epsilon in [(500, 0.0, 0.05), (3000, 0.2, 0.1), (12000, 1.0, 0.3)]:
            mother = Dataset(rng.standard_normal((n1, 3)) + shift)
            assert score_fitness(tree, mother, epsilon) == evaluate_fitness(
                mother, model, spec, epsilon
            )

    def test_n2_is_building_sample_size(self):
        rng = RngStream(22).generator()
        tree = build_moving_partition(
            Dataset(rng.standard_normal((4321, 2))), PartitionSpec(depth=2, branching=4)
        )
        report = score_fitness(tree, Dataset(rng.standard_normal((100, 2))), 0.05)
        assert report.n2 == 4321

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, -0.1])
    def test_epsilon_domain(self, epsilon):
        rng = RngStream(24).generator()
        tree = build_moving_partition(
            Dataset(rng.standard_normal((100, 1))), PartitionSpec(depth=1, branching=2)
        )
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 0.5\)"):
            score_fitness(tree, Dataset(rng.standard_normal((10, 1))), epsilon)


class TestPairwisePartitions:
    """Differential: the shared-root scan against one independent build per pair."""

    @staticmethod
    def independent(model, branching, i, j):
        return build_moving_partition(model, PartitionSpec(2, branching, (i, j)))

    @pytest.mark.parametrize(
        "k, branching, n, bounded",
        [(2, 4, 500, False), (4, 3, 2000, False), (5, 4, 16, False), (3, 2, 7, False),
         (4, 4, 3000, True)],
    )
    def test_pairs_equal_independent_builds(self, k, branching, n, bounded):
        rng = RngStream(20, k).generator()
        if bounded:
            model = Dataset(1.0 - rng.random((n, k)), tuple((0.0, 1.0) for _ in range(k)))
        else:
            model = Dataset(rng.standard_normal((n, k)))
        trees = pairwise_partitions(model, branching)
        assert list(trees) == [(i, j) for i in range(k) for j in range(i + 1, k)]
        for (i, j), tree in trees.items():
            ref = self.independent(model, branching, i, j)
            assert (tree.k, tree.axes, tree.bounds) == (ref.k, ref.axes, ref.bounds)
            assert [b.tobytes() for b in tree.breaks] == [b.tobytes() for b in ref.breaks]
            assert [b.shape for b in tree.breaks] == [b.shape for b in ref.breaks]
            assert tree.counts == ref.counts

    @pytest.mark.parametrize("defect", ["atom-0", "atom-1", "atom-2", "capacity"])
    def test_errors_equal_the_first_independent_builds(self, defect):
        rng = RngStream(21).generator()
        values = rng.standard_normal((15 if defect == "capacity" else 400, 4))
        if defect.startswith("atom"):
            axis = int(defect[-1])
            values[:, axis] = np.round(values[:, axis])  # an atom at the root median
        model = Dataset(values)
        expected = None
        for i, j in [(i, j) for i in range(4) for j in range(i + 1, 4)]:
            try:
                self.independent(model, 4, i, j)
            except (CapacityError, DegeneratePartitionError) as exc:
                expected = exc
                break
        assert expected is not None
        with pytest.raises(type(expected)) as exc:
            pairwise_partitions(model, 4)
        assert str(exc.value) == str(expected)


class TestWorkflowGolden:
    """End-to-end regression on a frozen synthetic regression-residual pair."""

    def build(self):
        n1 = 9568
        ratio = 40
        rng = RngStream(99).generator()
        y = rng.normal(454.0, 17.0, size=n1)
        noise_scale = 6.5
        y_model = y[None, :] + rng.normal(0.0, noise_scale, size=(ratio, n1))
        mother = Dataset(y.reshape(-1, 1))
        model = Dataset(y_model.reshape(-1, 1))
        return mother, model

    def test_frozen_report(self):
        mother, model = self.build()
        report = evaluate_fitness(
            mother, model, PartitionSpec(depth=1, branching=11), 0.05
        )
        assert report.p_prime == 10
        assert report.n1 == 9568 and report.n2 == 9568 * 40
        # frozen values from this fixed seed; regression guard only
        assert report.hellinger_hat == pytest.approx(0.0037271292655012447, rel=1e-9)
        assert report.lhs == pytest.approx(0.01870757781549337, rel=1e-9)
        assert report.verdict == "close"
        assert report.implied_epsilon == pytest.approx(0.048357494010098076, rel=1e-9)

    def test_baseline_ks_detects_noise(self):
        mother, model = self.build()
        stat, p = ks_two_sample(mother.values[:, 0], model.values[:, 0])
        # extra noise makes the pooled KS reject even though the criterion
        # deems the distributions close at eps = 0.05
        assert p < 0.05


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.arange(10.0)
        stat, p = ks_two_sample(x, x)
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_interleaved_thirds(self):
        stat, _ = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
        assert stat == pytest.approx(1 / 3, rel=1e-12)

    def test_statistic_matches_scipy(self):
        rng = RngStream(12).generator()
        for _ in range(10):
            x = rng.standard_normal(300)
            y = rng.standard_normal(400) + rng.uniform(-0.3, 0.3)
            stat, _ = ks_two_sample(x, y)
            ref = scipy.stats.ks_2samp(x, y, method="asymp")
            assert stat == pytest.approx(ref.statistic, abs=1e-12)

    def test_pvalue_matches_limiting_distribution(self):
        # kstwobign is an independent implementation of the same limit law
        rng = RngStream(14).generator()
        for _ in range(10):
            x = rng.standard_normal(500)
            y = rng.standard_normal(600) + rng.uniform(-0.2, 0.2)
            stat, p = ks_two_sample(x, y)
            en = 500 * 600 / 1100
            ref = scipy.stats.kstwobign.sf(math.sqrt(en) * stat)
            assert p == pytest.approx(ref, rel=1e-8, abs=1e-14)

    def test_null_pvalues_not_small(self):
        rng = RngStream(13).generator()
        small = 0
        for _ in range(100):
            x = rng.standard_normal(10**4)
            y = rng.standard_normal(10**4)
            _, p = ks_two_sample(x, y)
            small += p <= 0.001
        assert small <= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    @pytest.mark.parametrize(
        "x, y",
        [([math.nan, 1.0], [0.0, 1.0]), ([math.nan], [math.nan]), ([1.0], [math.inf]),
         ([-math.inf, 0.0], [1.0])],
    )
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(ValueError, match="both samples must be finite"):
            ks_two_sample(x, y)
        with pytest.raises(ValueError, match="both samples must be finite"):
            ks_two_sample(y, x)

    @staticmethod
    def searchsorted_statistic(x, y):
        """The statistic from both empirical CDFs at every pooled point."""
        x, y = np.sort(np.asarray(x, dtype=float)), np.sort(np.asarray(y, dtype=float))
        pooled = np.concatenate([x, y])
        cdf_x = np.searchsorted(x, pooled, side="right") / x.size
        cdf_y = np.searchsorted(y, pooled, side="right") / y.size
        return float(np.max(np.abs(cdf_x - cdf_y)))

    def test_merge_matches_searchsorted_bit_for_bit(self):
        rng = RngStream(15).generator()
        atoms = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, np.nextafter(1.0, 2.0)])
        for trial in range(400):
            nx, ny = rng.integers(1, 60, size=2)
            if trial % 2:  # ties, signed zeros and subnormals
                x, y = rng.choice(atoms, nx), rng.choice(atoms, ny)
            else:
                x, y = rng.standard_normal(nx).round(1), rng.standard_normal(ny).round(1)
            stat, p = ks_two_sample(x, y)
            ref = self.searchsorted_statistic(x, y)
            assert struct.pack("<d", stat) == struct.pack("<d", ref)
            en = nx * ny / (nx + ny)
            assert p == pytest.approx(scipy.special.kolmogorov(math.sqrt(en) * ref), rel=1e-12)


def merge_ks_two_sample(x, y) -> tuple[float, float]:
    """The reference: both samples sorted in two halves of one buffer, merged
    by one stable argsort, and both empirical CDFs read as running counts at
    the last element of each run of tied values."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    nx, n = x.size, x.size + y.size
    pooled = np.concatenate([x, y])
    if not np.isfinite(pooled).all():
        raise ValueError("both samples must be finite")
    pooled[:nx].sort()
    pooled[nx:].sort()
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]  # merged
    from_x = order < nx
    del order
    last = np.empty(n, bool)  # the last of each run of ties
    np.not_equal(pooled[1:], pooled[:-1], out=last[:-1])
    last[-1] = True
    del pooled
    count = np.int32 if n < 2**31 else np.int64
    below_x = np.cumsum(from_x, dtype=count)[last]
    np.logical_not(from_x, out=from_x)
    below_y = np.cumsum(from_x, dtype=count)[last]
    del from_x, last
    gap = below_x / nx
    gap -= below_y / y.size
    statistic = float(np.max(np.abs(gap, out=gap)))
    effective = nx * y.size / n
    p_value = criterion._kolmogorov_sf(math.sqrt(effective) * statistic)
    return statistic, p_value


TINY = 2.2250738585072014e-308  # the smallest normal double
KS_ATOMS = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, np.nextafter(TINY, 0.0), 1.0, -1.0]
ks_value = st.one_of(st.sampled_from(KS_ATOMS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def ks_samples(draw):
    """Two samples of 1 to 40 values, ties, signed zeros and subnormals
    likely, the second drawing some of its values from the first."""
    x = draw(st.lists(ks_value, min_size=1, max_size=40))
    y = draw(st.lists(st.one_of(ks_value, st.sampled_from(x)), min_size=1, max_size=40))
    return (x, y) if draw(st.booleans()) else (y, x)


class TestKsAgainstTheMerge:
    """``ks_two_sample`` reads the CDFs at the distinct values of the smaller
    sorted sample; the pooled merge reads them at every pooled value."""

    @given(ks_samples())
    @example(([0.5], [0.25, 0.5, 0.75]))  # a sample of size 1, nx < ny
    @example(([0.25, 0.5, 0.75], [0.5]))  # nx > ny
    @example(([2.0] * 4, [2.0] * 4))  # all tied, nx = ny
    @example(([3.0] * 5, [1.0] * 2))  # each sample tied, none shared
    @example(([0.0, -0.0, 5e-324], [-0.0, -5e-324, 5e-324, TINY]))
    @example(([-0.0] * 3, [0.0] * 7))
    @settings(max_examples=400, deadline=None)
    def test_bit_for_bit(self, samples):
        x, y = samples
        got, ref = ks_two_sample(x, y), merge_ks_two_sample(x, y)
        assert struct.pack("<2d", *got) == struct.pack("<2d", *ref)

    @pytest.mark.parametrize("nx, ny", [(10**4, 2 * 10**5), (2 * 10**5, 10**4)])
    def test_memory_is_the_sorted_copies_and_o_of_the_smaller(self, nx, ny):
        """Beyond the two sorted copies, 8 (nx + ny) bytes, a few arrays of the
        smaller sample's distinct values: 2.05 MiB with numpy 2.4 against 4.87
        MiB for the merge, whose pooled buffer, argsort and gather grow with
        nx + ny."""
        rng = RngStream(16).generator()
        x, y = rng.standard_normal(nx), rng.standard_normal(ny)
        slack = 64 * 2**10  # numpy's small allocations
        tracemalloc.start()
        try:
            got = ks_two_sample(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (nx + ny) + 64 * min(nx, ny) + slack
        assert struct.pack("<2d", *got) == struct.pack("<2d", *merge_ks_two_sample(x, y))


def ulps_around(x, count):
    """``x`` > 0 and the ``count`` consecutive doubles on each side of it."""
    return (np.array(x).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


class TestKolmogorovSeries:
    """The p-value's limiting Kolmogorov survival function, two series split at a cut-over."""

    GRIDS = (
        np.linspace(0.0, 30.0, 30001),
        np.linspace(0.7, 0.95, 25001),  # dense around the cut-over
        ulps_around(criterion._KS_CUTOVER, 1000),  # the seam of the two series
        ulps_around(0.1, 10),  # the edge of Q = 1
    )

    @staticmethod
    def q(grid):
        return np.array([criterion._kolmogorov_sf(float(x)) for x in grid])

    @pytest.mark.parametrize("grid", GRIDS, ids=["coarse", "dense", "cut-over", "edge"])
    def test_matches_scipy(self, grid):
        ref = scipy.special.kolmogorov(grid)
        assert np.all(np.abs(self.q(grid) - ref) <= 1e-12 * ref)

    def test_one_at_zero(self):
        assert criterion._kolmogorov_sf(0.0) == 1.0

    # one double apart, rounding may lift Q by an ulp anywhere (scipy's Q as
    # well), so the grids away from the seam step well above that
    @pytest.mark.parametrize("grid", GRIDS, ids=["coarse", "dense", "cut-over", "edge"])
    def test_never_increases(self, grid):
        q = self.q(grid)
        assert np.all(np.diff(q) <= 0.0) and np.all((q >= 0.0) & (q <= 1.0))


class TestFitnessReportShape:
    def test_is_frozen(self):
        report = FitnessReport(
            hellinger_hat=0.0, p_prime=1, n1=1, n2=1, bias_n1=0.5, bias_n2=1.0,
            lhs=1.5, epsilon=0.1, threshold=0.08, verdict="not-shown-close",
            implied_epsilon=0.433, implied_bayes_error=0.067, zero_bins=0, close_reachable=False,
        )
        with pytest.raises(AttributeError):
            report.lhs = 2.0
