import numpy as np
import pytest

from hellfit.dataset import (
    Dataset,
    ParseError,
    RngStream,
    load_dataset,
    save_dataset,
)
from hellfit.models import MultivariateNormal, UniformCube, ar_covariance


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_plain_matrix(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert ds.n == 3 and ds.k == 2
        assert ds.bounds == ((-np.inf, np.inf), (-np.inf, np.inf))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ParseError, match="ragged row 2"):
            load_dataset(write(tmp_path, "1,2\n3\n"))

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(ParseError, match=r"non-numeric cell \(1,2\)"):
            load_dataset(write(tmp_path, "1,x\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            load_dataset(write(tmp_path, ""))

    def test_header_detected(self, tmp_path):
        ds = load_dataset(write(tmp_path, "a,b\n1,2\n3,4\n"))
        assert ds.n == 2

    def test_round_trip_bit_exact(self, tmp_path):
        rng = RngStream(7).generator()
        ds = Dataset(rng.standard_normal((50, 3)))
        out = tmp_path / "out.csv"
        save_dataset(ds, out)
        again = load_dataset(out)
        assert np.array_equal(ds.values, again.values)


class TestDatasetInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.nan]]))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="support"):
            Dataset(np.array([[0.0], [2.0]]), bounds=((0.0, 1.0),))

    def test_half_open_bound_convention(self):
        # upper endpoint included, lower excluded
        Dataset(np.array([[1.0]]), bounds=((0.0, 1.0),))
        with pytest.raises(ValueError):
            Dataset(np.array([[0.0]]), bounds=((0.0, 1.0),))

    def test_one_sided_bounds(self):
        Dataset(np.array([[1e308]]), bounds=((0.0, np.inf),))
        with pytest.raises(ValueError, match="support"):
            Dataset(np.array([[0.0]]), bounds=((0.0, np.inf),))
        Dataset(np.array([[1.0]]), bounds=((-np.inf, 1.0),))
        with pytest.raises(ValueError, match="support"):
            Dataset(np.array([[np.nextafter(1.0, 2.0)]]), bounds=((-np.inf, 1.0),))


class TestArCovariance:
    def test_geometric_decay_entries(self):
        expected = [[1, 0.95, 0.9025], [0.95, 1, 0.95], [0.9025, 0.95, 1]]
        assert np.allclose(ar_covariance(3, 0.95), expected)

    def test_identity_at_zero(self):
        assert np.array_equal(ar_covariance(2, 0.0), np.eye(2))

    def test_corner_entry(self):
        assert ar_covariance(4, 0.5)[0, 3] == pytest.approx(0.125)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ar_covariance(3, 1.0)


_ROW_MAJOR_NS = [1, 3, 2**12 - 1, 2**12, 2**12 + 1, 2**13 + 1, 10**4 + 7] + [
    2**16 - 1, 2**16, 2**16 + 1, 2**17 + 1
]
# every n above at k = 1..6, then the block edges of the sampler's per-k block rows
ROW_MAJOR_CASES = [(n, k) for n in _ROW_MAJOR_NS for k in range(1, 7)]
ROW_MAJOR_CASES += [
    (n, k)
    for k in (1, 2, 3, 6)
    for rows in [max(2**12, 2**18 // k**2)]
    for n in (rows - 1, rows, rows + 1, 2 * rows + 1)
    if (n, k) not in ROW_MAJOR_CASES
]


class TestSampleMvn:
    def test_mean_within_clt_bound(self):
        n = 10**5
        ds = MultivariateNormal([0, 0], np.eye(2)).sample(n, RngStream(11))
        assert np.all(np.abs(ds.values.mean(axis=0)) < 4 / np.sqrt(n))

    def test_shifted_mean(self):
        n = 10**5
        ds = MultivariateNormal([1, 1], np.eye(2)).sample(n, RngStream(12))
        assert np.all(np.abs(ds.values.mean(axis=0) - 1) < 4 / np.sqrt(n))

    def test_non_spd_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            MultivariateNormal([0, 0], np.zeros((2, 2))).sample(1, RngStream(0))

    def test_deterministic_per_stream(self):
        a = MultivariateNormal([0], [[1]]).sample(100, RngStream(5, 3))
        b = MultivariateNormal([0], [[1]]).sample(100, RngStream(5, 3))
        c = MultivariateNormal([0], [[1]]).sample(100, RngStream(5, 4))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_empirical_covariance_converges(self):
        n, k = 10**4, 3
        cov = ar_covariance(k, 0.6)
        ds = MultivariateNormal(np.zeros(k), cov).sample(n, RngStream(21))
        emp = np.cov(ds.values, rowvar=False)
        assert np.linalg.norm(emp - cov, "fro") < 10 * k / np.sqrt(n)

    @pytest.mark.parametrize("n, k", ROW_MAJOR_CASES)
    @pytest.mark.parametrize("family", ["identity", "ar", "shifted"])
    def test_equals_the_row_major_formula(self, k, n, family):
        # the sampler writes columns, max(2**12, 2**18 // k**2) rows of z at a time; its
        # values are those of mean + z @ L.T, sign of zero included, on both sides of a
        # block edge
        mean, cov = {
            "identity": (np.zeros(k), np.eye(k)),
            "ar": (np.zeros(k), ar_covariance(k, 0.95)),
            "shifted": (np.full(k, -0.1), np.eye(k) + 0.1 * ar_covariance(k, 0.95)),
        }[family]
        stream = RngStream(31, k)
        z = stream.generator().standard_normal((n, k))
        expected = mean + z @ np.linalg.cholesky(cov).T
        values = MultivariateNormal(mean, cov).sample(n, stream).values
        assert np.array_equal(values, expected)
        assert np.array_equal(np.signbit(values), np.signbit(expected))


class TestLayout:
    @pytest.mark.parametrize(
        "make",
        [
            lambda tmp_path: Dataset(np.arange(6.0).reshape(3, 2)),
            lambda tmp_path: Dataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            lambda tmp_path: load_dataset(write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")),
            lambda tmp_path: MultivariateNormal(np.zeros(3), np.eye(3)).sample(50, RngStream(1)),
            lambda tmp_path: UniformCube(4).sample(50, RngStream(2)),
        ],
        ids=["c-array", "list", "load_dataset", "sample_mvn", "uniform-cube"],
    )
    def test_values_are_column_major(self, tmp_path, make):
        values = make(tmp_path).values
        assert values.flags.f_contiguous
        assert all(values[:, axis].flags.c_contiguous for axis in range(values.shape[1]))

    def test_column_major_input_is_not_copied(self):
        values = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        assert Dataset(values).values is values
