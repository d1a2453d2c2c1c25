import argparse
import ast
import hashlib
import importlib.resources
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hellfit.cli import _emit, run
from hellfit.criterion import evaluate_fitness, fit_payload, ks_two_sample, pairwise_payload
from hellfit.dataset import Dataset, RngStream, load_dataset, save_dataset
from hellfit.mc_validate import validate_payload
from hellfit.models import MultivariateNormal
from hellfit.partition import PartitionSpec


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-data")
    rng = RngStream(42).generator()
    mother = base / "mother.csv"
    model = base / "model.csv"
    save_dataset(Dataset(rng.standard_normal((2000, 2))), mother)
    save_dataset(Dataset(rng.standard_normal((20000, 2))), model)
    return str(mother), str(model)


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = (
        importlib.resources.files("hellfit") / "schemas" / name
    ).read_text()
    return json.loads(text)


class TestFit:
    def test_happy_path_json(self, sample_files, capsys):
        mother, model = sample_files
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", mother, "--model", model,
             "--depth", "2", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] in ("close", "not-shown-close")
        assert payload["p_prime"] == 15
        assert len(payload["ks_baseline"]) == 2
        jsonschema.validate(payload, load_schema("fitness_report.schema.json"))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_ks_baseline_is_the_serial_per_column_list(self, capsys, tmp_path, k):
        """The columns' KS tests run on a thread pool; the payload has them in column order."""
        rng = RngStream(7, k).generator()
        mother = Dataset(rng.standard_normal((3000, k)).round(2))  # ties
        model = Dataset(rng.standard_normal((9000, k)) + 0.05)
        save_dataset(mother, tmp_path / "mother.csv")
        save_dataset(model, tmp_path / "model.csv")
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", str(tmp_path / "mother.csv"), "--model", str(tmp_path / "model.csv"),
             "--depth", str(k), "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0
        serial = [ks_two_sample(mother.values[:, i], model.values[:, i]) for i in range(k)]
        got = [(test["statistic"], test["p_value"]) for test in json.loads(out)["ks_baseline"]]
        assert [tuple(map(float.hex, test)) for test in got] == [
            tuple(map(float.hex, test)) for test in serial
        ]

    def test_verdict_not_in_exit_code(self, sample_files, capsys, tmp_path):
        mother, model = sample_files
        # force a clearly failing comparison; exit code must still be 0
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", mother, "--model", model,
             "--depth", "2", "--branching", "4", "--epsilon", "0.01"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "not-shown-close"

    def test_output_file(self, sample_files, capsys, tmp_path):
        mother, model = sample_files
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["--output", str(out_path),
             "fit", "--mother", mother, "--model", model,
             "--depth", "2", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0 and out == ""
        assert "verdict" in json.loads(out_path.read_text())

    def test_bayes_error_is_never_negative(self, capsys, tmp_path):
        # five rows make the bias terms large: lhs > 2, so eps = sqrt(lhs / 8) > 1/2
        path = str(tmp_path / "five.csv")
        save_dataset(Dataset(np.arange(1.0, 11.0).reshape(5, 2)), path)
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", path, "--model", path,
             "--depth", "2", "--branching", "2", "--epsilon", "0.1"],
        )
        payload = json.loads(out)
        assert code == 0 and payload["lhs"] > 2 and payload["implied_epsilon"] > 0.5
        assert payload["implied_bayes_error"] == 0.0
        jsonschema.validate(payload, load_schema("fitness_report.schema.json"))

    def test_pretty_format(self, sample_files, capsys):
        mother, model = sample_files
        code, out, _ = run_cli(
            capsys,
            ["--format", "pretty",
             "fit", "--mother", mother, "--model", model,
             "--depth", "2", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0
        assert "verdict:" in out

    def test_missing_file_exit_1(self, capsys, tmp_path, sample_files):
        _, model = sample_files
        code, _, err = run_cli(
            capsys,
            ["fit", "--mother", str(tmp_path / "nope.csv"), "--model", model,
             "--depth", "2", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 1
        assert "error" in err

    def test_bad_epsilon_exit_2(self, sample_files):
        mother, model = sample_files
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--mother", mother, "--model", model,
                 "--depth", "2", "--branching", "4", "--epsilon", "0.7"])
        assert exc.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--bogus"])
        assert exc.value.code == 2

    def test_deterministic_output(self, sample_files, capsys):
        mother, model = sample_files
        argv = ["fit", "--mother", mother, "--model", model,
                "--depth", "2", "--branching", "4", "--epsilon", "0.05"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


class TestBounds:
    """argparse reads a lone ``-8:8`` as an option, so negative bounds are
    written ``--bounds=LO:HI,...``, the form ``--help`` and the README give."""

    def test_negative_bounds_reach_the_report(self, sample_files, capsys):
        mother, model = sample_files
        argv = ["fit", "--mother", mother, "--model", model,
                "--depth", "2", "--branching", "4", "--epsilon", "0.05"]
        code, out, _ = run_cli(capsys, [*argv, "--bounds=-8:8,-inf:inf"])
        assert code == 0
        bounds = [(-8.0, 8.0), (-np.inf, np.inf)]
        expected = fit_payload(
            load_dataset(mother, bounds), load_dataset(model, bounds),
            PartitionSpec(depth=2, branching=4), 0.05,
        )
        assert out == json.dumps(expected, indent=2) + "\n"
        code, out, err = run_cli(capsys, [*argv, "--bounds=-0.5:8,-inf:inf"])
        assert code == 1 and out == ""
        assert "outside support (-0.5, 8.0]" in err

    @pytest.mark.parametrize("command", ["fit", "partition"])
    def test_help_gives_the_equals_form(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        assert "--bounds=LO:HI,..." in capsys.readouterr().out


class TestFitIngest:
    def test_header_blank_lines_crlf_match_in_memory(self, capsys, tmp_path):
        rng = RngStream(3).generator()
        mother = Dataset(rng.standard_normal((500, 2)))
        model = Dataset(rng.standard_normal((4000, 2)))

        def write(ds, name, blank):
            rows = [",".join(map(repr, row)) for row in ds.values.tolist()]
            text = "\r\n".join(["x,y", "", *rows[:7], blank, *rows[7:]]) + "\r\n"
            path = tmp_path / name
            path.write_bytes(text.encode())
            return str(path)

        # CRLF breaks: each block is decoded and split where it is read, and
        # the whitespace-only line is emptied there, so it reads as blank
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", write(mother, "mother.csv", "  "),
             "--model", write(model, "model.csv", ""),
             "--depth", "2", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0
        expected = fit_payload(mother, model, PartitionSpec(depth=2, branching=4), 0.05)
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_header_only_file_exit_1(self, capsys, tmp_path, sample_files):
        _, model = sample_files
        header_only = tmp_path / "header.csv"
        header_only.write_text("x,y\n\n")
        code, out, err = run_cli(
            capsys,
            ["fit", "--mother", str(header_only), "--model", model,
             "--depth", "2", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 1 and out == ""
        assert f"{header_only}: empty input" in err


class TestFitPayload:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cli_prints_exactly_the_library_dict(self, capsys, tmp_path, k):
        rng = RngStream(11, k).generator()
        mother = Dataset(rng.standard_normal((700, k)) + 0.1)
        model = Dataset(rng.standard_normal((5000, k)))
        save_dataset(mother, tmp_path / "mother.csv")
        save_dataset(model, tmp_path / "model.csv")
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", str(tmp_path / "mother.csv"), "--model", str(tmp_path / "model.csv"),
             "--depth", str(k), "--branching", "3", "--epsilon", "0.05"],
        )
        assert code == 0
        expected = fit_payload(mother, model, PartitionSpec(depth=k, branching=3), 0.05)
        assert out == json.dumps(expected, indent=2) + "\n"


class TestFitCoversEveryCoordinate:
    """``fit`` splits the coordinates 0 .. depth - 1; a depth below k is a usage error."""

    def test_unsplit_coordinate_example_exit_2(self, capsys, tmp_path):
        """The mother's coordinate 3 is shifted by 3 sd; depth 3 never splits it."""
        shift = np.array([0.0, 0.0, 0.0, 3.0])
        mother = MultivariateNormal(shift, np.eye(4)).sample(10**4, RngStream(8, 0))
        model = MultivariateNormal(np.zeros(4), np.eye(4)).sample(4 * 10**4, RngStream(8, 1))
        save_dataset(mother, tmp_path / "mother.csv")
        save_dataset(model, tmp_path / "model.csv")
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--mother", str(tmp_path / "mother.csv"), "--model",
                 str(tmp_path / "model.csv"), "--depth", "3", "--branching", "4",
                 "--epsilon", "0.05"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --depth: depth 3 leaves coordinates [3] of k = 4 unsplit" in (
            captured.err
        )
        assert "use --depth 4, or hellfit pairwise" in captured.err

    def test_the_example_scores_close_at_depth_3(self):
        """What the usage error stops: at the example's sizes the criterion on
        coordinates 0-2 alone says close."""
        shift = np.array([0.0, 0.0, 0.0, 3.0])
        mother = MultivariateNormal(shift, np.eye(4)).sample(10**5, RngStream(8, 0))
        model = MultivariateNormal(np.zeros(4), np.eye(4)).sample(2 * 10**6, RngStream(8, 1))
        report = evaluate_fitness(mother, model, PartitionSpec(depth=3, branching=4), 0.05)
        assert report.verdict == "close"

    @pytest.mark.parametrize("depth", ["1", "2"])
    def test_every_depth_below_k_names_its_unsplit_coordinates(self, capsys, golden_files, depth):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--mother", golden_files["mother"], "--model", golden_files["model"],
                 "--depth", depth, "--branching", "4", "--epsilon", "0.05"])
        assert exc.value.code == 2
        unsplit = list(range(int(depth), 3))
        assert f"depth {depth} leaves coordinates {unsplit} of k = 3 unsplit" in (
            capsys.readouterr().err
        )

    def test_dimension_mismatch_stays_a_runtime_error(self, capsys, sample_files, golden_files):
        code, out, err = run_cli(
            capsys,
            ["fit", "--mother", sample_files[0], "--model", golden_files["model"],
             "--depth", "1", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 1 and out == ""
        assert "dimension mismatch" in err

    def test_partition_still_takes_a_depth_below_k(self, capsys, sample_files):
        code, out, _ = run_cli(
            capsys, ["partition", "--model", sample_files[1], "--depth", "1", "--branching", "4"]
        )
        assert code == 0
        assert len(json.loads(out)["leaves"]) == 4


# command line -> the library function and arguments that build its report
LIBRARY_CALLS = {
    "validate-2-defaults": (["validate", "--theorem", "2"], validate_payload, dict(theorem=2)),
    "validate-2": (
        ["validate", "--theorem", "2", "--n", "50", "--replicates", "300", "--seed", "3"],
        validate_payload, dict(theorem=2, n=50, replicates=300, seed=3),
    ),
    "validate-3": (
        ["validate", "--theorem", "3", "--n", "200", "--replicates", "20", "--seed", "4"],
        validate_payload, dict(theorem=3, n=200, replicates=20, seed=4),
    ),
    "validate-4-identical": (
        ["validate", "--theorem", "4", "--n1", "200", "--n2", "3000", "--replicates", "3"],
        validate_payload, dict(theorem=4, n1=200, n2=3000, replicates=3),
    ),
    "validate-4-shifted": (
        ["validate", "--theorem", "4", "--config", "shifted-normals", "--n1", "200",
         "--n2", "3000", "--replicates", "3", "--seed", "2"],
        validate_payload,
        dict(theorem=4, config="shifted-normals", n1=200, n2=3000, replicates=3, seed=2),
    ),
    "pairwise": (
        ["pairwise", "--mother", "{mother}", "--model", "{model}", "--epsilon", "0.05"],
        pairwise_payload, dict(branching=4, epsilon=0.05),
    ),
    "pairwise-branching-2": (
        ["pairwise", "--mother", "{mother}", "--model", "{model}", "--branching", "2",
         "--epsilon", "0.1"],
        pairwise_payload, dict(branching=2, epsilon=0.1),
    ),
}


class TestReportsAreOneLibraryCall:
    @pytest.fixture(scope="class")
    def pair_samples(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("cli-pairs")
        rng = RngStream(13).generator()
        samples = {
            "mother": Dataset(rng.standard_normal((600, 4)) + 0.1),
            "model": Dataset(rng.standard_normal((6000, 4))),
        }
        for name, sample in samples.items():
            save_dataset(sample, base / f"{name}.csv")
        return samples, {name: str(base / f"{name}.csv") for name in samples}

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
    def test_cli_prints_exactly_the_library_dict(self, capsys, pair_samples, fmt, name):
        argv, call, kwargs = LIBRARY_CALLS[name]
        samples, paths = pair_samples
        code, out, _ = run_cli(capsys, ["--format", fmt, *(arg.format(**paths) for arg in argv)])
        assert code == 0
        if call is pairwise_payload:
            kwargs = {**samples, **kwargs}
        _emit(argparse.Namespace(format=fmt, output=None), call(**kwargs))
        assert out == capsys.readouterr().out


class TestUnsupportedFormat:
    FIT = ["fit", "--mother", "m.csv", "--model", "g.csv",
           "--depth", "1", "--branching", "4", "--epsilon", "0.05"]
    PARTITION = ["partition", "--model", "g.csv", "--depth", "1", "--branching", "4"]

    @pytest.mark.parametrize(
        "fmt, argv, supported",
        [
            ("csv", FIT, "json, pretty"),
            ("csv", ["threshold", "--epsilon", "0.05"], "json, pretty"),
            ("csv", ["validate", "--theorem", "3"], "json, pretty"),
            ("csv", ["pairwise", "--mother", "m.csv", "--model", "g.csv",
                     "--epsilon", "0.05"], "json, pretty"),
            ("csv", PARTITION, "json"),
            ("pretty", PARTITION, "json"),
        ],
    )
    def test_usage_error(self, capsys, fmt, argv, supported):
        with pytest.raises(SystemExit) as exc:
            run(["--format", fmt, *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]} does not support --format {fmt}; supported: {supported}" in err


class TestUsageErrors:
    FILES = ["--mother", "m.csv", "--model", "g.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", *FILES, "--depth", "0", "--branching", "4", "--epsilon", "0.05"],
            ["partition", "--model", "g.csv", "--depth", "0", "--branching", "4"],
            ["simulate", "--table", "1", "--branching", "1"],
            ["pairwise", *FILES, "--branching", "1", "--epsilon", "0.05"],
            ["simulate", "--table", "1", "--n1", "1000", "0"],
            ["simulate", "--table", "1", "--n2", "0"],
            ["simulate", "--table", "5", "--k", "0"],
            ["threshold", "--delta", "nan"],
            ["threshold", "--delta", "inf"],
            ["threshold", "--delta", "0"],
            ["simulate", "--table", "5", "--k", "1"],  # rejected before any sampling
            ["simulate", "--table", "6", "--k", "1"],
        ],
    )
    def test_bad_value_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["fit", *FILES, "--depth", "x", "--branching", "4", "--epsilon", "0.05"],
             "argument --depth: invalid int value: 'x'"),
            (["threshold", "--epsilon", "abc"], "argument --epsilon: invalid float value: 'abc'"),
            (["partition", "--model", "g.csv", "--depth", "2", "--branching", "4,x"],
             "argument --branching: invalid int value: '4,x'"),
            (["fit", *FILES, "--depth", "1", "--branching", "4", "--epsilon", "0.05",
              "--bounds", "1"], "argument --bounds: invalid lo:hi pair of floats: '1'"),
            (["partition", "--model", "g.csv", "--depth", "1", "--branching", "4",
              "--bounds", "0:1,1:x"], "argument --bounds: invalid lo:hi pair of floats: '1:x'"),
        ],
        ids=["depth", "epsilon", "branching", "bounds-no-colon", "bounds-not-float"],
    )
    def test_unparsable_value_names_the_converter(self, capsys, argv, words):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert words in err
        assert re.search(r"\b_\w", err) is None, "a private function is named"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--model", "g.csv", "--depth", "3", "--branching", "4,3", "--epsilon", "0.05"],
            ["partition", "--depth", "2", "--branching", "4,3,2"],
        ],
        ids=["fit", "partition"],
    )
    def test_branching_of_the_wrong_length_exit_2(self, capsys, tmp_path, argv):
        """Refused before any file is opened: the input path does not exist."""
        missing = str(tmp_path / "missing.csv")
        flag = "--mother" if argv[0] == "fit" else "--model"
        with pytest.raises(SystemExit) as exc:
            run([*argv, flag, missing])
        assert exc.value.code == 2
        assert "error: argument --branching:" in capsys.readouterr().err


class TestUnreadFlags:
    """A flag that the chosen table or theorem never reads is a usage error."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--table", "5", "--n1", "1000"], "--n1"),
            (["simulate", "--table", "6", "--n1", "1000"], "--n1"),
            (["validate", "--theorem", "2", "--n1", "1000"], "--n1"),
            (["validate", "--theorem", "2", "--n2", "5000"], "--n2"),
            (["validate", "--theorem", "2", "--config", "identical-normals"], "--config"),
            (["validate", "--theorem", "3", "--n1", "1000"], "--n1"),
            (["validate", "--theorem", "3", "--n2", "5000"], "--n2"),
            (["validate", "--theorem", "3", "--config", "shifted-normals"], "--config"),
            (["validate", "--theorem", "4", "--n", "100"], "--n"),
            (["simulate", "--table", "5", "--epsilon", "0.2"], "--epsilon"),
            (["simulate", "--table", "6", "--epsilon", "0.05"], "--epsilon"),
        ],
    )
    def test_unread_flag_exit_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"error: argument {flag}: not read by" in capsys.readouterr().err

    def test_theorem_4_defaults(self, capsys):
        tail = ["--replicates", "2", "--seed", "5"]
        _, implicit, _ = run_cli(capsys, ["validate", "--theorem", "4", *tail])
        _, explicit, _ = run_cli(
            capsys,
            ["validate", "--theorem", "4", "--n1", "1000", "--n2", "100000",
             "--config", "identical-normals", *tail],
        )
        assert implicit == explicit
        assert json.loads(implicit)["config"] == "identical-normals"


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


class TestStrictJson:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, nulls",
        [
            (["threshold", "--delta", "5"], ["capital_delta_star"]),
            (["validate", "--theorem", "2", "--replicates", "1"], ["standard_error"]),
            (["validate", "--theorem", "3", "--replicates", "1"], ["standard_error"]),
            (["validate", "--theorem", "4", "--n2", "5000", "--replicates", "1"],
             ["se_true", "se_estimated", "slack"]),
        ],
    )
    def test_non_finite_values_are_null(self, capsys, argv, nulls):
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        payload = json.loads(out, parse_constant=_reject_constant)
        flat = {**payload, **payload.get("branch_values", {})}
        assert all(flat[key] is None for key in nulls)
        if argv[0] == "threshold":
            jsonschema.validate(payload, load_schema("threshold_report.schema.json"))


class TestThreshold:
    def test_epsilon_query(self, capsys):
        code, out, _ = run_cli(
            capsys, ["threshold", "--generator", "hellinger", "--epsilon", "0.05"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_star"] == pytest.approx(0.02, abs=1e-15)
        assert payload["alpha_of_delta"] == pytest.approx(0.45, abs=0.005)
        jsonschema.validate(payload, load_schema("threshold_report.schema.json"))

    def test_delta_query_chi2(self, capsys):
        code, out, _ = run_cli(
            capsys, ["threshold", "--generator", "chi2", "--delta", "0.1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["branch_values"]["capital_delta_star"] == pytest.approx(
            1.2, abs=1e-8
        )

    def test_unknown_generator_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, ["threshold", "--generator", "tv", "--epsilon", "0.05"]
        )
        assert code == 1
        assert "unknown generator" in err

    def test_unparsable_alpha_names_the_generator(self, capsys):
        code, out, err = run_cli(
            capsys, ["threshold", "--generator", "alpha:abc", "--epsilon", "0.05"]
        )
        assert code == 1 and out == ""
        assert err == "hellfit: error: unknown generator 'alpha:abc'\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e300", "0.99999997"])
    def test_alpha_outside_the_family_exit_1(self, capsys, alpha):
        code, out, err = run_cli(
            capsys, ["threshold", "--generator", f"alpha:{alpha}", "--epsilon", "0.05"]
        )
        assert code == 1 and out == ""
        assert err.startswith("hellfit: error:")

    def test_close_alphas_report_different_labels(self, capsys):
        labels = []
        for name in ("alpha:0.5000001", "alpha:0.5"):
            code, out, _ = run_cli(capsys, ["threshold", "--generator", name, "--epsilon", "0.05"])
            assert code == 0
            labels.append(json.loads(out)["generator"])
        assert labels == ["alpha:0.5000001", "alpha:0.5"]

    @pytest.mark.parametrize("alpha", ["0.999", "100"])
    def test_alpha_near_the_pole_or_large_accepted(self, capsys, alpha):
        code, out, _ = run_cli(
            capsys, ["threshold", "--generator", f"alpha:{alpha}", "--epsilon", "0.05"]
        )
        assert code == 0
        assert 0 < json.loads(out)["alpha_of_delta"] <= 0.5


class TestSimulate:
    def test_table1_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--table", "1", "--n1", "2000", "--n2", "100000",
             "--seed", "0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["table"] == 1
        row = payload["rows"][0]
        assert row["n1"] == 2000 and row["n2"] == 100000
        assert row["lhs"] > row["distance"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["--format", "csv",
             "simulate", "--table", "1", "--n1", "2000", "--n2", "50000"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("table,")
        assert len(lines) == 2

    def test_csv_pair_cells_are_json_text(self, capsys):
        code, out, _ = run_cli(
            capsys, ["--format", "csv", "simulate", "--table", "5", "--k", "3", "--n2", "5000"]
        )
        assert code == 0
        assert out == (
            "table,pair,n1,n2,lhs\r\n"
            '5,"[1, 2]",1000,5000,0.17666673646930936\r\n'
            '5,"[1, 3]",1000,5000,0.17366573912843167\r\n'
            '5,"[2, 3]",1000,5000,0.17596306678245194\r\n'
        )


class TestValidate:
    def test_theorem_3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["validate", "--theorem", "3", "--n", "500", "--replicates", "200"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem"] == 3
        assert payload["prediction"] == pytest.approx(3 / 1000, rel=1e-12)
        assert 0.7 < payload["ratio"] < 1.3

    def test_theorem_2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["validate", "--theorem", "2", "--n", "100", "--replicates", "20000"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"] == pytest.approx(0.0152719, abs=5e-8)
        assert abs(payload["mean"] - payload["prediction"]) < 4 * payload[
            "standard_error"
        ]

    def test_theorem_4(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["validate", "--theorem", "4", "--n1", "500", "--n2", "5000",
             "--replicates", "20"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theorem", "3", "--n", "0"],
            ["--theorem", "4", "--replicates", "0"],
            ["--theorem", "2", "--replicates", "-5"],
            ["--theorem", "4", "--n1", "0"],
            ["--theorem", "4", "--n2", "0"],
        ],
    )
    def test_non_positive_sizes_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(["validate", *argv])
        assert exc.value.code == 2


class TestPartition:
    def test_dump_tree(self, sample_files, capsys):
        _, model = sample_files
        code, out, _ = run_cli(
            capsys,
            ["partition", "--model", model, "--depth", "2", "--branching", "4"],
        )
        assert code == 0
        tree = json.loads(out)
        assert len(tree["leaves"]) == 16

    def test_per_level_branching(self, sample_files, capsys):
        _, model = sample_files
        code, out, _ = run_cli(
            capsys,
            ["partition", "--model", model, "--depth", "2", "--branching", "2,3"],
        )
        assert code == 0
        assert len(json.loads(out)["leaves"]) == 6

    def test_output_file_holds_the_stdout_bytes(self, sample_files, capsys, tmp_path):
        _, model = sample_files
        argv = ["partition", "--model", model, "--depth", "2", "--branching", "4"]
        _, out, _ = run_cli(capsys, argv)
        path = tmp_path / "tree.json"
        code, printed, _ = run_cli(capsys, ["--output", str(path), *argv])
        assert code == 0 and printed == ""
        assert path.read_bytes() == out.encode()


class TestTiedModel:
    """A model sample with atoms: 1000 x 2 integers in {0, 1, 2}."""

    @pytest.fixture(scope="class")
    def ties_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-ties") / "ties.csv"
        values = RngStream(0).generator().integers(0, 3, (1000, 2)).astype(float)
        save_dataset(Dataset(values), path)
        return str(path)

    @pytest.mark.parametrize("command", ["fit", "partition"])
    def test_atom_at_a_break_exit_1(self, ties_file, capsys, command):
        argv = [command, "--model", ties_file, "--depth", "2", "--branching", "4"]
        if command == "fit":
            argv += ["--mother", ties_file, "--epsilon", "0.05"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "hellfit: error: region (): building points tie at a break on axis 0" in err


class TestPairwise:
    def test_two_dims(self, sample_files, capsys):
        mother, model = sample_files
        code, out, _ = run_cli(
            capsys,
            ["pairwise", "--mother", mother, "--model", model,
             "--epsilon", "0.05"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"] == pytest.approx(0.02, abs=1e-15)
        assert len(payload["pairs"]) == 1
        assert payload["lhs_matrix"][0][1] == payload["pairs"][0]["lhs"]
        assert payload["lhs_matrix"][1][0] is None

    def test_pretty_prints_plain_numbers(self, sample_files, capsys):
        mother, model = sample_files
        code, out, _ = run_cli(
            capsys,
            ["--format", "pretty", "pairwise", "--mother", mother, "--model", model,
             "--epsilon", "0.05"],
        )
        assert code == 0
        assert "lhs_matrix: [[None, 0." in out and "np.float64" not in out

    @pytest.mark.parametrize("swap", [False, True])
    def test_dimension_mismatch_is_runtime_error(
        self, sample_files, golden_files, capsys, swap
    ):
        files = [sample_files[0], golden_files["model"]]  # k = 2 and k = 3
        mother, model = files[::-1] if swap else files
        code, out, err = run_cli(
            capsys,
            ["pairwise", "--mother", mother, "--model", model, "--epsilon", "0.05"],
        )
        assert code == 1 and out == ""
        assert "dimension" in err


# SHA-256 of small outputs, so that refactors keep results byte-identical
GOLDEN_OUTPUTS = {
    "fit": (
        ["fit", "--mother", "{mother}", "--model", "{model}", "--depth", "3",
         "--branching", "4", "--epsilon", "0.05"],
        "f2788aaf1726aeaa29d0e1df90ee7d70bf846c3f8e725105c69718620b4b8a7e",
    ),
    "partition": (
        ["partition", "--model", "{model}", "--depth", "3", "--branching", "4"],
        "ef86da92497b348adc08f616ae75285d48914c012e87c986a91b6330271591d5",
    ),
    "partition-bounded": (
        ["partition", "--model", "{model}", "--depth", "2", "--branching", "3",
         "--bounds=-6:6,-inf:inf,-8:7.5"],
        "8e4404937303d1c403636698db07d09d58443480f089a9713607455f5efeeb84",
    ),
    "partition-per-level": (
        ["partition", "--model", "{model}", "--depth", "3", "--branching", "4,3,2"],
        "9f2c58e3e4b1fa47f67a5a1ba21d9e4fd59e91b3437af3a5b4feee0b3f4a3e29",
    ),
    "pairwise": (
        ["pairwise", "--mother", "{mother}", "--model", "{model}", "--epsilon", "0.05"],
        "23d7c62b64f2724d2f94b22c84cb112f17ff65ed5fb59a6e270dd96a85c44f9c",
    ),
    "simulate-table-1": (
        ["simulate", "--table", "1", "--n1", "1000", "3000", "--n2", "20000"],
        "8ed23077c343476c0a9aece93ea7f30c5ab76c595f12261d89d0c6fe61cd27fe",
    ),
    "simulate-table-5": (
        ["simulate", "--table", "5", "--k", "4", "--n2", "20000"],
        "f119933e299016dc4f9c3d28a35db5b11bf5eac98ae755b13a4def34f02088db",
    ),
    "validate-theorem-3": (
        ["validate", "--theorem", "3", "--n", "500", "--replicates", "200"],
        "111cf94d3f06910c227b3adac18bf84fef5d01ae6096becb85e4f9fd6ac8846d",
    ),
    "validate-theorem-4-identical": (
        ["validate", "--theorem", "4", "--config", "identical-normals",
         "--n1", "1000", "--n2", "20000", "--replicates", "10"],
        "f9213091ea1b5446f7dbaa2b31d1289e9fbdce033d8579d564f3e0eecbf0c211",
    ),
    "validate-theorem-4-shifted": (
        ["validate", "--theorem", "4", "--config", "shifted-normals",
         "--n1", "1000", "--n2", "20000", "--replicates", "10"],
        "54c46e3ebf39679b22e20511e81d51defbca7698e222a84f9c3766db66cbf22a",
    ),
    "validate-theorem-2": (
        ["validate", "--theorem", "2", "--n", "100", "--replicates", "2000"],
        "ef210be1bf148261249e77869f39bd9f215fdf96d135c89dcdf11c56dba55146",
    ),
    "threshold-hellinger-epsilon": (
        ["threshold", "--generator", "hellinger", "--epsilon", "0.05"],
        "b34ef2c551bf754f50830bf231057b8511ee0eba82bcb30007c263902ed23e3f",
    ),
    "threshold-hellinger-delta": (
        ["threshold", "--generator", "hellinger", "--delta", "0.3"],
        "832e54efa81113e7faa4209765594d6f28b33feb1c03bba144119a58d2697ec4",
    ),
    "threshold-kl-epsilon": (
        ["threshold", "--generator", "kl", "--epsilon", "0.05"],
        "0817956dbef996e8a056206128cfe7992bd079b604b1e63d17e9dcc3012f60ef",
    ),
    "threshold-kl-delta": (
        ["threshold", "--generator", "kl", "--delta", "0.3"],
        "edba3caf10febbd38bb1b7c195639871b7714798bd8eb25a29e57f94d9726798",
    ),
    "threshold-reverse-kl-epsilon": (
        ["threshold", "--generator", "reverse-kl", "--epsilon", "0.05"],
        "50fc59b1444978e0e129273852393080eecda3650f6051a0dd2dbf7b8cf8ed7f",
    ),
    "threshold-reverse-kl-delta": (
        ["threshold", "--generator", "reverse-kl", "--delta", "0.3"],
        "9586b95d16e165392884fc450cabe0ccdb728329aa1e54631c6ebfd0e5a774ec",
    ),
    "threshold-chi2-epsilon": (
        ["threshold", "--generator", "chi2", "--epsilon", "0.05"],
        "48f8a53aca82f075fd9bb52dfbc1e3db70479647505806638ecbcc9ee0cb21a7",
    ),
    "threshold-chi2-delta": (
        ["threshold", "--generator", "chi2", "--delta", "0.3"],
        "14ddedb80376d0e5e4d267208e42fdc5d5c738bf920345772a48f76a55dba558",
    ),
    "threshold-alpha-0.5-epsilon": (
        ["threshold", "--generator", "alpha:0.5", "--epsilon", "0.05"],
        "ac2277edd7c9af68a216c5195a4caefaed3abba4d157956b95e3009218597cea",
    ),
    "threshold-alpha-0.5-delta": (
        ["threshold", "--generator", "alpha:0.5", "--delta", "0.3"],
        "a04e460c417fa381ac8c12c3089fa372c364706a65735e658bfb3911b5e8450d",
    ),
    "threshold-alpha-minus-3-epsilon": (
        ["threshold", "--generator", "alpha:-3", "--epsilon", "0.05"],
        "a96eb635412c98ebb32cc51aca5690511a92b1de9f482bab14bc64bfed0c8d37",
    ),
    "threshold-alpha-minus-3-delta": (
        ["threshold", "--generator", "alpha:-3", "--delta", "0.3"],
        "8237c4564e59859919ab5c8dc487f6a6adba503ecfba3ff6ac6657585d401e6d",
    ),
}


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-golden")
    rng = RngStream(43).generator()
    mother = base / "mother.csv"
    model = base / "model.csv"
    save_dataset(Dataset(rng.standard_normal((1000, 3)) + 0.1), mother)
    save_dataset(Dataset(rng.standard_normal((8000, 3))), model)
    return {"mother": str(mother), "model": str(model)}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_golden_output_digest(name, golden_files, capsys):
    argv, digest = GOLDEN_OUTPUTS[name]
    code, out, _ = run_cli(capsys, [arg.format(**golden_files) for arg in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConsoleScript:
    def test_entry_point_installed(self):
        exe = shutil.which("hellfit")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "threshold", "--epsilon", "0.05"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta_star"] == pytest.approx(0.02)

    def test_import_skips_scipy_optimize_and_stats(self):
        proc = run_checkout_python(
            "-c",
            "import sys, hellfit.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # kl has no finite Delta*, hellinger takes the closed form
    @pytest.mark.parametrize("generator", ["kl", "hellinger"])
    def test_threshold_runs_without_scipy(self, generator):
        proc = run_checkout_python(
            "-c",
            "import sys; from hellfit import cli;"
            f" cli.run(['threshold', '--generator', '{generator}', '--epsilon', '0.05']);"
            " print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.rsplit("\n", 2)[0])["generator"] == generator
        assert proc.stdout.splitlines()[-1] == "[]"

    # Every command runs in an interpreter where importing scipy fails: the
    # runtime depends on numpy alone, and no command loads a scipy module
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--mother", "{mother}", "--model", "{model}", "--depth", "3",
             "--branching", "4", "--epsilon", "0.05"],
            ["simulate", "--table", "1", "--n1", "500", "--n2", "5000"],
            ["simulate", "--table", "5", "--k", "3", "--n2", "5000"],
            ["validate", "--theorem", "2", "--n", "100", "--replicates", "100"],
            ["validate", "--theorem", "3", "--n", "100", "--replicates", "5"],
            ["validate", "--theorem", "4", "--config", "identical-normals", "--n1", "100",
             "--n2", "1000", "--replicates", "2"],
            ["validate", "--theorem", "4", "--config", "shifted-normals", "--n1", "100",
             "--n2", "1000", "--replicates", "2"],
            ["pairwise", "--mother", "{mother}", "--model", "{model}", "--epsilon", "0.05"],
            ["partition", "--model", "{model}", "--depth", "3", "--branching", "4"],
        ],
        ids=["fit", "simulate-1", "simulate-5", "validate-2", "validate-3",
             "validate-4", "validate-4-shifted", "pairwise", "partition"],
    )
    def test_which_commands_load_scipy(self, argv, golden_files, tmp_path):
        argv = [arg.format(**golden_files) for arg in argv]
        proc = run_checkout_python(
            "-c",
            BLOCK_SCIPY + "from hellfit import cli;"
            f" code = cli.run(['--output', {str(tmp_path / 'out.json')!r}, *{argv!r}]);"
            " print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = proc.stdout.split(" ", 1)
        assert code == "0"
        assert ast.literal_eval(modules) == []

    def test_three_correlated_axes_run_with_scipy_blocked(self):
        proc = run_checkout_python(
            "-c",
            BLOCK_SCIPY + "from hellfit.dataset import RngStream;"
            " from hellfit.models import MultivariateNormal;"
            " from hellfit.partition import PartitionSpec, build_moving_partition;"
            " dist = MultivariateNormal.shifted(3, 0.1, 0.1);"
            " tree = build_moving_partition(dist.sample(4000, RngStream(0)), PartitionSpec(3, 4));"
            " print(dist.leaf_masses(tree).sum())",
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(1.0, abs=1e-12)

    def test_blocked_scipy_cannot_be_imported(self):
        proc = run_checkout_python("-c", BLOCK_SCIPY + "import scipy")
        assert proc.returncode == 1 and "ModuleNotFoundError: scipy is blocked" in proc.stderr

    def test_module_invocation(self):
        proc = run_checkout_python("-m", "hellfit.cli", "threshold", "--epsilon", "0.01")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta_star"] == pytest.approx(8e-4)


# Prefix of a ``python -c`` program: a meta path finder that makes every
# import of scipy, or of a scipy submodule, raise
BLOCK_SCIPY = (
    "import sys\n"
    "class BlockScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ModuleNotFoundError(f'{name} is blocked', name=name)\n"
    "sys.meta_path.insert(0, BlockScipy())\n"
)


def run_checkout_python(*args):
    """A fresh interpreter with the checkout's src first, so it imports this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
