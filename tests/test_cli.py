import importlib.resources
import json
import shutil
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from hellfit.cli import run
from hellfit.dataset import Dataset, RngStream, save_dataset


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

    def test_verdict_not_in_exit_code(self, sample_files, capsys, tmp_path):
        mother, model = sample_files
        # force a clearly failing comparison; exit code must still be 0
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", mother, "--model", model,
             "--depth", "1", "--branching", "4", "--epsilon", "0.01"],
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
             "--depth", "1", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0 and out == ""
        assert "verdict" in json.loads(out_path.read_text())

    def test_pretty_format(self, sample_files, capsys):
        mother, model = sample_files
        code, out, _ = run_cli(
            capsys,
            ["--format", "pretty",
             "fit", "--mother", mother, "--model", model,
             "--depth", "1", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0
        assert "verdict:" in out

    def test_missing_file_exit_1(self, capsys, tmp_path, sample_files):
        _, model = sample_files
        code, _, err = run_cli(
            capsys,
            ["fit", "--mother", str(tmp_path / "nope.csv"), "--model", model,
             "--depth", "1", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 1
        assert "error" in err

    def test_bad_epsilon_exit_2(self, sample_files):
        mother, model = sample_files
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--mother", mother, "--model", model,
                 "--depth", "1", "--branching", "4", "--epsilon", "0.7"])
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

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hellfit.cli", "threshold", "--epsilon", "0.01"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta_star"] == pytest.approx(8e-4)
