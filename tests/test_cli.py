import hashlib
import importlib.resources
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hellfit.cli import run
from hellfit.criterion import evaluate_fitness, ks_two_sample
from hellfit.dataset import Dataset, RngStream, save_dataset
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

        # an empty line keeps the vectorized parse; a whitespace-only one
        # sends the file through the line-by-line parse
        code, out, _ = run_cli(
            capsys,
            ["fit", "--mother", write(mother, "mother.csv", "  "),
             "--model", write(model, "model.csv", ""),
             "--depth", "2", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 0
        expected = evaluate_fitness(
            mother, model, PartitionSpec(depth=2, branching=4), 0.05
        ).to_dict()
        expected["ks_baseline"] = [
            dict(zip(("statistic", "p_value"),
                     ks_two_sample(mother.values[:, i], model.values[:, i])))
            for i in range(2)
        ]
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_header_only_file_exit_1(self, capsys, tmp_path, sample_files):
        _, model = sample_files
        header_only = tmp_path / "header.csv"
        header_only.write_text("x,y\n\n")
        code, out, err = run_cli(
            capsys,
            ["fit", "--mother", str(header_only), "--model", model,
             "--depth", "1", "--branching", "4", "--epsilon", "0.05"],
        )
        assert code == 1 and out == ""
        assert f"{header_only}: empty input" in err


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
        ],
    )
    def test_bad_value_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err


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
    "pairwise": (
        ["pairwise", "--mother", "{mother}", "--model", "{model}", "--epsilon", "0.05"],
        "d4ecdd446d4115b255d9be53c0c43f24f4720cffdbab75da0f71fe607e482639",
    ),
    "simulate-table-1": (
        ["simulate", "--table", "1", "--n1", "1000", "3000", "--n2", "20000"],
        "8ed23077c343476c0a9aece93ea7f30c5ab76c595f12261d89d0c6fe61cd27fe",
    ),
    "simulate-table-5": (
        ["simulate", "--table", "5", "--k", "4", "--n2", "20000"],
        "f119933e299016dc4f9c3d28a35db5b11bf5eac98ae755b13a4def34f02088db",
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

    def test_module_invocation(self):
        # the checkout's src first, so the child imports this tree's package
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hellfit.cli", "threshold", "--epsilon", "0.01"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta_star"] == pytest.approx(8e-4)
