"""Command-line surface: parsing, artifacts, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from trimreg import NonNumericCell, ParseError, TooFewRows
from trimreg import __version__, cli
from trimreg.cli import (
    _COMMAND_FIELDS,
    _TABLES,
    RunConfig,
    _build_parser,
    load_dataset,
    main,
    run,
)


@pytest.fixture
def outlier_csv(tmp_path):
    path = tmp_path / "line.csv"
    rows = ["x,y"] + [f"{i},{1 + 2 * i}" for i in range(12)]
    rows[-1] = "11,1000"  # one gross outlier
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _read_artifact(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestLoadDataset:
    def test_three_column_file(self, tmp_path):
        path = tmp_path / "d.csv"
        lines = ["x1,x2,y"] + [f"{i},{i * i},{3 * i}" for i in range(9)]
        path.write_text("\n".join(lines) + "\n")
        data = load_dataset(str(path), "y")
        assert data.n == 9 and data.p == 3
        assert np.all(data.W[:, 0] == 1.0)
        assert np.array_equal(data.W[2, 1:], [2.0, 4.0])

    def test_text_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\nalpha,3\n4,5\n")
        with pytest.raises(NonNumericCell, match="row 2"):
            load_dataset(str(path), "y")

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "small.csv"
        lines = ["a,b,y"] + [f"{i},{i + 1},{i + 2}" for i in range(5)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TooFewRows):
            load_dataset(str(path), "y")

    def test_missing_response(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="response"):
            load_dataset(str(path), "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "rag.csv"
        path.write_text("x,y\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 2"):
            load_dataset(str(path), "y")

    def test_one_call_and_cell_paths_agree(self, tmp_path, monkeypatch):
        # Subnormals, signed zeros and underscore digit separators: numpy's
        # conversion of the whole file gives float()'s bits for every cell.
        cells = ["4.9e-324", "-0.0", "1_000", "2.2250738585072e-310", "-1e-320",
                 "0.0", "0.1", "-7.5e-315", "12_345.678_9"]
        path = tmp_path / "edge.csv"
        lines = ["x1,x2,y"] + [",".join((cells[i], cells[i - 1], cells[i - 2]))
                               for i in range(len(cells))]
        path.write_text("\n".join(lines) + "\n")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        want = cli._cells(rows, rows[0], str(path))

        def fallback(*args):
            raise AssertionError("the one-call conversion fell back")

        monkeypatch.setattr(cli, "_cells", fallback)
        x, y, names = cli._read_numeric_csv(str(path), "y")
        assert names == ["x1", "x2"]
        assert np.column_stack([x, y]).tobytes() == want.tobytes()
        assert np.any((want == 0) & np.signbit(want))
        assert np.any((want != 0) & (np.abs(want) < np.finfo(float).tiny))

    @pytest.mark.parametrize("body, message", [
        ("1,2\n3,inf\n", "row 2, column 'y': 'inf' is not finite"),
        ("1,2\n3,1e999\n", "row 2, column 'y': '1e999' is not finite"),
        ("1,2\nnan,4\n", "row 2, column 'x': 'nan' is not finite"),
        ("1,2\n3,0x10\n", "row 2, column 'y': '0x10' is not numeric"),
        ("1,2\n3,\n", "row 2, column 'y': '' is not numeric"),
        ("1,2\n3,4,5\n", "row 2 has 3 cells, expected 2"),
        ("", "has a header but no data rows"),
    ])
    def test_cell_messages(self, tmp_path, body, message):
        # Every fault is named by the cell-by-cell conversion.
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n" + body)
        with pytest.raises(ParseError) as err:
            load_dataset(str(path), "y")
        assert message in str(err.value)


class TestCommands:
    def test_fit_artifact(self, outlier_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", outlier_csv, "--alpha", "0.5",
            "--seed", "3", "--starts", "100", "--output", str(out),
        ])
        assert code == 0
        doc = _read_artifact(out)
        assert doc["command"] == "fit"
        assert np.allclose(doc["result"]["beta"], [1.0, 2.0], atol=1e-9)
        assert doc["result"]["objective"] <= 1e-16
        assert doc["config"]["seed"] == 3
        assert "timestamp" in doc and doc["version"] == __version__

    def test_five_point_fit(self, tmp_path):
        path = tmp_path / "five.csv"
        path.write_text("x,y\n0,1\n1,3\n2,5\n3,7\n4,100\n")
        out = tmp_path / "five.json"
        code = main(["fit", "--input", str(path), "--alpha", "0.5",
                     "--output", str(out)])
        assert code == 0
        doc = _read_artifact(out)
        assert np.allclose(doc["result"]["beta"], [1.0, 2.0], atol=1e-9)
        assert doc["result"]["h"] == 3

    def test_enumerate_matches_fit(self, outlier_csv, tmp_path):
        out_f, out_e = tmp_path / "f.json", tmp_path / "e.json"
        assert main(["fit", "--input", outlier_csv, "--alpha", "0.5",
                     "--output", str(out_f)]) == 0
        assert main(["enumerate", "--input", outlier_csv, "--alpha", "0.5",
                     "--output", str(out_e)]) == 0
        f, e = _read_artifact(out_f), _read_artifact(out_e)
        assert abs(f["result"]["objective"] - e["result"]["objective"]) <= 1e-10
        assert e["result"]["start_index"] == -1

    def test_constants_artifact(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(["constants", "--alpha", "0.75", "--sigma", "1.0",
                     "--output", str(out)])
        assert code == 0
        r = _read_artifact(out)["result"]
        assert r["trimmed_moment"] == pytest.approx(0.1381965191188359, abs=1e-12)
        assert r["central_mass"] == pytest.approx(0.75, abs=1e-12)
        assert r["cov_factor"] == pytest.approx(0.4913654013114164, abs=1e-12)

    def test_constants_requires_sigma(self, capsys):
        code = main(["constants", "--alpha", "0.75"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["exit_code"] == 2

    def test_influence_artifact(self, tmp_path):
        probes = tmp_path / "probes.csv"
        probes.write_text("s,y\n1.0,0.5\n1.0,5.0\n")
        out = tmp_path / "inf.json"
        code = main(["influence", "--input", str(probes), "--alpha", "0.75",
                     "--sigma", "1.0", "--output", str(out)])
        assert code == 0
        pts = _read_artifact(out)["result"]["points"]
        assert np.allclose(pts[0]["influence"], [2 / 3, 2 / 3], atol=1e-12)
        assert pts[0]["inside"] is True
        assert pts[1]["influence"] == [0.0, 0.0]
        assert pts[1]["inside"] is False

    def test_simulate_consistency_json_and_csv(self, tmp_path):
        args = ["simulate-consistency", "--n-grid", "40,80", "--reps", "5",
                "--p", "2", "--beta0", "1,2", "--seed", "11"]
        out_json = tmp_path / "sc.json"
        assert main(args + ["--output", str(out_json)]) == 0
        doc = _read_artifact(out_json)
        assert doc["result"]["summary"]["n_grid"] == [40, 80]
        out_csv = tmp_path / "sc.csv"
        assert main(args + ["--format", "csv", "--output", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == "rep,n,beta_0,beta_1,objective,iterations"
        assert len(lines) == 2 + 10

    def test_ci_normal_artifact(self, outlier_csv, tmp_path):
        out = tmp_path / "cn.json"
        code = main(["ci-normal", "--input", outlier_csv, "--alpha", "0.5",
                     "--sigma", "1.0", "--gamma", "0.05", "--output", str(out)])
        assert code == 0
        doc = _read_artifact(out)
        region = doc["result"]["region"]
        assert region["mode"] == "corrected"
        assert region["radius"] > 0
        assert len(region["center"]) == 2

    def test_ci_bootstrap_artifact(self, outlier_csv, tmp_path):
        out = tmp_path / "cb.json"
        code = main(["ci-bootstrap", "--input", outlier_csv, "--alpha", "0.5",
                     "--m", "20", "--gamma", "0.1", "--output", str(out)])
        assert code == 0
        region = _read_artifact(out)["result"]["region"]
        assert len(region["cloud"]) == 20
        assert len(region["retained"]) == 20 - 2
        assert region["threshold"] > 0


class TestExitCodes:
    def test_usage_error_missing_input(self, capsys):
        assert main(["fit", "--alpha", "0.5"]) == 2

    def test_parse_error_missing_file(self, capsys):
        assert main(["fit", "--input", "/nonexistent.csv"]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["exit_code"] == 3

    def test_numeric_degeneracy(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n" + "\n".join(f"2,{i}" for i in range(8)) + "\n")
        assert main(["fit", "--input", str(path), "--alpha", "0.5"]) == 4

    def test_overflow_keeps_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = ["x,y"] + [f"{i},{i % 5 + 1}e160" for i in range(12)]
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--input", str(path), "--starts", "30"]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "AllStartsDegenerate"
        assert err["message"].startswith(
            "all 30 elemental starts failed: 0 hit rank-deficient subsets, 30 "
            "reached a non-finite objective")

    def test_resource_cap(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        rows = ["x,y"] + [f"{i},{2 * i + (i % 3) * 0.1}" for i in range(40)]
        path.write_text("\n".join(rows) + "\n")
        assert main(["enumerate", "--input", str(path), "--alpha", "0.5"]) == 5

    def test_csv_format_needs_table(self, outlier_csv, monkeypatch, capsys):
        # Rejected before the command runs: any work would raise here.
        def ran(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("load_dataset", "_read_numeric_csv", "fit",
                     "exact_enumerate", "trim_constants"):
            monkeypatch.setattr(f"trimreg.cli.{name}", ran)
        for command in ("fit", "enumerate", "influence", "ci-normal"):
            argv = [command, "--input", outlier_csv, "--format", "csv"]
            assert main(argv) == 2
            assert "invalid choice: 'csv'" in capsys.readouterr().err
        assert main(["constants", "--sigma", "1", "--format", "csv"]) == 2
        assert run(RunConfig(command="fit", input=outlier_csv, fmt="csv")) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError" and "--format csv" in err["message"]

    @pytest.mark.parametrize("argv, message", [
        (["simulate-consistency", "--threads", "-3"], "--threads must be 0"),
        (["simulate-normality", "--threads", "-1"], "--threads must be 0"),
        (["ci-bootstrap", "--m", "9"], "--m must be at least 10"),
        (["ci-bootstrap", "--gamma", "1.5"], "--gamma must be in (0, 1)"),
        (["ci-normal", "--sigma", "1", "--gamma", "0"], "--gamma must be in (0, 1)"),
    ])
    def test_arguments_checked_before_any_fit(self, argv, message, outlier_csv,
                                              monkeypatch, capsys):
        def ran(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("load_dataset", "fit", "bootstrap_fits", "run_consistency_study",
                     "run_normality_study"):
            monkeypatch.setattr(f"trimreg.cli.{name}", ran)
        if argv[0] in ("ci-bootstrap", "ci-normal"):
            argv = argv + ["--input", outlier_csv]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError" and message in err["message"]

    def test_format_choices(self):
        parser = _build_parser()
        for command in _COMMAND_FIELDS:
            assert parser.parse_args([command, "--format", "json"]).fmt == "json"
        for command in _TABLES:
            assert parser.parse_args([command, "--format", "csv"]).fmt == "csv"

    def test_bad_alpha(self, outlier_csv, capsys):
        assert main(["fit", "--input", outlier_csv, "--alpha", "0.3"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["fit", "--bogus", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--m", "5"],
        ["fit", "--threads", "2"],
        ["fit", "--n-grid", "40,80"],
        ["fit", "--beta0", "1,2"],
        ["enumerate", "--seed", "1"],
        ["ci-bootstrap", "--threads", "2"],
        ["ci-normal", "--m", "5"],
        ["constants", "--input", "x.csv"],
        ["simulate-normality", "--n-grid", "40,80"],
        ["simulate-consistency", "--n", "40"],
    ])
    def test_flag_the_command_does_not_read(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_number_list(self, capsys):
        assert main(["simulate-consistency", "--n-grid", "40,x"]) == 2
        assert "invalid int list value" in capsys.readouterr().err


class TestDeterminism:
    def test_fit_rerun_identical(self, outlier_csv, tmp_path):
        out = tmp_path / "same.json"
        args = ["fit", "--input", outlier_csv, "--alpha", "0.5", "--seed", "5",
                "--output", str(out)]
        texts = []
        for _ in range(2):
            assert main(args) == 0
            doc = _read_artifact(out)
            doc.pop("timestamp", None)
            texts.append(json.dumps(doc, sort_keys=True))
        assert texts[0] == texts[1]

    def test_run_config_api(self, outlier_csv, tmp_path):
        out = tmp_path / "api.json"
        cfg = RunConfig(command="fit", input=outlier_csv, alpha=0.5,
                        seed=2, output=str(out))
        assert run(cfg) == 0
        assert _read_artifact(out)["config"]["alpha"] == 0.5
