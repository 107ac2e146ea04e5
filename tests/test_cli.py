import csv
import json
import math
import time
from fractions import Fraction

import pytest

from maxpe import cli, inference, lehmann
from maxpe.cli import fraction_to_decimal, main
from maxpe.errors import NumericalError


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFractionFormatting:
    def test_exact_decimal_rendering(self):
        assert fraction_to_decimal(Fraction(1, 3)).startswith("0.333333333333333333")
        assert fraction_to_decimal(Fraction(1)) == "1." + "0" * 18
        assert fraction_to_decimal(Fraction(2, 3))[:20] == "0.666666666666666667"


class TestTestCommand:
    def test_insulation_direct(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "test",
                "--training", str(data_dir / "type1.txt"),
                "--test", str(data_dir / "type2.txt"),
                "--r", "3", "--s", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "ties" in capsys.readouterr().err
        row = _read_csv(out)[0]
        assert row["max_sum"] == "10"
        assert row["c"] == "9"
        assert row["outcome"] == "reject"
        assert row["count_sum"] == "32"

    def test_insulation_swapped_via_columns(self, data_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "test",
                "--training", str(data_dir / "insulation.csv"),
                "--training-col", "type2",
                "--test", str(data_dir / "insulation.csv"),
                "--test-col", "type1",
                "--r", "1", "--s", "1",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        result = payload["results"][0]
        assert result["max_sum"] == 10
        assert result["c"] == 6
        assert result["outcome"] == "reject"
        assert payload["config"]["subcommand"] == "test"

    def test_rates_select_cell_counts(self, data_dir, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "test",
                "--training", str(data_dir / "type1.txt"),
                "--test", str(data_dir / "type2.txt"),
                "--rho1", "0.1", "--rho2", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        row = _read_csv(out)[0]
        assert row["r"] == "3" and row["s"] == "3"

    def test_duplicated_file_still_runs(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "test",
                "--training", str(data_dir / "type1.txt"),
                "--test", str(data_dir / "type1.txt"),
                "--r", "2", "--s", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "ties" in capsys.readouterr().err
        assert _read_csv(out)[0]["outcome"] in ("accept", "reject", "randomized")

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\noops\n3.0\n")
        good = tmp_path / "good.txt"
        good.write_text("1.0\n2.0\n3.0\n")
        code = main(
            ["test", "--training", str(bad), "--test", str(good), "--r", "1", "--s", "1"]
        )
        assert code == 2

    def test_constraint_violation_exits_3(self, data_dir):
        code = main(
            [
                "test",
                "--training", str(data_dir / "type1.txt"),
                "--test", str(data_dir / "type2.txt"),
                "--r", "15", "--s", "15",
            ]
        )
        assert code == 3

    def test_large_samples_exit_4(self, tmp_path, capsys):
        training = tmp_path / "training.txt"
        training.write_text("".join(f"{2 * k}\n" for k in range(2000)))
        test = tmp_path / "test.txt"
        test.write_text("".join(f"{2 * k + 1}\n" for k in range(2000)))
        code = main(
            ["test", "--training", str(training), "--test", str(test), "--r", "3", "--s", "3"]
        )
        assert code == 4
        assert "budget error" in capsys.readouterr().err

    def test_missing_column_selector_exits_2(self, data_dir):
        code = main(
            [
                "test",
                "--training", str(data_dir / "insulation.csv"),
                "--test", str(data_dir / "insulation.csv"),
                "--test-col", "type2",
                "--r", "1", "--s", "1",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("column", ["-3", "-1"])
    def test_negative_column_index_exits_2(self, tmp_path, capsys, column):
        two = tmp_path / "two.csv"
        two.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        code = main(
            [
                "test",
                "--training", str(two), "--training-col", column,
                "--test", str(two), "--test-col", "1",
                "--r", "1", "--s", "1",
            ]
        )
        assert code == 2
        assert "input error:" in capsys.readouterr().err


class TestReadSampleColumn:
    def test_empty_cell_keeps_later_cells_in_their_columns(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1,2\n,3\n4,5\n")
        assert cli.read_sample_column(str(path), "b") == [2.0, 3.0, 5.0]

    def test_columns_may_end_early(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3,4\n5,\n6\n")
        assert cli.read_sample_column(str(path), "a") == [1.0, 3.0, 5.0, 6.0]
        assert cli.read_sample_column(str(path), "b") == [2.0, 4.0]

    def test_value_after_a_missing_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1,2\n,3\n4,5\n")
        code = main(
            [
                "test",
                "--training", str(path), "--training-col", "a",
                "--test", str(path), "--test-col", "b",
                "--r", "1", "--s", "1",
            ]
        )
        assert code == 2
        assert "'4' after the column's end at row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["a", "b"])
    def test_whitespace_row_missing_a_leading_cell_exits_2(
        self, tmp_path, data_dir, capsys, column
    ):
        # split on whitespace, "   3" would read as a row whose first cell is 3
        path = tmp_path / "gap.txt"
        path.write_text("a b\n1 2\n   3\n4 5\n")
        with pytest.raises(cli.InputFormatError, match="line 4: 2 whitespace-separated cells"):
            cli.read_sample_column(str(path), column)
        code = main(
            [
                "test",
                "--training", str(path), "--training-col", column,
                "--test", str(data_dir / "type2.txt"),
                "--r", "1", "--s", "1",
            ]
        )
        assert code == 2
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("role", ["training", "test"])
    def test_non_finite_cell_exits_2(self, tmp_path, data_dir, capsys, cell, role):
        path = tmp_path / "bad.txt"
        path.write_text(f"1.5\n{cell}\n2.5\n")
        good = str(data_dir / "type2.txt")
        x, y = (str(path), good) if role == "training" else (good, str(path))
        code = main(["test", "--training", x, "--test", y, "--r", "1", "--s", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {path} row 2: non-finite cell {cell!r}\n"
        )

    def test_comma_rows_keep_their_cells_after_a_short_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n4,5\n")
        assert cli.read_sample_column(str(path), "a") == [1.0, 3.0, 4.0]
        with pytest.raises(cli.InputFormatError, match="after the column's end"):
            cli.read_sample_column(str(path), "b")


class TestNullDistCommand:
    def test_tiny_table(self, tmp_path):
        out = tmp_path / "dist.csv"
        code = main(
            ["null-dist", "--m", "1", "--n", "2", "--r", "1", "--s", "1",
             "--out", str(out)]
        )
        assert code == 0
        rows = _read_csv(out)
        assert [row["t"] for row in rows] == ["0", "1"]
        assert rows[0]["pmf"].startswith("0.3333333333333333")
        assert rows[1]["cdf"] == "1." + "0" * 18

    def test_reparsed_pmf_sums_to_one(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert (
            main(["null-dist", "--m", "10", "--n", "10", "--r", "1", "--s", "1",
                  "--out", str(out)]) == 0
        )
        rows = _read_csv(out)
        total = math.fsum(float(row["pmf"]) for row in rows)
        assert abs(total - 1.0) <= 1e-12
        assert float(rows[-1]["cdf"]) == 1.0

    def test_reference_tail(self, tmp_path):
        out = tmp_path / "dist.csv"
        main(["null-dist", "--m", "10", "--n", "10", "--r", "1", "--s", "1",
              "--out", str(out)])
        rows = _read_csv(out)
        tail_at_6 = 1.0 - float(rows[5]["cdf"])
        assert round(tail_at_6, 2) == 0.03

    def test_truncated_support(self, tmp_path):
        out = tmp_path / "dist.csv"
        main(["null-dist", "--m", "30", "--n", "30", "--r", "2", "--s", "2",
              "--t-max", "5", "--out", str(out)])
        assert len(_read_csv(out)) == 6

    def test_invalid_parameters_exit_3(self):
        assert main(["null-dist", "--m", "5", "--n", "3", "--r", "2", "--s", "2"]) == 3

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dist.csv"
        code = main(["null-dist", "--m", "5", "--n", "5", "--r", "1", "--s", "1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(out) in err
        assert len(err.splitlines()) == 1


class TestCriticalValuesCommand:
    def test_rate_grid_row(self, tmp_path):
        out = tmp_path / "crit.csv"
        code = main(
            ["critical-values", "--m", "10", "--n", "10", "--rho", "0.05",
             "--out", str(out)]
        )
        assert code == 0
        row = _read_csv(out)[0]
        assert (row["r"], row["s"], row["c"]) == ("1", "1", "6")
        assert row["alpha1"] == "0.0286"
        assert row["alpha2"] == "0.0704"

    def test_square_grid_is_symmetric(self, tmp_path):
        out = tmp_path / "crit.csv"
        code = main(
            ["critical-values", "--m", "10", "--n", "10",
             "--r", "1,2,3,4", "--s", "1,2,3,4", "--out", str(out)]
        )
        assert code == 0
        rows = _read_csv(out)
        assert len(rows) == 16
        table = {(row["r"], row["s"]): (row["c"], row["alpha1"], row["alpha2"])
                 for row in rows}
        for r in "1234":
            for s in "1234":
                assert table[(r, s)] == table[(s, r)]

    def test_single_cell(self, tmp_path):
        out = tmp_path / "crit.csv"
        assert main(
            ["critical-values", "--m", "20", "--n", "20", "--r", "1", "--s", "3",
             "--out", str(out)]
        ) == 0
        rows = _read_csv(out)
        assert len(rows) == 1 and rows[0]["c"] == "8"


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-values", "--m", "10", "--n", "10", "--rho", "0.05", "--seed", "1"],
        ["critical-values", "--m", "5", "--n", "5", "--rho", "0.1", "--reps", "10"],
        ["null-dist", "--m", "5", "--n", "5", "--r", "1", "--s", "1", "--seed", "1"],
        ["null-dist", "--m", "5", "--n", "5", "--r", "1", "--s", "1", "--reps", "10"],
        ["test", "--training", "x.txt", "--test", "y.txt", "--reps", "10"],
    ],
    ids=["critical-values-seed", "critical-values-reps", "null-dist-seed", "null-dist-reps",
         "test-reps"],
)
def test_options_nothing_reads_exit_2(argv, capsys):
    # refused by argparse rather than parsed and ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-values", "--m=", "--n", "10", "--r", "1", "--s", "1"],
        ["power", "--m", "10", "--n", "10", "--r=", "--s=", "--gamma", "2", "--method", "exact"],
        ["power", "--m", "10", "--n", "10", "--r", "1", "--s", "1", "--gamma", ","],
    ],
    ids=["critical-values-m", "power-exact-r-s", "power-gamma"],
)
def test_empty_list_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "needs at least one value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-values", "--m", "10", "--n", "10", "--rho", "0.05", "--r", "3", "--s", "3"],
        ["test", "--training", "{data}/type1.txt", "--test", "{data}/type2.txt",
         "--r", "1", "--s", "1", "--rho1", ".5", "--rho2", ".5"],
    ],
    ids=["critical-values", "test"],
)
def test_orders_and_rates_together_exit_3(argv, data_dir, capsys):
    assert main([arg.format(data=data_dir) for arg in argv]) == 3
    assert "not both" in capsys.readouterr().err


class TestPowerCommand:
    def test_exact_lehmann_grid(self, tmp_path):
        out = tmp_path / "power.csv"
        code = main(
            ["power", "--m", "10", "--n", "10", "--r", "1", "--s", "1",
             "--gamma", "1,2", "--method", "exact", "--out", str(out)]
        )
        assert code == 0
        rows = _read_csv(out)
        assert float(rows[0]["power"]) == pytest.approx(0.05, abs=1e-6)
        assert float(rows[1]["power"]) == pytest.approx(0.1908, abs=0.001)
        assert rows[0]["std_error"] == ""

    def test_mc_null_row(self, tmp_path):
        out = tmp_path / "power.csv"
        code = main(
            ["power", "--m", "10", "--n", "10", "--r", "1,2", "--s", "1,2",
             "--gamma", "1", "--reps", "20000", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        for row in _read_csv(out):
            assert float(row["power"]) == pytest.approx(0.05, abs=0.006)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["power", "--m", "10", "--n", "10", "--r", "1", "--s", "1",
                "--gamma", "2,5", "--reps", "5000", "--seed", "77"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_curve_files(self, tmp_path):
        curves = tmp_path / "curves"
        out = tmp_path / "power.csv"
        code = main(
            ["power", "--m", "8", "--n", "8", "--r", "1,2", "--s", "1,2",
             "--gamma", "2,5", "--reps", "2000", "--seed", "3",
             "--curve-dir", str(curves), "--out", str(out)]
        )
        assert code == 0
        files = sorted(p.name for p in curves.iterdir())
        assert files == ["curve_T_r1_s1.csv", "curve_T_r2_s2.csv"]
        rows = _read_csv(curves / "curve_T_r1_s1.csv")
        assert [float(row["param"]) for row in rows] == [2.0, 5.0]

    def test_curve_dir_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            ["power", "--m", "8", "--n", "8", "--r", "1", "--s", "1",
             "--gamma", "2", "--reps", "1000", "--curve-dir", str(blocker / "curves")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and len(err.splitlines()) == 1

    def test_exact_budget_exits_4(self, capsys):
        start = time.perf_counter()
        code = main(
            ["power", "--m", "400", "--n", "400", "--r", "40", "--s", "40",
             "--gamma", "2", "--method", "exact"]
        )
        assert code == 4
        assert "budget error" in capsys.readouterr().err
        assert time.perf_counter() - start < 1.0  # refused before the null table

    def test_exact_four_cells_each_side_runs(self, tmp_path):
        out = tmp_path / "power.csv"
        code = main(
            ["power", "--m", "20", "--n", "20", "--r", "4", "--s", "4",
             "--gamma", "2", "--method", "exact", "--out", str(out)]
        )
        assert code == 0
        assert 0.05 < float(_read_csv(out)[0]["power"]) < 1.0

    def test_numerical_error_exits_5(self, monkeypatch, capsys):
        def fail(*args):
            raise NumericalError("pmf sums to 1.1")

        monkeypatch.setattr(lehmann, "exact_power", fail)
        code = main(
            ["power", "--m", "8", "--n", "8", "--r", "1", "--s", "1",
             "--gamma", "2", "--method", "exact"]
        )
        assert code == 5
        assert capsys.readouterr().err.startswith("numerical error: pmf sums to 1.1")

    def test_weibull_grid_runs(self, tmp_path):
        out = tmp_path / "power.csv"
        code = main(
            ["power", "--m", "8", "--n", "8", "--r", "1", "--s", "1",
             "--alternative", "weibull", "--shape", "2.5", "--scale", "3",
             "--reps", "2000", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert _read_csv(out)[0]["alternative"] == "weibull(shape=2.5, scale=3)"

    @pytest.mark.parametrize(
        "options,needs",
        [
            ([], "lehmann alternative needs --gamma values"),
            (["--alternative", "exponential"], "exponential alternative needs --rate values"),
            (["--alternative", "weibull", "--scale", "2"],
             "weibull alternative needs --shape and --scale values"),
            (["--alternative", "weibull", "--shape", "2"],
             "weibull alternative needs --shape and --scale values"),
        ],
        ids=["lehmann", "exponential", "weibull-shape", "weibull-scale"],
    )
    def test_missing_grid_exits_3(self, options, needs, capsys):
        assert main(["power", "--m", "8", "--n", "8", "--r", "1", "--s", "1", *options]) == 3
        assert capsys.readouterr().err == f"parameter error: {needs}\n"

    @pytest.mark.parametrize(
        "options,stray",
        [
            (["--gamma", "2", "--rate", "3"], "lehmann alternative takes no --rate"),
            (["--alternative", "exponential", "--rate", "2", "--shape", "2"],
             "exponential alternative takes no --shape"),
            (["--alternative", "weibull", "--shape", "2", "--scale", "2", "--gamma", "2",
              "--rate", "3"], "weibull alternative takes no --gamma or --rate"),
        ],
        ids=["lehmann", "exponential", "weibull"],
    )
    def test_other_kinds_options_exit_3(self, options, stray, capsys):
        argv = ["power", "--m", "10", "--n", "10", "--r", "1", "--s", "1", "--reps", "1000"]
        assert main([*argv, *options]) == 3
        assert capsys.readouterr().err == f"parameter error: {stray}\n"

    @pytest.mark.parametrize("gamma,code", [("5e-324", 0), ("1e308", 5)])
    def test_extreme_exact_gamma_exit_code(self, gamma, code):
        # 5e-324 once lost gamma (n - k) to cancellation in a Beta argument;
        # at 1e308, m + gamma n overflows
        argv = ["power", "--m", "30", "--n", "30", "--r", "10", "--s", "10",
                "--gamma", gamma, "--method", "exact"]
        assert main(argv) == code


class TestCompareCommand:
    def test_three_statistics(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", "--m", "10", "--n", "10", "--r", "1", "--s", "1",
             "--gamma", "3", "--reps", "5000", "--seed", "13",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        stats = [row["statistic"] for row in payload["results"]]
        assert stats == ["T", "V", "Q"]
        assert payload["config"]["statistics"] == ["T", "V", "Q"]

    def test_unknown_statistic_exits_3(self):
        code = main(
            ["compare", "--m", "10", "--n", "10", "--r", "1", "--s", "1",
             "--gamma", "2", "--statistics", "T,W"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "shape,error",
        [
            (["--m", "10", "--n", "12", "--r", "1", "--s", "1"],
             "the count-sum statistic V requires r == s and m == n"),
            (["--m", "10", "--n", "10", "--r", "1,6", "--s", "1,6"],
             "r + s = 12 exceeds the test-sample size n = 10"),
        ],
        ids=["V-shape", "later-pair"],
    )
    def test_grid_checked_before_any_block(self, shape, error, monkeypatch, capsys):
        def fail(*args):
            raise AssertionError("a Monte-Carlo block was drawn")

        monkeypatch.setattr(inference, "_histograms", fail)
        assert main(["compare", *shape, "--gamma", "2", "--reps", "1000"]) == 3
        assert capsys.readouterr().err == f"parameter error: {error}\n"


def test_power_and_compare_csv_match_pinned_outputs(data_dir, capsys):
    """`power --method exact` and seeded `power`/`compare` grids under each
    kind print the stdout recorded before `power` and `compare` shared one
    command, one row builder and one grid loop."""
    pinned = json.loads((data_dir / "pinned_outputs.json").read_text())["cli"]
    for case in pinned:
        assert main(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"]
