import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

import tiledive.cli
from tiledive import background_tiles, distance
from tiledive.cli import main
from tiledive.io import read_dataset, read_tileset

from conftest import record_fits

DATA = "5 5\n1-2 5\n1-2\n4-5\n3-5\n3-5\n"

T_SET = (
    '{"rows": [1, 2], "cols": [1, 2], "freq": 1.0}\n'
    '{"rows": [4, 5], "cols": [3, 4, 5], "freq": 1.0}\n'
)
U_SET = (
    '{"rows": [1, 2], "cols": [1, 2], "freq": 1.0}\n'
    '{"rows": [3, 4, 5], "cols": [1, 2], "freq": 0.0}\n'
    '{"rows": [3, 4, 5], "cols": [4, 5], "freq": 1.0}\n'
)
B_SET = '{"rows": [2, 3, 4, 5], "cols": [1, 2, 3, 4, 5], "freq": 0.5}\n'


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text(DATA)
    (tmp_path / "t.tiles").write_text(T_SET)
    (tmp_path / "u.tiles").write_text(U_SET)
    (tmp_path / "b.tiles").write_text(B_SET)
    return tmp_path


class TestDistance:
    def test_tsv_value(self, runner, workdir):
        result = runner.invoke(
            main,
            ["distance", "--data", "data.txt", "--left", "t.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "0.555556"

    def test_jsonl_fields(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "distance", "--data", "data.txt", "--left", "t.tiles",
                "--right", "u.tiles", "--format", "jsonl",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["distance"] == pytest.approx(5 / 9, abs=1e-9)
        assert payload["used_jaccard_path"] is True
        assert payload["kl_joint_background"] >= 0.0

    def test_with_background_file(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "distance", "--data", "data.txt", "--left", "t.tiles",
                "--right", "u.tiles", "--background", "b.tiles",
                "--tolerance", "1e-12",
            ],
        )
        assert result.exit_code == 0
        assert 0.600 <= float(result.output) <= 0.610

    def test_with_background_preset(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "distance", "--data", "data.txt", "--left", "t.tiles",
                "--right", "u.tiles", "--background", "columns",
            ],
        )
        assert result.exit_code == 0
        assert 0.0 <= float(result.output) <= 2.0

    def test_output_file(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "distance", "--data", "data.txt", "--left", "t.tiles",
                "--right", "u.tiles", "--output", "out.txt",
            ],
        )
        assert result.exit_code == 0
        assert (workdir / "out.txt").read_text().strip() == "0.555556"

    @pytest.mark.parametrize("right, redirect, text", [
        ("u.tiles", contextlib.redirect_stdout, "0.555556\n"),
        ("clash.tiles", contextlib.redirect_stderr, "numerical failure: tile #3 "),
    ], ids=["output", "failure"])
    def test_in_process_call_keeps_no_stream_alive(self, workdir, right, redirect, text):
        # a caller that redirects a stream for each call gets it back freed
        (workdir / "clash.tiles").write_text('{"rows": [2, 3], "cols": [2, 3], "freq": 0.0}\n')
        out = io.StringIO()
        with redirect(out), contextlib.suppress(SystemExit):
            main.main(["distance", "--data", "data.txt", "--left", "t.tiles",
                       "--right", right], standalone_mode=False)
        assert out.getvalue().startswith(text)
        alive = weakref.ref(out)
        del out
        gc.collect()
        assert alive() is None


class TestDistanceMatrix:
    def test_symmetric_zero_diagonal(self, runner, workdir):
        result = runner.invoke(
            main,
            ["distance-matrix", "t.tiles", "u.tiles", "b.tiles", "--data", "data.txt"],
        )
        assert result.exit_code == 0
        lines = result.output.rstrip("\n").splitlines()
        assert lines[0].split("\t") == ["", "t.tiles", "u.tiles", "b.tiles"]
        grid = [[float(v) for v in line.split("\t")[1:]] for line in lines[1:]]
        assert grid[0][0] == 0.0
        assert grid[1][1] == 0.0
        # the background set alone is indistinguishable from uniform, so
        # its self-distance falls into the degenerate everything-is-1 case
        assert grid[2][2] == 1.0
        for i in range(3):
            for j in range(3):
                assert grid[i][j] == pytest.approx(grid[j][i], abs=1e-9)
        assert grid[0][1] == pytest.approx(5 / 9, abs=1e-6)

    def test_equals_per_pair_distance_with_shared_fits(self, runner, workdir, monkeypatch):
        names = ["t.tiles", "u.tiles", "b.tiles"]
        data = read_dataset("data.txt")
        sets = [read_tileset(name, data) for name in names]
        bg = background_tiles("density", data)
        expected = [[distance(s, u, bg).value.hex() for u in sets] for s in sets]

        fits = record_fits(monkeypatch)
        result = runner.invoke(
            main, ["distance-matrix", *names, "--data", "data.txt", "--background", "density"]
        )
        assert result.exit_code == 0
        rows = result.output.rstrip("\n").splitlines()[1:]
        assert [[float(v).hex() for v in row.split("\t")[1:]] for row in rows] == expected
        # each set+bg and bg once, one joint per pair off the diagonal
        assert len(fits) == 3 + 1 + 3


class TestConvert:
    def test_density(self, runner, workdir):
        result = runner.invoke(main, ["convert", "density", "--data", "data.txt"])
        assert result.exit_code == 0
        tile = json.loads(result.output)
        assert tile["freq"] == pytest.approx(13 / 25)
        assert len(tile["rows"]) == 5 and len(tile["cols"]) == 5

    def test_margins(self, runner, workdir):
        result = runner.invoke(
            main, ["convert", "margins", "--data", "data.txt", "--axis", "columns"]
        )
        assert result.exit_code == 0
        freqs = [json.loads(line)["freq"] for line in result.output.strip().splitlines()]
        assert freqs == pytest.approx([2 / 5, 2 / 5, 2 / 5, 3 / 5, 4 / 5])

    def test_itemsets(self, runner, workdir):
        (workdir / "sets.txt").write_text("1 2\n4 5\n")
        result = runner.invoke(
            main, ["convert", "itemsets", "sets.txt", "--data", "data.txt"]
        )
        assert result.exit_code == 0
        tiles = [json.loads(line) for line in result.output.strip().splitlines()]
        assert tiles[0]["rows"] == [1, 2]
        assert tiles[1]["rows"] == [3, 4, 5]
        assert all(t["freq"] == 1.0 for t in tiles)

    def test_clustering(self, runner, workdir):
        (workdir / "clusters.txt").write_text("1 1\n2 1\n3 2\n4 2\n5 2\n")
        result = runner.invoke(
            main,
            [
                "convert", "clustering", "clusters.txt", "--data", "data.txt",
                "--mode", "single-tile",
            ],
        )
        assert result.exit_code == 0
        tiles = [json.loads(line) for line in result.output.strip().splitlines()]
        assert [t["rows"] for t in tiles] == [[1, 2], [3, 4, 5]]

    def test_round_trip_through_distance(self, runner, workdir):
        result = runner.invoke(
            main,
            ["convert", "margins", "--data", "data.txt", "--output", "cols.tiles"],
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            [
                "distance", "--data", "data.txt", "--left", "cols.tiles",
                "--right", "cols.tiles",
            ],
        )
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(0.0, abs=1e-6)


class TestRedescribeAndRank:
    def test_redescribe_steps(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "redescribe", "--data", "data.txt", "--target", "t.tiles",
                "--candidates", "u.tiles", "--tolerance", "1e-12",
            ],
        )
        assert result.exit_code == 0
        steps = [json.loads(line) for line in result.output.strip().splitlines()]
        assert [s["tile"]["rows"] for s in steps] == [[1, 2], [3, 4, 5]]
        assert steps[0]["distance"] == pytest.approx(0.6, abs=1e-9)
        assert steps[1]["distance"] == pytest.approx(1 / 3, abs=1e-9)

    def test_redescribe_without_a_gain_prints_step_zero(self, runner, workdir):
        # the only candidate is disjoint from the target: Jaccard distance 1
        (workdir / "far.tiles").write_text('{"rows": [3], "cols": [3], "freq": 1.0}\n')
        result = runner.invoke(
            main,
            ["redescribe", "--data", "data.txt", "--target", "t.tiles", "--candidates", "far.tiles"],
        )
        assert result.exit_code == 0
        assert [json.loads(line) for line in result.output.strip().splitlines()] == [
            {"step": 0, "tile": None, "distance": 1.0}
        ]

    def test_rank_reaches_zero(self, runner, workdir):
        result = runner.invoke(
            main,
            ["rank", "--data", "data.txt", "--tiles", "u.tiles", "--mode", "exact"],
        )
        assert result.exit_code == 0
        steps = [json.loads(line) for line in result.output.strip().splitlines()]
        assert len(steps) == 3
        assert steps[-1]["distance_after"] == pytest.approx(0.0, abs=1e-6)
        assert sum(s["gain"] for s in steps) == pytest.approx(1.0, abs=1e-6)

    def test_rank_heuristic_mode(self, runner, workdir):
        result = runner.invoke(
            main,
            ["rank", "--data", "data.txt", "--tiles", "u.tiles", "--mode", "heuristic"],
        )
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 3


class TestModelDump:
    def test_grid_shape_and_values(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "model", "dump", "--data", "data.txt", "--tiles", "b.tiles",
                "--tolerance", "1e-12",
            ],
        )
        assert result.exit_code == 0
        rows = [[float(v) for v in line.split("\t")] for line in result.output.strip().splitlines()]
        assert len(rows) == 5 and all(len(r) == 5 for r in rows)
        assert all(v == pytest.approx(0.5) for row in rows for v in row)


class TestExitCodes:
    def test_missing_file_is_input_error(self, runner, workdir):
        result = runner.invoke(
            main,
            ["distance", "--data", "data.txt", "--left", "nope.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 2

    def test_malformed_dataset_is_input_error(self, runner, workdir):
        (workdir / "bad.txt").write_text("not a header\n")
        result = runner.invoke(
            main,
            ["distance", "--data", "bad.txt", "--left", "t.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 2

    def test_extra_dataset_row_is_input_error(self, runner, workdir):
        (workdir / "long.txt").write_text(DATA + "1 2\n")
        result = runner.invoke(
            main,
            ["distance", "--data", "long.txt", "--left", "t.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 2
        assert "long.txt:7" in result.output

    @pytest.mark.parametrize("args, name, text", [
        (["distance", "--left", "t.tiles", "--right", "u.tiles"], "data.txt", "2 3\nx\n1\n"),
        (["convert", "itemsets", "bad.txt"], "bad.txt", "1 2\n4 x\n"),
        (["convert", "clustering", "bad.txt"], "bad.txt", "1 1\n2 one\n"),
    ], ids=["dataset", "itemsets", "clustering"])
    def test_bad_integer_names_line(self, runner, workdir, args, name, text):
        (workdir / name).write_text(text)
        result = runner.invoke(main, [*args, "--data", "data.txt"])
        assert result.exit_code == 2
        assert f"{name}:2: " in result.output

    # An id is a run of ASCII digits, in every file and at both ends of
    # a range, though `int` takes a "_" separator, a "+" sign and the
    # digits of other scripts (U+0663 is ARABIC-INDIC DIGIT THREE).
    @pytest.mark.parametrize("args, name, text, line", [
        (["distance", "--left", "t.tiles", "--right", "u.tiles"], "data.txt", "2 12\n1_0\n\u0663 +4\n", 2),
        (["distance", "--left", "t.tiles", "--right", "u.tiles"], "data.txt", "2 12\n10\n\u0663 4\n", 3),
        (["distance", "--left", "t.tiles", "--right", "u.tiles"], "data.txt", "2 12\n10\n3 +4\n", 3),
        (["distance", "--left", "t.tiles", "--right", "u.tiles"], "data.txt", "2 12\n10\n1-+4\n", 3),
        (["convert", "itemsets", "bad.txt"], "bad.txt", "1 2\n1_0 2\n", 2),
        (["convert", "itemsets", "bad.txt"], "bad.txt", "1 2\n\u0663-4\n", 2),
        (["convert", "clustering", "bad.txt"], "bad.txt", "1 1\n2 +1\n", 2),
        (["distance", "--left", "bad.tiles", "--right", "u.tiles"], "bad.tiles",
         '{"rows": [1], "cols": [1]}\n{"rows": ["+1"], "cols": [1]}\n', 2),
    ], ids=["dataset-underscore", "dataset-arabic-indic", "dataset-plus", "dataset-range-plus",
            "itemset-underscore", "itemset-range-arabic-indic", "cluster-plus", "tileset-plus"])
    def test_id_that_is_not_ascii_digits_names_line(self, runner, workdir, args, name, text, line):
        (workdir / name).write_text(text, encoding="utf-8")
        result = runner.invoke(main, [*args, "--data", "data.txt"])
        assert result.exit_code == 2
        assert f"{name}:{line}: bad id" in result.output

    @pytest.mark.parametrize("option, name, text", [
        ("--data", "bad.txt", b"2 3\n1 \xff2\n3\n"),
        ("--left", "bad.tiles", b'{"rows": [1], "cols": [1]}\n{"rows": [\xff1], "cols": [1]}\n'),
    ], ids=["data", "left"])
    def test_non_utf8_file_is_input_error(self, runner, workdir, option, name, text):
        (workdir / name).write_bytes(text)
        args = {"--data": "data.txt", "--left": "t.tiles", "--right": "u.tiles", option: name}
        result = runner.invoke(main, ["distance", *(x for pair in args.items() for x in pair)])
        assert result.exit_code == 2
        assert f"{name}:2: not UTF-8 text" in result.output

    def test_clustering_row_listed_twice_is_input_error(self, runner, workdir):
        (workdir / "labels.txt").write_text("1 1\n2 1\n3 2\n1 2\n")
        result = runner.invoke(main, ["convert", "clustering", "labels.txt", "--data", "data.txt"])
        assert result.exit_code == 2
        assert "labels.txt:4: " in result.output

    def test_out_of_range_tile_is_input_error(self, runner, workdir):
        (workdir / "oob.tiles").write_text('{"rows": [1], "cols": [99], "freq": 1.0}\n')
        result = runner.invoke(
            main,
            ["distance", "--data", "data.txt", "--left", "oob.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 2

    def test_malformed_tile_value_is_input_error(self, runner, workdir):
        (workdir / "bad.tiles").write_text(T_SET + '{"rows": [1], "cols": [1], "freq": null}\n')
        result = runner.invoke(
            main,
            ["distance", "--data", "data.txt", "--left", "bad.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 2
        assert "bad.tiles:3" in result.output

    def test_unknown_background_is_input_error(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "distance", "--data", "data.txt", "--left", "t.tiles",
                "--right", "u.tiles", "--background", "mystery",
            ],
        )
        assert result.exit_code == 2

    def test_inconsistent_tiles_are_numerical_error(self, runner, workdir):
        (workdir / "clash.tiles").write_text(
            '{"rows": [1, 2], "cols": [1, 2], "freq": 0.3}\n'
            '{"rows": [1, 2], "cols": [1, 2], "freq": 0.7}\n'
        )
        result = runner.invoke(
            main,
            ["model", "dump", "--data", "data.txt", "--tiles", "clash.tiles"],
        )
        assert result.exit_code == 3

    def test_unattainable_noisy_tiles_are_numerical_error(self, runner, workdir):
        # entry (2, 2) wants more mass than its whole column carries
        (workdir / "small.txt").write_text("2 2\n1 2\n2\n")
        (workdir / "unattainable.tiles").write_text(
            '{"rows": [1, 2], "cols": [2], "freq": 0.1}\n'
            '{"rows": [2], "cols": [2], "freq": 0.9}\n'
            '{"rows": [1], "cols": [1, 2], "freq": 0.25}\n'
        )
        result = runner.invoke(
            main,
            ["model", "dump", "--data", "small.txt", "--tiles", "unattainable.tiles"],
        )
        assert result.exit_code == 3

    def test_clashing_exact_duplicates_in_one_file_are_numerical_error(self, runner, workdir):
        (workdir / "clash.tiles").write_text(
            '{"rows": [1, 2], "cols": [1, 2], "freq": 1.0}\n'
            '{"rows": [1, 2], "cols": [1, 2], "freq": 0.0}\n'
        )
        result = runner.invoke(
            main,
            ["distance", "--data", "data.txt", "--left", "clash.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 3

    def test_directory_as_data_is_input_error(self, runner, workdir):
        (workdir / "dir").mkdir()
        result = runner.invoke(
            main,
            ["distance", "--data", "dir", "--left", "t.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("tolerance", ["0", "nan", "inf", "1"])
    def test_nonpositive_tolerance_is_input_error(self, runner, workdir, tolerance):
        result = runner.invoke(
            main,
            [
                "distance", "--data", "data.txt", "--left", "t.tiles",
                "--right", "u.tiles", "--tolerance", tolerance,
            ],
        )
        assert result.exit_code == 2

    def test_ill_typed_tile_value_is_input_error(self, runner, workdir):
        (workdir / "bad.tiles").write_text('{"rows": "12", "cols": [1]}\n')
        result = runner.invoke(main, ["model", "dump", "--data", "data.txt", "--tiles", "bad.tiles"])
        assert result.exit_code == 2
        assert "bad.tiles:1:" in result.output

    def test_inconsistent_sets_are_numerical_error(self, runner, workdir):
        (workdir / "low.tiles").write_text('{"rows": [1, 2], "cols": [1, 2], "freq": 0.25}\n')
        (workdir / "high.tiles").write_text('{"rows": [1, 2], "cols": [1, 2], "freq": 0.75}\n')
        result = runner.invoke(
            main,
            ["distance", "--data", "data.txt", "--left", "low.tiles", "--right", "high.tiles"],
        )
        assert result.exit_code == 3

    def test_internal_value_error_is_not_an_input_error(self, runner, workdir, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(tiledive.cli, "distance", broken)
        result = runner.invoke(
            main,
            ["distance", "--data", "data.txt", "--left", "t.tiles", "--right", "u.tiles"],
        )
        assert result.exit_code not in (0, 2, 3)
        assert isinstance(result.exception, ValueError)
