import numpy as np
import pytest

from tiledive import BinaryDataset, read_dataset, read_tileset, write_dataset, write_tileset
from tiledive.errors import InputFormatError

from conftest import TOY_ROWS, make_set, random_dataset


def test_dataset_round_trip(tmp_path):
    data = BinaryDataset(TOY_ROWS)
    path = tmp_path / "toy.db"
    write_dataset(data, path)
    assert read_dataset(path) == data


def test_dataset_ranges_and_blank_rows(tmp_path):
    path = tmp_path / "d.db"
    path.write_text("3 6\n1-4 6\n\n2\n")
    data = read_dataset(path)
    assert data.entries.tolist() == [
        [1, 1, 1, 1, 0, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
    ]


def test_dataset_bad_header(tmp_path):
    path = tmp_path / "d.db"
    path.write_text("3\n1\n2\n3\n")
    with pytest.raises(InputFormatError):
        read_dataset(path)


def test_dataset_column_out_of_range(tmp_path):
    path = tmp_path / "d.db"
    path.write_text("1 3\n4\n")
    with pytest.raises(InputFormatError):
        read_dataset(path)


@pytest.mark.parametrize("row", ["x", "1-", "3-2"])
def test_dataset_bad_id_names_line(tmp_path, row):
    path = tmp_path / "d.db"
    path.write_text(f"2 3\n1\n{row}\n")
    with pytest.raises(InputFormatError, match=r"d\.db:3: "):
        read_dataset(path)


def test_dataset_rejects_lines_after_last_row(tmp_path):
    path = tmp_path / "d.db"
    path.write_text("2 3\n1\n2\n\n3\n")
    with pytest.raises(InputFormatError, match=r":5:"):
        read_dataset(path)
    path.write_text("2 3\n1\n2\n\n  \n")  # trailing blank lines are fine
    assert read_dataset(path).entries.tolist() == [[1, 0, 0], [0, 1, 0]]


def test_tileset_round_trip(tmp_path, toy_data, toy_tiles):
    ts = make_set(toy_data, *toy_tiles.values())
    path = tmp_path / "t.tiles"
    write_tileset(ts, path)
    back = read_tileset(path, dims=toy_data.dims)
    assert back == ts  # frequencies survive the trip bit-for-bit


def test_tileset_ranges_and_missing_freq(tmp_path, toy_data):
    path = tmp_path / "t.tiles"
    path.write_text('{"rows": ["2-5"], "cols": [1, "2-5"]}\n')
    ts = read_tileset(path, data=toy_data)
    assert ts.tiles[0].tile.rows == (2, 3, 4, 5)
    assert ts.tiles[0].alpha == 0.5  # annotated from the dataset


def test_tileset_missing_freq_without_data(tmp_path):
    path = tmp_path / "t.tiles"
    path.write_text('{"rows": [1], "cols": [1]}\n')
    with pytest.raises(InputFormatError):
        read_tileset(path, dims=(2, 2))


def test_tileset_invalid_json_names_line(tmp_path):
    path = tmp_path / "t.tiles"
    path.write_text('{"rows": [1], "cols": [1], "freq": 1}\nnot json\n')
    with pytest.raises(InputFormatError, match=":2"):
        read_tileset(path, dims=(2, 2))


@pytest.mark.parametrize("line", [
    '{"rows": [1], "cols": [1], "freq": null}',
    '{"rows": 1, "cols": [1]}',
])
def test_tileset_malformed_value_names_line(tmp_path, line):
    path = tmp_path / "t.tiles"
    path.write_text('{"rows": [1], "cols": [1], "freq": 1}\n' + line + "\n")
    with pytest.raises(InputFormatError, match=r"t\.tiles:2: "):
        read_tileset(path, dims=(2, 2))


def test_random_round_trips(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(10):
        data = random_dataset(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        path = tmp_path / f"r{i}.db"
        write_dataset(data, path)
        assert read_dataset(path) == data
