import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiledive import (
    BinaryDataset,
    ClusteringResult,
    FreqTile,
    ItemsetResult,
    Tile,
    TileSet,
    read_dataset,
    read_tileset,
    write_dataset,
    write_tileset,
)
from tiledive.errors import InputFormatError
from tiledive.io import _check_id, _expand_ids, read_clustering, read_itemsets

from conftest import TOY_ROWS, make_set


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


@pytest.mark.parametrize("text, message", [
    (b"", r"d\.db: empty dataset file"),
    (b"3 x\n1\n2\n3\n", r"d\.db:1: expected header 'n m'"),
    (b"3\n1\n2\n3\n", r"d\.db:1: expected header 'n m'"),
    (b"3 3 3\n1\n2\n3\n", r"d\.db:1: expected header 'n m'"),
    # a bad byte is an encoding error, not a malformed header
    (b"3 \xff3\n1\n2\n3\n", r"d\.db:1: not UTF-8 text"),
    (b"0 3\n", r"d\.db:1: dims must be positive"),
    (b"3 3\n1\n2\n", r"d\.db: expected 3 row lines, got 2"),
], ids=["empty-file", "non-integer-header", "one-token-header", "three-token-header",
        "non-utf8-header", "non-positive-dims", "too-few-rows"])
def test_dataset_header_and_row_count_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "d.db"
    path.write_bytes(text)
    with pytest.raises(InputFormatError, match=message):
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


def test_dataset_bad_ids_on_two_lines_names_the_first(tmp_path):
    path = tmp_path / "d.db"
    path.write_text("3 3\n1\n2 7\n9\n")
    with pytest.raises(InputFormatError, match=r"d\.db:3: column id 7 outside \[1, 3\]"):
        read_dataset(path)
    path.write_text("3 3\n1\n2 x\n1-9\n")
    with pytest.raises(InputFormatError, match=r"d\.db:3: bad id 'x'"):
        read_dataset(path)


# A range that runs past the dims is rejected before it is expanded, and
# an id outside them is named alone, not with the rest of its tile.
@pytest.mark.parametrize("name, text, where", [
    ("d.db", "5 5\n1\n1-2000000\n\n\n\n", r"d\.db:3: id range '1-2000000' runs past 5"),
    ("t.tiles", '{"rows": ["1-2000000"], "cols": [1]}\n', r"t\.tiles:1: id range '1-2000000' runs past 5"),
    ("t.tiles", '{"rows": [1], "cols": [2, "3-2000000"]}\n', r"t\.tiles:1: id range '3-2000000' runs past 5"),
    ("t.tiles", '{"rows": %s, "cols": [1]}\n' % list(range(1, 5001)), r"t\.tiles:1: row id 5000 does not fit in 5x5"),
], ids=["dataset-range", "tileset-rows-range", "tileset-cols-range", "tileset-long-id-list"])
def test_ids_past_the_dims_fail_fast_and_short(tmp_path, name, text, where):
    data = BinaryDataset(np.zeros((5, 5)))
    path = tmp_path / name
    path.write_text(text)
    started = time.perf_counter()
    with pytest.raises(InputFormatError, match=where) as err:
        read_dataset(path) if name == "d.db" else read_tileset(path, data)
    assert time.perf_counter() - started < 0.1
    assert len(str(err.value).replace(str(path), "")) < 200


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
    back = read_tileset(path, toy_data)
    assert back == ts  # frequencies survive the trip bit-for-bit


def test_empty_tileset_is_empty_file(tmp_path, toy_data):
    path = tmp_path / "t.tiles"
    write_tileset(TileSet(toy_data.dims), path)
    assert path.read_bytes() == b""
    assert read_tileset(path, toy_data) == TileSet(toy_data.dims)


def test_tileset_ranges_and_missing_freq(tmp_path, toy_data):
    path = tmp_path / "t.tiles"
    path.write_text('{"rows": ["2-5"], "cols": [1, "2-5"]}\n')
    ts = read_tileset(path, data=toy_data)
    assert ts.tiles[0].tile.rows == (2, 3, 4, 5)
    assert ts.tiles[0].alpha == 0.5  # annotated from the dataset


def test_tileset_invalid_json_names_line(tmp_path, toy_data):
    path = tmp_path / "t.tiles"
    path.write_text('{"rows": [1], "cols": [1], "freq": 1}\nnot json\n')
    with pytest.raises(InputFormatError, match=":2"):
        read_tileset(path, toy_data)


@pytest.mark.parametrize("line", [
    '{"rows": [1], "cols": [1], "freq": null}',
    '{"rows": 1, "cols": [1]}',
    '{"rows": "12", "cols": [1]}',
    '{"rows": [true], "cols": [1]}',
    '{"rows": [1], "cols": [false, 2]}',
    '{"rows": [[1]], "cols": [1]}',
    '{"rows": {"1": 1}, "cols": [1]}',
    '{"rows": [1], "cols": [1], "freq": true}',
    '{"rows": [1], "cols": [1], "freq": "0.5"}',
    '{"rows": [1], "freq": 0.5}',
])
def test_tileset_malformed_value_names_line(tmp_path, toy_data, line):
    path = tmp_path / "t.tiles"
    path.write_text('{"rows": [1], "cols": [1], "freq": 1}\n' + line + "\n")
    with pytest.raises(InputFormatError, match=r"t\.tiles:2: "):
        read_tileset(path, toy_data)


def test_tileset_repeated_tile_is_read_once(tmp_path, toy_data):
    path = tmp_path / "t.tiles"
    path.write_text(
        '{"rows": [1, 2], "cols": [1], "freq": 0.5}\n'
        '{"rows": ["1-2"], "cols": [1], "freq": 0.5}\n'
        '{"rows": [1, 2], "cols": [1], "freq": 1}\n'
    )
    ts = read_tileset(path, toy_data)
    assert [ft.alpha for ft in ts] == [0.5, 1.0]


# Round trips through each reader. Itemset and clustering files have no
# writer in the package, so these tests write the documented line format.

ids = st.lists(st.integers(1, 9), min_size=1, max_size=9)


@st.composite
def datasets(draw):
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m))
    return BinaryDataset(np.array(bits).reshape(n, m))


@settings(max_examples=50, deadline=None)
@given(data=datasets())
def test_random_round_trips(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("io") / "d.db"
    write_dataset(data, path)
    assert read_dataset(path) == data


def reference_read_dataset(path) -> BinaryDataset:
    """The dataset reader as a per-line loop, before it was vectorized."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise InputFormatError(f"{path}: empty dataset file")
    header = lines[0].split()
    if len(header) != 2:
        raise InputFormatError(f"{path}:1: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InputFormatError(f"{path}:1: expected header 'n m'") from exc
    if n < 1 or m < 1:
        raise InputFormatError(f"{path}:1: dims must be positive")
    if len(lines) < n + 1:
        raise InputFormatError(f"{path}: expected {n} row lines, got {len(lines) - 1}")
    for lineno, line in enumerate(lines[n + 1:], start=n + 2):
        if line.strip():
            raise InputFormatError(f"{path}:{lineno}: line after the {n} row lines")
    rows: list[int] = []
    cols: list[int] = []
    for i in range(n):
        tokens = lines[i + 1].split()
        try:
            try:
                ids = list(map(int, tokens))
            except ValueError:  # an "a-b" range, or a malformed id
                ids = _expand_ids(tokens, m)
            if ids and (min(ids) < 1 or max(ids) > m):
                for j in ids:
                    _check_id("column", j, m)
        except InputFormatError as exc:
            raise InputFormatError(f"{path}:{i + 2}: {exc}") from exc
        rows += [i] * len(ids)
        cols += ids
    entries = np.zeros((n, m), dtype=np.uint8)
    entries[rows, np.array(cols, dtype=np.intp) - 1] = 1
    return BinaryDataset(entries)


# Each makes any row it is put in malformed or out of range, for m <= 9.
BAD_TOKENS = ["0", "10", "12345678901", "x", "1-", "-3", "3-2", "1-10"]


@st.composite
def dataset_lines(draw):
    r"""A dataset file, and its 0/1 matrix or None when the file is
    malformed.

    Each row's ones are written as a shuffled mix of plain ids and "a-b"
    runs, possibly overlapping, separated by spaces or tabs. Some ids
    have leading zeros (up to 11 digits), a "0_" prefix or a "+" sign:
    valid for `int`, but not plain digit runs. Lines end in "\n" or
    "\r\n"; rows may be blank or padded with whitespace, and blank
    lines may follow the last row. Some files get one token from
    BAD_TOKENS in a random row."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    gaps = st.sampled_from([" ", "\t", "  ", " \t"])
    zeros = st.sampled_from(["", "", "", "0", "00", "0_", "0000000000"])
    entries = np.zeros((n, m), dtype=np.uint8)
    rows = []
    for i in range(n):
        tokens = []
        for lo, span in draw(st.lists(st.tuples(st.integers(1, m), st.integers(0, m - 1)), max_size=4)):
            hi = min(lo + span, m)
            entries[i, lo - 1:hi] = 1
            if lo == hi and draw(st.booleans()):
                tokens.append(draw(st.sampled_from(["", "+"])) + draw(zeros) + str(lo))
            else:
                tokens.append(f"{draw(zeros)}{lo}-{draw(zeros)}{hi}")
        rows.append(draw(st.permutations(tokens)))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(BAD_TOKENS)))
        entries = None
    lines = [f"{n} {m}"]
    for tokens in rows:
        line = tokens[0] + "".join(draw(gaps) + tok for tok in tokens[1:]) if tokens else ""
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "])))
    lines += draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    # Without its line end, an empty last line would not be a line.
    return entries, eol.join(lines) + (draw(st.sampled_from([eol, ""])) if lines[-1] else eol)


def _outcome(read, path):
    """The entries `read` returns, or the message of the InputFormatError it raises."""
    try:
        return read(path).entries.tolist()
    except InputFormatError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(case=dataset_lines())
def test_dataset_ids_and_ranges_property(tmp_path_factory, case):
    entries, text = case
    path = tmp_path_factory.mktemp("io") / "d.db"
    path.write_bytes(text.encode())
    got = _outcome(read_dataset, path)
    assert got == _outcome(reference_read_dataset, path)
    if entries is None:
        assert isinstance(got, str)
    else:
        assert got == entries.tolist()


# A row line ends only at "\n" (with an optional "\r" before it); the
# other line breaks of str.splitlines separate ids inside the row.
@pytest.mark.parametrize("space", ["\f", "\v", "\x1c", "\x85", "\u2028", "\r"], ids=[
    "form-feed", "vertical-tab", "file-separator", "next-line", "line-separator", "lone-cr",
])
def test_dataset_splitlines_breaks_are_whitespace_in_a_row(tmp_path, space):
    path = tmp_path / "d.db"
    path.write_bytes(f"2 3\n1{space}3\r\n2\n".encode())
    assert read_dataset(path).entries.tolist() == [[1, 0, 1], [0, 1, 0]]


@pytest.mark.parametrize("name, text, where", [
    ("d.db", b"2 3\n1 \xff2\n3\n", r"d\.db:2: not UTF-8 text"),
    ("d.db", b"2 3\n1\n3\n\n\xe9\n", r"d\.db:5: not UTF-8 text"),
    ("t.tiles", b'{"rows": [1], "cols": [1]}\n\n{"rows": [\xff1], "cols": [1]}\n',
     r"t\.tiles:3: not UTF-8 text"),
], ids=["dataset-row", "dataset-trailing-line", "tileset"])
def test_non_utf8_byte_names_line(tmp_path, name, text, where):
    path = tmp_path / name
    path.write_bytes(text)
    with pytest.raises(InputFormatError, match=where):
        read_dataset(path) if name == "d.db" else read_tileset(path, BinaryDataset(np.zeros((5, 5))))


def _no_exact_clash(tiles) -> bool:
    """No rectangle is drawn at both exact frequencies, which TileSet rejects."""
    exact: dict = {}
    return all(
        exact.setdefault((frozenset(r), frozenset(c)), a) == a
        for r, c, a in tiles if a in (0.0, 1.0)
    )


@settings(max_examples=50, deadline=None)
@given(tiles=st.lists(st.tuples(ids, ids, st.floats(0.0, 1.0)), max_size=6).filter(_no_exact_clash))
def test_tileset_round_trip_property(tmp_path_factory, tiles):
    data = BinaryDataset(np.zeros((9, 9)))
    ts = TileSet(data.dims, tuple(FreqTile(Tile(r, c), a) for r, c, a in tiles))
    path = tmp_path_factory.mktemp("io") / "t.tiles"
    write_tileset(ts, path)
    assert read_tileset(path, data) == ts  # frequencies survive repr bit-for-bit


@settings(max_examples=50, deadline=None)
@given(itemsets=st.lists(ids, max_size=6))
def test_itemsets_round_trip_property(tmp_path_factory, itemsets):
    path = tmp_path_factory.mktemp("io") / "sets.txt"
    path.write_text("".join(" ".join(map(str, s)) + "\n\n" for s in itemsets))
    data = BinaryDataset(np.zeros((1, 9)))
    assert read_itemsets(path, data) == ItemsetResult(tuple(map(tuple, itemsets)))


@settings(max_examples=50, deadline=None)
@given(cids=st.lists(st.integers(1, 5), min_size=1, max_size=30), data=st.data())
def test_clustering_round_trip_property(tmp_path_factory, cids, data):
    labels = {row: cid for row, cid in zip(data.draw(st.permutations(range(1, len(cids) + 1))), cids)}
    path = tmp_path_factory.mktemp("io") / "labels.txt"
    path.write_text("".join(f"{row} {cid}\n" for row, cid in labels.items()))
    dataset = BinaryDataset(np.zeros((len(cids), 1)))
    assert read_clustering(path, dataset) == ClusteringResult(labels, max(cids))


def test_clustering_line_needs_two_ids(tmp_path, toy_data):
    path = tmp_path / "labels.txt"
    path.write_text("1 1\n2\n")
    with pytest.raises(InputFormatError, match=r"labels\.txt:2: expected 'row cluster'"):
        read_clustering(path, toy_data)


def test_clustering_row_listed_twice_names_line(tmp_path, toy_data):
    path = tmp_path / "labels.txt"
    path.write_text("1 1\n2 1\n3 2\n\n1 2\n")
    with pytest.raises(InputFormatError, match=r"labels\.txt:5: row 1 is listed twice"):
        read_clustering(path, toy_data)


@pytest.mark.parametrize("read, text, message", [
    (read_itemsets, "1 2\n\n9 9\n", r"f\.txt:3: column id 9 outside \[1, 5\]"),
    (read_clustering, "1 1\n2 1\n3 0\n4 1\n5 1\n", r"f\.txt:3: cluster id 0 is below 1"),
    (read_clustering, "1 1\n2 1\n3 1\n4 1\n9 1\n5 1\n", r"f\.txt:5: row id 9 outside \[1, 5\]"),
    (read_clustering, "1 1\n2 1\n4 1\n5 1\n", r"f\.txt: row 3 has no cluster; every row 1\.\.5 needs one"),
    (read_itemsets, "1 x\n", r"f\.txt:1: bad id 'x'"),
    (read_itemsets, "2-9\n", r"f\.txt:1: id range '2-9' runs past 5"),
    (read_clustering, "1 1\n2 x\n", r"f\.txt:2: bad id 'x'"),
    (read_clustering, "x 1\n", r"f\.txt:1: bad id 'x'"),
    # a clustering line names one row and one cluster, so no range
    (read_clustering, "1 1\n2-3 1\n", r"f\.txt:2: bad id '2-3'"),
], ids=["itemset-column", "cluster-id", "clustering-row", "clustering-missing-row", "itemset-token",
        "itemset-range", "cluster-token", "clustering-row-token", "clustering-range"])
def test_out_of_range_id_names_file_line_and_id(tmp_path, toy_data, read, text, message):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(InputFormatError, match=message):
        read(path, toy_data)


def test_itemset_line_takes_ranges(tmp_path, toy_data):
    path = tmp_path / "sets.txt"
    path.write_text("2-4\n")
    assert read_itemsets(path, toy_data) == ItemsetResult(((2, 3, 4),))


# Every input file ends a line only at "\n", as a dataset file does; the
# other line breaks of str.splitlines are whitespace inside a line.
@pytest.mark.parametrize("space", ["\f", "\x85", "\u2028", "\r"], ids=[
    "form-feed", "next-line", "line-separator", "lone-cr",
])
@pytest.mark.parametrize("read, first, bad, message", [
    (read_itemsets, "1{}2", "9 9", "column id 9 outside"),
    (read_clustering, "1{}1", "9 1", "row id 9 outside"),
    (read_tileset, " {} ", '{"rows": [9], "cols": [1]}', "row id 9 does not fit"),
], ids=["itemsets", "clustering", "tileset"])
def test_splitlines_breaks_do_not_end_a_line(tmp_path, toy_data, space, read, first, bad, message):
    path = tmp_path / "f.txt"
    path.write_bytes(f"{first.format(space)}\n{bad}\n".encode())
    with pytest.raises(InputFormatError, match=rf"f\.txt:2: {message}"):
        read(path, toy_data)


def test_splitlines_breaks_join_records_on_one_line(tmp_path, toy_data):
    path = tmp_path / "f.txt"
    path.write_bytes(b"1 2\f3\n")
    assert read_itemsets(path, toy_data) == ItemsetResult(((1, 2, 3),))
    path.write_bytes(b'{"rows": [1], "cols": [1]}\f{"rows": [2], "cols": [2]}\n')
    with pytest.raises(InputFormatError, match=r"f\.txt:1: "):
        read_tileset(path, toy_data)
    path.write_bytes(b"1 2\f3\n9 9\n")
    with pytest.raises(InputFormatError, match=r"f\.txt:2: column id 9 outside"):
        read_itemsets(path, toy_data)
