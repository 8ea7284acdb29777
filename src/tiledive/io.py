r"""Reading and writing the package's input files.

Every input file is UTF-8 text; a byte that is not is an input error
that names its line. In every file a line ends at "\n", with an
optional "\r" before it. Other characters that `str.splitlines` breaks
at ("\v", "\f", "\x1c" to "\x1e", "\x85", U+2028, U+2029), and a lone
"\r", are whitespace inside a line, as for `str.split`.
Dataset file: first line "n m", then n lines, line i listing the
1-based column ids where row i has a 1, separated by whitespace (empty
line for an all-zero row); only blank lines may follow the n rows.
Tile-set file: one JSON object per line,
{"rows": [...], "cols": [...], "freq": 0.5}; "freq" is an optional JSON
number, and "rows" and "cols" are JSON arrays of integer ids.
Itemset file: one itemset per line, as its column ids.
Id lists in these three formats may use "a-b" range shorthand. In every
file an id, like the dataset header's n and m, is a run of ASCII digits,
as the dataset reader's numpy pass reads it: no "+" sign, no "_"
separator, no digits of other scripts.
Clustering file: one "row cluster" pair of ids per line, each row
exactly once; tile-set, itemset and clustering files skip blank lines.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .convert import ClusteringResult, ItemsetResult
from .core import BinaryDataset, FreqTile, Tile, TileSet, empirical_frequency
from .errors import InputFormatError


def _expand_ids(tokens, upper: int) -> list[int]:
    """Expand a list of ids and "a-b" ranges into plain ids.

    A range that ends past `upper`, the largest valid id, is rejected
    before it is expanded.
    """
    ids: list[int] = []
    for tok in tokens:
        if isinstance(tok, int):
            ids.append(tok)
            continue
        tok = str(tok).strip()
        if not tok:
            continue
        if "-" in tok[1:]:  # a leading "-" is a sign: "-3" is out of range
            lo, _, hi = tok.partition("-")
            if not (_digits(lo) and _digits(hi)):
                raise InputFormatError(f"bad id range {tok!r}")
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise InputFormatError(f"descending id range {tok!r}")
            if hi_i > upper:
                raise InputFormatError(f"id range {tok!r} runs past {upper}")
            ids.extend(range(lo_i, hi_i + 1))
        else:
            ids.append(_id(tok))
    return ids


def _digits(tok: str) -> bool:
    """Whether `tok` is a nonempty run of ASCII digits."""
    return tok.isascii() and tok.isdigit()


def _id(tok: str) -> int:
    """An id token; a leading "-" is kept, so that the caller's range
    check reports a negative id as out of range."""
    if not _digits(tok[1:] if tok.startswith("-") else tok):
        raise InputFormatError(f"bad id {tok!r}")
    return int(tok)


def _check_id(kind: str, i: int, upper: int) -> int:
    if not 1 <= i <= upper:
        raise InputFormatError(f"{kind} id {i} outside [1, {upper}]")
    return i


_NEWLINE = ord("\n")
# Row bytes by class: a digit maps to its value, a space, tab, "\r" or
# "\n" to _SEP, and any other byte to _OTHER.
_SEP, _OTHER = 10, 11
_ROW_CLASSES = bytes(
    b - 48 if 48 <= b <= 57 else _SEP if b in b" \t\r\n" else _OTHER for b in range(256)
)
# A longer id could overflow int32, so its row is parsed line by line.
_MAX_DIGITS = 9


def read_dataset(path) -> BinaryDataset:
    raw = Path(path).read_bytes()
    if not raw:
        raise InputFormatError(f"{path}: empty dataset file")
    # Line i ends at ends[i], its "\n" or the end of the file.
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == _NEWLINE)
    if raw[-1] != _NEWLINE:
        ends = np.append(ends, len(raw))
    header = _line(raw, ends, 0, path).split()
    if len(header) != 2 or not all(map(_digits, header)):
        raise InputFormatError(f"{path}:1: expected header 'n m'")
    n, m = map(int, header)
    if n < 1 or m < 1:
        raise InputFormatError(f"{path}:1: dims must be positive")
    if len(ends) < n + 1:
        raise InputFormatError(f"{path}: expected {n} row lines, got {len(ends) - 1}")
    for i in range(n + 1, len(ends)):
        if _line(raw, ends, i, path).strip():
            raise InputFormatError(f"{path}:{i + 1}: line after the {n} row lines")
    ones = _row_ones(raw, ends, n, m, path)
    del raw, ends  # freed before the n x m matrix is allocated
    entries = np.zeros((n, m), dtype=np.uint8)
    entries.reshape(-1)[ones] = 1
    del ones
    return BinaryDataset(entries)


def _utf8(raw: bytes, path, lineno: int) -> str:
    """`raw`, which starts on line `lineno` of `path`, as UTF-8 text."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = lineno + raw.count(b"\n", 0, exc.start)
        raise InputFormatError(f"{path}:{at}: not UTF-8 text ({exc.reason})") from exc


def _line(raw: bytes, ends: np.ndarray, i: int, path) -> str:
    r"""Line i (0-based) of a dataset file, without its "\n"."""
    return _utf8(raw[int(ends[i - 1]) + 1 if i else 0:int(ends[i])], path, i + 1)


def _row_ones(raw: bytes, ends: np.ndarray, n: int, m: int, path) -> np.ndarray:
    r"""Flat indices into the n x m matrix of the ones that lines 1..n list.

    Every maximal run of ASCII digits is one id, valued digit position by
    digit position over all ids at once. A row holding a byte other than
    a digit, space, tab or "\r", an id of more than `_MAX_DIGITS` digits
    or an id outside [1, m] is parsed line by line instead, in file
    order, so its error names the first bad line.
    """
    base, stop = int(ends[0]) + 1, int(ends[n])
    classes = raw.translate(_ROW_CLASSES)
    body = np.frombuffer(classes, dtype=np.uint8, count=stop - base, offset=base)
    row_ends = ends[1:n] - base  # the "\n" closing each row but the last
    digit = np.zeros(len(body) + 2, dtype=bool)
    np.less(body, _SEP, out=digit[1:-1])
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    del digit
    first, past = edges[0::2], edges[1::2]  # id i spans body[first[i]:past[i]]
    width = np.minimum(past - first, _MAX_DIGITS + 1).astype(np.int8)
    per_row = np.diff(np.searchsorted(first, row_ends), prepend=0, append=len(first))
    row = np.repeat(np.arange(n, dtype=np.intp), per_row)
    value = np.zeros(len(first), dtype=np.int32)
    for k in range(min(int(width.max(initial=0)), _MAX_DIGITS)):
        # A read at past - 1 - k where k >= width lands before the id and
        # is masked out.
        value += np.where(width > k, body[past - 1 - k], 0).astype(np.int32) * 10**k
    del edges, first, past

    bad = np.zeros(n, dtype=bool)
    bad[row[(width > _MAX_DIGITS) | (value < 1) | (value > m)]] = True
    if classes.find(bytes([_OTHER]), base, stop) >= 0:
        bad[np.searchsorted(row_ends, np.flatnonzero(body == _OTHER))] = True
    del width, body, classes
    slow = np.flatnonzero(bad).tolist()
    if slow:
        slow_rows: list[int] = []
        slow_cols: list[int] = []
        for i in slow:
            tokens = _line(raw, ends, i + 1, path).split()
            try:
                ids = [_check_id("column", j, m) for j in _expand_ids(tokens, m)]
            except InputFormatError as exc:
                raise InputFormatError(f"{path}:{i + 2}: {exc}") from exc
            slow_rows += [i] * len(ids)
            slow_cols += ids
        keep = ~bad[row]
        row = np.concatenate((row[keep], np.array(slow_rows, dtype=np.intp)))
        value = np.concatenate((value[keep], np.array(slow_cols, dtype=np.intp)))
    row *= m
    row += value - 1
    return row


def write_dataset(data: BinaryDataset, path) -> None:
    lines = [f"{data.n} {data.m}"]
    for i in range(data.n):
        ones = np.flatnonzero(data.entries[i]) + 1
        lines.append(" ".join(str(j) for j in ones))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_lines(path, parse) -> list:
    """`parse` applied to each non-blank line; a failure names `path:line`."""
    out = []
    for lineno, line in enumerate(_utf8(Path(path).read_bytes(), path, 1).split("\n"), start=1):
        if line.strip():
            # A malformed value can surface as a TypeError too, e.g.
            # from "rows": 1 or "freq": null in a tile-set line.
            try:
                out.append(parse(line))
            except (ValueError, TypeError) as exc:
                raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
    return out


def _json_ids(obj: dict, key: str, upper: int) -> list[int]:
    """The ids of a tile-set line's "rows" or "cols" array; no range
    may run past `upper`."""
    ids = obj[key]
    # JSON gives every integer as an int, and true and false as bools
    if not isinstance(ids, list) or not (kinds := set(map(type, ids))) <= {int, str}:
        raise InputFormatError(f"{key!r} must be an array of integer ids and \"a-b\" ranges")
    return ids if kinds <= {int} else _expand_ids(ids, upper)


def read_tileset(path, data: BinaryDataset) -> TileSet:
    """Read a tile-set file on `data`'s dims.

    Tiles without a "freq" field get their empirical frequency from
    `data`. A tile repeated at the same frequency is read once.
    """
    def parse(line: str) -> FreqTile:
        obj = json.loads(line)
        if not isinstance(obj, dict) or "rows" not in obj or "cols" not in obj:
            raise InputFormatError("need 'rows' and 'cols'")
        tile = Tile(_json_ids(obj, "rows", data.n), _json_ids(obj, "cols", data.m))
        tile.check_fits(data.n, data.m)
        if "freq" not in obj:
            return FreqTile(tile, empirical_frequency(tile, data))
        if isinstance(obj["freq"], bool) or not isinstance(obj["freq"], (int, float)):
            raise InputFormatError("'freq' must be a number")
        return FreqTile(tile, obj["freq"])

    return TileSet(data.dims, tuple(_parse_lines(path, parse)))


def read_itemsets(path, data: BinaryDataset) -> ItemsetResult:
    """Read an itemset file of column ids of `data`."""
    def parse(line: str) -> tuple[int, ...]:
        return tuple(_check_id("column", j, data.m) for j in _expand_ids(line.split(), data.m))

    return ItemsetResult(tuple(_parse_lines(path, parse)))


def read_clustering(path, data: BinaryDataset) -> ClusteringResult:
    """Read a clustering file that labels every row of `data` once;
    cluster ids run from 1 to the largest given.

    A row listed on two lines is malformed, even with the same label.
    """
    labels: dict[int, int] = {}

    def parse(line: str) -> None:
        parts = line.split()
        if len(parts) != 2:
            raise InputFormatError("expected 'row cluster'")
        row = _check_id("row", _id(parts[0]), data.n)
        cluster = _id(parts[1])
        if cluster < 1:
            raise InputFormatError(f"cluster id {cluster} is below 1")
        if row in labels:
            raise InputFormatError(f"row {row} is listed twice")
        labels[row] = cluster

    _parse_lines(path, parse)
    if len(labels) < data.n:
        missing = next(i for i in range(1, data.n + 1) if i not in labels)
        raise InputFormatError(f"{path}: row {missing} has no cluster; every row 1..{data.n} needs one")
    return ClusteringResult(labels, max(labels.values()))


def tile_record(ft: FreqTile) -> dict:
    """A tile's JSON object; "freq" round-trips through repr."""
    return {"rows": list(ft.tile.rows), "cols": list(ft.tile.cols), "freq": ft.alpha}


def tileset_to_lines(ts: TileSet) -> list[str]:
    """One JSON object per tile."""
    return [json.dumps(tile_record(ft)) for ft in ts.tiles]


def write_tileset(ts: TileSet, path) -> None:
    """Write one line per tile; an empty set is an empty file."""
    Path(path).write_text("".join(line + "\n" for line in tileset_to_lines(ts)))
