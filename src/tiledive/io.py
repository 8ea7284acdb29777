"""Reading and writing the package's input files.

Dataset file: first line "n m", then n lines, line i listing the
1-based column ids where row i has a 1 (space-separated, empty line
for an all-zero row); only blank lines may follow the n rows.
Tile-set file: one JSON object per line,
{"rows": [...], "cols": [...], "freq": 0.5}; "freq" is an optional JSON
number, and "rows" and "cols" are JSON arrays of integer ids.
Id lists in either format may use "a-b" range shorthand.
Itemset file: one itemset per line, as its column ids.
Clustering file: one "row cluster" pair of ids per line, each row
exactly once.
Tile-set, itemset and clustering files skip blank lines.
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
        if "-" in tok[1:]:  # allow for a leading sign, reject "-3"
            lo, _, hi = tok.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise InputFormatError(f"bad id range {tok!r}") from exc
            if hi_i < lo_i:
                raise InputFormatError(f"descending id range {tok!r}")
            if hi_i > upper:
                raise InputFormatError(f"id range {tok!r} runs past {upper}")
            ids.extend(range(lo_i, hi_i + 1))
        else:
            try:
                ids.append(int(tok))
            except ValueError as exc:
                raise InputFormatError(f"bad id {tok!r}") from exc
    return ids


def _check_id(kind: str, i: int, upper: int) -> int:
    if not 1 <= i <= upper:
        raise InputFormatError(f"{kind} id {i} outside [1, {upper}]")
    return i


def read_dataset(path) -> BinaryDataset:
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


def write_dataset(data: BinaryDataset, path) -> None:
    lines = [f"{data.n} {data.m}"]
    for i in range(data.n):
        ones = np.flatnonzero(data.entries[i]) + 1
        lines.append(" ".join(str(j) for j in ones))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_lines(path, parse) -> list:
    """`parse` applied to each non-blank line; a failure names `path:line`."""
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
    if not isinstance(ids, list) or any(isinstance(i, bool) or not isinstance(i, (int, str)) for i in ids):
        raise InputFormatError(f"{key!r} must be an array of integer ids and \"a-b\" ranges")
    return _expand_ids(ids, upper)


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
    itemsets = _parse_lines(
        path, lambda line: tuple(_check_id("column", int(tok), data.m) for tok in line.split())
    )
    return ItemsetResult(tuple(itemsets))


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
        row = _check_id("row", int(parts[0]), data.n)
        cluster = int(parts[1])
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
