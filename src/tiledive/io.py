"""Reading and writing dataset and tile-set files.

Dataset file: first line "n m", then n lines, line i listing the
1-based column ids where row i has a 1 (space-separated, empty line
for an all-zero row); only blank lines may follow the n rows.
Tile-set file: one JSON object per line,
{"rows": [...], "cols": [...], "freq": 0.5}; "freq" is optional.
Id lists in either format may use "a-b" range shorthand.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import BinaryDataset, FreqTile, Tile, TileSet
from .errors import InputFormatError


def _expand_ids(tokens) -> list[int]:
    """Expand a list of ids and "a-b" ranges into plain ids."""
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
            ids.extend(range(lo_i, hi_i + 1))
        else:
            try:
                ids.append(int(tok))
            except ValueError as exc:
                raise InputFormatError(f"bad id {tok!r}") from exc
    return ids


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
    entries = np.zeros((n, m), dtype=np.uint8)
    for i in range(n):
        cols = _expand_ids(lines[i + 1].split())
        for j in cols:
            if not 1 <= j <= m:
                raise InputFormatError(f"{path}:{i + 2}: column id {j} outside [1, {m}]")
            entries[i, j - 1] = 1
    return BinaryDataset(entries)


def write_dataset(data: BinaryDataset, path) -> None:
    lines = [f"{data.n} {data.m}"]
    for i in range(data.n):
        ones = np.flatnonzero(data.entries[i]) + 1
        lines.append(" ".join(str(j) for j in ones))
    Path(path).write_text("\n".join(lines) + "\n")


def read_tileset(
    path,
    data: BinaryDataset | None = None,
    dims: tuple[int, int] | None = None,
) -> TileSet:
    """Read a tile-set file.

    Tiles without a "freq" field get their empirical frequency from
    `data`; a dataset is required in that case. Dims come from `data`
    unless given explicitly.
    """
    from .core import empirical_frequency

    if dims is None:
        if data is None:
            raise ValueError("read_tileset needs either data or dims")
        dims = data.dims
    tiles = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "rows" not in obj or "cols" not in obj:
            raise InputFormatError(f"{path}:{lineno}: need 'rows' and 'cols'")
        try:
            tile = Tile(_expand_ids(obj["rows"]), _expand_ids(obj["cols"]))
        except (ValueError, InputFormatError) as exc:
            raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
        if "freq" in obj:
            alpha = float(obj["freq"])
        elif data is not None:
            alpha = empirical_frequency(tile, data)
        else:
            raise InputFormatError(
                f"{path}:{lineno}: no 'freq' given and no dataset to annotate from"
            )
        try:
            tiles.append(FreqTile(tile, alpha))
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
    try:
        return TileSet(dims, tuple(tiles))
    except Exception as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def tileset_to_lines(ts: TileSet) -> list[str]:
    """One JSON object per tile; "freq" uses repr round-tripping."""
    lines = []
    for ft in ts.tiles:
        lines.append(
            json.dumps(
                {"rows": list(ft.tile.rows), "cols": list(ft.tile.cols), "freq": ft.alpha}
            )
        )
    return lines


def write_tileset(ts: TileSet, path) -> None:
    Path(path).write_text("\n".join(tileset_to_lines(ts)) + "\n")
