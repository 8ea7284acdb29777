"""Converting mining results on binary data into tile sets.

Itemsets become tiles over their supporting rows, clusterings become
one tile per cluster or one per cluster/column pair, and global
density, column margins, and row margins become single-row or
single-column tiles. Bicluster-style results are already rectangles
and are ingested directly through the tile-set file format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinaryDataset, FreqTile, Tile, TileSet, empirical_frequency
from .errors import InputError, OutOfBounds


@dataclass(frozen=True)
class ItemsetResult:
    """Column-id sets; each itemset is kept sorted and without repeats."""

    itemsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "itemsets", tuple(tuple(sorted(set(s))) for s in self.itemsets)
        )


@dataclass(frozen=True)
class ClusteringResult:
    """A total row -> cluster-id labeling with cluster ids in [1, k]."""

    labels: dict[int, int]
    k: int

    def __post_init__(self):
        for row, cid in self.labels.items():
            if not 1 <= cid <= self.k:
                raise InputError(f"cluster id {cid} for row {row} outside [1, {self.k}]")


@dataclass(frozen=True)
class ConversionResult:
    """A produced tile set plus the number of inputs skipped with a warning."""

    tiles: TileSet
    skipped: int = 0


def itemsets_to_tiles(r: ItemsetResult, data: BinaryDataset) -> ConversionResult:
    """One exact tile per itemset over its supporting rows, the rows
    that contain every column of the itemset. Itemsets supported by no
    row are skipped and counted.
    """
    tiles = []
    skipped = 0
    for i, itemset in enumerate(r.itemsets):
        if not itemset or itemset[-1] > data.m or itemset[0] < 1:
            raise OutOfBounds(f"itemset #{i + 1} has column ids outside [1, {data.m}]")
        cols0 = np.asarray(itemset, dtype=np.intp) - 1
        rows = tuple(int(x) for x in np.flatnonzero(data.entries[:, cols0].all(axis=1)) + 1)
        if not rows:
            skipped += 1
            continue
        tile = Tile(rows, itemset)
        tiles.append(FreqTile(tile, empirical_frequency(tile, data)))
    return ConversionResult(TileSet(data.dims, tuple(tiles)), skipped)


def clustering_to_tiles(
    r: ClusteringResult, data: BinaryDataset, mode: str = "per-column"
) -> TileSet:
    """Turn a row clustering into tiles.

    "single-tile" gives one tile per cluster over all columns;
    "per-column" gives one tile per cluster and column, with the
    column's in-cluster mean as frequency. Empty clusters are skipped.
    """
    if mode not in ("single-tile", "per-column"):
        raise InputError(f"unknown mode {mode!r}")
    if set(r.labels) != set(range(1, data.n + 1)):
        raise InputError("labels must cover exactly the rows 1..n")
    clusters: dict[int, list[int]] = {}
    for row, cid in sorted(r.labels.items()):
        clusters.setdefault(cid, []).append(row)
    cols = range(1, data.m + 1)
    col_groups = [cols] if mode == "single-tile" else [(j,) for j in cols]
    return _grid([clusters[cid] for cid in sorted(clusters)], col_groups, data)


def density_tile(data: BinaryDataset) -> TileSet:
    """A single tile covering the whole dataset at its global density."""
    return _grid([range(1, data.n + 1)], [range(1, data.m + 1)], data)


def margin_tiles(data: BinaryDataset, axis: str = "columns") -> TileSet:
    """One tile per column (or row), spanning all rows (or columns)."""
    if axis not in ("columns", "rows"):
        raise InputError(f"axis must be 'columns' or 'rows', got {axis!r}")
    rows, cols = range(1, data.n + 1), range(1, data.m + 1)
    if axis == "columns":
        return _grid([rows], [(j,) for j in cols], data)
    return _grid([(i,) for i in rows], [cols], data)


def _grid(row_groups, col_groups, data: BinaryDataset) -> TileSet:
    """One tile per (row group, column group) pair, row groups outermost,
    each at its empirical frequency in `data`."""
    tiles = [Tile(rows, cols) for rows in row_groups for cols in col_groups]
    return TileSet(data.dims, tuple(FreqTile(t, empirical_frequency(t, data)) for t in tiles))


_PRESETS = {
    "none": lambda data: TileSet(data.dims),
    "density": density_tile,
    "columns": lambda data: margin_tiles(data, "columns"),
    "rows": lambda data: margin_tiles(data, "rows"),
    "columns+rows": lambda data: margin_tiles(data, "columns").union(margin_tiles(data, "rows")),
}
BACKGROUND_PRESETS = tuple(_PRESETS)


def background_tiles(preset: str, data: BinaryDataset) -> TileSet:
    """Build a background tile set from a named preset."""
    if preset not in _PRESETS:
        raise InputError(f"unknown background preset {preset!r}; use one of {BACKGROUND_PRESETS}")
    return _PRESETS[preset](data)
