"""Binary datasets, tiles, and tile sets.

All row/column ids are 1-based at the API surface; internal numpy
storage is 0-based. Every type here is immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConflictingExactTiles, DimMismatch, InputError, OutOfBounds


def _as_id_tuple(ids, what: str) -> tuple[int, ...]:
    """Normalize an id collection to a sorted duplicate-free tuple of positive ids."""
    out = tuple(sorted(set(map(int, ids))))
    if not out:
        raise InputError(f"{what} id set must be nonempty")
    if out[0] < 1:
        raise OutOfBounds(f"{what} ids must be positive, got {out[0]}..{out[-1]}")
    return out


class BinaryDataset:
    """An n x m 0/1 matrix with 1-based row and column ids."""

    def __init__(self, entries) -> None:
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError("dataset must be a non-empty 2-d matrix")
        if arr.dtype.kind in "biu":
            # a range check builds no n x m temporaries; only signed
            # integers can fall below 0
            valid = arr.max() <= 1 and (arr.dtype.kind != "i" or arr.min() >= 0)
        else:
            valid = ((arr == 0) | (arr == 1)).all()
        if not valid:
            raise InputError("dataset entries must be 0 or 1")
        self._entries = arr.astype(np.uint8)
        self._entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    @property
    def m(self) -> int:
        return self._entries.shape[1]

    @property
    def dims(self) -> tuple[int, int]:
        return self._entries.shape

    @property
    def entries(self) -> np.ndarray:
        """Read-only 0-based uint8 matrix."""
        return self._entries

    def ones_count(self) -> int:
        return int(self._entries.sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryDataset) and np.array_equal(
            self._entries, other._entries
        )

    def __repr__(self) -> str:
        return f"BinaryDataset({self.n}x{self.m}, {self.ones_count()} ones)"


@dataclass(frozen=True)
class Tile:
    """A rectangle: a set of row ids crossed with a set of column ids."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    _block: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_id_tuple(self.rows, "row"))
        object.__setattr__(self, "cols", _as_id_tuple(self.cols, "column"))
        block = np.ix_(*(np.asarray(ids, dtype=np.intp) - 1 for ids in (self.rows, self.cols)))
        for index in block:
            index.setflags(write=False)
        object.__setattr__(self, "_block", block)
        # hashed once: tile sets, unions and model caches hash tiles often
        object.__setattr__(self, "_hash", hash((self.rows, self.cols)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def area(self) -> int:
        return len(self.rows) * len(self.cols)

    def check_fits(self, n: int, m: int) -> None:
        if self.rows[-1] > n:
            raise OutOfBounds(f"row id {self.rows[-1]} does not fit in {n}x{m}")
        if self.cols[-1] > m:
            raise OutOfBounds(f"column id {self.cols[-1]} does not fit in {n}x{m}")

    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based `np.ix_` index pair that selects the tile's area of an n x m array;
        built once, at construction, and read-only, so every call returns the same pair."""
        return self._block

    def __repr__(self) -> str:
        return f"Tile(rows={list(self.rows)}, cols={list(self.cols)})"


@dataclass(frozen=True)
class FreqTile:
    """A tile together with a target frequency in [0, 1]."""

    tile: Tile
    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 <= a <= 1.0:
            raise InputError(f"frequency must lie in [0, 1], got {a}")
        object.__setattr__(self, "alpha", a)

    @property
    def exact(self) -> bool:
        return self.alpha in (0.0, 1.0)

    def __repr__(self) -> str:
        return f"FreqTile({self.tile!r}, alpha={self.alpha!r})"


@dataclass(frozen=True)
class TileSet:
    """A set of frequency-annotated tiles on common dims, in insertion order.

    Order matters to greedy selection. An identical repeat of a tile and
    frequency is kept once: a max-entropy model depends only on its set
    of constraints. `fit` honours that bit for bit, as it takes the tiles
    in a canonical order of its own: by first row, first column, ids and
    frequency. One tile at both exact frequencies is rejected.
    """

    dims: tuple[int, int]
    tiles: tuple[FreqTile, ...] = field(default_factory=tuple)
    _all_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m = self.dims
        if n < 1 or m < 1:
            raise InputError(f"dims must be positive, got {self.dims}")
        object.__setattr__(self, "dims", (int(n), int(m)))
        object.__setattr__(self, "tiles", tuple(dict.fromkeys(self.tiles)))
        exact: dict[Tile, float] = {}
        for ft in self.tiles:
            ft.tile.check_fits(n, m)
            if ft.exact and exact.setdefault(ft.tile, ft.alpha) != ft.alpha:
                raise ConflictingExactTiles(f"tile {ft.tile} is given both exact frequencies")
        # decided once: a distance asks about the same sets about 10 times
        object.__setattr__(self, "_all_exact", len(exact) == len(self.tiles))

    def __len__(self) -> int:
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    def all_exact(self) -> bool:
        return self._all_exact

    def with_tile(self, ft: FreqTile) -> "TileSet":
        return TileSet(self.dims, self.tiles + (ft,))

    def union(self, *others: "TileSet") -> "TileSet":
        """Order-preserving union: every tile of `self`, then of each other."""
        for o in others:
            if o.dims != self.dims:
                raise DimMismatch(f"cannot union {self.dims} with {o.dims}")
        return TileSet(self.dims, self.tiles + tuple(ft for o in others for ft in o.tiles))

    def area_mask(self) -> np.ndarray:
        """Boolean n x m mask of all covered entries."""
        n, m = self.dims
        mask = np.zeros((n, m), dtype=bool)
        for ft in self.tiles:
            mask[ft.tile.block()] = True
        return mask

    def __repr__(self) -> str:
        return f"TileSet(dims={self.dims}, tiles={len(self.tiles)})"


def empirical_frequency(tile: Tile, data: BinaryDataset) -> float:
    """Proportion of 1-entries of `data` inside the tile's area."""
    tile.check_fits(data.n, data.m)
    block = data.entries[tile.block()]
    return int(block.sum()) / tile.area


def annotate(ts: TileSet, data: BinaryDataset) -> TileSet:
    """Return a copy with every frequency recomputed from `data`.

    Frequencies annotated from a single dataset are mutually consistent
    by construction.
    """
    if ts.dims != data.dims:
        raise DimMismatch(f"tile set dims {ts.dims} != data dims {data.dims}")
    return TileSet(
        ts.dims,
        tuple(FreqTile(ft.tile, empirical_frequency(ft.tile, data)) for ft in ts.tiles),
    )
