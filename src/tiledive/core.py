"""Binary datasets, tiles, and tile sets.

All row/column ids are 1-based at the API surface; internal numpy
storage is 0-based. Every type here is immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConflictingExactTiles, DimMismatch, OutOfBounds


def _as_id_tuple(ids, upper: int, what: str) -> tuple[int, ...]:
    """Normalize an id collection to a sorted duplicate-free tuple in [1, upper]."""
    out = tuple(sorted(set(int(i) for i in ids)))
    if not out:
        raise ValueError(f"{what} id set must be nonempty")
    if out[0] < 1 or (upper is not None and out[-1] > upper):
        raise OutOfBounds(f"{what} ids must lie in [1, {upper}], got {out[0]}..{out[-1]}")
    return out


class BinaryDataset:
    """An n x m 0/1 matrix with 1-based row and column ids."""

    def __init__(self, entries) -> None:
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("dataset must be a non-empty 2-d matrix")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("dataset entries must be 0 or 1")
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

    def __getitem__(self, ij: tuple[int, int]) -> int:
        """1-based entry access: data[i, j]."""
        i, j = ij
        if not (1 <= i <= self.n and 1 <= j <= self.m):
            raise OutOfBounds(f"entry ({i}, {j}) outside {self.n}x{self.m}")
        return int(self._entries[i - 1, j - 1])

    def ones_count(self) -> int:
        return int(self._entries.sum())

    def density(self) -> float:
        return self.ones_count() / (self.n * self.m)

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

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_id_tuple(self.rows, None, "row"))
        object.__setattr__(self, "cols", _as_id_tuple(self.cols, None, "column"))

    @property
    def area(self) -> int:
        return len(self.rows) * len(self.cols)

    def fits(self, n: int, m: int) -> bool:
        return self.rows[-1] <= n and self.cols[-1] <= m

    def check_fits(self, n: int, m: int) -> None:
        if not self.fits(n, m):
            raise OutOfBounds(f"tile {self} does not fit in {n}x{m}")

    def row_index(self) -> np.ndarray:
        """0-based row indices as a numpy array."""
        return np.asarray(self.rows, dtype=np.intp) - 1

    def col_index(self) -> np.ndarray:
        """0-based column indices as a numpy array."""
        return np.asarray(self.cols, dtype=np.intp) - 1

    def entry_set(self) -> frozenset[tuple[int, int]]:
        """All (i, j) entries covered, 1-based."""
        return frozenset((i, j) for i in self.rows for j in self.cols)

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
            raise ValueError(f"frequency must lie in [0, 1], got {a}")
        object.__setattr__(self, "alpha", a)

    @property
    def exact(self) -> bool:
        return self.alpha in (0.0, 1.0)

    def __repr__(self) -> str:
        return f"FreqTile({self.tile!r}, alpha={self.alpha!r})"


@dataclass(frozen=True)
class TileSet:
    """An ordered collection of frequency-annotated tiles on common dims.

    Order is preserved: greedy selection depends on it.
    Duplicate and overlapping tiles are allowed; exact duplicates with
    conflicting frequencies are rejected up front.
    """

    dims: tuple[int, int]
    tiles: tuple[FreqTile, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n, m = self.dims
        if n < 1 or m < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        object.__setattr__(self, "dims", (int(n), int(m)))
        object.__setattr__(self, "tiles", tuple(self.tiles))
        seen: dict[tuple, float] = {}
        for ft in self.tiles:
            ft.tile.check_fits(n, m)
            key = (ft.tile.rows, ft.tile.cols)
            prev = seen.get(key)
            if prev is not None and prev != ft.alpha and (
                prev in (0.0, 1.0) and ft.alpha in (0.0, 1.0)
            ):
                raise ConflictingExactTiles(
                    f"duplicate tile {ft.tile} with conflicting exact "
                    f"frequencies {prev} and {ft.alpha}"
                )
            seen.setdefault(key, ft.alpha)

    def __len__(self) -> int:
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    def all_exact(self) -> bool:
        return all(ft.exact for ft in self.tiles)

    def with_tile(self, ft: FreqTile) -> "TileSet":
        return TileSet(self.dims, self.tiles + (ft,))

    def union(self, *others: "TileSet") -> "TileSet":
        """Order-preserving union; drops repeats of an identical (tile, alpha)."""
        for o in others:
            if o.dims != self.dims:
                raise DimMismatch(f"cannot union {self.dims} with {o.dims}")
        seen = set()
        merged = []
        for ts in (self, *others):
            for ft in ts.tiles:
                key = (ft.tile.rows, ft.tile.cols, ft.alpha)
                if key not in seen:
                    seen.add(key)
                    merged.append(ft)
        return TileSet(self.dims, tuple(merged))

    def area_mask(self) -> np.ndarray:
        """Boolean n x m mask of all covered entries."""
        n, m = self.dims
        mask = np.zeros((n, m), dtype=bool)
        for ft in self.tiles:
            mask[np.ix_(ft.tile.row_index(), ft.tile.col_index())] = True
        return mask

    def __repr__(self) -> str:
        return f"TileSet(dims={self.dims}, tiles={len(self.tiles)})"


def empirical_frequency(tile: Tile, data: BinaryDataset) -> float:
    """Proportion of 1-entries of `data` inside the tile's area."""
    tile.check_fits(data.n, data.m)
    block = data.entries[np.ix_(tile.row_index(), tile.col_index())]
    return float(Fraction(int(block.sum()), tile.area))


def area_union(ts: TileSet) -> frozenset[tuple[int, int]]:
    """Exact union of member areas, as 1-based (i, j) pairs."""
    out: set[tuple[int, int]] = set()
    for ft in ts.tiles:
        out.update(ft.tile.entry_set())
    return frozenset(out)


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
