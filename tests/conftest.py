"""Shared fixtures: the worked 5x5 example and random instance generators."""

from __future__ import annotations

import numpy as np
import pytest

import tiledive.divergence
from tiledive import BinaryDataset, FreqTile, Tile, TileSet, annotate, fit, kl
from tiledive.divergence import _ZERO_KL

TOY_ROWS = [
    [1, 1, 0, 0, 1],
    [1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1],
    [0, 0, 1, 1, 1],
    [0, 0, 1, 1, 1],
]


@pytest.fixture(scope="session")
def toy_data() -> BinaryDataset:
    return BinaryDataset(TOY_ROWS)


@pytest.fixture(scope="session")
def toy_tiles() -> dict[int, Tile]:
    return {
        1: Tile(range(2, 6), range(1, 6)),
        2: Tile((1, 2), (1, 2)),
        3: Tile((3, 4, 5), (1, 2)),
        4: Tile((4, 5), (3, 4, 5)),
        5: Tile((3, 4, 5), (4, 5)),
    }


def make_set(data: BinaryDataset, *tiles: Tile) -> TileSet:
    """Tile set annotated with empirical frequencies from `data`."""
    return annotate(
        TileSet(data.dims, tuple(FreqTile(t, 0.0) for t in tiles)), data
    )


@pytest.fixture(scope="session")
def toy_sets(toy_data, toy_tiles):
    t = make_set(toy_data, toy_tiles[2], toy_tiles[4])
    u = make_set(toy_data, toy_tiles[2], toy_tiles[3], toy_tiles[5])
    b = make_set(toy_data, toy_tiles[1])
    return {"t": t, "u": u, "b": b, "m": t.union(u, b), "empty": TileSet(toy_data.dims)}


def random_dataset(rng: np.random.Generator, n: int, m: int, density=0.5) -> BinaryDataset:
    return BinaryDataset((rng.random((n, m)) < density).astype(np.uint8))


def random_tile(rng: np.random.Generator, n: int, m: int) -> Tile:
    nr = int(rng.integers(1, n + 1))
    nc = int(rng.integers(1, m + 1))
    rows = rng.choice(np.arange(1, n + 1), size=nr, replace=False)
    cols = rng.choice(np.arange(1, m + 1), size=nc, replace=False)
    return Tile(rows, cols)


def random_annotated_set(
    rng: np.random.Generator, data: BinaryDataset, k: int
) -> TileSet:
    """k random tiles with frequencies taken from `data` (always consistent)."""
    tiles = [random_tile(rng, data.n, data.m) for _ in range(k)]
    return make_set(data, *tiles)


def kl_terms(t: TileSet, u: TileSet, b: TileSet, opts) -> tuple[float, float, float]:
    """KL(M || T+B), KL(M || U+B) and KL(M || B), with M fitted for
    T+U+B, from `fit` and `kl` alone: the terms of `DistanceReport`."""
    model_m = fit(t.union(u, b), opts)
    return tuple(kl(model_m, fit(s, opts)) for s in (t.union(b), u.union(b), b))


def kl_ratio(t: TileSet, u: TileSet, b: TileSet, opts) -> float:
    """The general distance (KL(M || U+B) + KL(M || T+B)) / KL(M || B)
    from `kl_terms`: the KL ratio that `distance` replaces by the
    Jaccard form on all-exact sets.
    """
    kl_m_t, kl_m_u, kl_m_b = kl_terms(t, u, b, opts)
    n, m = t.dims
    if kl_m_b <= _ZERO_KL * n * m:
        return 1.0
    return (kl_m_u + kl_m_t) / kl_m_b


def record_fits(monkeypatch) -> list:
    """List that collects the tile set of every model `divergence` fits."""
    fits = []
    for name in ("fit", "exact_fastpath"):
        real = getattr(tiledive.divergence, name)
        monkeypatch.setattr(
            tiledive.divergence, name,
            lambda ts, *args, _real=real: fits.append(ts) or _real(ts, *args),
        )
    return fits


# Populated by the acceptance suite; printed after the run so each
# criterion gets exactly one visible pass/fail line.
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({label}): {verdict}")


def random_exact_instance(rng: np.random.Generator, n: int, m: int, sizes):
    """Mutually consistent all-exact tile sets plus a dataset realizing them.

    Tiles get frequency 0 or 1; a tile may not overlap one of the
    opposite polarity, so one dataset can satisfy them all.
    """
    entries = (rng.random((n, m)) < 0.5).astype(np.uint8)
    ones_mask = np.zeros((n, m), dtype=bool)
    zeros_mask = np.zeros((n, m), dtype=bool)
    sets = []
    for k in sizes:
        tiles = []
        attempts = 0
        while len(tiles) < k and attempts < 50 * k:
            attempts += 1
            tile = random_tile(rng, n, m)
            block = tile.block()
            want_one = bool(rng.integers(0, 2))
            if want_one and zeros_mask[block].any():
                want_one = False
            if not want_one and ones_mask[block].any():
                if zeros_mask[block].any():
                    continue  # pinched between both polarities; resample
                want_one = True
            (ones_mask if want_one else zeros_mask)[block] = True
            entries[block] = 1 if want_one else 0
            tiles.append(FreqTile(tile, 1.0 if want_one else 0.0))
        sets.append(TileSet((n, m), tuple(tiles)))
    return sets, BinaryDataset(entries)
