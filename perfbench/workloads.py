"""The benchmark's workloads: seeded inputs, the operations it times, and their checks.

Each workload is a function `(seed, k, workdir, relabel)` that builds
instance `k` of the workload from the benchmark seed alone and returns
its fixed list of ops; the library sees only the generated matrices,
tile sets and files. `relabel=True` builds the same instance with rows
and columns renamed by a seeded permutation: the same work on inputs
that differ in content, so that a content-keyed cache kept from the
plain instance finds nothing to reuse.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import tiledive
from tiledive import cli
from tiledive.core import BinaryDataset, FreqTile, Tile, TileSet
from tiledive.maxent import FitOptions

# Output checks compare floats against independent values or recorded
# goldens within this absolute tolerance, fixed before any run. It sits
# well above the fit tolerance's effect on a distance (FitOptions
# default 1e-6 on tile frequencies) and well below any gap a wrong
# answer would leave.
CHECK_ATOL = 1e-5
# The exact path is closed-form arithmetic, so it is held much tighter.
JACCARD_ATOL = 1e-12
# Rounding slack on the [0, 2] range of a fitted distance, as in the
# library's own acceptance suite: two identical result sets give KL
# terms of about +-1e-16, and a distance a hair below 0.
RANGE_SLACK = 1e-9


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    """One timed operation and the untimed check of its output.

    `check` raises CheckFailed on a wrong output; otherwise it returns a
    flat list of numbers (ints compared exactly, floats within
    CHECK_ATOL) that stands for the output in golden comparisons.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _relabeling(rng, relabel: bool, n: int, m: int):
    """Row and column permutations: seeded ones, or the identity."""
    if not relabel:
        return np.arange(n), np.arange(m)
    return rng.permutation(n), rng.permutation(m)


def _relabel_matrix(a: np.ndarray, row_perm: np.ndarray, col_perm: np.ndarray):
    """Matrix whose entry (row_perm[i], col_perm[j]) is a[i, j]."""
    out = np.empty_like(a)
    out[np.ix_(row_perm, col_perm)] = a
    return out


def _rect(rows, cols) -> Tile:
    """Tile from 0-based index arrays."""
    return Tile(tuple(int(i) + 1 for i in rows), tuple(int(j) + 1 for j in cols))


# ---------------------------------------------------------------- exact-cli

EXACT_N, EXACT_M = 500, 200
EXACT_DENSITY = 0.05
EXACT_PLANTED = 8  # planted itemsets
EXACT_ITEMSET = 5  # columns of a planted itemset
EXACT_PICKS = 4  # planted itemsets a result file holds, whole or in part
EXACT_FILES = 15  # miner result files; every pair is one op
# Sizes that set an op's cost are fixed or drawn from narrow ranges, so
# the covered area of one instance varies by 5% (quartile spread over
# median, 60 instances). Supports of n/20 to 3n/20 rows, 4 to 6 columns
# and 3 to 6 itemsets per file made it vary by 18%.


def exact_cli(seed: int, k: int, workdir: Path, relabel: bool = False) -> list[Op]:
    """Sparse transactions with planted itemsets; one CLI distance per file pair."""
    rng = np.random.default_rng([seed, 1, k])
    n, m = EXACT_N, EXACT_M
    data = rng.random((n, m)) < EXACT_DENSITY
    planted = []
    for _ in range(EXACT_PLANTED):
        cols = rng.choice(m, size=EXACT_ITEMSET, replace=False)
        rows = rng.choice(n, size=int(rng.integers(9 * n // 100, 11 * n // 100 + 1)),
                          replace=False)
        data[np.ix_(rows, cols)] = True
        planted.append(cols)
    results = []
    for _ in range(EXACT_FILES):
        picks = rng.choice(EXACT_PLANTED, size=EXACT_PICKS, replace=False)
        itemsets = []
        for p in picks:
            cols = planted[p]
            if rng.random() < 0.5:  # a sub-itemset: more supporting rows
                cols = rng.choice(cols, size=int(rng.integers(2, len(cols))), replace=False)
            itemsets.append(cols)
        results.append(itemsets)

    row_perm, col_perm = _relabeling(rng, relabel, n, m)
    data = _relabel_matrix(data, row_perm, col_perm)
    results = [[col_perm[cols] for cols in itemsets] for itemsets in results]

    workdir.mkdir(parents=True, exist_ok=True)
    ds = BinaryDataset(data.astype(np.uint8))
    data_path = workdir / "data.txt"
    tiledive.write_dataset(ds, data_path)
    paths, masks = [], []
    for f, itemsets in enumerate(results):
        conv = tiledive.itemsets_to_tiles(
            tiledive.ItemsetResult(tuple(tuple(int(c) + 1 for c in s) for s in itemsets)), ds
        )
        path = workdir / f"result{f:02d}.tiles"
        # no "freq": the reader annotates the tiles from the dataset
        path.write_text("".join(
            json.dumps({"rows": list(ft.tile.rows), "cols": list(ft.tile.cols)}) + "\n"
            for ft in conv.tiles
        ))
        paths.append(str(path))
        # independent reference: the covered area, straight from the matrix
        mask = np.zeros((n, m), dtype=bool)
        for cols in itemsets:
            support = np.flatnonzero(data[:, cols].all(axis=1))
            mask[np.ix_(support, cols)] = True
        masks.append(mask)

    ops = []
    for i, j in combinations(range(EXACT_FILES), 2):
        args = ["distance", "--data", str(data_path), "--left", paths[i],
                "--right", paths[j], "--format", "jsonl"]
        union = int((masks[i] | masks[j]).sum())
        expected = 1.0 if union == 0 else 1.0 - int((masks[i] & masks[j]).sum()) / union
        ops.append(Op(f"d{i:02d}-{j:02d}", _cli_call(args), _jaccard_check(expected)))
    return ops


def _cli_call(args: list[str]) -> Callable[[], str]:
    def run() -> str:
        out = _stdio.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                cli.main.main(args, prog_name="tiledive", standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise
        return out.getvalue()
    return run


def _jaccard_check(expected: float) -> Callable[[str], list]:
    def check(stdout: str) -> list:
        rec = json.loads(stdout)
        value = rec["distance"]
        _require(rec["used_jaccard_path"] is True, "all-exact input left the Jaccard path")
        _require(0.0 <= value <= 1.0, f"distance {value} outside [0, 1]")
        _require(abs(value - expected) <= JACCARD_ATOL,
                 f"distance {value} != mask Jaccard {expected}")
        return [value]
    return check


# ----------------------------------------------------------- planted-matrix

# Every op does nearly the same solver work (about 300k root-solve
# evaluations and 47 Newton steps at this size, within 2%), so an op's
# time varies only with the machine. At 60x60 an op takes about 2 s, so
# a run holds enough ops for a steady median. Newton's dense k x n*m
# incidence and its weighted copy (k about 126) take about 7 MB here,
# not most of the process's memory as at 100x100 (5 s per op).
PLANTED_N = 60
PLANTED_BICLUSTERS = 6
PLANTED_RECOVERED = 3  # biclusters each result set finds
PLANTED_RESULTS = 3  # miner result sets; every pair is one op


def planted_matrix(seed: int, k: int, workdir: Path, relabel: bool = False) -> list[Op]:
    """Zero background with noisy planted biclusters; library distance per result pair."""
    rng = np.random.default_rng([seed, 2, k])
    n = m = PLANTED_N
    data = np.zeros((n, m), dtype=bool)
    row_groups = np.array_split(rng.permutation(n), PLANTED_BICLUSTERS + 1)
    col_groups = np.array_split(rng.permutation(m), PLANTED_BICLUSTERS + 1)
    biclusters = []
    for b in range(PLANTED_BICLUSTERS):
        rows, cols = np.sort(row_groups[b]), np.sort(col_groups[b])
        data[np.ix_(rows, cols)] = rng.random((len(rows), len(cols))) < 0.8
        biclusters.append((rows, cols))
    results = []
    for _ in range(PLANTED_RESULTS):
        picks = rng.choice(PLANTED_BICLUSTERS, size=PLANTED_RECOVERED, replace=False)
        rects = []
        for q, p in enumerate(picks):
            rows, cols = biclusters[p]
            # The first is recovered exactly, so every fit but the
            # background's meets the 0/1 boundary; the rest may be
            # trimmed: the miner missed some rows and columns.
            if q > 0 and rng.random() < 0.5:
                rows = np.sort(rng.choice(rows, size=max(2, int(0.75 * len(rows))), replace=False))
                cols = np.sort(rng.choice(cols, size=max(2, int(0.75 * len(cols))), replace=False))
            rects.append((rows, cols))
        results.append(rects)

    row_perm, col_perm = _relabeling(rng, relabel, n, m)
    ds = BinaryDataset(_relabel_matrix(data, row_perm, col_perm).astype(np.uint8))
    sets = [
        tiledive.annotate(TileSet(ds.dims, tuple(
            FreqTile(_rect(row_perm[r], col_perm[c]), 0.0) for r, c in rects)), ds)
        for rects in results
    ]
    bg = tiledive.background_tiles("columns+rows", ds)
    return [Op(f"m{i}-{j}", _distance_call(sets[i], sets[j], bg), _ratio_check)
            for i, j in combinations(range(PLANTED_RESULTS), 2)]


def _distance_call(t: TileSet, u: TileSet, b: TileSet):
    return lambda: tiledive.distance(t, u, b)


def _ratio_check(report) -> list:
    v = report.value
    _require(math.isfinite(v) and -RANGE_SLACK <= v <= 2.0 + RANGE_SLACK,
             f"distance {v} not finite in [0, 2]")
    _require(report.kl_m_b > 0.0, "KL(M || background) is zero on a non-trivial instance")
    ratio = (report.kl_m_t + report.kl_m_u) / report.kl_m_b
    _require(abs(v - ratio) <= CHECK_ATOL * max(1.0, abs(ratio)),
             f"distance {v} != its KL ratio {ratio}")
    return [v, report.kl_m_t, report.kl_m_u, report.kl_m_b]


# ------------------------------------------------------------------- search

SEARCH_INSTANCES = 4
SEARCH_N = 40
SEARCH_DENSITY = 0.3
SEARCH_TARGET, SEARCH_CANDIDATES, SEARCH_RANKED = 3, 6, 6
SEARCH_SIDES = (2, 5)  # least and most rows or columns of a rectangle


def search(seed: int, k: int, workdir: Path, relabel: bool = False) -> list[Op]:
    """Small random matrices; one fruits and one fitamin per mode on each."""
    ops = []
    tol = FitOptions().tolerance
    for d in range(SEARCH_INSTANCES):
        rng = np.random.default_rng([seed, 3, k, d])
        n = m = SEARCH_N
        data = rng.random((n, m)) < SEARCH_DENSITY

        def rects(count):
            out = []
            for _ in range(count):
                h, w = rng.integers(SEARCH_SIDES[0], SEARCH_SIDES[1] + 1, size=2)
                i0, j0 = rng.integers(0, n - h + 1), rng.integers(0, m - w + 1)
                out.append((np.arange(i0, i0 + h), np.arange(j0, j0 + w)))
            return out

        target = rects(SEARCH_TARGET)
        # A second miner that found the target's rectangles among
        # unrelated ones. Copies shifted by a row or a column made some
        # fits stall at the 0/1 boundary and fall back to Newton, which
        # this workload is meant to skip.
        cands = list(target) + rects(SEARCH_CANDIDATES - len(target))
        groups = [target, cands, rects(SEARCH_RANKED)]
        row_perm, col_perm = _relabeling(rng, relabel, n, m)
        ds = BinaryDataset(_relabel_matrix(data, row_perm, col_perm).astype(np.uint8))
        target, cands, ranked = (
            tiledive.annotate(TileSet(ds.dims, tuple(
                FreqTile(_rect(row_perm[r], col_perm[c]), 0.0) for r, c in g)), ds)
            for g in groups
        )
        bg = tiledive.density_tile(ds)
        ops.append(Op(f"fruits{d}", _fruits_call(target, cands, bg), _fruits_check(cands)))
        for mode in ("exact", "heuristic"):
            ops.append(Op(f"fitamin-{mode}{d}", _fitamin_call(ranked, bg, mode),
                          _fitamin_check(ranked, tol)))
    return ops


def _fruits_call(target, cands, bg):
    return lambda: tiledive.fruits(target, cands, bg)


def _fitamin_call(tiles, bg, mode):
    return lambda: tiledive.fitamin(tiles, bg, mode)


def _fruits_check(cands: TileSet):
    def check(r) -> list:
        pool = list(cands.tiles)
        _require(Counter(r.selected) <= Counter(pool), "selected a tile that is not a candidate")
        _require(len(r.trace) == len(r.selected), "trace and selection lengths differ")
        _require(all(b < a for a, b in zip(r.trace, r.trace[1:])),
                 f"trace {r.trace} does not strictly decrease")
        picks = [pool.index(ft) for ft in r.selected]
        return picks + [float(d) for d in r.trace] + [float(r.final_distance)]
    return check


def _fitamin_check(tiles: TileSet, tol: float):
    def check(r) -> list:
        pool = list(tiles.tiles)
        _require(Counter(r.order) == Counter(pool), "order is not a permutation of the input")
        _require(abs(r.trace[-1]) <= tol, f"trace ends at {r.trace[-1]}, not 0")
        return [pool.index(ft) for ft in r.order] + [float(d) for d in r.trace]
    return check


WORKLOADS = {
    "exact-cli": exact_cli,
    "planted-matrix": planted_matrix,
    "search": search,
}
