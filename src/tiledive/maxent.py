"""Maximum-entropy models over binary datasets, given tile frequencies.

The maximum-entropy distribution for a set of frequency-constrained
tiles factorizes into independent per-entry Bernoulli variables, so a
model is just an n x m probability matrix. An entry's log-odds is the
sum of one multiplier per noisy tile covering it, so the entries
covered by the same set of noisy tiles -- an entry class -- share one
probability; each open tile sets one bit in the cells it covers, and
one sort of those signatures numbers the classes. A laminar set (tiles
nested or disjoint) takes one linear solve and no Newton step; only
when classes outnumber tiles does a damped-Newton solve find the
multipliers, summing over entry classes weighted by their size. Rows,
or columns, that a swap maps onto the same tile set share their
probabilities too, so the fit runs on a grid of such row and column
groups: under a margin background, one per distinct margin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Tile, TileSet
from .errors import (
    ConflictingExactTiles,
    InfeasibleTile,
    InputError,
    NoConvergence,
    NotExact,
)

# Slack for deciding a target sits exactly on the attainable boundary
# (all remaining free entries forced to 0 or 1).
_BOUNDARY_EPS = 1e-9

# Cap on damped-Newton steps. Consistent tile sets converge in tens of
# steps; a fit that runs out has mutually inconsistent frequencies.
_NEWTON_STEPS = 500


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the fit: a laminar set needs no Newton step, Newton runs only
    when classes outnumber tiles, and each noisy tile must end within `tolerance`."""

    tolerance: float = 1e-6  # max permitted per-tile frequency residual

    def __post_init__(self):
        # A frequency residual is below 1, so a tolerance of 1 or more
        # (or inf) would accept the unfitted start; NaN fails both tests.
        if not 0 < self.tolerance < 1:
            raise InputError(f"tolerance must lie in (0, 1), got {self.tolerance}")


@dataclass(frozen=True, eq=False)
class EntryModel:
    """A fitted factorized model: per-entry P[(i,j) = 1]."""

    dims: tuple[int, int]
    p: np.ndarray  # n x m probabilities
    residual: float

    def __post_init__(self):
        self.p.setflags(write=False)


@dataclass(frozen=True, eq=False)
class _MaskModel(EntryModel):
    """An exact model (`exact_fastpath`): given `p=None` and its disjoint
    boolean `masks` of entries at 1 and at 0, it builds the read-only `p`
    (1/2 off the masks) on first read, so counting entries builds no float
    matrix. A fitted `EntryModel`'s `p` stays a plain attribute."""

    masks: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        object.__delattr__(self, "p")  # the cached property builds it on first read

    @functools.cached_property
    def p(self) -> np.ndarray:
        ones, zeros = self.masks
        p = np.full(self.dims, 0.5)
        p[ones] = 1.0
        p[zeros] = 0.0
        p.setflags(write=False)
        return p


def bernoulli_update(y, x):
    """Rescale a Bernoulli probability y by the positive factor x.

    Strictly increasing in x for y in (0, 1); fixes 0 and 1. Accepts
    scalars or numpy arrays for y. The denominator is written as
    (1 - y) + x*y so both fixed points hold exactly in floating point.
    """
    return x * y / ((1.0 - y) + x * y)


def model_frequency(tile: Tile, model: EntryModel) -> float:
    """Mean of the model's probabilities over the tile's area."""
    n, m = model.dims
    tile.check_fits(n, m)
    return float(model.p[tile.block()].mean())


class _Fold(NamedTuple):
    """A tile set on a grid of row groups x column groups.

    A grid cell stands for |row group| * |column group| entries, which
    share one probability. Each of `parts` is a tile of the grid, the
    original tiles it stands for merged: its index pair on the grid
    (`_block`: a slice per side whose lines are a run, an index array
    per other side, or an `np.ix_` pair of two arrays), the summed
    area of those tiles, their frequency, the index of the first of
    them in the tile set, that tile, their count, and its cells' block
    of `weight` (None when the fold is the identity). A part is a plain
    tuple: the identity fold, which every set without a single-line
    tile gets (each fit of a search, for one), builds one per tile on
    every fit, and a named tuple adds its constructor's cost there.
    `groups` holds each row's group and each column's group, and
    `weight` the entries each grid cell stands for; both are None when
    the fold is the identity and each cell is one entry.
    """

    shape: tuple[int, int]
    parts: list[tuple]
    groups: tuple[np.ndarray, np.ndarray] | None = None
    weight: np.ndarray | None = None


def _mass(sub: np.ndarray, weight) -> float:
    """Sum of `sub`, a part's grid values, each cell weighted by its
    entry of `weight`, the part's weight block (None: one entry each)."""
    return float(sub.sum() if weight is None else np.vdot(sub, weight))


def _canonical(ts: TileSet) -> list[int]:
    """The positions of `ts.tiles` in an order that depends only on each
    tile and frequency: by first row, first column, ids and frequency.
    The first ids settle most pairs before an id tuple is compared, and
    tiles that start on one line stay together (by tile hash instead, a
    1,000-tile margin fit took 8% longer)."""
    keys = [(ft.tile.rows[0], ft.tile.cols[0], ft.tile.rows, ft.tile.cols, ft.alpha)
            for ft in ts.tiles]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _index(lines: np.ndarray) -> slice | np.ndarray:
    """One side of a part's index, given its lines, sorted and distinct:
    a slice when they are a run, so that indexing takes a view and
    gathers nothing, and otherwise the lines themselves."""
    first, last = int(lines[0]), int(lines[-1])
    return slice(first, last + 1) if last - first == len(lines) - 1 else lines


def _block(rows, cols, pair=None) -> tuple:
    """A part's index pair from its sides, each a slice or an array of
    lines (`_index`): an `np.ix_` pair only when both are arrays, and
    then `pair`, the one the caller holds, if given."""
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols) if pair is None else pair


def _unfolded(ts: TileSet, order) -> _Fold:
    """The identity fold, one part per tile, taken in `order`, positions
    of `ts.tiles`."""
    parts = []
    for j in order:
        ft = ts.tiles[j]
        rows, cols = pair = ft.tile.block()
        block = _block(_index(rows.ravel()), _index(cols.ravel()), pair)
        parts.append((block, ft.tile.area, ft.alpha, j, ft.tile, 1, None))
    return _Fold(ts.dims, parts)


def _number(label: np.ndarray, blocks, shape: tuple, at) -> tuple[np.ndarray, list]:
    """Number the cells at `at`, an index into an array of `shape`, by
    the set of `blocks` holding them, then by their int64 `label`.

    Block b is bit b % 32 of a cell's word b // 32, which one `|=` on
    the block sets. One sort of the keys (word, number so far) numbers
    each word in turn, so numbers run from 0 in the order of the set
    read as a binary number, the last block its top bit, then of
    `label`. Returns the numbers and, per word, its sorted distinct
    keys, which hold each number's word and number before.
    """
    numbered = []
    for start in range(0, max(len(blocks), 1), 32):  # no block: one pass numbers the labels
        word = np.zeros(shape, dtype=np.uint64)
        for bit, block in enumerate(blocks[start:start + 32]):
            word[block] |= 1 << bit
        key = (word[at] << 32) | label.view(np.uint64)
        keys = np.sort(key)
        keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
        label = np.searchsorted(keys, key)
        numbered.append(keys)
    return label, numbered


def _line_groups(count: int, spans: list[np.ndarray], own: dict[int, list]) -> np.ndarray:
    """Group `count` rows (or columns) by signature: the spans (0-based
    lines of a tile with 2 or more of them, short of all) that hold the
    line, and `own[line]`, the keys of the single-line tiles on it.
    Returns each line's group."""
    label = np.zeros(count, dtype=np.int64)
    signatures: dict[tuple, int] = {}
    lines = np.fromiter(own, dtype=np.intp, count=len(own))
    label[lines] = [signatures.setdefault(tuple(sorted(keys)), len(signatures) + 1)
                    for keys in own.values()]
    return _number(label, spans, (count,), slice(None))[0]


def _fold(ts: TileSet) -> _Fold:
    """Fold rows, and columns, that a swap maps onto the same tile set.

    Two rows lie in the same group when the same tiles with 2 or more
    rows hold them (tiles spanning every row aside) and their
    single-row tiles agree in columns and frequency; columns likewise.
    Swapping two such rows maps the tile set onto itself, so the unique
    maximum-entropy model gives them equal probabilities: p is constant
    on each cell of the group grid. Each tile covers whole cells, so it
    becomes a rectangle of the grid, and single-line tiles with the
    same rectangle and frequency merge into one tile whose area and
    target are their sums. With no single-row and no single-column tile
    nothing merges, and the entry classes already capture every other
    symmetry, so the fold is the identity.

    The tiles are taken in the canonical order (`_canonical`), and the
    groups and parts are numbered in it, so any order of `ts.tiles`
    gives the same fold. A part still names the tile of its own that
    comes first in `ts.tiles`, so errors point at the input.
    """
    order = _canonical(ts)
    if not any(len(ft.tile.rows) == 1 or len(ft.tile.cols) == 1 for ft in ts.tiles):
        return _unfolded(ts, order)
    (n, m), tiles = ts.dims, [ts.tiles[j] for j in order]
    # One pass over the tiles. A side's key is its ids, or None when it
    # spans every line, which spares hashing the ids of every margin
    # tile; a side of 2 or more lines covers whole groups, so its ids
    # name its grid lines. A single line's signature gets the other
    # side's key and the frequency, numbered in one table for both
    # axes, as keys are only compared within an axis. In the tile's
    # shape a single line is -1: its group joins the merge key once the
    # groups are known.
    spans: tuple[list, list] = ([], [])
    own: tuple[dict, dict] = ({}, {})
    keys: dict[tuple, int] = {}
    single, shape_of = [], []
    for ft in tiles:
        tile, alpha = ft.tile, ft.alpha
        rows, cols = tile.rows, tile.cols
        nr, nc = len(rows), len(cols)
        row_key = None if nr == n else rows
        col_key = None if nc == m else cols
        if nr == 1:
            own[0].setdefault(rows[0] - 1, []).append(keys.setdefault((col_key, alpha), len(keys)))
        elif row_key is not None:
            spans[0].append(tile.block()[0].ravel())
        if nc == 1:
            own[1].setdefault(cols[0] - 1, []).append(keys.setdefault((row_key, alpha), len(keys)))
        elif col_key is not None:
            spans[1].append(tile.block()[1].ravel())
        single.append((rows[0] - 1 if nr == 1 else -1, cols[0] - 1 if nc == 1 else -1))
        shape_of.append((-1 if nr == 1 else row_key, -1 if nc == 1 else col_key, alpha))
    groups = (_line_groups(n, spans[0], own[0]), _line_groups(m, spans[1], own[1]))
    weight = np.outer(*(np.bincount(group_of).astype(float) for group_of in groups))

    # Tiles merge when their shapes and their single lines' groups
    # agree. A part keeps its first tile, sums its tiles' areas
    # and counts them, and is named by the one first in `ts.tiles`.
    grid_line = [np.where(line < 0, -1, group_of[line]).tolist()
                 for group_of, line in zip(groups, np.array(single).T)]
    merged: dict[tuple, list] = {}
    for j, key in enumerate(zip(shape_of, *grid_line)):
        part = merged.setdefault(key, [j, 0, 0, order[j]])
        part[1] += tiles[j].tile.area
        part[2] += 1
        part[3] = min(part[3], order[j])

    # A part's grid lines on each side: a single line is its own group,
    # a side spanning every line takes all groups, and any other side
    # the groups its lines fall in.
    def lines(axis: int, j: int, tile: Tile):
        count = len(tile.cols if axis else tile.rows)
        if count == 1:
            return slice(grid_line[axis][j], grid_line[axis][j] + 1)
        if count == ts.dims[axis]:
            return slice(None)
        return _index(np.flatnonzero(np.bincount(groups[axis][tile.block()[axis].ravel()])))

    parts = []
    for j, area, count, name in merged.values():
        ft = tiles[j]
        block = _block(lines(0, j, ft.tile), lines(1, j, ft.tile))
        parts.append((block, area, ft.alpha, name, ts.tiles[name].tile, count, weight[block]))
    return _Fold(weight.shape, parts, groups, weight)


def _settle(fold: _Fold) -> tuple[np.ndarray, list, np.ndarray]:
    """Settle the grid cells that exact tiles and boundary targets force.

    A tile's target mass lies between its settled mass and that plus
    its free-entry count. At the lower end every free entry must be 0,
    at the upper end 1; an exact tile always sits at one end. Settling
    one tile can expose another, so the pass runs to a fixpoint, and a
    tile leaves it once settled. Exact tiles go first: only other exact
    tiles can then have settled an exact tile's entries, so a target
    outside the range raises ConflictingExactTiles for an exact tile and
    InfeasibleTile for a noisy one, whatever the tile order. They go in
    input order, so of two clashing exact tiles the later one given is
    named, whatever order the fold took; in any order they settle the
    same entries to the same values. Free entries hold 1/2, their value
    in the closed form for exact tiles, and settled ones 0 or 1, so p
    alone tells them apart; a block's settled mass is its weighted sum
    less half its free count, exact since every term is a multiple of
    1/2. The boundary slack is per original tile, so a merged tile gets
    it once per tile it stands for. Returns (p on the grid, the tiles
    left open, the mass their free entries must still carry).
    """
    p = np.full(fold.shape, 0.5)
    parts = fold.parts
    still = sorted(range(len(parts)),
                   key=lambda j: (0, parts[j][3]) if parts[j][2] in (0.0, 1.0) else (1, j))
    changed = True
    while changed:
        changed = False
        tiles, still, rest = still, [], []
        for j in tiles:
            block, a, alpha, first, tile, count, weight = parts[j]
            sub_p = p[block]
            free = sub_p == 0.5
            # counting a mask's cells takes a third of the time of its sum
            nfree = int(np.count_nonzero(free)) if weight is None else _mass(free, weight)
            settled = _mass(sub_p, weight) - 0.5 * nfree
            target, eps = alpha * a, count * _BOUNDARY_EPS
            if not settled - eps <= target <= settled + nfree + eps:
                error = ConflictingExactTiles if alpha in (0.0, 1.0) else InfeasibleTile
                raise error(
                    f"tile #{first + 1} ({tile}) wants frequency {alpha} "
                    f"but settled entries restrict it to "
                    f"[{settled / a}, {(settled + nfree) / a}]"
                )
            if nfree == 0:
                continue  # settled entries decide this tile entirely
            if target <= settled + eps:
                value = 0.0
            elif target >= settled + nfree - eps:
                value = 1.0
            else:
                still.append(j)
                rest.append(target - settled)
                continue
            p[block] = np.where(free, value, sub_p)
            changed = True
    return p, still, np.array(rest)


def _entry_classes(cover: list, free: np.ndarray, weights=None):
    """Group the free cells by the set of tiles covering them (`_number`).

    Classes come in the order of that set, so the cells no tile covers,
    if any, are class 0. Each class's words, traced back through the
    keys that numbered them and unpacked, give the tile-by-class
    incidence, class-major with the tiles ascending. `cover` holds the
    tiles' index pairs, and `weights` each free cell's weight in
    row-major order, or None for one entry each. Returns each free
    cell's class (row-major), the class sizes and the incidence (tiles,
    classes).
    """
    start = np.zeros(np.count_nonzero(free), dtype=np.int64)
    label, numbered = _number(start, cover, free.shape, free)
    sizes = np.bincount(label, weights).astype(float)
    words = np.zeros((len(sizes), len(numbered)), dtype="<u4")
    before = np.arange(len(sizes))
    for j in reversed(range(len(numbered))):  # each class's words, back to the first
        key = numbered[j][before]
        words[:, j], before = key >> 32, key & 0xFFFFFFFF
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=len(cover), bitorder="little")
    classes, tiles = np.nonzero(bits)
    return label, sizes, tiles, classes


def _pairs(tiles: np.ndarray, classes: np.ndarray, k: int):
    """Each pair of distinct tiles sharing a class, once, for the k x k
    Hessian: the flat index u * k + t of the pair (t < u) and the class.
    In the incidence, class-major with the tiles ascending, entry e pairs
    with e + d while both hold one class: one pass per cover depth d, in
    O(pairs + incidence) memory."""
    cover = np.bincount(classes)  # each class's tile count
    keys, owners = np.empty((2, int(cover @ (cover - 1)) // 2), dtype=np.intp)
    owner = np.append(classes, -1)  # past the end: no class
    e, d, at = np.arange(len(classes)), 1, 0
    while len(e := e[owner[e + d] == owner[e]]):
        keys[at:at + len(e)] = tiles[e + d] * k + tiles[e]
        owners[at:at + len(e)] = classes[e]
        at, d = at + len(e), d + 1
    return keys, owners


def _sigmoid(s: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    return np.exp(-np.logaddexp(0.0, -s))


def _square_solve(sizes, tiles, classes, targets, areas, tolerance, parts):
    """Each class's probability from one square solve (see `fit`), or None.
    The solution is the only one, so a class mass outside [0, size] by
    more than `_BOUNDARY_EPS` means no model meets the targets: raises
    InfeasibleTile, naming the class's first tile in input order among
    `parts`, the open tiles' parts."""
    k, outside = len(targets), len(sizes) - len(targets)
    if outside != (classes.min(initial=1) > 0):  # square: only class 0 may lie outside all tiles
        return None
    incidence = np.zeros((k, k))
    incidence[tiles, classes - outside] = 1.0
    if np.linalg.slogdet(incidence)[1] < -0.5:  # log |det|: det is an integer, 0 if singular
        return None
    mass = np.linalg.solve(incidence, targets)
    if not np.max(np.abs(incidence @ mass - targets) / areas, initial=0.0) <= tolerance:
        return None
    size = sizes[outside:]
    bad = np.flatnonzero((mass < -_BOUNDARY_EPS) | (mass > size + _BOUNDARY_EPS))
    if len(bad):
        c = bad[0]
        _, _, alpha, first, tile, *_ = min((parts[t] for t in tiles[classes == c + outside]),
                                           key=lambda part: part[3])
        raise InfeasibleTile(f"tile #{first + 1} ({tile}) wants frequency {alpha} but the open "
                             f"tiles' targets put mass {mass[c]:.6g} on {size[c]:g} of its entries")
    q = mass / size
    if not (q.min(initial=0.5) > 0.0 and q.max(initial=0.5) < 1.0):
        return None
    return np.concatenate((np.full(outside, 0.5), q))  # 1/2 outside every open tile


def fit(ts: TileSet, opts: FitOptions = FitOptions()) -> EntryModel:
    """Fit the factorized maximum-entropy model for a tile set.

    Folds interchangeable rows and columns into a grid of groups, then
    settles the cells that exact tiles and other targets on the
    attainable boundary force to 0 or 1. The free cells left are
    grouped into entry classes, each weighing the entries it holds. A laminar
    set needs no Newton step: its open tiles cover as many classes as there
    are tiles, and if that square 0/1 incidence is invertible, the one q
    meeting the targets is the model when inside (0, 1), as any class log-odds
    vector is a sum of tile multipliers. Only when classes outnumber tiles (or
    that q fails) does a damped Newton solve find the multipliers: a class's
    log-odds is the sum of those of the tiles covering it.
    The dual objective -- sum over classes of size times
    log(1 + e^log-odds), minus the multipliers dotted with the targets
    -- is convex and smooth, and its gradient is each tile's model mass
    minus its target. Free entries are kept strictly inside (0, 1), so
    only settled entries are deterministic. Each entry takes its cell's
    probability at the end.

    Every step takes the tiles in one canonical order, which depends only
    on each tile and frequency (`_canonical`), so the model is a function
    of the set of tiles: any order of `ts.tiles` gives the same `p`, bit
    for bit, and the same residual.

    Raises InfeasibleTile for an unattainable target, or a square q with a
    class mass outside its range, and NoConvergence when a tile ends
    further than `opts.tolerance` from its target.
    """
    # Only the tiles the settle pass leaves open enter the solve.
    fold = _fold(ts)
    p, active, targets = _settle(fold)
    free = p == 0.5  # settled entries hold 0 or 1
    weights = None if fold.weight is None else fold.weight[free]
    parts = [fold.parts[j] for j in active]
    label, sizes, tiles, classes = _entry_classes([part[0] for part in parts], free, weights)
    areas = np.array([part[1] for part in parts], dtype=float)
    q = _square_solve(sizes, tiles, classes, targets, areas, opts.tolerance, parts)
    if q is None:  # classes outnumber open tiles, or q failed: Newton
        k = len(active)
        pair_keys, pair_classes = _pairs(tiles, classes, k)

        def class_log_odds(x):
            return np.bincount(classes, weights=x[tiles], minlength=len(sizes))

        def tile_sums(per_class):
            return np.bincount(tiles, weights=per_class[classes], minlength=k)

        multipliers = np.zeros(k)
        s = class_log_odds(multipliers)
        objective = float(sizes @ np.logaddexp(0.0, s) - multipliers @ targets)
        for _ in range(_NEWTON_STEPS):
            q = _sigmoid(s)
            grad = tile_sums(sizes * q) - targets
            residual = float(np.max(np.abs(grad) / areas, initial=0.0))
            if residual <= opts.tolerance:
                break
            curvature = sizes * q * (1.0 - q)
            # pairs below the diagonal; the result is int64 when none exist
            off = np.bincount(pair_keys, curvature[pair_classes], minlength=k * k).reshape(k, k)
            diagonal = tile_sums(curvature)
            ridge = 1e-12 * max(float(diagonal.max()), 1.0)
            hess = off + off.T + np.diag(diagonal + ridge)
            step = np.linalg.solve(hess, -grad)
            descent = float(grad @ step)
            if descent >= 0.0:  # numerical breakdown: fall back to steepest descent
                step = -grad
                descent = float(grad @ step)
            # Backtracking: accept on sufficient objective decrease, or --
            # once improvements drop below float resolution of the objective
            # -- on a shrinking gradient residual.
            scale = 1.0
            for _ in range(60):
                cand = multipliers + scale * step
                s2 = class_log_odds(cand)
                obj2 = float(sizes @ np.logaddexp(0.0, s2) - cand @ targets)
                if obj2 <= objective + 1e-4 * scale * descent:
                    break
                res2 = np.max(np.abs(tile_sums(sizes * _sigmoid(s2)) - targets) / areas)
                if res2 <= 0.5 * residual:
                    break
                scale *= 0.5
            multipliers, s, objective = cand, s2, obj2
        q = _sigmoid(s)

    eps = np.finfo(float)
    p[free] = np.clip(q, eps.tiny, 1.0 - eps.epsneg)[label]
    residual = max((abs(_mass(p[block], weight) / area - alpha)
                    for block, area, alpha, *_, weight in fold.parts), default=0.0)
    if residual > opts.tolerance:
        raise NoConvergence(
            f"residual {residual:.3g} > tolerance {opts.tolerance:.3g}; "
            f"the given frequencies appear mutually inconsistent"
        )
    if fold.groups is not None:
        p = p[np.ix_(*fold.groups)]  # each entry takes its cell's probability
    return EntryModel(dims=ts.dims, p=p, residual=residual)


def exact_fastpath(ts: TileSet) -> EntryModel:
    """Closed form for all-exact tile sets: 1 on the 1-tiles, 0 on the
    0-tiles, 1/2 elsewhere, held as the two masks (see `_MaskModel`).

    The settle pass raises on an all-exact set exactly when a 1-tile and
    a 0-tile share an entry, so only then does it run, to name the tile.
    """
    if not ts.all_exact():
        noisy = next(ft for ft in ts.tiles if not ft.exact)
        raise NotExact(f"exact_fastpath requires exact tiles, got {noisy}")
    ones, zeros = np.zeros((2, *ts.dims), dtype=bool)
    for ft in ts.tiles:
        (ones if ft.alpha else zeros)[ft.tile.block()] = True
    if (ones & zeros).any():
        _settle(_fold(ts))  # raises ConflictingExactTiles, as in `fit`
    return _MaskModel(dims=ts.dims, p=None, residual=0.0, masks=(ones, zeros))
