"""Maximum-entropy models over binary datasets, given tile frequencies.

The maximum-entropy distribution for a set of frequency-constrained
tiles factorizes into independent per-entry Bernoulli variables, so a
model is just an n x m probability matrix. An entry's log-odds is the
sum of one multiplier per noisy tile covering it, so the entries
covered by the same set of noisy tiles -- an entry class -- share one
probability. Fitting is one damped-Newton solve for the multipliers,
with every sum taken over entry classes weighted by their size.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Knobs for the fit: its one Newton solve stops once every noisy
    tile's model frequency is within `tolerance` of its target."""

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


def _settle(ts: TileSet, blocks: list) -> tuple[np.ndarray, list, np.ndarray]:
    """Settle the entries that exact tiles and boundary targets force.

    A tile's target mass lies between its settled mass and that plus
    its free-entry count. At the lower end every free entry must be 0,
    at the upper end 1; an exact tile always sits at one end. Settling
    one tile can expose another, so the pass runs to a fixpoint, and a
    tile leaves it once settled. Exact tiles go first: only other exact
    tiles can then have settled an exact tile's entries, so a target
    outside the range raises ConflictingExactTiles for an exact tile and
    InfeasibleTile for a noisy one, whatever the tile order. Free
    entries hold 1/2, their value in the closed form for exact tiles,
    and settled ones 0 or 1, so p alone tells them apart; a block's
    settled mass is its sum less half its free count, exact since every
    term is a multiple of 1/2. Returns (p, the tiles left open, the mass
    their free entries must still carry).
    """
    p = np.full(ts.dims, 0.5)
    still = sorted(range(len(blocks)), key=lambda j: not ts.tiles[j].exact)
    changed = True
    while changed:
        changed = False
        tiles, still, rest = still, [], []
        for j in tiles:
            ft, block = ts.tiles[j], blocks[j]
            sub_p = p[block]
            free = sub_p == 0.5
            a = ft.tile.area
            nfree = int(np.count_nonzero(free))
            settled = float(sub_p.sum()) - 0.5 * nfree
            target = ft.alpha * a
            if not settled - _BOUNDARY_EPS <= target <= settled + nfree + _BOUNDARY_EPS:
                error = ConflictingExactTiles if ft.exact else InfeasibleTile
                raise error(
                    f"tile #{j + 1} ({ft.tile}) wants frequency {ft.alpha} "
                    f"but settled entries restrict it to "
                    f"[{settled / a}, {(settled + nfree) / a}]"
                )
            if nfree == 0:
                continue  # settled entries decide this tile entirely
            if target <= settled + _BOUNDARY_EPS:
                value = 0.0
            elif target >= settled + nfree - _BOUNDARY_EPS:
                value = 1.0
            else:
                still.append(j)
                rest.append(target - settled)
                continue
            p[block] = np.where(free, value, sub_p)
            changed = True
    return p, still, np.array(rest)


def _entry_classes(blocks: list, free: np.ndarray):
    """Group the free entries by the set of tiles covering them.

    Each tile splits every class it touches, so a class's label links
    back, one covering tile per link, through the labels it was split
    from. Walking those chains gives the sparse tile-by-class incidence
    and, for the k x k Hessian, every ordered pair of tiles sharing a
    class, in O(sum over classes of squared cover count) memory.
    Returns each free entry's class (row-major), the class sizes, the
    incidence (tiles, classes) and the pairs (flat k x k index, class).
    Classes left without free entries are dropped.
    """
    label = np.zeros(free.shape, dtype=np.intp)  # label 0: covered by no tile
    parent, tile_of = [np.zeros(1, dtype=np.intp)], [np.full(1, -1)]
    count, k = 1, len(blocks)
    for j, block in enumerate(blocks):
        old = label[block]
        low = int(old.min())  # scan only the label range the tile meets
        touched = np.zeros(int(old.max()) - low + 1, dtype=bool)
        touched[old - low] = True
        split = low + np.flatnonzero(touched)
        label[block] = count + (np.cumsum(touched) - 1)[old - low]
        parent.append(split)
        tile_of.append(np.full(len(split), j))
        count += len(split)
    parent, tile_of = np.concatenate(parent), np.concatenate(tile_of)
    sizes = np.bincount(label[free], minlength=count)
    node = np.flatnonzero(sizes)  # each live class's label, walked up its chain
    cls = np.arange(len(node))
    none = np.zeros(0, dtype=np.intp)
    tiles, classes, keys, owners, above = [none], [none], [none], [none], []
    while (covered := node > 0).any():
        node, cls = node[covered], cls[covered]
        above = [u[covered] for u in above]  # tiles met further up the chain
        t = tile_of[node]
        tiles.append(t)
        classes.append(cls)
        keys += [t * (k + 1)] + [u * k + t for u in above] + [t * k + u for u in above]
        owners += [cls] * (2 * len(above) + 1)
        above.append(t)
        node = parent[node]
    label = (np.cumsum(sizes > 0) - 1)[label[free]]
    sizes = sizes[sizes > 0].astype(float)
    return label, sizes, *map(np.concatenate, (tiles, classes, keys, owners))


def _sigmoid(s: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty(s.shape)
    pos = s >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def fit(ts: TileSet, opts: FitOptions = FitOptions()) -> EntryModel:
    """Fit the factorized maximum-entropy model for a tile set.

    Settles the entries that exact tiles and other targets on the
    attainable boundary force to 0 or 1. The free entries left are
    grouped into entry classes, and one damped Newton solve finds the
    tile multipliers: a class's log-odds is the sum of the multipliers
    of the tiles covering it. The dual objective -- sum over classes of
    size times log(1 + e^log-odds), minus the multipliers dotted with
    the targets -- is convex and smooth, and its gradient is each
    tile's model mass minus its target. Free entries are kept strictly
    inside (0, 1), so only settled entries are deterministic.

    Raises InfeasibleTile for an unattainable target, and NoConvergence
    when a tile ends further than `opts.tolerance` from its target.
    """
    blocks = [ft.tile.block() for ft in ts.tiles]
    # Only the tiles the settle pass leaves open enter the solve.
    p, active, targets = _settle(ts, blocks)
    free = p == 0.5  # settled entries hold 0 or 1
    label, sizes, tiles, classes, pair_keys, pair_classes = _entry_classes(
        [blocks[j] for j in active], free
    )
    k = len(active)
    areas = np.array([ts.tiles[j].tile.area for j in active], dtype=float)

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
        curvature = (sizes * q * (1.0 - q))[pair_classes]
        hess = np.bincount(pair_keys, weights=curvature, minlength=k * k).reshape(k, k)
        ridge = 1e-12 * max(float(hess.diagonal().max()), 1.0)
        hess.flat[:: k + 1] += ridge
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

    eps = np.finfo(float)
    p[free] = np.clip(_sigmoid(s), eps.tiny, 1.0 - eps.epsneg)[label]
    residual = _max_residual(ts, blocks, p)
    if residual > opts.tolerance:
        raise NoConvergence(
            f"residual {residual:.3g} > tolerance {opts.tolerance:.3g}; "
            f"the given frequencies appear mutually inconsistent"
        )
    return EntryModel(dims=ts.dims, p=p, residual=residual)


def _max_residual(ts: TileSet, blocks: list, p: np.ndarray) -> float:
    worst = 0.0
    for ft, block in zip(ts.tiles, blocks):
        worst = max(worst, abs(float(p[block].mean()) - ft.alpha))
    return worst


def exact_fastpath(ts: TileSet) -> EntryModel:
    """Closed form for all-exact tile sets: the settle pass, 1/2 elsewhere."""
    for ft in ts.tiles:
        if not ft.exact:
            raise NotExact(f"exact_fastpath requires exact tiles, got {ft}")
    p, _, _ = _settle(ts, [ft.tile.block() for ft in ts.tiles])
    return EntryModel(dims=ts.dims, p=p, residual=0.0)
