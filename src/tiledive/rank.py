"""Rank tiles so each one adds maximal novel information.

Both modes run `fruits`'s greedy loop (`redescribe._greedy`) with the
ranked tiles as target and candidates, and rank every tile; each trace
entry is `distance`'s value for the ranked prefix. Exact mode evaluates
every remaining candidate per step, heuristic mode only the one that
`surprise_score` ranks first against the model of the prefix so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FreqTile, TileSet
# unused here: perfbench/test_perfbench.py's
# test_restore_puts_every_original_back reads `rank.kl`
from .divergence import kl
from .errors import InfiniteSurprise, InputError
from .maxent import EntryModel, FitOptions, model_frequency
from .redescribe import _greedy


@dataclass(frozen=True)
class Ranking:
    """Tile order with the per-step distance decrease on the [0, 2] scale.

    `trace` holds the distance after each step, `distance`'s value for
    the ranked prefix. It ends at 0, except when the tiles add nothing
    to the background: KL(M || B) is then 0, the distance is 1 by
    `distance`'s convention, and every entry is 1.0.
    """

    order: tuple[FreqTile, ...]
    gains: tuple[float, ...]
    trace: tuple[float, ...]  # distance after each step
    mode: str


def surprise_score(candidate: FreqTile, current: EntryModel) -> float:
    """Area-weighted divergence of the candidate's frequency from the model.

    area * [a*ln(a/b) + (1-a)*ln((1-a)/(1-b))] with a the target and b
    the current model frequency over the candidate's area; 0 when they
    agree. Infinite disagreement with a deterministic model area is an
    error.
    """
    a = candidate.alpha
    b = model_frequency(candidate.tile, current)
    if a == b:
        return 0.0
    if b in (0.0, 1.0):
        raise InfiniteSurprise(
            f"model frequency for {candidate.tile} is {b} but target is {a}"
        )
    score = 0.0
    if a > 0.0:
        score += a * math.log(a / b)
    if a < 1.0:
        score += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return candidate.tile.area * score


def fitamin(
    tiles: TileSet,
    background: TileSet | None = None,
    mode: str = "exact",
    opts: FitOptions = FitOptions(),
) -> Ranking:
    """Order all tiles by successive maximal information gain.

    The distance from the ranked prefix to the full set starts at 1 and
    reaches 0 once every tile is ranked; gains are the per-step drops.
    Each step takes its best candidate even when it gains nothing. When
    the tiles add nothing to the background, KL(M || B) = 0 and
    `distance` defines every distance as 1: each trace entry is then
    1.0 and each gain 0, as in `fitamin(bg, bg)`. Ties resolve to input
    order.
    """
    if mode not in ("exact", "heuristic"):
        raise InputError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    score = surprise_score if mode == "heuristic" else None
    order, trace = _greedy(tiles, tiles, background, opts, stop=False, score=score)
    gains = tuple(before - after for before, after in zip((1.0,) + trace, trace))
    return Ranking(order, gains, trace, mode)
