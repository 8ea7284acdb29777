"""Rank tiles so each one adds maximal novel information.

Exact mode refits a model per remaining candidate per step and picks
the one minimizing the distance between the ranked prefix and the full
set. Heuristic mode fits one model per step and scores candidates by
how far their target frequency is from the current model frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FreqTile, TileSet
from .divergence import _ZERO_KL, _fit_joint, _fit_or_fast, kl
from .errors import InfiniteSurprise, InputError
from .maxent import EntryModel, FitOptions, model_frequency


@dataclass(frozen=True)
class Ranking:
    """Tile order with the per-step distance decrease on the [0, 2] scale."""

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
    Ties resolve to input order.
    """
    if mode not in ("exact", "heuristic"):
        raise InputError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if background is None:
        background = TileSet(tiles.dims)

    full = tiles.union(background)
    model_full = _fit_joint(full, opts)
    model_bg = _fit_or_fast(background, opts)
    kl_full_bg = kl(model_full, model_bg)

    def prefix_fit(prefix: TileSet) -> tuple[EntryModel, float]:
        # The model of prefix + background, and distance(prefix, tiles;
        # background): the joint of all three sets is `full`, and
        # KL(full || tiles+background) vanishes. If the tiles add nothing
        # to the background, KL(full || bg) = KL(full || prefix+bg) +
        # KL(prefix+bg || bg) says no prefix does either. A prefix that
        # holds every tile makes prefix + background `full`, reordered.
        if kl_full_bg <= _ZERO_KL:
            return model_bg, 1.0
        if len(prefix) == len(tiles):
            return model_full, 0.0
        model_pb = _fit_or_fast(prefix.union(background), opts)
        return model_pb, kl(model_full, model_pb) / kl_full_bg

    prefix = TileSet(tiles.dims)
    remaining = list(tiles.tiles)
    model_pb, current_d = model_bg, 1.0  # the empty prefix is at distance 1
    order: list[FreqTile] = []
    gains: list[float] = []
    trace: list[float] = []

    while remaining:
        # Ties go to the earlier candidate: min and max keep the first.
        if mode == "exact":
            fits = (prefix_fit(prefix.with_tile(cand)) for cand in remaining)
            pick, (model_pb, d_after) = min(enumerate(fits), key=lambda f: f[1][1])
        else:
            scores = [surprise_score(cand, model_pb) for cand in remaining]
            pick = scores.index(max(scores))
            model_pb, d_after = prefix_fit(prefix.with_tile(remaining[pick]))

        chosen = remaining.pop(pick)
        prefix = prefix.with_tile(chosen)
        order.append(chosen)
        gains.append(current_d - d_after)
        trace.append(d_after)
        current_d = d_after

    return Ranking(tuple(order), tuple(gains), tuple(trace), mode)
