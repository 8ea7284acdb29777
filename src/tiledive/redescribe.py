"""Greedy redescription: pick candidate tiles that approximate a target.

Repeatedly add the candidate that most reduces the distance to the
target tile set, stopping once no candidate gives a strict improvement.
Finding the optimal subset is intractable, so greedy is the intended
trade-off. The target+bg and bg models are the same for every
candidate, so they are fitted once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FreqTile, TileSet
from .divergence import _combine, _fit_joint, _fit_or_fast
from .errors import DimMismatch
from .maxent import FitOptions

# Minimum decrease for a candidate to count as an improvement; ties and
# zero-improvement additions are rejected so the loop always terminates.
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class Redescription:
    """Chosen tiles in selection order, with the distance after each step."""

    selected: tuple[FreqTile, ...]
    trace: tuple[float, ...]
    final_distance: float


def fruits(
    target: TileSet,
    candidates: TileSet,
    background: TileSet | None = None,
    opts: FitOptions = FitOptions(),
) -> Redescription:
    """Greedy subset of `candidates` minimizing distance to `target`.

    Candidates are evaluated in input order each round; the first one
    achieving the best strict improvement wins, so results are
    deterministic. The selection order is preserved for top-k reading.

    Each distance is `distance(chosen + cand, target, background, opts)`
    bit for bit, but only the joint and chosen+cand+bg models are fitted
    per candidate: target+bg and bg are fitted once, and the empty
    selection's joint is target+bg itself.
    """
    if background is None:
        background = TileSet(target.dims)
    if not (target.dims == candidates.dims == background.dims):
        raise DimMismatch(
            f"dims differ: {target.dims}, {candidates.dims}, {background.dims}"
        )

    model_ub = _fit_joint(target.union(background), opts)
    model_b = _fit_or_fast(background, opts)

    def score(t: TileSet, model_m, model_tb) -> float:
        return _combine(t, target, background, model_m, model_tb, model_ub, model_b).value

    chosen = TileSet(target.dims)
    # `union` drops repeated tiles, so the empty selection's chosen+bg set
    # is the background itself unless the background repeats a tile.
    empty_b = chosen.union(background)
    model_eb = model_b if empty_b.tiles == background.tiles else _fit_or_fast(empty_b, opts)
    best = score(chosen, model_ub, model_eb)
    remaining = list(candidates.tiles)
    selected: list[FreqTile] = []
    trace: list[float] = []

    while remaining:
        round_best = best
        round_pick = None
        for i, cand in enumerate(remaining):
            t = chosen.with_tile(cand)
            model_m = _fit_joint(t.union(target, background), opts)
            d = score(t, model_m, _fit_or_fast(t.union(background), opts))
            if d < round_best - _MIN_GAIN:
                round_best = d
                round_pick = i
        if round_pick is None:
            break
        cand = remaining.pop(round_pick)
        chosen = chosen.with_tile(cand)
        selected.append(cand)
        best = round_best
        trace.append(best)

    return Redescription(tuple(selected), tuple(trace), best)
