"""Greedy redescription: pick candidate tiles that approximate a target.

Repeatedly add the candidate that most reduces the distance to the
target tile set, stopping once no candidate gives a strict improvement.
Finding the optimal subset is intractable, so greedy is the intended
trade-off. The search starts from the empty selection, which is at
distance 1 from any target. The target+bg and bg models are the same
for every candidate, so they are fitted once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FreqTile, TileSet
from .divergence import _MIN_GAIN, _combine, _fit_joint, _fit_or_fast
from .errors import DimMismatch
from .maxent import FitOptions


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
    per candidate: target+bg and bg are fitted once. The empty selection
    is at distance 1 by definition, so it needs no fit.
    """
    if background is None:
        background = TileSet(target.dims)
    if not (target.dims == candidates.dims == background.dims):
        raise DimMismatch(
            f"dims differ: {target.dims}, {candidates.dims}, {background.dims}"
        )

    model_ub = _fit_joint(target.union(background), opts)
    model_b = _fit_or_fast(background, opts)

    chosen = TileSet(target.dims)
    # d(empty, target; bg) = (0 + KL(M || bg)) / KL(M || bg) = 1 with
    # M = target+bg, and the Jaccard value of an empty area is 1 too.
    best = 1.0
    remaining = list(candidates.tiles)
    selected: list[FreqTile] = []
    trace: list[float] = []

    while remaining:
        round_best = best
        round_pick = None
        for i, cand in enumerate(remaining):
            t = chosen.with_tile(cand)
            model_m = _fit_joint(t.union(target, background), opts)
            model_tb = _fit_or_fast(t.union(background), opts)
            d = _combine(t, target, background, model_m, model_tb, model_ub, model_b).value
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
