"""Greedy redescription: pick candidate tiles that approximate a target.

Repeatedly add the candidate that most reduces the distance to the
target tile set, stopping once no candidate gives a strict improvement.
Finding the optimal subset is intractable, so greedy is the intended
trade-off. The search starts from the empty selection, which is at
distance 1 from any target. The target+bg and bg models are the same
for every candidate, so they are fitted once per call; and as a model
depends only on its set of tiles, a candidate's joint model is kept in
a table keyed by that set and reused when the set recurs, with the two
KL terms that depend only on it, so they are computed once per joint:
see `fruits`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FreqTile, TileSet
from .divergence import _MIN_GAIN, _combine, _fit_joint, _fit_or_fast
from .errors import DimMismatch
from .maxent import FitOptions

# The most memory the joint models that `fruits` keeps from one round
# to the next may take, the base's own aside, each counted as an n×m
# float64 matrix (an exact model's two masks take a quarter of that,
# and the KL terms kept beside a model are two floats). A bound in
# bytes, not one model per candidate, keeps a call's memory bounded:
# 16 MB is 2 models at 1000×1000 and 23 at 300×300.
_KEPT_BYTES = 2**24


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
    bit for bit. `fit` gives a set the same model in any order, so a set
    that recurs reuses its model: target+bg and bg are fitted once, and
    each joint, base+cand with base = chosen+target+bg, is looked up in
    one table keyed by its set of tiles and fitted only when missing. A
    pick from the base changes no joint, so the table keeps its models
    for the next round, as many as `_KEPT_BYTES` holds (a call holds
    O(1) models, not one per candidate); a pick from outside grows the
    base, and the table keeps only the new base's model, the pick's
    joint. Once chosen+cand+bg holds the target, it is the joint. The
    empty selection is at distance 1 by definition, so it needs no fit.

    KL(M || target+bg) and KL(M || bg) depend only on the joint M, so
    each table entry keeps them beside its model once computed, and a
    recurring joint costs one `kl` call, KL(M || chosen+cand+bg), or
    none when chosen+cand+bg is the joint.
    """
    if background is None:
        background = TileSet(target.dims)
    if not (target.dims == candidates.dims == background.dims):
        raise DimMismatch(
            f"dims differ: {target.dims}, {candidates.dims}, {background.dims}"
        )

    model_ub = _fit_joint(target.union(background), opts)
    model_b = _fit_or_fast(background, opts)
    # base is chosen+target+bg; `joints` holds its model and those of
    # the sets base+cand fitted since it last grew, each as an entry
    # [model, (KL(M || target+bg), KL(M || bg)) or None until computed]
    base = frozenset(target.tiles) | frozenset(background.tiles)
    joints: dict[frozenset[FreqTile], list] = {base: [model_ub, None]}
    n, m = target.dims

    chosen = TileSet(target.dims)
    # d(empty, target; bg) = (0 + KL(M || bg)) / KL(M || bg) = 1 with
    # M = target+bg, and the Jaccard value of an empty area is 1 too.
    best = 1.0
    remaining = list(candidates.tiles)
    trace: list[float] = []

    while remaining:
        round_best = best
        round_pick = None
        # a joint is worth keeping only if a pick from the base may come
        keep = any(cand in base for cand in remaining)
        for i, cand in enumerate(remaining):
            t = chosen.with_tile(cand)
            key = base | {cand}
            entry = joints.get(key)
            if entry is None:
                entry = [_fit_joint(t.union(target, background), opts), None]
                if keep and len(joints) * 8 * n * m <= _KEPT_BYTES:
                    joints[key] = entry
            model_m, terms = entry
            t_bg = t.union(background)
            # t_bg lies in the joint, so with as many tiles it is the joint
            model_tb = model_m if len(t_bg) == len(key) else _fit_or_fast(t_bg, opts)
            report = _combine(t, target, background, model_m, model_tb, model_ub, model_b, terms)
            entry[1] = report.kl_m_u, report.kl_m_b
            if report.value < round_best - _MIN_GAIN:
                round_best = report.value
                round_pick = i
                pick_entry = entry
        if round_pick is None:
            break
        cand = remaining.pop(round_pick)
        if cand not in base:
            base |= {cand}
            joints = {base: pick_entry}
        chosen = chosen.with_tile(cand)
        best = round_best
        trace.append(best)

    return Redescription(chosen.tiles, tuple(trace), best)
