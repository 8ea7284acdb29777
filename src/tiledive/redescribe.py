"""Greedy redescription: pick candidate tiles that approximate a target.

Repeatedly add the candidate that most reduces the distance to the
target tile set, stopping once no candidate gives a strict improvement.
Finding the optimal subset is intractable, so greedy is the intended
trade-off. `rank.fitamin` runs the same loop, `_greedy`, with the ranked
tiles as both target and candidates, and ranks every tile. Models and KL
terms that recur are computed once per call: see `_greedy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FreqTile, TileSet
from .divergence import _MIN_GAIN, _ZERO_KL, _combine, _fit_joint, _fit_or_fast
from .errors import DimMismatch
from .maxent import FitOptions

# The most memory the joint models that `_greedy` keeps from one round
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
    bit for bit.
    """
    selected, trace = _greedy(target, candidates, background, opts, stop=True)
    return Redescription(selected, trace, trace[-1] if trace else 1.0)


def _greedy(
    target: TileSet,
    pool: TileSet,
    background: TileSet | None,
    opts: FitOptions,
    stop: bool,
    score=None,
) -> tuple[tuple[FreqTile, ...], tuple[float, ...]]:
    """The selection from `pool` and its trace of distances to `target`.

    With `stop`, the search ends at a round that improves on the last
    distance by no more than `_MIN_GAIN`; without, each round takes its
    best candidate until `pool` is used up. With a `score`, a round
    evaluates only the candidate that `score(cand, model of chosen+bg)`
    ranks first, ties within a relative `_MIN_GAIN` going to the earlier.

    `fit` gives a set the same model in any order, so target+bg and bg
    are fitted once, and each joint, base+cand with base =
    chosen+target+bg, is looked up in one table keyed by its set of
    tiles and fitted only when missing. A pick from the base changes no
    joint, so the table keeps its models for the next round, as many as
    `_KEPT_BYTES` holds; a pick from outside grows the base, and the
    table keeps only the new base's model, the pick's joint. Each entry
    keeps KL(M || target+bg) and KL(M || bg), which depend only on the
    joint M, beside its model, so a recurring joint costs one `kl`
    call, KL(M || chosen+cand+bg), or none when that set is the joint.
    When `pool` lies in the base, every joint is the base; if then KL(M || bg)
    is zero, every distance is 1, and without a `score` nothing is fitted.
    """
    if background is None:
        background = TileSet(target.dims)
    if not (target.dims == pool.dims == background.dims):
        raise DimMismatch(
            f"dims differ: {target.dims}, {pool.dims}, {background.dims}"
        )

    model_ub = _fit_joint(target.union(background), opts)
    model_b = _fit_or_fast(background, opts)
    # base is chosen+target+bg; `joints` holds its model and those of
    # the sets base+cand fitted since it last grew, each as an entry
    # [model, (KL(M || target+bg), KL(M || bg)) or None until computed]
    base = frozenset(target.tiles) | frozenset(background.tiles)
    joints: dict[frozenset[FreqTile], list] = {base: [model_ub, None]}
    n, m = target.dims
    if pool.tiles and base.issuperset(pool.tiles):
        report = _combine(target, target, background, model_ub, model_ub, model_ub, model_b)
        joints[base][1] = report.kl_m_u, report.kl_m_b
        if report.kl_m_b <= _ZERO_KL * n * m and score is None:
            return ((), ()) if stop else (pool.tiles, (1.0,) * len(pool))

    chosen = TileSet(target.dims)
    # d(empty, target; bg) = (0 + KL(M || bg)) / KL(M || bg) = 1 with
    # M = target+bg, and the Jaccard value of an empty area is 1 too.
    best, model_cb = 1.0, model_b  # model_cb: the model of chosen+bg
    remaining = list(pool.tiles)
    trace: list[float] = []

    while remaining:
        round_best = best if stop else math.inf
        round_pick = None
        evaluated = enumerate(remaining)
        if score is not None:
            scores = [score(cand, model_cb) for cand in remaining]
            top = 0
            for i, s in enumerate(scores):
                if s > scores[top] + _MIN_GAIN * max(1.0, scores[top]):
                    top = i
            evaluated = [(top, remaining[top])]
        # a joint is worth keeping only if a pick from the base may come
        keep = any(cand in base for cand in remaining)
        for i, cand in evaluated:
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
                model_cb = model_tb
        if round_pick is None:
            break
        cand = remaining.pop(round_pick)
        if cand not in base:
            base |= {cand}
            joints = {base: pick_entry}
        chosen = chosen.with_tile(cand)
        best = round_best
        trace.append(best)

    return chosen.tiles, tuple(trace)
