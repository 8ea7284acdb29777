"""KL divergence between fitted models and the normalized tile-set distance.

The distance between two tile sets, given background knowledge, is
(KL(M || right+bg) + KL(M || left+bg)) / KL(M || bg) with M the model
for the union of all three sets. When every tile involved is exact the
same value equals the Jaccard dissimilarity of the covered areas minus
the background area, which is used as a fast path. There each model is
0 or 1 on its tiles' area and 1/2 elsewhere, and held as two boolean
masks, so each KL term is ln 2 times a count of mask entries.

`distance` fits four models and `_combine` turns them into the report.
`distance_matrix` and `redescribe.fruits` fit the models that pairs
share once. `fit` depends only on the set of tiles, not on their order,
so a shared model is the one per-pair `distance` would fit, and values
are bit-identical to per-pair `distance`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import TileSet
from .errors import (
    DimMismatch,
    ConsistencyError,
    InfiniteDivergence,
    NoConvergence,
    NotExact,
)
from .maxent import EntryModel, FitOptions, exact_fastpath, fit

# Below this, KL(M || bg) is treated as zero and the distance defined as 1.
_ZERO_KL = 1e-12

# Least improvement that counts when a search compares candidates: a
# smaller one is rounding, and the candidate met first keeps its place.
_MIN_GAIN = 1e-12

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class DistanceReport:
    """Distance value plus the three KL terms (nats) behind it.

    On the Jaccard path the value is `jaccard_distance` and each KL term
    is ln 2 times an area count (see `distance`).
    """

    value: float
    kl_m_t: float
    kl_m_u: float
    kl_m_b: float
    used_jaccard_path: bool


def kl(model_a: EntryModel, model_b: EntryModel) -> float:
    """KL(model_a || model_b) in nats: the sum over entries and both
    outcomes of pa * log(pa / pb).

    Finite whenever model_b was fitted for a subset of model_a's tiles:
    any entry deterministic under b is then deterministic under a with
    the same value.
    """
    if model_a.dims != model_b.dims:
        raise DimMismatch(f"model dims differ: {model_a.dims} vs {model_b.dims}")
    pa, pb = model_a.p, model_b.p
    det_clash = ((pb == 0.0) & (pa > 0.0)) | ((pb == 1.0) & (pa < 1.0))
    if det_clash.any():
        i, j = np.argwhere(det_clash)[0]
        raise InfiniteDivergence(
            f"entry ({i + 1}, {j + 1}) is deterministic in the reference "
            f"model but not in the compared model"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = np.where(pa > 0.0, pa * (np.log(pa) - np.log(pb)), 0.0)
        neg = np.where(pa < 1.0, (1.0 - pa) * (np.log1p(-pa) - np.log1p(-pb)), 0.0)
    return float((pos + neg).sum())


def jaccard_distance(t: TileSet, u: TileSet, b: TileSet) -> float:
    """1 - |X n Y| / |X u Y| with X, Y the covered areas outside b's area.

    Only defined for all-exact tile sets; returns 1 when both areas are
    contained in the background area.
    """
    for ts in (t, u, b):
        if not ts.all_exact():
            raise NotExact("jaccard_distance requires all tiles to be exact")
    bg = b.area_mask()
    x = t.area_mask() & ~bg
    y = u.area_mask() & ~bg
    union = int(np.count_nonzero(x | y))
    if union == 0:
        return 1.0
    return 1.0 - int(np.count_nonzero(x & y)) / union


def _fit_or_fast(ts: TileSet, opts: FitOptions) -> EntryModel:
    if ts.all_exact():
        return exact_fastpath(ts)
    return fit(ts, opts)


def _fit_joint(ts: TileSet, opts: FitOptions) -> EntryModel:
    """Fit a joint model; there, non-convergence means inconsistent sets."""
    try:
        return _fit_or_fast(ts, opts)
    except NoConvergence as exc:
        raise ConsistencyError(f"joint model did not converge: {exc}") from exc


def _area(model: EntryModel) -> int:
    """Entry count of an exact model's area: its mask entries (disjoint)."""
    ones, zeros = model.masks
    return int(np.count_nonzero(ones)) + int(np.count_nonzero(zeros))


def _combine(
    t: TileSet,
    u: TileSet,
    b: TileSet,
    model_m: EntryModel,
    model_tb: EntryModel,
    model_ub: EntryModel,
    model_b: EntryModel,
) -> DistanceReport:
    """The distance report from the models of t+u+b, t+b, u+b and b."""
    if t.all_exact() and u.all_exact() and b.all_exact():
        # Each model is 0 or 1 on its area and 1/2 elsewhere, and M's area
        # holds the others', on which they agree: KL(M || X) is ln 2 per
        # entry of area(M) minus area(X).
        area_m = _area(model_m)
        kl_m_t, kl_m_u, kl_m_b = (
            _LN2 * (area_m - _area(model)) for model in (model_tb, model_ub, model_b)
        )
        value = jaccard_distance(t, u, b)
        return DistanceReport(value, kl_m_t, kl_m_u, kl_m_b, used_jaccard_path=True)

    kl_m_t = kl(model_m, model_tb)
    kl_m_u = kl(model_m, model_ub)
    kl_m_b = kl(model_m, model_b)
    if kl_m_b <= _ZERO_KL:
        value = 1.0
    else:
        value = (kl_m_u + kl_m_t) / kl_m_b
    return DistanceReport(value, kl_m_t, kl_m_u, kl_m_b, used_jaccard_path=False)


def distance(
    t: TileSet,
    u: TileSet,
    b: TileSet | None = None,
    opts: FitOptions = FitOptions(),
) -> DistanceReport:
    """Normalized distance between tile sets t and u given background b.

    Fits models for t+u+b, t+b, u+b, and b, and returns the KL ratio.
    Falls back to the Jaccard form when every tile is exact (identical
    value, no iteration). With X and Y the areas of t and u outside b's
    area, the KL terms are then ln 2 times the entry counts of Y minus X,
    X minus Y and the union of X and Y, counted on the models' masks:
    no float model, no KL pass. Every call builds all four models; to
    compare many pairs, use `distance_matrix`, which shares them.
    """
    if b is None:
        b = TileSet(t.dims)
    # `union` raises DimMismatch for a set on other dims
    model_m = _fit_joint(t.union(u, b), opts)
    model_tb = _fit_or_fast(t.union(b), opts)
    model_ub = _fit_or_fast(u.union(b), opts)
    model_b = _fit_or_fast(b, opts)
    return _combine(t, u, b, model_m, model_tb, model_ub, model_b)


def distance_matrix(
    sets: Sequence[TileSet],
    b: TileSet | None = None,
    opts: FitOptions = FitOptions(),
) -> list[list[float]]:
    """Symmetric matrix of `distance(sets[i], sets[j], b, opts).value`.

    Fits each set+b once, b once, and one joint model per pair i < j:
    N + 1 + N(N-1)/2 fits where per-pair calls make 4 N(N+1)/2. A
    diagonal entry's joint is set+b itself. The values are bit-identical
    to those of per-pair `distance` calls.
    """
    if not sets:
        return []
    if b is None:
        b = TileSet(sets[0].dims)
    # Each set+b is the joint of its diagonal entry, so it is fitted as
    # one; `union` raises DimMismatch for a set on other dims.
    models = [_fit_joint(s.union(b), opts) for s in sets]
    model_b = _fit_or_fast(b, opts)
    values = [[0.0] * len(sets) for _ in sets]
    for i, t in enumerate(sets):
        for j in range(i, len(sets)):
            u = sets[j]
            model_m = models[i] if i == j else _fit_joint(t.union(u, b), opts)
            d = _combine(t, u, b, model_m, models[i], models[j], model_b).value
            values[i][j] = values[j][i] = d
    return values
