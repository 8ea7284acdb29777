"""Brute-force reference model over the explicit space of all datasets.

Enumerates every n x m binary dataset as a bit pattern (n*m <= 16, so
at most 65536 of them) and fits the maximum-entropy joint distribution
by iterative proportional fitting directly on the dataset weights.
The tests check the package against it and against `kl_by_entropy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tiledive import EntryModel, TileSet
from tiledive.errors import DimMismatch, InfiniteDivergence, NoConvergence, TilediveError

MAX_CELLS = 16


class SizeLimit(TilediveError):
    """A brute-force operation was asked to enumerate too large a space."""


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A probability per enumerated dataset; index = row-major bit pattern."""

    dims: tuple[int, int]
    weights: np.ndarray

    def __post_init__(self):
        self.weights.setflags(write=False)

    def entry_marginals(self) -> np.ndarray:
        """P[(i, j) = 1] for every entry, as an n x m matrix."""
        n, m = self.dims
        out = np.zeros((n, m))
        idx = np.arange(len(self.weights))
        for i in range(n):
            for j in range(m):
                bit = i * m + j
                out[i, j] = self.weights[(idx >> bit) & 1 == 1].sum()
        return out


def _tile_counts(ts: TileSet) -> list[np.ndarray]:
    """Per tile: number of 1s inside its area, for every enumerated dataset."""
    n, m = ts.dims
    idx = np.arange(1 << (n * m))
    counts = []
    for ft in ts.tiles:
        bits = [(i - 1) * m + (j - 1) for i in ft.tile.rows for j in ft.tile.cols]
        c = np.zeros(len(idx), dtype=np.int64)
        for b in bits:
            c += (idx >> b) & 1
        counts.append(c)
    return counts


def ipf_maxent(
    ts: TileSet, tolerance: float = 1e-10, max_rounds: int = 20_000
) -> JointDistribution:
    """Iterative proportional fitting on the explicit joint distribution.

    Starts uniform and repeatedly rescales dataset weights within each
    tile's sufficient statistic until all tile frequencies match. Since
    a dataset's weight depends only on its vector of per-tile counts,
    the fit runs on count-vector equivalence classes, and the class
    weights are spread back over their members at the end.
    """
    n, m = ts.dims
    if n * m > MAX_CELLS:
        raise SizeLimit(f"{n}x{m} exceeds the {MAX_CELLS}-cell enumeration cap")
    size = 1 << (n * m)
    counts = np.array(_tile_counts(ts), dtype=np.int64).reshape(len(ts.tiles), size)
    areas = [ft.tile.area for ft in ts.tiles]
    targets = [ft.alpha * a for ft, a in zip(ts.tiles, areas)]

    # exact tiles: drop datasets violating the hard constraint
    support = np.ones(size, dtype=bool)
    for cnt, ft, a in zip(counts, ts.tiles, areas):
        if ft.alpha == 0.0:
            support &= cnt == 0
        elif ft.alpha == 1.0:
            support &= cnt == a
    if not support.any():
        raise NoConvergence("exact tiles are mutually inconsistent")
    members = np.flatnonzero(support)

    keys, inverse, sizes = np.unique(
        counts[:, members], axis=1, return_inverse=True, return_counts=True
    )
    gw = sizes / float(len(members))  # weight per equivalence class
    gcounts = [keys[j] for j in range(len(ts.tiles))]

    def residual() -> float:
        worst = 0.0
        for cnt, t, a in zip(gcounts, targets, areas):
            worst = max(worst, abs(float(gw @ cnt) - t) / a)
        return worst

    for _ in range(min(max_rounds, 300)):
        if residual() <= tolerance:
            break
        for cnt, ft, t in zip(gcounts, ts.tiles, targets):
            if ft.exact:
                continue
            gw = _rescale(gw, cnt, t, inner_tol=tolerance / 100.0)
    if residual() > tolerance:
        # proportional fitting crawls when the optimum kills off classes;
        # finish with Newton on the exponential-family parameters
        gw = _newton_joint(gcounts, sizes, targets, areas, tolerance)
        if residual() > tolerance:
            raise NoConvergence(
                f"IPF residual {residual():.3g} > {tolerance:.3g}"
            )
    w = np.zeros(size)
    w[members] = (gw / sizes)[inverse]
    return JointDistribution((n, m), w)


def _newton_joint(
    gcounts: list[np.ndarray],
    sizes: np.ndarray,
    targets: list[float],
    areas: list[int],
    tolerance: float,
    budget: int = 500,
) -> np.ndarray:
    """Damped Newton for the joint maxent weights on count classes.

    The maxent joint is exponential-family in the per-tile counts:
    w_g proportional to size_g * exp(sum_j lam_j * cnt_jg). Minimizes
    log Z(lam) - lam . targets, whose gradient is the moment mismatch
    and whose Hessian is the count covariance.
    """
    counts = np.array(gcounts, dtype=float)
    t = np.asarray(targets, dtype=float)
    a = np.asarray(areas, dtype=float)
    k = len(t)
    log_base = np.log(sizes.astype(float))

    def state(lam):
        lw = log_base + counts.T @ lam
        top = lw.max()
        e = np.exp(lw - top)
        z = float(e.sum())
        return e / z, top + np.log(z) - float(lam @ t)

    lam = np.zeros(k)
    w, obj = state(lam)
    for _ in range(budget):
        mu = counts @ w
        grad = mu - t
        res = float(np.max(np.abs(grad) / a))
        if res <= tolerance:
            break
        centered = counts - mu[:, None]
        hess = (centered * w) @ centered.T
        ridge = 1e-12 * max(float(hess.diagonal().max()), 1.0)
        step = np.linalg.solve(hess + ridge * np.eye(k), -grad)
        descent = float(grad @ step)
        if descent >= 0.0:
            step = -grad
            descent = float(grad @ step)
        scale = 1.0
        for _ in range(60):
            cand = lam + scale * step
            w2, obj2 = state(cand)
            if obj2 <= obj + 1e-4 * scale * descent:
                break
            if float(np.max(np.abs(counts @ w2 - t) / a)) <= 0.5 * res:
                break
            scale *= 0.5
        lam, w, obj = cand, w2, obj2
    return w


def _rescale(
    w: np.ndarray, cnt: np.ndarray, target: float, inner_tol: float = 1e-12
) -> np.ndarray:
    """Multiply weights by x**cnt with x chosen so E[cnt] hits target."""
    support = w > 0.0
    lo_cnt = int(cnt[support].min())
    hi_cnt = int(cnt[support].max())
    if lo_cnt == hi_cnt:
        return w
    if target <= lo_cnt + 1e-12 or target >= hi_cnt - 1e-12:
        # limit of the scaling: mass concentrates on the extreme counts
        extreme = lo_cnt if target <= lo_cnt + 1e-12 else hi_cnt
        v = np.where(support & (cnt == extreme), w, 0.0)
        return v / v.sum()

    def reweigh(log_x: float) -> np.ndarray:
        expo = np.where(support, log_x * cnt, -np.inf)
        expo -= expo[support].max()
        v = w * np.exp(expo)
        return v / v.sum()

    def mean_under(log_x: float) -> float:
        return float(reweigh(log_x) @ cnt)

    lo, hi = -1.0, 1.0
    while mean_under(lo) > target:
        lo *= 2
    while mean_under(hi) < target:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = mean_under(mid)
        if abs(value - target) <= inner_tol:
            lo = hi = mid
            break
        if value < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(lo)):
            break
    return reweigh(0.5 * (lo + hi))


def joint_kl(a: JointDistribution, b: JointDistribution) -> float:
    """KL(a || b) in nats over the enumerated dataset space."""
    if a.dims != b.dims:
        raise ValueError(f"dims differ: {a.dims} vs {b.dims}")
    wa, wb = a.weights, b.weights
    bad = (wb == 0.0) & (wa > 0.0)
    if bad.any():
        raise InfiniteDivergence("support of a is not contained in support of b")
    mask = wa > 0.0
    return float((wa[mask] * np.log(wa[mask] / wb[mask])).sum())


def entropy(model: EntryModel) -> float:
    """Total entropy in nats: sum of per-entry Bernoulli entropies."""
    p = model.p
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -np.where(p > 0.0, p * np.log(p), 0.0) - np.where(
            p < 1.0, (1.0 - p) * np.log1p(-p), 0.0
        )
    return float(terms.sum())


def kl_by_entropy(model_a: EntryModel, model_b: EntryModel) -> float:
    """KL(model_a || model_b) via the entropy difference H(b) - H(a).

    Valid under the same subset precondition as `tiledive.kl`; serves as
    an independent cross-check path.
    """
    if model_a.dims != model_b.dims:
        raise DimMismatch(f"model dims differ: {model_a.dims} vs {model_b.dims}")
    return entropy(model_b) - entropy(model_a)
