"""Acceptance gate: one test per shipped guarantee, each reporting a
single pass/fail line in the terminal summary.

The checks inside a criterion are collected rather than asserted one by
one, so a single run shows the full picture for that criterion.
"""

import math
import time
from itertools import combinations

import numpy as np

from tiledive import (
    FreqTile,
    Tile,
    TileSet,
    distance,
    empirical_frequency,
    fit,
    fitamin,
    fruits,
    kl,
    kl_by_entropy,
)
from tiledive.maxent import FitOptions
from tiledive.oracle import ipf_maxent, joint_kl

from conftest import (
    ACCEPTANCE_RESULTS,
    make_set,
    random_annotated_set,
    random_dataset,
    random_exact_instance,
)
from test_maxent import GOLDEN_B, GOLDEN_C, GOLDEN_D, GOLDEN_E, GOLDEN_F, GOLDEN_G

TIGHT = FitOptions(tolerance=1e-12)


class Checker:
    """Collects named sub-check failures for one criterion."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.failures: list[str] = []
        self.started = time.perf_counter()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, value, expected, tol: float, message: str) -> None:
        self.check(abs(value - expected) <= tol, f"{message}: {value!r} vs {expected!r}")

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.started
        self.check(
            elapsed < self.budget_s,
            f"took {elapsed:.1f}s, budget {self.budget_s:.0f}s",
        )
        ACCEPTANCE_RESULTS[self.number] = (self.label, not self.failures)
        assert not self.failures, (
            f"criterion {self.number} ({self.label}) failed:\n  "
            + "\n  ".join(self.failures)
        )


def _bernoulli_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats between product-Bernoulli grids, in plain numpy."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ones = np.where(p > 0, p * np.log(p / q), 0.0)
        zeros = np.where(p < 1, (1 - p) * np.log((1 - p) / (1 - q)), 0.0)
    return float((ones + zeros).sum())


def test_criterion_1_worked_example_goldens(toy_data, toy_tiles, toy_sets):
    c = Checker(1, "worked 5x5 example goldens", 1.0)
    freqs = [empirical_frequency(toy_tiles[i], toy_data) for i in range(1, 6)]
    c.check(freqs == [0.5, 1.0, 0.0, 1.0, 1.0], f"tile frequencies {freqs}")

    grids = {
        "b": (make_set(toy_data, toy_tiles[2], toy_tiles[4]), GOLDEN_B),
        "c": (make_set(toy_data, toy_tiles[2], toy_tiles[3], toy_tiles[5]), GOLDEN_C),
        "d": (make_set(toy_data, *(toy_tiles[i] for i in (2, 4, 3, 5))), GOLDEN_D),
        "e": (make_set(toy_data, *(toy_tiles[i] for i in (2, 4, 1))), GOLDEN_E),
        "f": (make_set(toy_data, *(toy_tiles[i] for i in (2, 3, 5, 1))), GOLDEN_F),
        "g": (make_set(toy_data, *(toy_tiles[i] for i in (2, 4, 3, 5, 1))), GOLDEN_G),
    }
    for name, (ts, expected) in grids.items():
        worst = float(np.abs(fit(ts, TIGHT).p - expected).max())
        c.check(worst <= 1e-9, f"model grid {name}: worst entry error {worst:.2e}")

    t, u, b, m = toy_sets["t"], toy_sets["u"], toy_sets["b"], toy_sets["m"]
    empty = toy_sets["empty"]

    c.close(distance(t, u, empty, TIGHT).value, 5 / 9, 1e-9, "d(t, u; none)")
    c.close(
        kl(fit(m, TIGHT), fit(t.union(b), TIGHT)),
        2 * math.log(6) + 10 * math.log(1.2),
        1e-3,
        "kl(joint || t+bg)",
    )
    d_bg = distance(t, u, b, TIGHT).value
    c.check(0.600 <= d_bg <= 0.610, f"d(t, u; bg) = {d_bg}")

    c.close(distance(u, m, empty, TIGHT).value, 6 / 22, 1e-9, "d(u, joint; none)")
    # U + T4 = {T2, T3, T4, T5} is grid (d); the joint set is grid (g).
    # Grid (g) is deterministic on 22 entries. Grid (d) leaves four of
    # them at 1/2 (row 2 cols 3-5, row 3 col 3): T1's ten 1s are already
    # fixed by T2, T4 and T5, so the joint pins those four to 0. Hence
    # d = (KL(g||d) + KL(g||g)) / KL(g||uniform) = 4 ln 2 / 22 ln 2 = 4/22.
    # The source's 3/22 cannot come from grids (d) and (g) as published.
    grown = u.union(make_set(toy_data, toy_tiles[4]))
    report = distance(grown, m, empty, TIGHT)
    c.close(report.value, 4 / 22, 1e-9, "d(u + bottom-right block, joint; none)")
    c.close(report.kl_m_t, 4 * math.log(2), 1e-9, "kl(joint || u + bottom-right block)")
    c.close(report.kl_m_u, 0.0, 1e-9, "kl(joint || joint)")
    c.close(report.kl_m_b, 22 * math.log(2), 1e-9, "kl(joint || uniform)")
    uniform = np.full(GOLDEN_G.shape, 0.5)
    c.close(
        (_bernoulli_kl(GOLDEN_G, GOLDEN_D) + _bernoulli_kl(GOLDEN_G, GOLDEN_G))
        / _bernoulli_kl(GOLDEN_G, uniform),
        4 / 22,
        1e-9,
        "d(grid d, grid g; none) from the published grids",
    )
    c.close(
        distance(u, u.union(t), empty, TIGHT).value, 2 / 18, 1e-9, "subset ratio"
    )
    c.finish()


def test_criterion_2_exact_distance_is_jaccard():
    c = Checker(2, "exact sets: general path equals area Jaccard", 30.0)
    rng = np.random.default_rng(1002)
    for i in range(200):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(3, 9))
        sizes = [int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(0, 3))]
        (t, u, b), _ = random_exact_instance(rng, n, m, sizes)
        general = distance(t, u, b, TIGHT, allow_jaccard=False).value
        fast = distance(t, u, b, TIGHT).value
        c.check(
            abs(general - fast) <= 1e-9,
            f"instance {i}: general {general!r} != jaccard {fast!r}",
        )
    c.finish()


def test_criterion_3_fit_contract():
    c = Checker(3, "fit hits every tile frequency within 1e-6", 60.0)
    rng = np.random.default_rng(1003)
    for i in range(100):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(3, 11))
        data = random_dataset(rng, n, m)
        ts = random_annotated_set(rng, data, int(rng.integers(1, 7)))
        model = fit(ts)  # default tolerance 1e-6
        c.check(model.residual <= 1e-6, f"instance {i}: residual {model.residual}")
        for ft in ts:
            block = model.p[np.ix_(ft.tile.row_index(), ft.tile.col_index())]
            err = abs(float(block.mean()) - ft.alpha)
            c.check(err <= 1e-6, f"instance {i}: tile residual {err}")
    c.finish()


def test_criterion_4_oracle_equivalence():
    c = Checker(4, "factorized model matches brute-force joint", 60.0)
    rng = np.random.default_rng(1004)
    shapes = [(3, 4), (4, 3), (2, 6), (3, 3), (2, 5)]
    for i in range(50):
        n, m = shapes[i % len(shapes)]
        data = random_dataset(rng, n, m)
        big = random_annotated_set(rng, data, int(rng.integers(2, 5)))
        small = TileSet(big.dims, big.tiles[:1])
        joint_big, joint_small = ipf_maxent(big), ipf_maxent(small)
        model_big, model_small = fit(big, TIGHT), fit(small, TIGHT)
        marg_err = float(np.abs(joint_big.entry_marginals() - model_big.p).max())
        c.check(marg_err <= 1e-4, f"instance {i}: marginal error {marg_err:.2e}")
        kl_err = abs(joint_kl(joint_big, joint_small) - kl(model_big, model_small))
        c.check(kl_err <= 1e-4, f"instance {i}: kl error {kl_err:.2e}")
    c.finish()


def test_criterion_5_distance_theory_suite():
    c = Checker(5, "distance bounds, identity, triangle, monotonicity", 60.0)
    rng = np.random.default_rng(1005)

    for i in range(30):  # bounds and self-distance, noisy
        data = random_dataset(rng, 6, 6)
        t = random_annotated_set(rng, data, 3)
        u = random_annotated_set(rng, data, 3)
        b = random_annotated_set(rng, data, 1)
        report = distance(t, u, b, TIGHT)
        c.check(report.value <= 2.0 + 1e-9, f"noisy bound broken: {report.value}")
        if report.kl_m_b > 1e-12:  # skip the degenerate everything-is-1 case
            self_d = distance(t, t, b, TIGHT).value
            c.check(abs(self_d) <= 1e-9, f"self-distance {self_d}")

    for i in range(30):  # exact bound and triangle inequality
        (t, s, u, b), _ = random_exact_instance(rng, 7, 7, [3, 3, 3, 2])
        dtu = distance(t, u, b, TIGHT).value
        c.check(dtu <= 1.0 + 1e-9, f"exact bound broken: {dtu}")
        dts = distance(t, s, b, TIGHT).value
        dsu = distance(s, u, b, TIGHT).value
        c.check(dtu <= dts + dsu + 1e-12, f"triangle broken: {dtu} > {dts} + {dsu}")

    for i in range(15):  # distance 1 when the area overlap is explained away
        data_entries = (rng.random((6, 6)) < 0.5).astype(np.uint8)
        data_entries[:, 2:4] = 1  # the shared columns carry no surprise
        from tiledive import BinaryDataset

        data = BinaryDataset(data_entries)
        t = make_set(data, Tile(range(1, 7), [1, 2, 3]))
        u = make_set(data, Tile(range(1, 7), [3, 4, 5]))
        b = make_set(data, Tile(range(1, 7), [3, 4]))
        d = distance(t, u, b, TIGHT).value
        c.check(abs(d - 1.0) <= 1e-9, f"explained-overlap distance {d} != 1")

    for i in range(10):  # moving a tile across shrinks the distance
        data = random_dataset(rng, 6, 6)
        t = random_annotated_set(rng, data, 3)
        u = random_annotated_set(rng, data, 3)
        b = random_annotated_set(rng, data, 1)
        base = distance(t, u, b, TIGHT).value
        for ft in u:
            grown = distance(t.union(TileSet(t.dims, (ft,))), u, b, TIGHT).value
            c.check(grown <= base + 1e-9, f"monotonicity broken: {grown} > {base}")

    for i in range(10):  # nested sets: both closed forms of the ratio
        data = random_dataset(rng, 6, 6)
        t = random_annotated_set(rng, data, 4)
        u = TileSet(t.dims, t.tiles[:2])
        b = random_annotated_set(rng, data, 1)
        report = distance(t, u, b, TIGHT)
        if report.kl_m_b <= 1e-12:
            continue
        c.check(
            abs(report.value - report.kl_m_u / report.kl_m_b) <= 1e-9,
            "nested form 1 broken",
        )
        alt = 1.0 - kl(fit(u.union(b), TIGHT), fit(b, TIGHT)) / report.kl_m_b
        c.check(abs(report.value - alt) <= 1e-9, "nested form 2 broken")
        # entropy-difference path for nested models
        model_m = fit(t.union(u, b), TIGHT)
        model_ub = fit(u.union(b), TIGHT)
        c.check(
            abs(kl_by_entropy(model_m, model_ub) - kl(model_m, model_ub)) <= 1e-9,
            "entropy-difference path disagrees with the entrywise path",
        )
    c.finish()


def _redescription_instance(rng, n=8):
    """Exact target plus a pool of 10 exact candidates.

    The pool mirrors the intended use (other miners describing the same
    structure): subtiles of the target's tiles, plus distractor tiles
    whose area is disjoint from the target's. Candidates that partially
    overlap the target are excluded on purpose: a single early pick of
    such a tile can cost greedy far more than any constant bound.
    """
    from tiledive import area_union

    (target, rand_pool, bg), _ = random_exact_instance(rng, n, n, [3, 6, 1])
    target_area = area_union(target)
    cands = [
        ft for ft in rand_pool.tiles if not (ft.tile.entry_set() & target_area)
    ][:3]
    source = target.tiles
    while len(cands) < 10:
        ft = source[int(rng.integers(0, len(source)))]
        rows, cols = ft.tile.rows, ft.tile.cols
        nr = int(rng.integers(1, len(rows) + 1))
        nc = int(rng.integers(1, len(cols) + 1))
        rsel = tuple(sorted(rng.choice(rows, nr, replace=False)))
        csel = tuple(sorted(rng.choice(cols, nc, replace=False)))
        cands.append(FreqTile(Tile(rsel, csel), ft.alpha))
    order = rng.permutation(len(cands))
    return target, TileSet(target.dims, tuple(cands[i] for i in order)), bg


def test_criterion_6_greedy_redescription_gap():
    c = Checker(6, "greedy redescription versus exhaustive optimum", 60.0)
    rng = np.random.default_rng(1006)
    ties = 0
    total = 50
    for i in range(total):
        target, cands, bg = _redescription_instance(rng)
        greedy = fruits(target, cands, bg).final_distance
        best = min(
            distance(TileSet(target.dims, sub), target, bg).value
            for size in range(len(cands.tiles) + 1)
            for sub in combinations(cands.tiles, size)
        )
        c.check(
            greedy <= best + 0.05,
            f"instance {i}: greedy {greedy} exceeds optimum {best} by > 0.05",
        )
        if greedy <= best + 1e-9:
            ties += 1
    c.check(
        ties >= 0.8 * total, f"greedy optimal in only {ties}/{total} instances"
    )
    c.finish()


def _low_overlap_set(rng, data, k: int, cap: float = 0.0) -> TileSet:
    """Random small tiles that pairwise reuse at most `cap` of their area.

    The heuristic ranking is only expected to track the exact one when
    tiles carry mostly independent information; with heavy overlap the
    two orderings legitimately diverge by large margins.
    """
    tiles = []
    used = np.zeros((data.n, data.m), dtype=bool)
    tries = 0
    while len(tiles) < k and tries < 50 * k:
        tries += 1
        r0 = int(rng.integers(0, data.n - 1))
        r1 = int(rng.integers(r0 + 1, min(r0 + 4, data.n) + 1))
        c0 = int(rng.integers(0, data.m - 1))
        c1 = int(rng.integers(c0 + 1, min(c0 + 4, data.m) + 1))
        mask = np.zeros_like(used)
        mask[r0:r1, c0:c1] = True
        if (mask & used).sum() > cap * mask.sum():
            continue
        used |= mask
        tiles.append(Tile(range(r0 + 1, r1 + 1), range(c0 + 1, c1 + 1)))
    return TileSet(
        data.dims,
        tuple(FreqTile(t, empirical_frequency(t, data)) for t in tiles),
    )


def test_criterion_7_ranking_heuristic_fidelity():
    c = Checker(7, "heuristic ranking tracks the exact ranking", 120.0)
    rng = np.random.default_rng(1007)
    agree = 0
    total = 50
    for i in range(total):
        data = random_dataset(rng, 12, 12)
        tiles = _low_overlap_set(rng, data, 10)
        exact = fitamin(tiles, None, "exact")
        heur = fitamin(tiles, None, "heuristic")
        if exact.order[0].tile == heur.order[0].tile:
            agree += 1
        worst = max(abs(a - b) for a, b in zip(exact.trace, heur.trace))
        c.check(worst <= 0.01, f"instance {i}: traces diverge by {worst:.4f}")
    c.check(agree >= 0.9 * total, f"first picks agree in only {agree}/{total}")
    c.finish()
