import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiledive import (
    FreqTile,
    Tile,
    TileSet,
    background_tiles,
    bernoulli_update,
    density_tile,
    exact_fastpath,
    fit,
    margin_tiles,
    model_frequency,
)
from tiledive.maxent import FitOptions
from tiledive.errors import ConflictingExactTiles, InfeasibleTile, InputError, NoConvergence

from conftest import make_set, random_annotated_set, random_dataset
from oracle import entropy

TIGHT = FitOptions(tolerance=1e-12)

H = 0.5
S = 1 / 6.0
T = 1 / 3.0

GOLDEN_B = np.array([
    [1, 1, H, H, H],
    [1, 1, H, H, H],
    [H, H, H, H, H],
    [H, H, 1, 1, 1],
    [H, H, 1, 1, 1],
])
GOLDEN_C = np.array([
    [1, 1, H, H, H],
    [1, 1, H, H, H],
    [0, 0, H, 1, 1],
    [0, 0, H, 1, 1],
    [0, 0, H, 1, 1],
])
GOLDEN_D = np.array([
    [1, 1, H, H, H],
    [1, 1, H, H, H],
    [0, 0, H, 1, 1],
    [0, 0, 1, 1, 1],
    [0, 0, 1, 1, 1],
])
GOLDEN_E = np.array([
    [1, 1, H, H, H],
    [1, 1, S, S, S],
    [S, S, S, S, S],
    [S, S, 1, 1, 1],
    [S, S, 1, 1, 1],
])
GOLDEN_F = np.array([
    [1, 1, H, H, H],
    [1, 1, T, T, T],
    [0, 0, T, 1, 1],
    [0, 0, T, 1, 1],
    [0, 0, T, 1, 1],
])
GOLDEN_G = np.array([
    [1, 1, H, H, H],
    [1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1],
    [0, 0, 1, 1, 1],
    [0, 0, 1, 1, 1],
])


class TestBernoulliUpdate:
    @given(y=st.floats(0, 1))
    def test_identity_scale(self, y):
        assert bernoulli_update(y, 1.0) == pytest.approx(y, abs=1e-15)

    def test_direct_value(self):
        assert bernoulli_update(0.5, 3.0) == pytest.approx(0.75)

    @given(x=st.floats(1e-6, 1e6))
    def test_fixed_points(self, x):
        assert bernoulli_update(0.0, x) == 0.0
        assert bernoulli_update(1.0, x) == 1.0

    @given(
        y=st.floats(0.01, 0.99),
        x1=st.floats(0.01, 100.0),
        x2=st.floats(0.01, 100.0),
    )
    def test_strictly_increasing_in_scale(self, y, x1, x2):
        # Adjacent scales can round to one value (x = 100 against the
        # float below it), so strict increase is asserted only for scales
        # a relative 1e-9 apart; y = 0.99 at x = 100 needs about 1e-12.
        lo, hi = sorted((x1, x2))
        assert bernoulli_update(y, lo) <= bernoulli_update(y, hi)
        if hi - lo >= 1e-9 * hi:
            assert bernoulli_update(y, lo) < bernoulli_update(y, hi)


class TestToyModels:
    def test_golden_grid_b(self, toy_data, toy_tiles):
        ts = make_set(toy_data, toy_tiles[2], toy_tiles[4])
        np.testing.assert_allclose(fit(ts, TIGHT).p, GOLDEN_B, atol=1e-9)

    def test_golden_grid_c(self, toy_data, toy_tiles):
        ts = make_set(toy_data, toy_tiles[2], toy_tiles[3], toy_tiles[5])
        np.testing.assert_allclose(fit(ts, TIGHT).p, GOLDEN_C, atol=1e-9)

    def test_golden_grid_d(self, toy_data, toy_tiles):
        ts = make_set(toy_data, *(toy_tiles[i] for i in (2, 4, 3, 5)))
        np.testing.assert_allclose(fit(ts, TIGHT).p, GOLDEN_D, atol=1e-9)

    def test_golden_grid_e(self, toy_data, toy_tiles):
        ts = make_set(toy_data, *(toy_tiles[i] for i in (2, 4, 1)))
        np.testing.assert_allclose(fit(ts, TIGHT).p, GOLDEN_E, atol=1e-9)

    def test_golden_grid_f(self, toy_data, toy_tiles):
        ts = make_set(toy_data, *(toy_tiles[i] for i in (2, 3, 5, 1)))
        np.testing.assert_allclose(fit(ts, TIGHT).p, GOLDEN_F, atol=1e-9)

    def test_golden_grid_g(self, toy_data, toy_tiles):
        ts = make_set(toy_data, *(toy_tiles[i] for i in (2, 4, 3, 5, 1)))
        np.testing.assert_allclose(fit(ts, TIGHT).p, GOLDEN_G, atol=1e-9)

    def test_uniform_noisy_square(self):
        ts = TileSet((2, 2), (FreqTile(Tile([1, 2], [1, 2]), 0.75),))
        np.testing.assert_allclose(fit(ts, TIGHT).p, np.full((2, 2), 0.75), atol=1e-12)


class TestExactFastpath:
    def test_matches_fit_bit_identical(self, toy_data, toy_tiles):
        for ids in [(2, 4), (2, 3, 5), (2, 4, 3, 5)]:
            ts = make_set(toy_data, *(toy_tiles[i] for i in ids))
            fast = exact_fastpath(ts)
            slow = fit(ts, TIGHT)
            assert (fast.p == slow.p).all()

    def test_empty_set_uniform(self):
        model = exact_fastpath(TileSet((4, 3)))
        assert (model.p == 0.5).all()

    def test_random_exact_sets(self):
        from conftest import random_exact_instance

        rng = np.random.default_rng(11)
        for _ in range(20):
            (ts,), _ = random_exact_instance(rng, 5, 5, [4])
            reversed_ts = TileSet(ts.dims, ts.tiles[::-1])
            for s in (ts, reversed_ts):
                assert (exact_fastpath(s).p == fit(s, TIGHT).p).all()


class TestModelFrequency:
    def test_toy_background_tile_on_golden_e(self, toy_data, toy_tiles):
        ts = make_set(toy_data, *(toy_tiles[i] for i in (2, 4, 1)))
        model = fit(ts, TIGHT)
        assert model_frequency(toy_tiles[1], model) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_model(self):
        model = exact_fastpath(TileSet((3, 3)))
        assert model_frequency(Tile([1, 3], [2]), model) == 0.5

    def test_matches_targets_after_fit(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 7, 6)
        ts = random_annotated_set(rng, data, 5)
        model = fit(ts, TIGHT)
        for ft in ts:
            assert model_frequency(ft.tile, model) == pytest.approx(ft.alpha, abs=1e-11)


class TestEntropy:
    def test_uniform(self):
        assert entropy(exact_fastpath(TileSet((5, 5)))) == pytest.approx(25 * np.log(2))

    def test_golden_grid_g_three_free_entries(self, toy_data, toy_tiles):
        ts = make_set(toy_data, *toy_tiles.values())
        assert entropy(fit(ts, TIGHT)) == pytest.approx(3 * np.log(2), abs=1e-9)

    def test_zero_log_zero_convention(self, toy_data, toy_tiles):
        ts = make_set(toy_data, toy_tiles[2], toy_tiles[3])
        assert np.isfinite(entropy(exact_fastpath(ts)))


class TestFitContracts:
    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, 1.0, 2.0, float("inf"), float("nan")])
    def test_tolerance_outside_unit_interval_rejected(self, tolerance):
        # a residual never reaches 1, so such a tolerance would accept
        # the unfitted start
        with pytest.raises(InputError, match="tolerance"):
            FitOptions(tolerance=tolerance)

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data = random_dataset(rng, 8, 8)
            ts = random_annotated_set(rng, data, 5)
            model = fit(ts)
            assert model.residual <= 1e-6

    def test_idempotent_refit(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 6, 6)
        ts = random_annotated_set(rng, data, 4)
        model = fit(ts, TIGHT)
        refit_set = TileSet(
            ts.dims,
            tuple(FreqTile(ft.tile, model_frequency(ft.tile, model)) for ft in ts),
        )
        again = fit(refit_set, TIGHT)
        np.testing.assert_allclose(again.p, model.p, atol=1e-9)

    def test_uncovered_entries_stay_half(self):
        ts = TileSet((4, 4), (FreqTile(Tile([1, 2], [1, 2]), 0.3),))
        model = fit(ts, TIGHT)
        assert (model.p[2:, :] == 0.5).all()
        assert (model.p[:, 2:] == 0.5).all()

    def test_conflicting_exact_tiles(self):
        ts = TileSet(
            (3, 3),
            (FreqTile(Tile([1, 2], [1]), 1.0), FreqTile(Tile([2, 3], [1]), 0.0)),
        )
        with pytest.raises(ConflictingExactTiles):
            fit(ts)
        with pytest.raises(ConflictingExactTiles):
            exact_fastpath(ts)

    def test_infeasible_noisy_tile(self):
        # the exact tile forces 2 of the 4 entries to 1, so the noisy
        # tile's frequency cannot go below 1/2
        ts = TileSet(
            (2, 2),
            (FreqTile(Tile([1], [1, 2]), 1.0), FreqTile(Tile([1, 2], [1, 2]), 0.25)),
        )
        with pytest.raises(InfeasibleTile):
            fit(ts)

    @pytest.mark.parametrize("order", ["ABC", "CBA", "BAC"])
    def test_infeasible_noisy_tile_named_in_any_order(self, order):
        # A and C force (1,1) and (1,2) to 1, so B cannot reach 1/2. Had
        # B settled first after A, it would pin (1,2) to 0 and C would
        # look like a clash between exact tiles.
        tiles = {
            "A": FreqTile(Tile([1], [1]), 1.0),
            "B": FreqTile(Tile([1], [1, 2]), 0.5),
            "C": FreqTile(Tile([1, 2], [2]), 1.0),
        }
        ts = TileSet((2, 2), tuple(tiles[name] for name in order))
        with pytest.raises(InfeasibleTile, match=r"Tile\(rows=\[1\], cols=\[1, 2\]\)"):
            fit(ts)

    def test_inconsistent_noisy_frequencies_raise_no_convergence(self):
        tile = Tile([1, 2], [1, 2])
        ts = TileSet((2, 2), (FreqTile(tile, 0.3), FreqTile(tile, 0.7)))
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            fit(ts, FitOptions(tolerance=1e-9))
        assert time.perf_counter() - start < 1.0

    def test_unattainable_targets_past_the_settle_pass_raise_no_convergence(self):
        # Column 2 carries mass 0.2 but its entry (2, 2) alone wants 0.9,
        # so (1, 2) would need -0.7. Each target lies inside its own
        # range, so nothing settles, and Newton's multipliers diverge
        # while its line search halves the step.
        ts = TileSet((2, 2), (
            FreqTile(Tile([1, 2], [2]), 0.1),
            FreqTile(Tile([2], [2]), 0.9),
            FreqTile(Tile([1], [1, 2]), 0.25),
        ))
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            fit(ts)
        assert time.perf_counter() - start < 1.0

    def test_margin_background_memory_is_linear_in_entries(self):
        # Under a columns+rows background every entry is its own class,
        # so a dense tile-by-class incidence alone would take
        # 240 tiles x 14,400 entries x 8 B = 27.6 MB here.
        data = random_dataset(np.random.default_rng(0), 120, 120, density=0.3)
        ts = margin_tiles(data, "columns").union(margin_tiles(data, "rows"))
        tracemalloc.start()
        try:
            model = fit(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.residual <= 1e-6
        assert peak < 10 * 2**20

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        margin=st.sampled_from([None, "columns", "rows"]),
    )
    def test_meets_every_tile_and_only_settles_forced_entries(self, seed, margin):
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(2, 9, size=2))
        data = random_dataset(rng, n, m, density=float(rng.uniform(0.1, 0.9)))
        ts = random_annotated_set(rng, data, int(rng.integers(1, 7)))
        if margin is not None:
            ts = ts.union(margin_tiles(data, margin))
        assert_meets_tiles_and_settles_only_forced(ts, fit(ts))


class TestMaximumEntropy:
    """By convex duality the maximum-entropy model is the member of the
    exponential family that meets every tile frequency: on its free
    entries, logit(p) is a sum of one multiplier per covering tile."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        background=st.sampled_from(["none", "density", "columns", "columns+rows"]),
    )
    def test_fit_is_the_maximum_entropy_model(self, seed, background):
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(10, 41, size=2))
        data = random_dataset(rng, n, m, density=float(rng.uniform(0.1, 0.9)))
        ts = random_annotated_set(rng, data, int(rng.integers(1, 7)))
        ts = ts.union(background_tiles(background, data))
        model = fit(ts)
        assert_meets_tiles_and_settles_only_forced(ts, model)
        assert logit_residual(ts, model.p) <= 1e-8

    def test_perturbed_model_meets_every_tile_but_is_not_maximum_entropy(self):
        data = random_dataset(np.random.default_rng(3), 20, 20, density=0.3)
        ts = make_set(data, Tile(range(1, 11), range(1, 11))).union(density_tile(data))
        model = fit(ts)
        assert logit_residual(ts, model.p) <= 1e-8
        # (1, 1) and (2, 2) lie in the same tiles, so moving mass
        # between them keeps every frequency
        p = model.p.copy()
        p[0, 0] += 0.05
        p[1, 1] -= 0.05
        for ft in ts:
            assert abs(float(p[ft.tile.block()].mean()) - ft.alpha) <= 1e-6
        assert logit_residual(ts, p) > 1e-8


def assert_meets_tiles_and_settles_only_forced(ts: TileSet, model) -> None:
    for ft in ts:
        assert abs(model_frequency(ft.tile, model) - ft.alpha) <= 1e-6
    # Only settled entries may be exactly 0 or 1. The settle pass
    # settles every free entry of a tile whose target sits on its
    # attainable boundary, exact tiles included, so each such entry
    # lies in a tile the model makes wholly deterministic.
    deterministic = (model.p == 0.0) | (model.p == 1.0)
    settled = np.zeros(model.dims, dtype=bool)
    for ft in ts:
        block = ft.tile.block()
        if deterministic[block].all():
            settled[block] = True
    assert not (deterministic & ~settled).any()


def logit_residual(ts: TileSet, p: np.ndarray) -> float:
    """Worst residual of the least-squares fit of logit(p) on the tile
    indicators, over entries not within 1e-9 of 0 or 1: `fit` clips
    those, so their logit is not exact."""
    inner = (p > 1e-9) & (p < 1.0 - 1e-9)
    cover = np.zeros((len(ts), *p.shape))
    for j, ft in enumerate(ts):
        cover[j][ft.tile.block()] = 1.0
    indicators = cover[:, inner].T
    logit = np.log(p[inner]) - np.log1p(-p[inner])
    coef, *_ = np.linalg.lstsq(indicators, logit, rcond=None)
    return float(np.max(np.abs(indicators @ coef - logit), initial=0.0))
