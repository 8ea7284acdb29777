import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiledive import (
    BinaryDataset,
    FreqTile,
    Tile,
    TileSet,
    background_tiles,
    density_tile,
    exact_fastpath,
    fit,
    margin_tiles,
    model_frequency,
)
import tiledive.maxent
from tiledive.maxent import (
    FitOptions,
    _block,
    _canonical,
    _entry_classes,
    _fold,
    _pairs,
    _settle,
    _unfolded,
    bernoulli_update,
)
from tiledive.errors import (
    ConflictingExactTiles,
    InfeasibleTile,
    InputError,
    NoConvergence,
    NotExact,
)

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

    def test_noisy_tile_rejected(self):
        ts = TileSet((3, 3), (FreqTile(Tile([1], [1]), 1.0), FreqTile(Tile([2], [2]), 0.5)))
        with pytest.raises(NotExact, match=r"got FreqTile\(Tile\(rows=\[2\], cols=\[2\]\)"):
            exact_fastpath(ts)

    def test_empty_set_uniform(self):
        model = exact_fastpath(TileSet((4, 3)))
        assert (model.p == 0.5).all()

    def test_random_exact_sets(self):
        # the mask model's p, built on first read, is fit's p bit for bit
        from conftest import random_exact_instance

        rng = np.random.default_rng(11)
        for n, m, k in [(5, 5, 4)] * 20 + [(9, 7, 8)] * 20:
            (ts,), _ = random_exact_instance(rng, n, m, [k])
            reversed_ts = TileSet(ts.dims, ts.tiles[::-1])
            for s in (ts, reversed_ts):
                model = exact_fastpath(s)
                assert np.array_equal(model.p, fit(s, TIGHT).p)
                assert not model.p.flags.writeable
                assert model.p is model.p

    @pytest.mark.parametrize("tiles", [
        # a 1-tile and a 0-tile that share one entry
        [(([1, 2], [1, 2]), 1.0), (([2, 3], [2, 3]), 0.0)],
        # the clash comes after a tile (#2, one row, so fit folds) whose
        # entries tile #1 already settled
        [(([1, 2], [1, 2, 3]), 1.0), (([2], [2, 3]), 1.0), (([2, 3], [3, 4]), 0.0)],
        [(([1, 2, 3], [1, 2]), 0.0), (([1, 2], [1]), 0.0), (([3], [2, 3]), 0.0),
         (([3, 4], [3, 4]), 1.0), (([3, 4], [1, 4]), 1.0)],
    ], ids=["one-entry", "behind-settled", "behind-settled-zeros"])
    @pytest.mark.parametrize("order", [1, -1], ids=["input", "reversed"])
    def test_clashing_sets_raise_as_fit_does(self, tiles, order):
        ts = TileSet((5, 5), tuple(FreqTile(Tile(r, c), a) for (r, c), a in tiles[::order]))
        with pytest.raises(ConflictingExactTiles) as fast:
            exact_fastpath(ts)
        with pytest.raises(ConflictingExactTiles) as slow:
            fit(ts, TIGHT)
        assert str(fast.value) == str(slow.value)


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

    @pytest.mark.parametrize("swap", [False, True])
    def test_errors_name_the_first_tile_of_a_merged_group(self, swap):
        # rows 1 and 2 fold into one group, so their row tiles merge
        # into one grid tile, which the error names by its first tile
        ones = (FreqTile(Tile([1, 2], [1, 2]), 1.0),)
        for alpha, error in ((0.5, InfeasibleTile), (0.0, ConflictingExactTiles)):
            rows = [FreqTile(Tile([i], [1, 2]), alpha) for i in (1, 2)][::-1 if swap else 1]
            ts = TileSet((3, 2), (*ones, *rows))
            assert len(_fold(ts).parts) == 2
            first = rf"tile #2 \(Tile\(rows=\[{rows[0].tile.rows[0]}\], cols=\[1, 2\]\)\)"
            with pytest.raises(error, match=first):
                fit(ts)

    def test_inconsistent_noisy_frequencies_raise_no_convergence(self):
        tile = Tile([1, 2], [1, 2])
        ts = TileSet((2, 2), (FreqTile(tile, 0.3), FreqTile(tile, 0.7)))
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            fit(ts, FitOptions(tolerance=1e-9))
        assert time.perf_counter() - start < 1.0

    def test_unattainable_targets_past_the_settle_pass_raise_infeasible(self):
        # Column 2 carries mass 0.2 but its entry (2, 2) alone wants 0.9,
        # so (1, 2) would need -0.7. Each target lies inside its own
        # range, so nothing settles, but the open tiles cover as many
        # classes as there are tiles, and the square solve's one
        # solution needs (1, 1) at 1.2: the first tile covering (1, 1)
        # is named.
        ts = TileSet((2, 2), (
            FreqTile(Tile([1, 2], [2]), 0.1),
            FreqTile(Tile([2], [2]), 0.9),
            FreqTile(Tile([1], [1, 2]), 0.25),
        ))
        start = time.perf_counter()
        with pytest.raises(InfeasibleTile, match=r"tile #3 \(Tile\(rows=\[1\], cols=\[1, 2\]\)\)"):
            fit(ts)
        assert time.perf_counter() - start < 1.0

    def test_margin_background_memory_is_linear_in_entries(self):
        # Unfolded, a columns+rows background makes every entry its own
        # class, so a dense tile-by-class incidence alone would take
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

    def test_folded_margin_fit_at_500_squared_stays_small(self):
        # 54 distinct row sums and 55 distinct column sums: the fit runs
        # on about 3,000 cells, and the 2 MB n x m output dominates.
        data = random_dataset(np.random.default_rng(0), 500, 500, density=0.3)
        ts = background_tiles("columns+rows", data)
        tracemalloc.start()
        try:
            model = fit(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.residual <= 1e-6
        assert peak < 5 * 2**20

    def test_hessian_pairs_are_stored_once(self):
        # Random tiles keep the fold close to the identity: 120 x 120
        # cells, each its own class under up to 14 tiles. Storing each
        # pair of tiles sharing a class in both orders, plus a diagonal
        # key, took the peak to 14.9 MB; once per pair it is 7.5 MB.
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 120, 120, density=0.3)
        tiles = [Tile(rng.choice(np.arange(1, 121), 60, replace=False),
                      rng.choice(np.arange(1, 121), 60, replace=False)) for _ in range(12)]
        ts = make_set(data, *tiles).union(background_tiles("columns+rows", data))
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


class TestSetFunction:
    """A model depends only on its set of tiles, so `fit` takes them in
    one canonical order and any order of `ts.tiles` gives the same model
    bit for bit."""

    def test_permuting_the_tiles_gives_the_same_model(self):
        seen = {"identity": 0, "merged": 0, "exact": 0}
        for seed in range(6):
            for background in ("none", "density", "columns", "rows", "columns+rows"):
                rng = np.random.default_rng(800 + seed)
                n, m = (int(d) for d in rng.integers(8, 16, size=2))
                entries = (rng.random((n, m)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
                entries[:3, :3], entries[-3:, -3:] = 1, 0  # exact tiles live here
                data = BinaryDataset(entries)
                # tiles of 2 or more rows and columns, so that only a
                # margin background makes single-line tiles
                tiles = [Tile(rng.choice(np.arange(1, n + 1), int(rng.integers(2, n)), replace=False),
                              rng.choice(np.arange(1, m + 1), int(rng.integers(2, m)), replace=False))
                         for _ in range(4)]
                tiles += [Tile([1, 2], [1, 2, 3]), Tile([n - 1, n], [m - 2, m])]
                ts = make_set(data, *tiles).union(background_tiles(background, data))
                fold = _fold(ts)
                seen["identity"] += fold.groups is None
                seen["merged"] += len(fold.parts) < len(ts)
                seen["exact"] += sum(ft.exact for ft in ts) >= 2
                model = fit(ts)
                for perm in (np.arange(len(ts))[::-1], rng.permutation(len(ts))):
                    moved = fit(TileSet(ts.dims, tuple(ts.tiles[j] for j in perm)))
                    assert np.array_equal(moved.p, model.p)
                    assert moved.residual == model.residual
        # every set has exact tiles, the 12 without a margin background
        # fold to the identity, and some margin sets merge single lines
        assert seen["exact"] == 30 and seen["identity"] == 12 and seen["merged"] > 0


class TestMaximumEntropy:
    """By convex duality the maximum-entropy model is the member of the
    exponential family that meets every tile frequency: on its free
    entries, logit(p) is a sum of one multiplier per covering tile."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        background=st.sampled_from(["none", "density", "columns", "rows", "columns+rows"]),
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


def laminar_rectangles(rng) -> list[Tile]:
    """Three disjoint chains of nested rectangles on a 30 x 30 matrix:
    8 x 8 holding 5 x 5 holding 2 x 2, one chain in each band of 10 rows."""
    tiles = []
    for band in range(3):
        row, col = 10 * band + int(rng.integers(1, 4)), int(rng.integers(1, 24))
        for inset, side in ((0, 8), (1, 5), (2, 2)):
            tiles.append(Tile(range(row + inset, row + inset + side),
                              range(col + inset, col + inset + side)))
    return tiles


class TestClosedForm:
    """When the open tiles cover as many entry classes as there are
    tiles, as a laminar set (tiles nested or disjoint) does, `fit`
    solves the square constraints once and runs no Newton step."""

    @staticmethod
    def count_sigmoid(monkeypatch) -> list:
        calls = []
        sigmoid = tiledive.maxent._sigmoid
        monkeypatch.setattr(tiledive.maxent, "_sigmoid", lambda s: calls.append(1) or sigmoid(s))
        return calls

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("background", ["density", "none", "rows alone"])
    def test_laminar_set_is_fitted_without_newton(self, monkeypatch, seed, background):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 30, 30, density=0.3)
        rects = make_set(data, *laminar_rectangles(rng))
        ts = {"density": rects.union(density_tile(data)), "none": rects,
              "rows alone": background_tiles("rows", data)}[background]
        calls = self.count_sigmoid(monkeypatch)
        model = fit(ts)
        assert calls == []
        for ft in ts:
            assert abs(model_frequency(ft.tile, model) - ft.alpha) <= 1e-12
        assert logit_residual(ts, model.p) <= 1e-8

    def test_rows_crossing_the_rectangles_still_run_newton(self, monkeypatch):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 30, 30, density=0.3)
        ts = make_set(data, *laminar_rectangles(rng)).union(background_tiles("rows", data))
        calls = self.count_sigmoid(monkeypatch)
        model = fit(ts)
        assert calls
        assert_meets_tiles_and_settles_only_forced(ts, model)
        assert logit_residual(ts, model.p) <= 1e-8

    def test_square_but_singular_set_runs_newton(self, monkeypatch):
        # Rows 1-2 and 3-4 share their sums, and columns 1-2 and 3-4
        # theirs, so the fold leaves 2 row parts and 2 column parts on a
        # 2 x 2 grid: 4 classes for 4 tiles, but the two row parts cover
        # the same classes as the two column parts, so the incidence is
        # singular and the targets leave one direction free.
        data = BinaryDataset([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [1, 1, 0, 1]])
        ts = background_tiles("columns+rows", data)
        assert len(_fold(ts).parts) == 4
        calls = self.count_sigmoid(monkeypatch)
        model = fit(ts, TIGHT)
        assert calls
        assert_meets_tiles_and_settles_only_forced(ts, model)
        assert logit_residual(ts, model.p) <= 1e-8

    def test_square_but_infeasible_set_raises_infeasible_tile(self, monkeypatch):
        # the 1 x 1 tile wants mass 0.9 of its 2 x 2 tile's 0.4, so the
        # square solve puts -0.5 on the other 3 entries, which only the
        # 2 x 2 tile covers: no model meets both, and no Newton step runs
        ts = TileSet((2, 2), (FreqTile(Tile([1, 2], [1, 2]), 0.1),
                              FreqTile(Tile([1], [1]), 0.9)))
        calls = self.count_sigmoid(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(InfeasibleTile, match=r"tile #1 \(Tile\(rows=\[1, 2\], cols=\[1, 2\]\)\)"):
            fit(ts)
        assert time.perf_counter() - start < 1.0
        assert calls == []

    def test_targets_at_the_boundary_within_rounding_still_run_newton(self, monkeypatch):
        # the 1 x 1 tile holds all of its 3 x 1 tile's mass, so the
        # square solve leaves the other 2 entries -1.1e-16 in rounding:
        # a face that no tile settles, not an infeasible set
        ts = TileSet((3, 1), (FreqTile(Tile([1, 2, 3], [1]), 0.3),
                              FreqTile(Tile([1], [1]), 0.9)))
        calls = self.count_sigmoid(monkeypatch)
        model = fit(ts)
        assert calls
        assert_meets_tiles_and_settles_only_forced(ts, model)

    def test_square_fits_build_no_hessian_pairs(self, monkeypatch):
        calls = []
        pairs = tiledive.maxent._pairs
        monkeypatch.setattr(tiledive.maxent, "_pairs", lambda *a: calls.append(1) or pairs(*a))
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            data = random_dataset(rng, 30, 30, density=0.3)
            rects = make_set(data, *laminar_rectangles(rng))
            for ts in (rects, rects.union(density_tile(data)), background_tiles("rows", data)):
                fit(ts)
        assert calls == []
        # the set of `test_rows_crossing_the_rectangles_still_run_newton`
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 30, 30, density=0.3)
        fit(make_set(data, *laminar_rectangles(rng)).union(background_tiles("rows", data)))
        assert calls


def _draw_block(rng, n: int, m: int) -> tuple:
    """A tile's index pair on an n x m grid, in each form a part takes:
    two slices, a slice and an index array, or an `np.ix_` pair."""
    def side(count):
        size = int(rng.integers(1, count + 1))
        if rng.random() < 0.5:
            first = int(rng.integers(0, count - size + 1))
            return slice(first, first + size)
        return np.sort(rng.choice(count, size, replace=False))

    return _block(side(n), side(m))


class TestEntryClasses:
    """`_entry_classes` groups the free cells by the set of tiles covering
    them, and `_pairs` lists each pair of tiles sharing a class once:
    both against a cell-by-cell brute force."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(0, 8), st.integers(30, 140)),
        weighted=st.booleans(),
        free_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_classes_incidence_and_pairs_match_brute_force(self, seed, k, weighted, free_share):
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(1, 13, size=2))
        cover = [_draw_block(rng, n, m) for _ in range(k)]
        free = rng.random((n, m)) < free_share
        weights = rng.integers(1, 9, size=int(free.sum())).astype(float) if weighted else None
        label, sizes, tiles, classes = _entry_classes(cover, free, weights)

        masks = np.zeros((k, n, m), dtype=bool)
        for t, block in enumerate(cover):
            masks[t][block] = True
        sets = [frozenset(np.flatnonzero(masks[:, i, j]).tolist()) for i, j in np.argwhere(free)]
        # one class per distinct set of covering tiles, numbered from 0
        class_of = dict(zip(sets, label.tolist()))
        assert len(set(class_of.values())) == len(class_of) == len(sizes)
        assert [class_of[cell] for cell in sets] == label.tolist()
        assert frozenset() not in class_of or class_of[frozenset()] == 0
        each = np.ones(len(sets)) if weights is None else weights
        expected = np.zeros(len(sizes))
        np.add.at(expected, label, each)
        assert np.allclose(sizes, expected, rtol=1e-12, atol=0.0)
        incidence = {(t, c) for tiles_of, c in class_of.items() for t in tiles_of}
        assert set(zip(tiles.tolist(), classes.tolist())) == incidence
        assert len(tiles) == len(incidence)

        keys, owners = _pairs(tiles, classes, k)
        pairs = sorted(zip(keys.tolist(), owners.tolist()))
        assert pairs == sorted((u * k + t, c) for tiles_of, c in class_of.items()
                               for u in tiles_of for t in tiles_of if t < u)


class TestFold:
    """Rows, or columns, that a swap maps onto the same tile set share
    their probabilities, so the fit runs on a grid of line groups."""

    def test_no_single_line_tile_folds_to_the_identity(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, 12, 9)
        tiles = [Tile(rng.choice(np.arange(1, 13), 3, replace=False), range(1, 10)),
                 Tile(range(1, 13), [2, 5]), Tile([1, 2], [1, 2, 3]), Tile([4, 9], [6, 8])]
        ts = make_set(data, *tiles).union(density_tile(data))
        fold = _fold(ts)
        assert fold.groups is None and fold.shape == ts.dims
        # one part per tile, in the canonical order fit takes them in,
        # and its index, slices or arrays, selects its tile's entries
        canonical = [ts.tiles[j].tile for j in _canonical(ts)]
        assert [part[4] for part in fold.parts] == canonical
        entries = np.arange(ts.dims[0] * ts.dims[1]).reshape(ts.dims)
        for part, tile in zip(fold.parts, canonical):
            assert np.array_equal(entries[part[0]], entries[tile.block()])

    def test_a_side_on_a_run_of_ids_is_a_slice(self):
        # so indexing takes a view; only a tile with no run side keeps
        # its np.ix_ pair
        data = random_dataset(np.random.default_rng(13), 12, 9)
        ts = make_set(data, Tile(range(3, 7), [1, 4, 5]), Tile([2, 8], range(2, 10)),
                      Tile([1, 5], [2, 7]))
        row_run, col_run, neither = (ft.tile for ft in ts.tiles)
        blocks = {part[4]: part[0] for part in _fold(ts).parts}
        rows, cols = blocks[row_run]
        assert rows == slice(2, 6) and cols.tolist() == [0, 3, 4]
        rows, cols = blocks[col_run]
        assert rows.tolist() == [1, 7] and cols == slice(1, 9)
        assert blocks[neither] is neither.block()

    def test_margin_groups_are_the_distinct_sums(self):
        data = random_dataset(np.random.default_rng(0), 500, 500, density=0.3)
        fold = _fold(background_tiles("columns+rows", data))
        row_of, col_of = fold.groups
        for group_of, sums in ((row_of, data.entries.sum(axis=1)),
                               (col_of, data.entries.sum(axis=0))):
            # as many groups as distinct sums, and as many (group, sum)
            # pairs: one group per sum
            pairs = {(int(g), int(s)) for g, s in zip(group_of, sums)}
            assert group_of.max() + 1 == len(np.unique(sums)) == len(pairs)
        assert len(fold.parts) == sum(fold.shape)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        background=st.sampled_from(["none", "density", "columns", "rows", "columns+rows"]),
    )
    def test_permuting_rows_and_columns_permutes_the_model(self, seed, background):
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(5, 31, size=2))
        data = random_dataset(rng, n, m, density=float(rng.uniform(0.1, 0.9)))
        ts = random_annotated_set(rng, data, int(rng.integers(0, 5)))
        ts = ts.union(background_tiles(background, data))
        # new row i holds old row row_perm[i]; columns alike
        row_perm, col_perm = rng.permutation(n), rng.permutation(m)
        new_row, new_col = np.argsort(row_perm) + 1, np.argsort(col_perm) + 1
        moved = TileSet(ts.dims, tuple(
            FreqTile(Tile(new_row[np.array(ft.tile.rows) - 1], new_col[np.array(ft.tile.cols) - 1]),
                     ft.alpha)
            for ft in ts))
        np.testing.assert_allclose(fit(moved).p, fit(ts).p[np.ix_(row_perm, col_perm)],
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        background=st.sampled_from(["rows", "columns", "columns+rows"]),
    )
    def test_folded_settle_and_parts_match_the_tiles(self, seed, background):
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(1, 13, size=2))
        data = random_dataset(rng, n, m, density=float(rng.uniform(0.0, 1.0)))
        ts = random_annotated_set(rng, data, int(rng.integers(0, 5)))
        ts = ts.union(background_tiles(background, data))
        fold = _fold(ts)
        row_of, col_of = fold.groups
        # the folded settle pass, each entry taking its cell's value,
        # settles the same entries to the same values as the unfolded one
        # in input order
        np.testing.assert_array_equal(_settle(fold)[0][np.ix_(row_of, col_of)],
                                      _settle(_unfolded(ts, range(len(ts))))[0])

        def cover(ft):
            rows, cols = (np.array(ids) - 1 for ids in (ft.tile.rows, ft.tile.cols))
            return tuple(np.unique(row_of[rows])), tuple(np.unique(col_of[cols])), ft.alpha

        # a part's grid pair selects exactly the groups its first tile
        # covers, every tile lies in a part with its groups and frequency,
        # and the parts stand for every tile and its area once; a cell
        # weighs the entries it stands for
        sizes = np.bincount(row_of), np.bincount(col_of)
        np.testing.assert_array_equal(fold.weight, np.outer(*sizes))
        parts = {}
        for block, area, alpha, first, tile, count, weight in fold.parts:
            selected = np.zeros(fold.shape, dtype=bool)
            selected[block] = True
            rows, cols = np.flatnonzero(selected.any(axis=1)), np.flatnonzero(selected.any(axis=0))
            assert selected.sum() == len(rows) * len(cols)
            grid = tuple(rows), tuple(cols), alpha
            assert cover(ts.tiles[first]) == grid and ts.tiles[first].tile == tile
            np.testing.assert_array_equal(weight, fold.weight[np.ix_(rows, cols)])
            assert selected[block].shape == weight.shape
            parts.setdefault(grid, []).append((area, count))
        assert all(cover(ft) in parts for ft in ts)
        assert sum(count for group in parts.values() for _, count in group) == len(ts)
        assert (sum(area for group in parts.values() for area, _ in group)
                == sum(ft.tile.area for ft in ts))


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
