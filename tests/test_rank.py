import numpy as np
import pytest

from tiledive import (
    FreqTile,
    Tile,
    TileSet,
    distance,
    exact_fastpath,
    fit,
    fitamin,
    fruits,
    margin_tiles,
    surprise_score,
)
from tiledive.errors import ConsistencyError, InfiniteSurprise
from tiledive.maxent import FitOptions

from conftest import make_set, random_annotated_set, random_dataset, record_fits

TIGHT = FitOptions(tolerance=1e-12)


class TestSurpriseScore:
    def test_zero_when_model_agrees(self, toy_sets):
        model = fit(toy_sets["b"], TIGHT)
        for ft in toy_sets["b"]:
            assert surprise_score(ft, model) == pytest.approx(0.0, abs=1e-9)

    def test_positive_when_model_disagrees(self, toy_sets, toy_tiles, toy_data):
        uniform = exact_fastpath(TileSet(toy_data.dims))
        t5 = make_set(toy_data, toy_tiles[5]).tiles[0]
        # 6 entries, target 1 against model 1/2: 6 * ln 2
        assert surprise_score(t5, uniform) == pytest.approx(6 * np.log(2), abs=1e-12)

    def test_infinite_disagreement_rejected(self):
        clamped = exact_fastpath(
            TileSet((2, 2), (FreqTile(Tile([1, 2], [1, 2]), 0.0),))
        )
        probe = FreqTile(Tile([1], [1]), 0.25)
        with pytest.raises(InfiniteSurprise):
            surprise_score(probe, clamped)


class TestToyRanking:
    def test_exact_order_and_trace(self, toy_sets, toy_tiles):
        full = toy_sets["t"].union(toy_sets["u"])
        r = fitamin(full, None, "exact", TIGHT)
        assert [ft.tile for ft in r.order] == [
            toy_tiles[4],
            toy_tiles[3],
            toy_tiles[2],
            toy_tiles[5],
        ]
        assert r.trace == pytest.approx((2 / 3, 1 / 3, 1 / 9, 0.0), abs=1e-9)
        assert r.gains == pytest.approx((1 / 3, 1 / 3, 2 / 9, 1 / 9), abs=1e-9)

    def test_heuristic_matches_exact_here(self, toy_sets):
        full = toy_sets["t"].union(toy_sets["u"])
        exact = fitamin(full, None, "exact", TIGHT)
        heur = fitamin(full, None, "heuristic", TIGHT)
        assert [ft.tile for ft in heur.order] == [ft.tile for ft in exact.order]
        assert heur.trace == pytest.approx(exact.trace, abs=1e-9)

    def test_with_background(self, toy_sets):
        full = toy_sets["t"].union(toy_sets["u"])
        r = fitamin(full, toy_sets["b"], "exact", TIGHT)
        assert len(r.order) == 4
        assert r.trace[-1] == pytest.approx(0.0, abs=1e-9)

    def test_bad_mode(self, toy_sets):
        with pytest.raises(ValueError):
            fitamin(toy_sets["t"], None, "best-effort")


class TestRankingContract:
    def test_order_is_permutation_and_trace_hits_zero(self):
        rng = np.random.default_rng(71)
        for _ in range(3):
            data = random_dataset(rng, 6, 6)
            tiles = random_annotated_set(rng, data, 5)
            bg = random_annotated_set(rng, data, 1)
            r = fitamin(tiles, bg, "exact", TIGHT)
            assert sorted(map(id, r.order)) == sorted(map(id, tiles.tiles))
            assert r.trace[-1] == pytest.approx(0.0, abs=1e-6)
            # gains add up to the total drop from 1 to 0
            assert sum(r.gains) == pytest.approx(1.0 - r.trace[-1], abs=1e-6)

    def test_exact_steps_are_greedy_optimal(self):
        rng = np.random.default_rng(72)
        data = random_dataset(rng, 5, 5)
        tiles = random_annotated_set(rng, data, 4)
        r = fitamin(tiles, None, "exact", TIGHT)
        # replay: each pick must achieve the minimal prefix distance
        from tiledive.divergence import kl

        model_full = fit(tiles, TIGHT)
        base = kl(model_full, exact_fastpath(TileSet(tiles.dims)))
        prefix = TileSet(tiles.dims)
        remaining = list(tiles.tiles)
        for pick, d_after in zip(r.order, r.trace):
            options = {
                id(c): kl(model_full, fit(prefix.with_tile(c), TIGHT)) / base
                for c in remaining
            }
            assert options[id(pick)] == pytest.approx(min(options.values()), abs=1e-9)
            assert options[id(pick)] == pytest.approx(d_after, abs=1e-9)
            prefix = prefix.with_tile(pick)
            remaining = [c for c in remaining if id(c) != id(pick)]

    def test_tie_breaks_to_input_order(self, toy_data):
        # two mirror-image tiles with identical geometry: input order wins
        a = Tile([1, 2], [1, 2])
        b = Tile([4, 5], [4, 5])
        tiles = make_set(toy_data, a, b)
        r = fitamin(tiles, None, "exact", TIGHT)
        assert r.order[0].tile == a
        flipped = make_set(toy_data, b, a)
        assert fitamin(flipped, None, "exact", TIGHT).order[0].tile == b

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_tiles_the_background_implies_stay_at_distance_one(self, toy_data, mode):
        margins = margin_tiles(toy_data, "columns")
        r = fitamin(margins, margins, mode, TIGHT)
        assert sorted(map(id, r.order)) == sorted(map(id, margins.tiles))
        assert r.trace == (1.0,) * len(margins)
        assert r.gains == (0.0,) * len(margins)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_full_model_is_fitted_once(self, toy_sets, monkeypatch, mode):
        fits = record_fits(monkeypatch)
        r = fitamin(toy_sets["u"], toy_sets["b"], mode, TIGHT)
        fitted = [set(ts.tiles) for ts in fits]
        assert fitted.count(set(toy_sets["u"].union(toy_sets["b"]).tiles)) == 1
        assert r.trace[-1] == 0.0

    def test_inconsistent_joint_is_a_consistency_error(self):
        # t and b give one tile two noisy frequencies: each set fits on
        # its own, but their joint cannot, in any of the three APIs.
        tile = Tile([1, 2], [1, 2])
        t = TileSet((4, 4), (FreqTile(tile, 0.3),))
        b = TileSet((4, 4), (FreqTile(tile, 0.7),))
        with pytest.raises(ConsistencyError):
            distance(t, t, b)
        with pytest.raises(ConsistencyError):
            fruits(t, t, b)
        for mode in ("exact", "heuristic"):
            with pytest.raises(ConsistencyError):
                fitamin(t, b, mode)

    def test_modes_agree_on_first_pick_without_background(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            data = random_dataset(rng, 6, 6)
            tiles = random_annotated_set(rng, data, 4)
            exact = fitamin(tiles, None, "exact", TIGHT)
            heur = fitamin(tiles, None, "heuristic", TIGHT)
            assert exact.order[0].tile == heur.order[0].tile
