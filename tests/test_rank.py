import numpy as np
import pytest

import tiledive.divergence
from tiledive import (
    FreqTile,
    Tile,
    TileSet,
    density_tile,
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

from conftest import (
    make_set,
    random_annotated_set,
    random_dataset,
    random_exact_instance,
    record_fits,
)

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
    @pytest.mark.parametrize("alpha", [0.7, 0.1, 0.35, 0.9, 0.45])
    def test_mirrored_frequencies_tie_to_input_order(self, mode, alpha):
        # a and 1 - a on mirrored areas of equal size carry the same
        # information in theory; in floats 1 - 0.7 != 0.3, and the two
        # distances or scores may differ in their last bits
        a = FreqTile(Tile([1, 2], range(1, 6)), alpha)
        b = FreqTile(Tile([9, 10], range(6, 11)), 1.0 - alpha)
        for first, second in ((a, b), (b, a)):
            r = fitamin(TileSet((10, 10), (first, second)), None, mode, TIGHT)
            assert r.order == (first, second)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_tiles_the_background_implies_stay_at_distance_one(self, toy_data, mode, monkeypatch):
        margins = margin_tiles(toy_data, "columns")
        # Tiles over all rows of a 12x10 matrix: the column margins imply
        # their frequencies, and at the default tolerance KL(M || B) is
        # fit noise, 5.6e-12, that gave distances below 0.
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 12, 10, density=0.4)
        spans = make_set(data, *(
            Tile(range(1, 13), rng.choice(np.arange(1, 11), size=int(rng.integers(2, 5)), replace=False))
            for _ in range(4)
        ))
        columns = margin_tiles(data, "columns")
        first = TileSet(data.dims, spans.tiles[:1])
        assert distance(first, spans, columns).value == 1.0
        # Exact mode fits only target+bg and bg, and its order is the
        # input's; heuristic mode still fits each prefix+bg that is not
        # the full set, for its scores: none over the margins themselves.
        fits = record_fits(monkeypatch)
        for tiles, bg, opts, heuristic_fits in ((margins, margins, TIGHT, 2),
                                                (spans, columns, FitOptions(), 5)):
            fits.clear()
            r = fitamin(tiles, bg, mode, opts)
            assert len(fits) == (2 if mode == "exact" else heuristic_fits)
            if mode == "exact":
                assert r.order == tiles.tiles
            assert sorted(map(id, r.order)) == sorted(map(id, tiles.tiles))
            assert r.trace == (1.0,) * len(tiles)
            assert r.gains == (0.0,) * len(tiles)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_background_ranked_against_itself_stays_at_distance_one(self, toy_data, mode):
        bg = density_tile(toy_data)
        r = fitamin(bg, bg, mode, TIGHT)
        assert r.trace == (1.0,)
        assert r.gains == (0.0,)

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


class TestSharedLoop:
    """Both modes run `fruits`'s greedy loop on the ranked tiles."""

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_trace_entries_are_distance_values(self, mode, seed):
        rng = np.random.default_rng(740 + seed)
        for _ in range(5):
            (tiles, bg), _ = random_exact_instance(rng, 8, 8, (5, 2))
            r = fitamin(tiles, bg, mode)
            for k, d in enumerate(r.trace, 1):
                value = distance(TileSet(tiles.dims, r.order[:k]), tiles, bg).value
                assert d.hex() == value.hex()

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_ranking_is_fruits_on_its_own_tiles(self, seed):
        # fruits stops at a tile that adds nothing; fitamin ranks it anyway
        rng = np.random.default_rng(750 + seed)
        data = random_dataset(rng, 8, 8, density=0.4)
        tiles = random_annotated_set(rng, data, 5)
        assert not tiles.all_exact()
        for bg in (None, density_tile(data)):
            r = fitamin(tiles, bg, "exact")
            f = fruits(tiles, tiles, bg)
            assert f.selected and r.order[: len(f.selected)] == f.selected
            assert [d.hex() for d in r.trace[: len(f.trace)]] == [d.hex() for d in f.trace]

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_kl_passes_are_one_per_prefix_that_is_not_the_full_set(self, monkeypatch, mode):
        rng = np.random.default_rng(760)
        data = random_dataset(rng, 8, 8, density=0.4)
        tiles = random_annotated_set(rng, data, 5)
        kls = []
        real_kl = tiledive.divergence.kl
        monkeypatch.setattr(tiledive.divergence, "kl", lambda a, b: kls.append(1) or real_kl(a, b))
        fitamin(tiles, density_tile(data), mode)
        # KL(full || bg) once, and KL(full || prefix+bg) per evaluated
        # prefix but the last, the full set: exact mode evaluates every
        # remaining tile per step, heuristic mode one
        k = len(tiles)
        evaluated = k * (k + 1) // 2 if mode == "exact" else k
        assert len(kls) == 1 + evaluated - 1
