import numpy as np
import pytest

from tiledive import (
    BinaryDataset,
    ClusteringResult,
    ItemsetResult,
    Tile,
    background_tiles,
    clustering_to_tiles,
    density_tile,
    itemsets_to_tiles,
    margin_tiles,
)
from tiledive.convert import BACKGROUND_PRESETS
from tiledive.errors import OutOfBounds


class TestItemsets:
    def test_support_computed_from_data(self, toy_data):
        result = itemsets_to_tiles(ItemsetResult(((1, 2),)), toy_data)
        assert result.skipped == 0
        (ft,) = result.tiles
        assert ft.tile.rows == (1, 2)
        assert ft.tile.cols == (1, 2)
        assert ft.alpha == 1.0  # supports contain the itemset by definition

    def test_unsupported_itemset_skipped(self, toy_data):
        # no row of the grid contains both column 1 and column 4
        result = itemsets_to_tiles(ItemsetResult(((1, 4), (1, 2))), toy_data)
        assert result.skipped == 1
        assert len(result.tiles) == 1

    def test_repeated_itemset_gives_one_tile(self, toy_data):
        result = itemsets_to_tiles(ItemsetResult(((1, 2), (4, 5), (1, 2))), toy_data)
        assert [ft.tile.cols for ft in result.tiles] == [(1, 2), (4, 5)]

    def test_column_out_of_range(self, toy_data):
        with pytest.raises(OutOfBounds):
            itemsets_to_tiles(ItemsetResult(((5, 6),)), toy_data)


class TestClustering:
    def test_single_tile_mode(self, toy_data):
        labels = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
        ts = clustering_to_tiles(ClusteringResult(labels, 2), toy_data, "single-tile")
        assert len(ts.tiles) == 2
        first, second = ts.tiles
        assert first.tile.rows == (1, 2)
        assert first.alpha == pytest.approx(5 / 10)
        assert second.tile.rows == (3, 4, 5)
        assert second.alpha == pytest.approx(8 / 15)

    def test_per_column_mode(self, toy_data):
        labels = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
        ts = clustering_to_tiles(ClusteringResult(labels, 2), toy_data, "per-column")
        assert len(ts.tiles) == 10
        by_key = {(ft.tile.rows, ft.tile.cols): ft.alpha for ft in ts.tiles}
        assert by_key[((1, 2), (1,))] == 1.0
        assert by_key[((3, 4, 5), (3,))] == pytest.approx(2 / 3)

    def test_empty_cluster_skipped(self, toy_data):
        labels = {i: 1 for i in range(1, 6)}
        ts = clustering_to_tiles(ClusteringResult(labels, 3), toy_data, "single-tile")
        assert len(ts.tiles) == 1

    @pytest.mark.parametrize("mode", ["single-tile", "per-column"])
    def test_tiles_follow_cluster_members(self, mode):
        # a shuffled labeling with empty clusters: clusters ascending,
        # each over its sorted members, empty ones skipped
        rng = np.random.default_rng(11)
        n, k = 40, 12
        data = BinaryDataset((rng.random((n, 3)) < 0.5).astype(np.uint8))
        rows = rng.permutation(np.arange(1, n + 1))
        r = ClusteringResult({int(i): int(c) for i, c in zip(rows, rng.integers(2, k, n))}, k)
        members = [sorted(i for i, c in r.labels.items() if c == cid) for cid in range(1, k + 1)]
        col_groups = [(1, 2, 3)] if mode == "single-tile" else [(1,), (2,), (3,)]
        expected = [Tile(rows, cols) for rows in members if rows for cols in col_groups]
        ts = clustering_to_tiles(r, data, mode)
        assert [ft.tile for ft in ts.tiles] == expected

    def test_partial_labeling_rejected(self, toy_data):
        with pytest.raises(ValueError):
            clustering_to_tiles(ClusteringResult({1: 1, 2: 1}, 1), toy_data)

    def test_bad_cluster_id_rejected(self):
        with pytest.raises(ValueError):
            ClusteringResult({1: 5}, 2)


class TestMarginsAndDensity:
    def test_density(self, toy_data):
        (ft,) = density_tile(toy_data).tiles
        assert ft.tile.area == 25
        assert ft.alpha == pytest.approx(13 / 25)

    def test_column_margins(self, toy_data):
        ts = margin_tiles(toy_data, "columns")
        assert [ft.alpha for ft in ts.tiles] == pytest.approx(
            [2 / 5, 2 / 5, 2 / 5, 3 / 5, 4 / 5]
        )

    def test_row_margins(self, toy_data):
        ts = margin_tiles(toy_data, "rows")
        assert [ft.alpha for ft in ts.tiles] == pytest.approx(
            [3 / 5, 2 / 5, 2 / 5, 3 / 5, 3 / 5]
        )

    def test_bad_axis(self, toy_data):
        with pytest.raises(ValueError):
            margin_tiles(toy_data, "diagonal")


class TestBackgroundPresets:
    def test_none_is_empty(self, toy_data):
        assert len(background_tiles("none", toy_data).tiles) == 0

    def test_all_presets_consistent(self, toy_data):
        from tiledive import fit

        for preset in BACKGROUND_PRESETS:
            ts = background_tiles(preset, toy_data)
            model = fit(ts)
            assert model.residual <= 1e-6

    def test_margin_model_matches_products(self):
        # independent-margins model: p_ij from row and column densities
        rng = np.random.default_rng(51)
        data = BinaryDataset((rng.random((5, 5)) < 0.5).astype(int))
        from tiledive import fit
        from tiledive.maxent import FitOptions

        both = background_tiles("columns+rows", data)
        model = fit(both, FitOptions(tolerance=1e-12))
        row_means = model.p.mean(axis=1)
        col_means = model.p.mean(axis=0)
        assert row_means == pytest.approx(data.entries.mean(axis=1), abs=1e-9)
        assert col_means == pytest.approx(data.entries.mean(axis=0), abs=1e-9)

    def test_unknown_preset(self, toy_data):
        with pytest.raises(ValueError):
            background_tiles("checkerboard", toy_data)
