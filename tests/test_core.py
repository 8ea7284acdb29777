import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiledive
from tiledive import (
    BinaryDataset,
    FreqTile,
    Tile,
    TileSet,
    annotate,
    empirical_frequency,
)
from tiledive.errors import ConflictingExactTiles, DimMismatch, InputError, OutOfBounds

from conftest import make_set, random_dataset, random_tile


class TestBinaryDataset:
    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 0.5], [1.0, 0.0]]),
        np.array([[0, 2], [1, 0]]),
        np.array([[0, 1], [-1, 0]], dtype=np.int8),
        np.array([[0, 1], [1, 255]], dtype=np.uint8),
    ])
    def test_entries_other_than_0_and_1_rejected(self, bad):
        with pytest.raises(InputError, match="must be 0 or 1"):
            BinaryDataset(bad)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((0, 2)), np.zeros((2, 2, 2))],
                             ids=["1-d", "no-rows", "3-d"])
    def test_other_than_a_non_empty_matrix_rejected(self, bad):
        with pytest.raises(InputError, match="non-empty 2-d matrix"):
            BinaryDataset(bad)

    def test_bool_and_float_matrices_accepted_as_a_copy(self):
        for entries in (np.array([[True, False], [False, True]]), np.eye(2)):
            data = BinaryDataset(entries)
            assert data.entries.dtype == np.uint8 and data.entries is not entries
            np.testing.assert_array_equal(data.entries, np.eye(2))


class TestTileValidation:
    def test_ids_sorted_deduplicated(self):
        t = Tile([3, 1, 1, 2], [5, 5])
        assert t.rows == (1, 2, 3)
        assert t.cols == (5,)
        assert t.area == 3

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            Tile([], [1])

    def test_nonpositive_ids_rejected(self):
        with pytest.raises(OutOfBounds, match="row ids must be positive"):
            Tile([0, 1], [1])

    def test_block_is_built_once_and_read_only(self):
        t = Tile([3, 1], [2, 4])
        rows, cols = t.block()
        assert t.block()[0] is rows and t.block()[1] is cols
        np.testing.assert_array_equal(np.arange(12).reshape(3, 4)[rows, cols], [[1, 3], [9, 11]])
        for index in (rows, cols):
            with pytest.raises(ValueError):
                index[0] = 0
        # the index takes no part in equality, hash or repr
        same = Tile((1, 3), (2, 4))
        assert t == same and hash(t) == hash(same)
        assert t != Tile([1, 3], [2])
        assert repr(t) == "Tile(rows=[1, 3], cols=[2, 4])"

    @pytest.mark.parametrize("rows, cols", [
        ([3, 1, 2], [2, 1]),
        ((2, 3, 1, 1), np.array([2, 1])),
        (range(3, 0, -1), {2, 1}),
    ])
    def test_same_ids_in_any_order_are_equal_and_hash_equal(self, rows, cols):
        t, same = Tile(rows, cols), Tile((1, 2, 3), (1, 2))
        assert t == same and hash(t) == hash(same)
        assert FreqTile(t, 0.5) == FreqTile(same, 0.5)
        assert hash(FreqTile(t, 0.5)) == hash(FreqTile(same, 0.5))
        # taken once, from the sorted ids: an int tuple's hash does not
        # depend on PYTHONHASHSEED
        assert t._hash == hash(t) == hash(((1, 2, 3), (1, 2)))

    def test_freq_tile_range(self):
        with pytest.raises(ValueError):
            FreqTile(Tile([1], [1]), 1.5)
        assert FreqTile(Tile([1], [1]), 1.0).exact
        assert not FreqTile(Tile([1], [1]), 0.25).exact

    def test_tileset_rejects_oversized_tile(self):
        with pytest.raises(OutOfBounds):
            TileSet((2, 2), (FreqTile(Tile([3], [1]), 1.0),))

    @pytest.mark.parametrize("dims", [(0, 3), (3, 0), (-1, 2)])
    def test_tileset_rejects_nonpositive_dims(self, dims):
        with pytest.raises(InputError, match="dims must be positive"):
            TileSet(dims)

    def test_tileset_rejects_conflicting_exact_duplicates(self):
        t = Tile([1], [1])
        with pytest.raises(ConflictingExactTiles):
            TileSet((2, 2), (FreqTile(t, 1.0), FreqTile(t, 0.0)))
        with pytest.raises(ConflictingExactTiles):  # behind a noisy duplicate
            TileSet((2, 2), (FreqTile(t, 0.5), FreqTile(t, 1.0), FreqTile(t, 0.0)))

    def test_tileset_allows_noisy_duplicates(self):
        # an identical repeat is kept once; the same tile at another
        # frequency is a different constraint and stays
        t = Tile([1, 2], [1, 2])
        ts = TileSet((2, 2), (FreqTile(t, 0.5), FreqTile(t, 0.5), FreqTile(t, 1.0)))
        assert ts.tiles == (FreqTile(t, 0.5), FreqTile(t, 1.0))


class TestEmpiricalFrequency:
    def test_toy_t1_is_half(self, toy_data, toy_tiles):
        assert empirical_frequency(toy_tiles[1], toy_data) == 0.5

    def test_toy_t3_is_zero(self, toy_data, toy_tiles):
        assert empirical_frequency(toy_tiles[3], toy_data) == 0.0

    def test_single_entry_tile_equals_entry(self, toy_data):
        for i in range(1, 6):
            for j in range(1, 6):
                assert empirical_frequency(Tile([i], [j]), toy_data) == toy_data.entries[i - 1, j - 1]

    def test_out_of_bounds(self, toy_data):
        with pytest.raises(OutOfBounds):
            empirical_frequency(Tile([6], [1]), toy_data)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_partition_area_weighted_mean(self, seed):
        # splitting a tile by rows: the whole-tile frequency is the
        # area-weighted mean of the part frequencies
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 6, 6)
        tile = random_tile(rng, 6, 6)
        if len(tile.rows) < 2:
            return
        cut = len(tile.rows) // 2
        a, b = Tile(tile.rows[:cut], tile.cols), Tile(tile.rows[cut:], tile.cols)
        whole = empirical_frequency(tile, data)
        mix = (
            empirical_frequency(a, data) * a.area + empirical_frequency(b, data) * b.area
        ) / tile.area
        assert whole == pytest.approx(mix, abs=1e-12)


class TestAreaMask:
    def test_toy_union_t2_t4(self, toy_data, toy_tiles):
        ts = make_set(toy_data, toy_tiles[2], toy_tiles[4])
        assert np.count_nonzero(ts.area_mask()) == 10

    def test_empty(self):
        mask = TileSet((3, 3)).area_mask()
        assert mask.shape == (3, 3) and not mask.any()

    def test_duplicate_tiles_idempotent(self, toy_data, toy_tiles):
        one = make_set(toy_data, toy_tiles[4])
        two = make_set(toy_data, toy_tiles[4], toy_tiles[4])
        assert np.array_equal(one.area_mask(), two.area_mask())

    def test_monotone_under_addition(self, toy_data, toy_tiles):
        ts = make_set(toy_data, toy_tiles[2])
        grown = make_set(toy_data, toy_tiles[2], toy_tiles[5])
        assert not (ts.area_mask() & ~grown.area_mask()).any()


class TestAnnotate:
    def test_toy_frequencies(self, toy_data, toy_tiles):
        ts = TileSet(
            toy_data.dims,
            tuple(FreqTile(toy_tiles[i], 0.0) for i in range(1, 6)),
        )
        got = [ft.alpha for ft in annotate(ts, toy_data)]
        assert got == [0.5, 1.0, 0.0, 1.0, 1.0]

    def test_all_zero_data(self):
        data = BinaryDataset(np.zeros((3, 4), dtype=int))
        ts = annotate(TileSet((3, 4), (FreqTile(Tile([1, 2], [2, 3]), 0.7),)), data)
        assert ts.tiles[0].alpha == 0.0

    def test_planted_rectangle_density(self):
        entries = np.zeros((6, 6), dtype=int)
        entries[1:4, 2:5] = 1
        data = BinaryDataset(entries)
        tile = Tile([2, 3, 4, 5], [3, 4, 5, 6])
        # direct count: rows 2-4 x cols 3-5 inside the tile are ones
        expected = 9 / 16
        assert empirical_frequency(tile, data) == expected

    def test_other_dims_rejected(self, toy_data):
        with pytest.raises(DimMismatch):
            annotate(TileSet((5, 4)), toy_data)

    def test_annotate_is_fixed_point(self, toy_data, toy_tiles):
        ts = make_set(toy_data, *toy_tiles.values())
        again = annotate(ts, toy_data)
        assert [f.alpha for f in ts] == [f.alpha for f in again]


class TestUnion:
    def test_union_preserves_order_and_dedupes(self, toy_data, toy_tiles):
        a = make_set(toy_data, toy_tiles[2], toy_tiles[4])
        b = make_set(toy_data, toy_tiles[4], toy_tiles[3])
        merged = a.union(b)
        assert [ft.tile for ft in merged] == [toy_tiles[2], toy_tiles[4], toy_tiles[3]]


tile_lists = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.sampled_from([0.0, 0.25, 1.0])),
    max_size=6,
).map(lambda specs: tuple(FreqTile(Tile(range(1, r + 1), [c]), a) for r, c, a in specs))


class TestSetSemantics:
    """Every layer sees one rule: an identical repeat is kept once."""

    def test_repeat_kept_once_in_first_position(self):
        a, b = FreqTile(Tile([1], [1]), 0.5), FreqTile(Tile([2], [2]), 1.0)
        assert TileSet((3, 3), (a, b, a, b, a)).tiles == (a, b)

    @settings(max_examples=100, deadline=None)
    @given(x=tile_lists, y=tile_lists)
    def test_union_is_construction_from_concatenation(self, x, y):
        def build(tiles):
            try:
                return TileSet((3, 3), tiles)
            except ConflictingExactTiles:
                return None

        xs, ys, joint = build(x), build(y), build(x + y)
        if xs is None or ys is None:
            return
        if joint is None:
            with pytest.raises(ConflictingExactTiles):
                xs.union(ys)
            return
        assert xs.union(ys) == joint
        for ft in xs:
            assert xs.with_tile(ft) == xs


def test_public_names_resolve_and_oracle_is_not_shipped():
    for name in tiledive.__all__:
        assert getattr(tiledive, name) is not None, name
    assert importlib.util.find_spec("tiledive.oracle") is None
    assert "entropy" not in tiledive.__all__ and not hasattr(tiledive, "entropy")
