import math

import numpy as np
import pytest

from tiledive import (
    BinaryDataset,
    FreqTile,
    Tile,
    TileSet,
    annotate,
    background_tiles,
    distance,
    exact_fastpath,
    fit,
    jaccard_distance,
    kl,
    kl_by_entropy,
)
from tiledive.errors import DimMismatch, InfiniteDivergence, NotExact
from tiledive.maxent import FitOptions

from conftest import (
    make_set,
    random_annotated_set,
    random_dataset,
    random_exact_instance,
)

TIGHT = FitOptions(tolerance=1e-12)
LN2 = math.log(2)


class TestKl:
    def test_toy_joint_vs_left(self, toy_sets):
        model_m = fit(toy_sets["m"], TIGHT)
        model_tb = fit(toy_sets["t"].union(toy_sets["b"]), TIGHT)
        expected = 2 * math.log(6) + 10 * math.log(6 / 5)
        assert kl(model_m, model_tb) == pytest.approx(expected, abs=1e-9)

    def test_self_divergence_zero(self, toy_sets):
        model = fit(toy_sets["u"], TIGHT)
        assert kl(model, model) == 0.0

    def test_exact_nested_sets_count_areas(self, toy_data, toy_tiles):
        big = make_set(toy_data, toy_tiles[2], toy_tiles[3], toy_tiles[5])
        small = make_set(toy_data, toy_tiles[5])
        value = kl(exact_fastpath(big), exact_fastpath(small))
        extra = 4 + 6  # area covered by big but not small
        assert value == pytest.approx(extra * LN2, abs=1e-12)

    def test_infinite_divergence_detected(self):
        a = exact_fastpath(TileSet((2, 2)))
        b = exact_fastpath(TileSet((2, 2), (FreqTile(Tile([1], [1]), 1.0),)))
        with pytest.raises(InfiniteDivergence):
            kl(a, b)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            kl(exact_fastpath(TileSet((2, 2))), exact_fastpath(TileSet((2, 3))))


def _planted_result_sets(seed, n, biclusters):
    """Noisy biclusters on a zero background, and three result sets that
    each recover three of them (the first in full, the others possibly
    trimmed to three quarters of their rows and columns)."""
    rng = np.random.default_rng(seed)
    data = np.zeros((n, n), dtype=np.uint8)
    row_groups = np.array_split(rng.permutation(n), biclusters + 1)
    col_groups = np.array_split(rng.permutation(n), biclusters + 1)
    found = []
    for rows, cols in zip(row_groups[:biclusters], col_groups[:biclusters]):
        rows, cols = np.sort(rows), np.sort(cols)
        data[np.ix_(rows, cols)] = rng.random((len(rows), len(cols))) < 0.8
        found.append((rows, cols))
    sets = []
    for _ in range(3):
        tiles = []
        for q, pick in enumerate(rng.choice(biclusters, size=3, replace=False)):
            rows, cols = found[pick]
            if q > 0 and rng.random() < 0.5:
                rows = np.sort(rng.choice(rows, size=max(2, int(0.75 * len(rows))), replace=False))
                cols = np.sort(rng.choice(cols, size=max(2, int(0.75 * len(cols))), replace=False))
            tiles.append(FreqTile(Tile(rows + 1, cols + 1), 0.0))
        sets.append(TileSet((n, n), tuple(tiles)))
    ds = BinaryDataset(data)
    return ds, [annotate(ts, ds) for ts in sets]


class TestSaturatedFreeEntries:
    def test_planted_distance_with_margin_background_is_finite(self):
        # On this instance a free entry of the left+background model
        # saturates to within an ulp of 1 while the joint model leaves it
        # just below; fit must keep free entries strictly inside (0, 1),
        # or KL(joint || left+background) raises InfiniteDivergence.
        ds, sets = _planted_result_sets([7, 2, 14], 21, 6)
        bg = background_tiles("columns+rows", ds)
        report = distance(sets[0], sets[2], bg)
        assert math.isfinite(report.value)
        assert report.value == pytest.approx(
            (report.kl_m_t + report.kl_m_u) / report.kl_m_b, abs=1e-12
        )


class TestKlByEntropy:
    def test_matches_direct_path_on_toy(self, toy_sets):
        model_m = fit(toy_sets["m"], TIGHT)
        for key in ("t", "u", "b"):
            other = fit(toy_sets[key].union(toy_sets["b"]), TIGHT)
            assert kl_by_entropy(model_m, other) == pytest.approx(
                kl(model_m, other), abs=1e-9
            )

    def test_identical_models(self, toy_sets):
        model = fit(toy_sets["t"], TIGHT)
        assert kl_by_entropy(model, model) == 0.0

    def test_against_uniform_background(self, toy_sets):
        model = fit(toy_sets["u"], TIGHT)
        uniform = exact_fastpath(TileSet(toy_sets["u"].dims))
        n, m = toy_sets["u"].dims
        expected = n * m * LN2 - (9 * LN2)  # 9 free entries in the model
        assert kl_by_entropy(model, uniform) == pytest.approx(expected, abs=1e-9)


class TestToyDistances:
    def test_no_background(self, toy_sets):
        report = distance(toy_sets["t"], toy_sets["u"], toy_sets["empty"], TIGHT)
        assert report.value == pytest.approx(5 / 9, abs=1e-12)
        assert report.used_jaccard_path

    def test_with_background(self, toy_sets):
        report = distance(toy_sets["t"], toy_sets["u"], toy_sets["b"], TIGHT)
        assert 0.600 <= report.value <= 0.610
        assert not report.used_jaccard_path

    def test_subset_ratio_example(self, toy_sets):
        joint = toy_sets["u"].union(toy_sets["t"])
        report = distance(toy_sets["u"], joint, toy_sets["empty"], TIGHT)
        assert report.value == pytest.approx(2 / 18, abs=1e-12)

    def test_ranked_supersets_shrink_distance(self, toy_sets, toy_data, toy_tiles):
        m = toy_sets["m"]
        d1 = distance(toy_sets["u"], m, toy_sets["empty"], TIGHT).value
        grown = toy_sets["u"].union(make_set(toy_data, toy_tiles[4]))
        d2 = distance(grown, m, toy_sets["empty"], TIGHT).value
        assert d1 == pytest.approx(6 / 22, abs=1e-9)
        assert d2 < d1 - 1e-9


class TestJaccard:
    def test_toy_no_background(self, toy_sets):
        assert jaccard_distance(
            toy_sets["t"], toy_sets["u"], toy_sets["empty"]
        ) == pytest.approx(5 / 9)

    def test_identical_sets(self, toy_sets):
        assert jaccard_distance(toy_sets["t"], toy_sets["t"], toy_sets["empty"]) == 0.0

    def test_disjoint_areas(self, toy_data, toy_tiles):
        t = make_set(toy_data, toy_tiles[2])
        u = make_set(toy_data, toy_tiles[4])
        assert jaccard_distance(t, u, TileSet(toy_data.dims)) == 1.0

    def test_empty_leftover_areas(self, toy_data, toy_tiles):
        t = make_set(toy_data, toy_tiles[2])
        assert jaccard_distance(t, t, t) == 1.0

    def test_rejects_noisy(self, toy_sets):
        with pytest.raises(NotExact):
            jaccard_distance(toy_sets["b"], toy_sets["t"], toy_sets["empty"])


class TestRandomizedProperties:
    def test_jaccard_equals_general_path(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            (t, u, b), _ = random_exact_instance(rng, 6, 6, [3, 3, 2])
            general = distance(t, u, b, TIGHT, allow_jaccard=False).value
            fast = distance(t, u, b, TIGHT).value
            assert general == pytest.approx(fast, abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            data = random_dataset(rng, 6, 6)
            t = random_annotated_set(rng, data, 3)
            u = random_annotated_set(rng, data, 3)
            b = random_annotated_set(rng, data, 1)
            d = distance(t, u, b, TIGHT).value
            assert 0.0 <= d <= 2.0 + 1e-9

    def test_exact_bound_is_one(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            (t, u, b), _ = random_exact_instance(rng, 6, 6, [3, 3, 2])
            assert distance(t, u, b, TIGHT).value <= 1.0 + 1e-9

    def test_self_distance_zero(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            data = random_dataset(rng, 6, 6)
            t = random_annotated_set(rng, data, 3)
            b = random_annotated_set(rng, data, 1)
            assert distance(t, t, b, TIGHT).value == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_given_background_distance_one(self):
        # background exactly covers any overlap between the two sides
        rng = np.random.default_rng(25)
        for _ in range(15):
            n, m = 6, 6
            entries = (rng.random((n, m)) < 0.5).astype(int)
            entries[:, 2:4] = 1
            from tiledive import BinaryDataset

            data = BinaryDataset(entries)
            t = make_set(data, Tile(range(1, 7), [1, 2, 3]))
            u = make_set(data, Tile(range(1, 7), [3, 4, 5]))
            b = make_set(data, Tile(range(1, 7), [3, 4]))
            assert b.all_exact()
            d = distance(t, u, b, TIGHT).value
            assert d == pytest.approx(1.0, abs=1e-9)

    def test_triangle_inequality_exact(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            (t, s, u, b), _ = random_exact_instance(rng, 6, 6, [3, 3, 3, 2])
            dtu = distance(t, u, b, TIGHT).value
            dts = distance(t, s, b, TIGHT).value
            dsu = distance(s, u, b, TIGHT).value
            assert dtu <= dts + dsu + 1e-12

    def test_adding_target_tiles_monotone(self):
        rng = np.random.default_rng(27)
        for _ in range(15):
            data = random_dataset(rng, 6, 6)
            t = random_annotated_set(rng, data, 3)
            u = random_annotated_set(rng, data, 3)
            b = random_annotated_set(rng, data, 1)
            base = distance(t, u, b, TIGHT).value
            for ft in u:
                grown = distance(t.union(TileSet(t.dims, (ft,))), u, b, TIGHT).value
                assert grown <= base + 1e-9

    def test_subset_identity_both_forms(self):
        rng = np.random.default_rng(28)
        for _ in range(15):
            data = random_dataset(rng, 6, 6)
            t = random_annotated_set(rng, data, 4)
            u = TileSet(t.dims, t.tiles[:2])
            b = random_annotated_set(rng, data, 1)
            report = distance(t, u, b, TIGHT)
            if report.kl_m_b <= 1e-12:
                continue
            d = report.value
            assert d == pytest.approx(report.kl_m_u / report.kl_m_b, abs=1e-9)
            model_ub = fit(u.union(b), TIGHT)
            model_b = fit(b, TIGHT)
            assert d == pytest.approx(
                1.0 - kl(model_ub, model_b) / report.kl_m_b, abs=1e-9
            )

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            data = random_dataset(rng, 5, 5)
            t = random_annotated_set(rng, data, 3)
            u = random_annotated_set(rng, data, 3)
            b = random_annotated_set(rng, data, 1)
            # union order differs, so Newton solves for the multipliers in a
            # different tile order; agreement is only up to the fit tolerance
            assert distance(t, u, b, TIGHT).value == pytest.approx(
                distance(u, t, b, TIGHT).value, abs=1e-9
            )

    def test_symmetry_exact_path(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            (t, u, b), _ = random_exact_instance(rng, 6, 6, [3, 3, 1])
            assert distance(t, u, b).value == distance(u, t, b).value
