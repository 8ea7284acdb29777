import math
import tracemalloc

import numpy as np
import pytest

import tiledive
from tiledive import (
    BinaryDataset,
    FreqTile,
    Tile,
    TileSet,
    annotate,
    background_tiles,
    distance,
    distance_matrix,
    exact_fastpath,
    fit,
    fruits,
    jaccard_distance,
    kl,
)
from tiledive.errors import ConsistencyError, DimMismatch, InfiniteDivergence, NotExact
from tiledive.maxent import EntryModel, FitOptions

from conftest import (
    kl_ratio,
    make_set,
    random_annotated_set,
    random_dataset,
    random_exact_instance,
)
from oracle import kl_by_entropy

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

    @pytest.mark.parametrize("kinds", [(0.0,), (1.0,), (0.0, 1.0), (1.0, 0.0)])
    def test_infinite_divergence_names_the_first_clash(self, kinds):
        # A clash is an entry where the reference model b is 0 with a > 0,
        # or 1 with a < 1. Among many finite terms, and entries where both
        # models agree on 0 or 1, the first clash in row-major order is named.
        rng = np.random.default_rng(5)
        pa, pb = rng.uniform(0.05, 0.95, size=(2, 20, 30))
        pa[0, :4] = pb[0, :4] = [0.0, 1.0, 0.0, 1.0]
        a = EntryModel((20, 30), pa, 0.0)
        assert math.isfinite(kl(a, EntryModel((20, 30), pb.copy(), 0.0)))
        for (i, j), value in zip([(7, 12), (15, 3)], kinds):
            pb[i, j] = value
        with pytest.raises(InfiniteDivergence, match=r"entry \(8, 13\) is deterministic"):
            kl(a, EntryModel((20, 30), pb, 0.0))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            kl(exact_fastpath(TileSet((2, 2))), exact_fastpath(TileSet((2, 3))))


class TestDistanceMatrix:
    def test_equals_per_pair_distance_without_background(self, toy_sets):
        sets = [toy_sets[k] for k in ("t", "u", "b")]
        assert distance_matrix(sets) == [[distance(s, u).value for u in sets] for s in sets]

    def test_rejects_a_set_on_other_dims(self, toy_sets):
        with pytest.raises(DimMismatch):
            distance_matrix([toy_sets["t"], TileSet((2, 2))])

    def test_no_sets_give_an_empty_matrix(self):
        assert distance_matrix([]) == []

    def test_distance_rejects_a_set_on_other_dims(self, toy_sets):
        for t, u, b in ((toy_sets["t"], TileSet((2, 2)), None),
                        (toy_sets["t"], toy_sets["u"], TileSet((2, 2)))):
            with pytest.raises(DimMismatch):
                distance(t, u, b)


class TestInconsistentSets:
    # One 2x2 rectangle of a 3x3 grid at frequency 1/4 in one set and 3/4
    # in the other: each set fits alone, their joint model cannot.
    RECT = Tile([1, 2], [1, 2])
    LOW = TileSet((3, 3), (FreqTile(RECT, 0.25),))
    HIGH = TileSet((3, 3), (FreqTile(RECT, 0.75),))

    def test_each_set_fits_alone(self):
        assert fit(self.LOW).residual <= 1e-6 and fit(self.HIGH).residual <= 1e-6

    def test_distance(self):
        with pytest.raises(ConsistencyError):
            distance(self.LOW, self.HIGH)

    def test_distance_matrix(self):
        with pytest.raises(ConsistencyError):
            distance_matrix([self.LOW, self.HIGH])

    def test_fruits_against_the_other_as_background(self):
        with pytest.raises(ConsistencyError):
            fruits(self.LOW, TileSet((3, 3)), self.HIGH)


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


class TestExactPath:
    def test_kl_terms_count_areas(self, toy_sets):
        t, u = toy_sets["t"], toy_sets["u"]
        x, y = t.area_mask(), u.area_mask()
        report = distance(t, u)
        assert report.used_jaccard_path
        assert report.kl_m_t == pytest.approx(LN2 * np.count_nonzero(y & ~x), rel=1e-12)
        assert report.kl_m_u == pytest.approx(LN2 * np.count_nonzero(x & ~y), rel=1e-12)
        assert report.kl_m_b == pytest.approx(LN2 * np.count_nonzero(x | y), rel=1e-12)

    def test_builds_no_float_model(self):
        # 4 vs 4 itemset tiles on 500x200 sparse data with planted itemsets
        rng = np.random.default_rng(18)
        n, m = 500, 200
        entries = rng.random((n, m)) < 0.05
        planted = [rng.choice(m, size=5, replace=False) for _ in range(8)]
        for cols in planted:
            entries[np.ix_(rng.choice(n, size=50, replace=False), cols)] = True
        data = BinaryDataset(entries.astype(np.uint8))

        def side(picks):
            itemsets = tuple(tuple(int(c) + 1 for c in planted[i]) for i in picks)
            return tiledive.itemsets_to_tiles(tiledive.ItemsetResult(itemsets), data).tiles

        t, u, b = side([0, 1, 2, 3]), side([2, 3, 4, 5]), TileSet((n, m))
        assert len(t) == len(u) == 4 and t.all_exact() and u.all_exact()
        distance(t, u)  # warm up
        tracemalloc.start()
        try:
            report = distance(t, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * m  # two n x m float64 models
        # the value and KL terms of counting each dense model's entries at 0 or 1
        areas = [np.count_nonzero(fit(s, TIGHT).p != 0.5)
                 for s in (t.union(u, b), t.union(b), u.union(b), b)]
        assert report.used_jaccard_path
        assert report.value == jaccard_distance(t, u, b)
        assert (report.kl_m_t, report.kl_m_u, report.kl_m_b) == tuple(
            LN2 * (areas[0] - area) for area in areas[1:])

    @pytest.mark.parametrize("call", [
        lambda t, u: distance(t, u),
        lambda t, u: distance_matrix([t, u]),
        lambda t, u: fruits(t, u),
    ], ids=["distance", "distance_matrix", "fruits"])
    def test_makes_no_kl_pass(self, monkeypatch, toy_sets, call):
        calls = []
        real = tiledive.divergence.kl
        monkeypatch.setattr(tiledive.divergence, "kl", lambda *a: calls.append(a) or real(*a))
        call(toy_sets["t"], toy_sets["u"])
        assert calls == []


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
            general = kl_ratio(t, u, b, TIGHT)
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
            # the unions differ only in order, and a fit depends only on
            # its set of tiles, so the two values agree bit for bit
            assert distance(t, u, b, TIGHT).value == distance(u, t, b, TIGHT).value

    def test_symmetry_exact_path(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            (t, u, b), _ = random_exact_instance(rng, 6, 6, [3, 3, 1])
            assert distance(t, u, b).value == distance(u, t, b).value
