import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import tiledive.divergence
import tiledive.redescribe
from tiledive import Tile, TileSet, background_tiles, distance, fruits
from tiledive.errors import DimMismatch
from tiledive.maxent import FitOptions

from conftest import (
    make_set,
    random_annotated_set,
    random_dataset,
    random_exact_instance,
    record_fits,
)

TIGHT = FitOptions(tolerance=1e-12)


class TestToyRedescription:
    def test_without_background(self, toy_sets, toy_tiles, toy_data):
        r = fruits(toy_sets["t"], toy_sets["u"], toy_sets["empty"], TIGHT)
        assert [ft.tile for ft in r.selected] == [toy_tiles[2], toy_tiles[5]]
        assert r.trace == pytest.approx((0.6, 1 / 3), abs=1e-12)
        assert r.final_distance == pytest.approx(1 / 3, abs=1e-12)

    def test_with_background(self, toy_sets, toy_tiles):
        r = fruits(toy_sets["t"], toy_sets["u"], toy_sets["b"], TIGHT)
        # against the dense-top/sparse-bottom background, the all-zero
        # block is the single most helpful candidate
        assert r.selected[0].tile == toy_tiles[3]
        assert all(b < a for a, b in zip(r.trace, r.trace[1:]))

    def test_target_in_pool_reaches_zero(self, toy_sets):
        r = fruits(toy_sets["t"], toy_sets["t"], toy_sets["empty"], TIGHT)
        assert r.final_distance == pytest.approx(0.0, abs=1e-9)
        assert len(r.selected) == 2

    def test_empty_pool(self, toy_sets):
        r = fruits(toy_sets["t"], TileSet(toy_sets["t"].dims), toy_sets["empty"])
        assert r.selected == ()
        assert r.final_distance == 1.0


class TestGreedyContract:
    def test_each_step_is_the_round_argmin(self):
        rng = np.random.default_rng(61)
        (t, u, b), _ = random_exact_instance(rng, 6, 6, [3, 4, 1])
        r = fruits(t, u, b, TIGHT)
        chosen = TileSet(t.dims)
        remaining = list(u.tiles)
        for pick, expected_d in zip(r.selected, r.trace):
            best = min(
                distance(chosen.with_tile(c), t, b, TIGHT).value for c in remaining
            )
            got = distance(chosen.with_tile(pick), t, b, TIGHT).value
            assert got == pytest.approx(best, abs=1e-9)
            assert got == pytest.approx(expected_d, abs=1e-9)
            chosen = chosen.with_tile(pick)
            remaining.remove(pick)

    def test_stops_only_when_no_candidate_helps(self):
        rng = np.random.default_rng(62)
        for _ in range(5):
            (t, u, b), _ = random_exact_instance(rng, 6, 6, [3, 4, 1])
            r = fruits(t, u, b, TIGHT)
            chosen = TileSet(t.dims, r.selected)
            leftovers = [c for c in u.tiles if c not in r.selected]
            for c in leftovers:
                d = distance(chosen.with_tile(c), t, b, TIGHT).value
                assert d >= r.final_distance - 1e-9

    def test_trace_strictly_decreasing(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            (t, u, b), _ = random_exact_instance(rng, 6, 6, [2, 5, 1])
            r = fruits(t, u, b, TIGHT)
            prev = distance(TileSet(t.dims), t, b, TIGHT).value
            for d in r.trace:
                assert d < prev - 1e-12
                prev = d

    def test_never_beats_exhaustive_but_tracks_it(self, toy_sets):
        # sanity bound: greedy cannot do better than the best subset
        t, u, empty = toy_sets["t"], toy_sets["u"], toy_sets["empty"]
        best = min(
            distance(TileSet(t.dims, subset), t, empty, TIGHT).value
            for size in range(len(u.tiles) + 1)
            for subset in combinations(u.tiles, size)
        )
        r = fruits(t, u, empty, TIGHT)
        assert r.final_distance >= best - 1e-12
        assert r.final_distance == pytest.approx(best, abs=1e-12)  # here greedy is optimal

    def test_duplicate_candidates_selected_once(self, toy_data, toy_tiles, toy_sets):
        doubled = make_set(toy_data, toy_tiles[2], toy_tiles[2], toy_tiles[5])
        r = fruits(toy_sets["t"], doubled, toy_sets["empty"], TIGHT)
        picked = [ft.tile for ft in r.selected]
        assert picked.count(toy_tiles[2]) == 1

    def test_candidates_on_other_dims_are_rejected(self, toy_sets):
        other = TileSet((3, 3))
        with pytest.raises(DimMismatch):
            fruits(toy_sets["t"], other, toy_sets["empty"])


def reference_greedy(target, candidates, background, opts):
    """`fruits`'s selection rule on public `distance` calls, 4 fits each.

    Returns the selection, the trace and the number of distinct tile sets
    among target+bg, bg and each evaluation's joint and chosen+cand+bg.
    """
    chosen = TileSet(target.dims)
    remaining = list(candidates.tiles)
    best = distance(chosen, target, background, opts).value
    selected, trace = [], []
    sets = {frozenset(target.union(background).tiles), frozenset(background.tiles)}
    while remaining:
        round_best, round_pick = best, None
        for i, cand in enumerate(remaining):
            t = chosen.with_tile(cand)
            d = distance(t, target, background, opts).value
            sets |= {frozenset(t.union(target, background).tiles),
                     frozenset(t.union(background).tiles)}
            if d < round_best - 1e-12:
                round_best, round_pick = d, i
        if round_pick is None:
            break
        cand = remaining.pop(round_pick)
        chosen = chosen.with_tile(cand)
        selected.append(cand)
        best = round_best
        trace.append(best)
    return tuple(selected), tuple(trace), len(sets)


class TestSharedFits:
    # A background given with a repeated tile is the same set, so it
    # costs no extra fit.
    @pytest.mark.parametrize("preset, repeats", [("density", 0), ("columns", 0), ("columns", 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_matches_reference_loop(self, monkeypatch, preset, repeats, seed):
        rng = np.random.default_rng(700 + seed)
        data = random_dataset(rng, 8, 8, density=0.4)
        target = random_annotated_set(rng, data, 3)
        pool = random_annotated_set(rng, data, 3)
        background = background_tiles(preset, data)
        background = TileSet(data.dims, background.tiles + background.tiles[:repeats])
        assert not set(pool.tiles) & set(target.union(background).tiles)
        fits = record_fits(monkeypatch)
        # a pool that holds the target, and one that shares no tile with
        # target+bg, whose every pick grows the base
        for candidates in (pool.union(target), pool):
            selected, trace, distinct = reference_greedy(target, candidates, background, FitOptions())
            fits.clear()
            r = fruits(target, candidates, background, FitOptions())

            assert r.selected == selected
            assert [d.hex() for d in r.trace] == [d.hex() for d in trace]
            # one fit per distinct tile set: a model depends only on its set
            assert len(fits) == distinct

    @pytest.mark.parametrize("seed", range(3))
    def test_kl_terms_of_a_joint_are_computed_once(self, monkeypatch, seed):
        # a pool that holds the target, so joints recur
        rng = np.random.default_rng(700 + seed)
        data = random_dataset(rng, 8, 8, density=0.4)
        target = random_annotated_set(rng, data, 3)
        candidates = random_annotated_set(rng, data, 3).union(target)
        background = background_tiles("density", data)
        kls = []
        real_kl = tiledive.divergence.kl
        monkeypatch.setattr(tiledive.divergence, "kl", lambda a, b: kls.append(1) or real_kl(a, b))
        r = fruits(target, candidates, background, FitOptions())

        # Replay the rounds. Each evaluation computes KL(M || chosen+cand+bg)
        # unless that set is the joint M; each distinct joint computes
        # KL(M || target+bg) and KL(M || bg) once, and target+bg's own
        # joint only KL(M || bg).
        bg, tg = frozenset(background.tiles), frozenset(target.tiles)
        chosen, remaining = frozenset(), list(candidates.tiles)
        evaluations, per_evaluation, joints = 0, 0, set()
        for pick in r.selected + (None,):
            for cand in remaining:
                t_bg = chosen | {cand} | bg
                evaluations += 1
                per_evaluation += t_bg != t_bg | tg
                joints.add(t_bg | tg)
            if pick is not None:
                remaining.remove(pick)
                chosen |= {pick}
        assert len(joints) < evaluations
        assert len(kls) == per_evaluation + 2 * len(joints) - ((tg | bg) in joints)

    @pytest.mark.parametrize("seed", range(3))
    def test_joints_past_the_cap_are_refitted(self, monkeypatch, seed):
        # 3 candidates outside the target, and room to keep 1 joint model
        rng = np.random.default_rng(700 + seed)
        data = random_dataset(rng, 8, 8, density=0.4)
        target = random_annotated_set(rng, data, 3)
        candidates = random_annotated_set(rng, data, 3).union(target)
        background = background_tiles("density", data)
        selected, trace, distinct = reference_greedy(target, candidates, background, FitOptions())

        monkeypatch.setattr(tiledive.redescribe, "_KEPT_BYTES", data.entries.size * 8)
        fits = record_fits(monkeypatch)
        r = fruits(target, candidates, background, FitOptions())

        assert r.selected == selected
        assert [d.hex() for d in r.trace] == [d.hex() for d in trace]
        assert len(fits) > distinct

    def test_no_joint_is_kept_when_none_can_recur(self):
        # No candidate lies in target+bg, so every pick grows the base and
        # no joint model is looked up in a later round. Keeping all 12 of
        # a round's joints, 320 kB each, took the peak from 3.3 to 6.5 MB.
        rng = np.random.default_rng(720)
        n = m = 200
        data = random_dataset(rng, n, m, density=0.3)

        def squares(k):
            corners = rng.integers(1, n - 14, size=(k, 2)).tolist()
            return make_set(data, *(Tile(range(i, i + 15), range(j, j + 15)) for i, j in corners))

        target, pool = squares(3), squares(12)
        background = background_tiles("density", data)
        assert not set(pool.tiles) & set(target.union(background).tiles)
        tracemalloc.start()
        try:
            r = fruits(target, pool, background)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.selected
        assert peak < 16 * 8 * n * m

    @pytest.mark.parametrize("preset", ["density", "columns"])
    def test_empty_selection_is_at_one_without_fit_or_kl(self, monkeypatch, preset):
        rng = np.random.default_rng(710)
        data = random_dataset(rng, 8, 8, density=0.4)
        target = random_annotated_set(rng, data, 3)
        kls = []
        real_kl = tiledive.divergence.kl
        monkeypatch.setattr(tiledive.divergence, "kl", lambda a, b: kls.append(1) or real_kl(a, b))
        fits = record_fits(monkeypatch)
        r = fruits(target, TileSet(data.dims), background_tiles(preset, data))
        assert r.final_distance == 1.0 and r.trace == ()
        assert len(fits) == 2 and kls == []

    def test_candidates_the_background_implies_are_not_fitted(self, monkeypatch):
        # Every candidate lies in target+bg, and the column margins imply
        # the target's tiles, which span all rows: every distance is 1, so
        # nothing is picked, and only target+bg and bg are fitted.
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 12, 10, density=0.4)
        target = make_set(data, *(Tile(range(1, 13), [j, j + 1]) for j in (1, 4, 7)))
        background = background_tiles("columns", data)
        fits = record_fits(monkeypatch)
        r = fruits(target, target.union(background), background)
        assert (r.selected, r.trace, r.final_distance) == ((), (), 1.0)
        assert len(fits) == 2
