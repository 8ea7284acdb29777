"""Tests of the benchmark itself: tracer coverage and toy-size runs.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json

import numpy as np
import pytest

import run

run.use_checkout_source()

import tiledive  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tiledive import cli  # noqa: E402
from tiledive.core import BinaryDataset, FreqTile, Tile, TileSet  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.restore()
    return tracer


@pytest.fixture
def toy():
    rng = np.random.default_rng(0)
    ds = BinaryDataset((rng.random((8, 8)) < 0.5).astype(np.uint8))

    def tiles(*rects):
        return tiledive.annotate(TileSet(ds.dims, tuple(
            FreqTile(Tile(r, c), 0.0) for r, c in rects)), ds)

    left = tiles(((1, 2, 3), (1, 2, 3, 4)))
    right = tiles(((2, 3, 4, 5), (3, 4, 5)))
    assert not left.all_exact() and not right.all_exact()
    return ds, left, right


def test_noisy_distance_fits_four_models(toy):
    ds, left, right = toy
    tracer = _traced(lambda: tiledive.distance(left, right, tiledive.density_tile(ds)))
    calls, _ = tracer.totals()
    assert calls["maxent.fit"] == 4
    assert calls["maxent.exact_fastpath"] == 0
    assert calls["divergence.kl"] == 3


def test_exact_distance_takes_fast_path():
    def exact(*rects):
        return TileSet((6, 6), tuple(FreqTile(Tile(r, c), 1.0) for r, c in rects))

    tracer = _traced(lambda: tiledive.distance(exact(((1, 2), (1, 2))), exact(((2, 3), (2, 3)))))
    calls, _ = tracer.totals()
    assert calls["maxent.exact_fastpath"] == 4
    assert calls["maxent.fit"] == 0
    assert calls["divergence.jaccard_distance"] == 1


def test_cli_distance_reads_dataset_once(toy, tmp_path):
    ds, left, right = toy
    tiledive.write_dataset(ds, tmp_path / "data.txt")
    tiledive.write_tileset(left, tmp_path / "left.tiles")
    tiledive.write_tileset(right, tmp_path / "right.tiles")
    args = ["distance", "--data", str(tmp_path / "data.txt"),
            "--left", str(tmp_path / "left.tiles"), "--right", str(tmp_path / "right.tiles")]
    tracer = _traced(lambda: cli.main.main(args, standalone_mode=False))
    calls, self_s = tracer.totals()
    assert calls["io.read_dataset"] == 1
    assert calls["io.read_tileset"] == 2
    assert calls["cli"] == 1
    assert calls["maxent.fit"] == 3  # the empty background takes the exact path
    # every span lies inside the CLI span, so self times add up to it
    (cli_span,) = [s for s in tracer.spans if s[0] == "cli"]
    assert sum(self_s.values()) == pytest.approx(cli_span[2] - cli_span[1])


def test_restore_puts_every_original_back():
    before = {name: getattr(mod, name) for mod, name in [
        (tiledive, "fit"), (tiledive.maxent, "fit"), (tiledive.divergence, "fit"),
        (tiledive.rank, "kl"), (tiledive.cli, "read_dataset"),
        (tiledive.maxent, "bernoulli_update"), (tiledive.core.TileSet, "union")]}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tiledive.divergence.fit is not before["fit"]
        assert tiledive.divergence.fit is tiledive.maxent.fit is tiledive.fit
        assert tiledive.cli.read_dataset is not before["read_dataset"]
    finally:
        tracer.restore()
    assert tiledive.maxent.fit is tiledive.divergence.fit is tiledive.fit is before["fit"]
    assert tiledive.rank.kl is before["kl"]
    assert tiledive.cli.read_dataset is before["read_dataset"]
    assert tiledive.maxent.bernoulli_update is before["bernoulli_update"]
    assert tiledive.core.TileSet.union is before["union"]
    assert "main" not in vars(cli.main)


def test_fit_errors_and_repeats_are_counted():
    ts = TileSet((4, 4), (FreqTile(Tile((1, 2), (1, 2)), 0.5),))
    bad = TileSet((4, 4), (FreqTile(Tile((1, 2), (1, 2)), 1.0),
                           FreqTile(Tile((1,), (1, 2)), 0.5)))

    def body():
        tiledive.fit(ts)
        tiledive.fit(ts)
        with pytest.raises(tiledive.errors.InfeasibleTile):
            tiledive.fit(bad)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op("op")
        body()
    finally:
        tracer.restore()
    spans = len(tracer.spans)
    tracer.measure_fit_peak()  # re-fits `ts`, the largest input that fitted
    assert len(tracer.spans) == spans
    metrics = tracing.layer_metrics(tracer, rounds=1, overhead_s=0.0)
    assert metrics["maxent.fit.calls"]["value"] == 3
    assert metrics["maxent.fit.errors"]["value"] == 1
    assert metrics["maxent.fit.repeat_ratio"]["value"] == pytest.approx(1 / 3)
    assert metrics["maxent.fit.peak_mb"]["value"] > 0


def test_setup_work_counts_only_for_convert(toy):
    ds, left, right = toy

    def body():
        tracer.begin_op(tracing.SETUP)
        tiledive.itemsets_to_tiles(tiledive.ItemsetResult(((1, 2),)), ds)
        tiledive.annotate(left, ds)
        tracer.begin_op("op")
        tiledive.annotate(right, ds)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        body()
    finally:
        tracer.restore()
    calls, self_s = tracer.totals()
    assert calls["convert.itemsets_to_tiles"] == 1 and self_s["convert.itemsets_to_tiles"] > 0
    assert calls["core.annotate"] == 1  # the op's call, not the set-up's
    assert calls["core.empirical_frequency"] == len(right.tiles)


@pytest.fixture
def toy_sizes(monkeypatch):
    for name, value in [("EXACT_N", 100), ("EXACT_M", 30),
                        ("PLANTED_N", 21),
                        ("SEARCH_INSTANCES", 1), ("SEARCH_N", 24),
                        ("SEARCH_TARGET", 2), ("SEARCH_CANDIDATES", 3), ("SEARCH_RANKED", 3)]:
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_emits_every_metric(toy_sizes, capsys, workload, trace):
    # seed 2: the recorded outputs belong to the full-size default seed
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and record["fail_ratio"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        if workload == "exact-cli":
            assert record["op_p90_s"] > 0
    for key in ("nproc", "python", "numpy", "blas", "commit", "seed", "ops_per_round"):
        assert key in record


def test_golden_mismatch_is_a_failure(monkeypatch, tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"w": {"a": [1, 0.5], "b": [2, 0.25]}}))
    monkeypatch.setattr(run, "GOLDEN", golden)
    ok = {"a": [1, 0.5 + 1e-9], "b": [2, 0.25]}
    assert run.golden_mismatches("w", ok) == []
    bad = run.golden_mismatches("w", {"a": [1, 0.6], "b": [3, 0.25], "c": [0]})
    assert [label for label, _ in bad] == ["a", "b", "c"]
    assert [label for label, _ in run.golden_mismatches("w", {"a": [1, 0.5]})] == ["b"]


def test_raised_ops_fail_and_wrong_outputs_are_incorrect():
    def boom():
        raise tiledive.errors.InfiniteDivergence("entry (1, 1)")

    def bad_check(result):
        raise workloads.CheckFailed("wrong")

    ops = [workloads.Op("raises", boom, lambda r: [r]),
           workloads.Op("wrong", lambda: 1.0, bad_check),
           workloads.Op("right", lambda: 0.5, lambda r: [r])]
    latencies, summaries, errors, wrong, ran = run.run_round(ops)
    assert ran == 3
    assert run.run_round(ops, deadline=0.0)[4] == 0  # no op starts after the deadline
    assert len(latencies) == 1  # failed ops are not timed
    assert summaries == {"right": [0.5]}
    assert [label for label, _ in errors] == ["raises"]
    assert [label for label, _ in wrong] == ["wrong"]


def test_a_raising_op_makes_the_run_incorrect(monkeypatch, capsys):
    def build(seed, k, workdir, relabel=False):
        def boom():
            raise tiledive.errors.NoConvergence("planted")
        return [workloads.Op("raises", boom, lambda r: [r]),
                workloads.Op("right", lambda: 0.5, lambda r: [r])]

    monkeypatch.setitem(workloads.WORKLOADS, "search", build)
    assert run.main(["--workload", "search", "--seed", "2", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    # the warm-up round and one timed round, each with one failing op
    assert (result["attempted"], result["failed"]) == (4, 2)
