"""Seeded benchmark for tiledive: three workloads, checked outputs, per-layer tracing.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 40 --trace 0

The library is imported from `src/` of the checkout this file sits in.
A run builds one instance of the workload from `--seed` per round: an
untimed warm-up round, then timed rounds until `--seconds` have passed,
checking every output untimed. With `--trace 0` it reports the
end-to-end metrics. With `--trace 1` each timed round is followed by a
traced round on the same instance, relabeled, and the run reports the
per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before
it is the run record. `correct` is false as soon as one op raised,
exited non-zero or returned a wrong output. `--workload all` runs every
workload, each in its own process, one after another, and exits
non-zero if any op of any workload failed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("exact-cli", "planted-matrix", "search")
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, click, tiledive, tiledive.cli; "
                 "print(time.perf_counter() - t)")


def use_checkout_source() -> None:
    """Import tiledive from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "tiledive" / "__init__.py").is_file():
        raise SystemExit(f"error: no tiledive sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tiledive

    if Path(tiledive.__file__).resolve().parent != SRC / "tiledive":
        raise SystemExit(f"error: tiledive was imported from {tiledive.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the library and its dependencies.

    This is the import part of set-up. It is timed in fresh interpreters
    rather than once in this one because a single import varies by half
    from run to run, and set-up is reported as a median of repeats.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_round(ops, tracer=None, deadline=None):
    """Time each op, then check its output untimed.

    Returns (latencies, summaries, errors, wrong, ran): latencies and
    summaries cover the ops that passed, summaries mapping op label to
    the checked output; errors lists (label, reason) for ops that raised
    or exited non-zero, wrong those whose output failed its check. A
    failed op's time is left out, so failing fast cannot look faster.
    With a `deadline`, no op starts after it and `ran` counts the ops
    that did; otherwise every op runs.
    """
    from workloads import CheckFailed

    latencies, summaries, errors, wrong, ran = [], {}, [], [], 0
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        ran += 1
        if tracer is not None:
            tracer.begin_op(op.label)
        start = time.perf_counter()
        try:
            result = op.run()
            latency = time.perf_counter() - start
        except (Exception, SystemExit) as exc:  # a raise or a non-zero CLI exit fails the op
            errors.append((op.label, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            if tracer is not None:
                tracer.begin_op(None)
        try:
            summaries[op.label] = op.check(result)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            wrong.append((op.label, f"check: {exc}"))
            continue
        latencies.append(latency)
    return latencies, summaries, errors, wrong, ran


def golden_mismatches(workload: str, summaries: dict) -> list:
    """Ops of round 0 whose output differs from the recorded one or is missing."""
    from workloads import CHECK_ATOL

    expected = json.loads(GOLDEN.read_text())[workload]
    bad = []
    for label, want in expected.items():
        got = summaries.get(label)
        if got is None:
            bad.append((label, "no output to compare with the recorded one"))
            continue
        same = len(got) == len(want) and all(
            (g == w) if isinstance(w, int) else abs(g - w) <= CHECK_ATOL * max(1.0, abs(w))
            for g, w in zip(got, want)
        )
        if not same:
            bad.append((label, f"differs from the recorded output: {got} vs {want}"))
    missing = set(summaries) - set(expected)
    bad += [(label, "no recorded output") for label in sorted(missing)]
    return bad


def run_record(args, ops_per_round) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_round": ops_per_round,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is itself a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(args) -> int:
    use_checkout_source()
    import workloads
    from tracing import SETUP, Tracer, layer_metrics

    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Set-up is importing plus building round 0's inputs. Each is
        # repeated and the medians are added.
        build_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = build(args.seed, 0, workdir)
            build_s.append(time.perf_counter() - start)
        fresh_import_s = import_seconds()
        setup_s = fresh_import_s + statistics.median(build_s)

        # Round 0 warms up lazy imports and first-call costs, untimed.
        # Its outputs are checked like any other, and for the default
        # seed compared with the recorded ones. The warm-up counts
        # against --seconds, so a run lasts about as long on every
        # workload.
        deadline = time.perf_counter() + args.seconds
        _, summaries, errors, wrong, attempted = run_round(ops)
        if args.seed == DEFAULT_SEED:
            wrong += golden_mismatches(args.workload, summaries)
        failed = len({label for label, _ in errors + wrong})
        walls, overheads, latencies = [], [], []
        tracer = Tracer() if args.trace else None
        k = 1
        while True:
            ops = build(args.seed, k, workdir)
            # The first timed round always runs whole; later ones stop at
            # the deadline, and a round cut short adds its ops' latencies
            # but no round time.
            lat, _, errs, bad, ran = run_round(
                ops, deadline=deadline if k > 1 and not args.trace else None)
            attempted += ran
            failed += len({label for label, _ in errs + bad})
            errors += errs
            wrong += bad
            if ran == len(ops):
                walls.append(sum(lat))
            latencies += lat
            if args.trace:
                # The same instance again, relabeled, traced from its build
                # on; the build's spans belong to the set-up op.
                tracer.install()
                try:
                    tracer.begin_op(SETUP)
                    traced_ops = build(args.seed, k, workdir, relabel=True)
                    lat, _, errs, bad, ran = run_round(traced_ops, tracer)
                finally:
                    tracer.restore()
                tracer.measure_fit_peak()
                attempted += ran
                failed += len({label for label, _ in errs + bad})
                errors += errs
                wrong += bad
                overheads.append(sum(lat) - walls[-1])
            if time.perf_counter() >= deadline:
                break
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args, len(ops))
    record.update({
        "rounds": k,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": errors[:20],
        "wrong": wrong[:20],
        "setup": {"import_s": fresh_import_s, "build_s": build_s},
        "round_wall_s": walls,
    })
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        metrics = layer_metrics(tracer, k, statistics.median(overheads))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record["op_latency_samples"] = len(latencies)
        if len(latencies) >= 100:  # ten samples beyond the 90th percentile
            record["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "exit": proc.returncode}))
            status = 1
            continue
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def record_golden(args) -> int:
    """Store round 0's checked outputs for the default seed."""
    use_checkout_source()
    import workloads

    workdir = OUT / f"golden-{os.getpid()}"
    try:
        ops = workloads.WORKLOADS[args.workload](DEFAULT_SEED, 0, workdir)
        _, summaries, errors, wrong, _ = run_round(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if errors or wrong:
        raise SystemExit(f"error: ops fail: {errors + wrong}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[args.workload] = summaries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="store round 0's outputs for the default seed and exit")
    args = p.parse_args(argv)
    # One BLAS thread. On a shared two-CPU machine two threads made one
    # Newton-heavy run 2.5 times slower while single-threaded workloads
    # kept their speed; one thread is as fast on a quiet machine.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.workload == "all":
        return run_all(args)
    if args.record_golden:
        return record_golden(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
