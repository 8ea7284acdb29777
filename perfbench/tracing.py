"""Per-layer tracing of tiledive from outside the library.

`Tracer.install()` replaces every public function of each layer module
with a wrapper, in every `tiledive` module that holds a reference to it
(so `tiledive.divergence.fit` and `tiledive.rank.kl` are caught as well
as `tiledive.maxent.fit`), and `restore()` puts the originals back.
Wrappers record spans in memory: name, start, end, parent span and op
id. The hottest functions are counted only. Per-layer metrics are
derived from the spans afterwards. Work done while building a round's
inputs runs under the op id SETUP and is left out of every metric but
the `convert` layer's, which only set-up calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

from tiledive import cli

# The layers are the package's modules. `oracle` is test-only and
# `errors` defines no functions, so neither is traced.
LAYERS = ("io", "core", "convert", "maxent", "divergence", "redescribe", "rank", "cli")
# Called up to hundreds of thousands of times per op: counted, no span.
COUNT_ONLY = ("maxent.bernoulli_update", "core.empirical_frequency", "rank.surprise_score")
# Methods traced besides module functions.
METHODS = (("core", "TileSet", "union"),)
# The click entry point's span: dispatch, option parsing and output
# are its self time.
CLI_SPAN = "cli"
FIT = "maxent.fit"
# Op id of input building; of its spans only these layers' count.
SETUP = "setup"
SETUP_LAYERS = ("convert",)


def _public_functions(layer: str):
    mod = sys.modules[f"tiledive.{layer}"]
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
            yield f"{layer}.{name}", obj


class Tracer:
    """Spans and counts, gathered over every install until the tracer is dropped."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op)
        self.counts: Counter = Counter()  # count-only functions
        self.errors: Counter = Counter()  # spans that ended in an exception
        self.op: str | None = None
        self.fit_repeats = 0
        self.fit_peak_bytes = 0
        self._fit_keys: set = set()
        self._largest_fit: tuple = (0, None)  # (entries x tiles, call)
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, owned)

    # -- installing and restoring -------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer in LAYERS:
            for name, fn in _public_functions(layer):
                if name in COUNT_ONLY:
                    replaced[fn] = self._counted(name, fn)
                elif name == FIT:
                    replaced[fn] = self._spanned(name, fn, probe=self._fit_probe)
                else:
                    replaced[fn] = self._spanned(name, fn)
        modules = [m for k, m in list(sys.modules.items())
                   if k == "tiledive" or k.startswith("tiledive.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(mod, attr, replaced[value])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"tiledive.{layer}"], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self._spanned(name, getattr(cls, meth)))
        # A bound method of the click group, shadowed on the instance.
        self._patch(cli.main, "main", self._spanned(CLI_SPAN, cli.main.main))

    def restore(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op != SETUP:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn, probe=None):
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(fn, *args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
        return wrapper

    def _fit_probe(self, fn, ts, *args, **kwargs):
        """Run one fit, noting a repeated input and the largest input that fitted."""
        key = (ts.dims, tuple((ft.tile.rows, ft.tile.cols, ft.alpha) for ft in ts.tiles))
        if key in self._fit_keys:
            self.fit_repeats += 1
        else:
            self._fit_keys.add(key)
        model = fn(ts, *args, **kwargs)
        size = ts.dims[0] * ts.dims[1] * len(ts.tiles)
        if size > self._largest_fit[0]:
            self._largest_fit = (size, (fn, ts, args, kwargs))
        return model

    def measure_fit_peak(self) -> None:
        """Fit the largest input seen since the last call again, under tracemalloc.

        tracemalloc slows every allocation several-fold, so this untimed
        re-fit runs outside every span, after `restore()`, and its peak
        stands for the highest of the round's fits.
        """
        if self._patches:
            raise RuntimeError("measure the fit peak after restore()")
        _, call = self._largest_fit
        self._largest_fit = (0, None)
        if call is None:
            return
        fn, ts, args, kwargs = call
        tracemalloc.start()
        try:
            fn(ts, *args, **kwargs)
            self.fit_peak_bytes = max(self.fit_peak_bytes, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    def begin_op(self, op: str | None) -> None:
        """Attribute later spans to `op`; repeat fits are counted within one op."""
        self.op = op
        self._fit_keys.clear()

    # -- results -------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per traced name, set-up spans left out.

        Self time is a span's duration minus that of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        calls: Counter = Counter(self.counts)
        self_s: defaultdict = defaultdict(float)
        for (name, _, _, _, op), s in zip(self.spans, own):
            if op == SETUP and name.split(".")[0] not in SETUP_LAYERS:
                continue
            calls[name] += 1
            self_s[name] += s
        return calls, Counter(self_s)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# Per-layer metrics, reported per traced round: (name, unit).
_SELF_S = ("io.read_dataset", "io.read_tileset", "core.area_union", "core.TileSet.union",
           "convert.itemsets_to_tiles", "maxent.exact_fastpath", "maxent.fit",
           "divergence.kl", "divergence.jaccard_distance", "divergence.distance",
           "redescribe.fruits", "rank.fitamin")
_CALLS = ("core.empirical_frequency", "core.TileSet.union", "maxent.exact_fastpath",
          "maxent.fit", "maxent.bernoulli_update", "divergence.kl", "divergence.distance",
          "rank.surprise_score")
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{n}.self_s", "s") for n in _SELF_S]
    + [(f"{n}.calls", "count") for n in _CALLS]
    + [("maxent.fit.repeat_ratio", "1"), ("maxent.fit.peak_mb", "MB"),
       ("maxent.fit.errors", "count"), ("trace.overhead_s", "s")]
)


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric, per traced round."""
    calls, self_s = tracer.totals()
    layer_s = Counter()
    for name, s in self_s.items():
        layer_s[name.split(".")[0]] += s
    values = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
    values.update({f"{n}.self_s": self_s[n] for n in _SELF_S})
    values.update({f"{n}.calls": calls[n] for n in _CALLS})
    values = {k: v / rounds for k, v in values.items()}
    values["maxent.fit.repeat_ratio"] = tracer.fit_repeats / calls[FIT] if calls[FIT] else 0.0
    values["maxent.fit.peak_mb"] = tracer.fit_peak_bytes / 2**20
    values["maxent.fit.errors"] = tracer.errors[FIT]
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
