"""Per-layer tracing from outside the package.

`Tracer.installed()` swaps every public function of each layer module, plus
a few public methods, for a wrapper that records a span (name, start, end,
parent span, unit) and updates counters. It swaps them back on exit, so the
untraced run pays nothing. A unit is one set-up repetition, the warm-up op
or one timed op; its root span covers the whole unit. Spans stay in memory
until `write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.unit"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _stage_span(kind):
    return lambda args, kwargs: f"model.stage{_arg(args, kwargs, 2, 'stage_index')}.{kind}"


# (layer, class, method, span name or a function of the call's arguments)
METHODS = (
    ("model", "GaitPTModel", "embed_batch", "model.embed_batch"),
    ("model", "GaitPTModel", "spatial_attention_stage", _stage_span("spatial")),
    ("model", "GaitPTModel", "temporal_attention_stage", _stage_span("temporal")),
    ("evaluation", "EmbeddingSet", "select", "evaluation.EmbeddingSet.select"),
    ("numcore", "GradTape", "__exit__", "numcore.GradTape.__exit__"),
)


def _tape_exit(tracer, args, kwargs, result):
    tracer.count("numcore.tape_nodes", len(args[0]))


def _rank_k(tracer, args, kwargs, result):
    gallery, probe = _arg(args, kwargs, 0, "gallery"), _arg(args, kwargs, 1, "probe")
    # what a dense (probe, gallery, dim) float64 difference tensor takes
    tracer.count("evaluation.distance_bytes_computed",
                 len(probe) * len(gallery) * gallery.embeddings.shape[1] * 8)


def _read_records(tracer, args, kwargs, result):
    tracer.count("dataio.records_read", len(result))
    tracer.count("dataio.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _load_checkpoint(tracer, args, kwargs, result):
    tracer.count("dataio.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _generated(tracer, args, kwargs, result):
    tracer.count("synthgait.sequences", sum(len(part) for part in result.values()))


def _train_start(tracer, args, kwargs):
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()


def _trained(tracer, args, kwargs, result):
    if tracemalloc.is_tracing():
        tracer.peak("training.peak_traced_mb", tracemalloc.get_traced_memory()[1] / 2**20)
    tracer.count("training.active_triplet_ratio",
                 statistics.fmean(entry["active_triplets"] for entry in result))


# span name -> (before-call hook, after-call hook)
HOOKS = {
    "numcore.GradTape.__exit__": (None, _tape_exit),
    "evaluation.rank_k_accuracy": (None, _rank_k),
    "dataio.read_records": (None, _read_records),
    "dataio.load_checkpoint": (None, _load_checkpoint),
    "synthgait.generate_split_sequences": (None, _generated),
    "training.train": (_train_start, _trained),
}


class Tracer:
    """Spans and counters for calls into the layer modules.

    `layers` maps a layer name to its module; the module's package is
    searched for every other binding of a wrapped function, so calls made
    through `from .x import f` names are traced too.
    """

    def __init__(self, layers: dict):
        self.layers = layers
        self.spans: list = []          # (name, start, end, parent index, unit)
        self.units: list = []          # units in the order they ran
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._unit = None
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, end) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1] if self._stack else -1, self._unit)

    def count(self, key, value) -> None:
        self.counters[self._unit]["counter", key] += value

    def peak(self, key, value) -> None:
        unit = self.counters[self._unit]
        unit["peak", key] = max(unit["peak", key], value)

    def _wrap(self, fn, name):
        tracer = self
        before, after = HOOKS.get(name, (None, None)) if isinstance(name, str) else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            index = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, span, start, time.perf_counter())
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def run_unit(self, kind: str, index: int, fn, *args):
        """Call `fn(*args)` as unit (kind, index) under one root span."""
        self._unit = (kind, index)
        self.units.append(self._unit)
        span = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span, ROOT_SPAN, start, time.perf_counter())
            self._unit = None

    # -- installing -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Trace every call into the layers for the duration of the block."""
        wrappers = {}
        for layer, module in self.layers.items():
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        package = next(iter(self.layers.values())).__name__.rpartition(".")[0]
        for name, module in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and inspect.isfunction(value):
                        self._patch(module, attr, wrappers[id(value)])
        for layer, cls, method, span in METHODS:
            owner = getattr(self.layers[layer], cls)
            self._patch(owner, method, self._wrap(vars(owner)[method], span))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- reading --------------------------------------------------------------

    def unit_totals(self) -> dict:
        """Per unit: inclusive time and call count per span name, call count
        and self time per layer, and the unit's counters.

        Inclusive time counts only the outermost of nested same-name spans.
        Self time is a span's duration minus its direct children's, which
        run inside it one after another.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {unit: defaultdict(float) for unit in self.units}
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            tot = totals[unit]
            layer = name.partition(".")[0]
            tot["calls", name] += 1
            tot["layer_calls", layer] += 1
            tot["self", layer] += (end - start) - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                tot["time", name] += end - start
        for unit, counters in self.counters.items():
            totals[unit].update(counters)
        return totals

    def metric(self, spec, totals, run_values) -> float:
        """Value of one `metrics.PerLayer` entry: the median over units of
        kind `spec.per` of the per-unit total, or a once-per-run value."""
        if spec.per == "run":
            return run_values[spec.source[1]]
        values = [tot[spec.source] for unit, tot in totals.items() if unit[0] == spec.per]
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, (kind, index) in self.spans:
                fh.write(json.dumps([name, start, end, parent, kind, index]) + "\n")

