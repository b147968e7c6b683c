"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from gaitpt import model, synthgait  # noqa: E402


class SmallRetrieve(workloads.Retrieve):
    """The retrieve workload at a size whose oracle runs in well under a second."""

    CASIA_SUBJECTS = 4
    GREW_SUBJECTS = 12


def _tiny_train() -> workloads.TrainStep:
    """A training step with one micro-batch, on a model and data set a few times
    smaller than train-small's."""
    return workloads.TrainStep(
        model.GaitPTConfig.build(dims=(8, 16, 32, 64), blocks=1, heads=2, sequence_length=20, output_dim=16),
        synthgait.SynthConfig(identities=4, sequences_per_identity=2, frames=24, views=(0, 90)),
        p=2, k=2, micro_batch=8)


def _inputs(w) -> list[np.ndarray]:
    if isinstance(w, workloads.Retrieve):
        return [w.casia.embeddings, np.array(w.casia.keys), w.gallery.embeddings,
                w.probe.embeddings, np.array(w.sampled_cells, dtype=object)]
    seqs = w.dataset if isinstance(w, workloads.TrainStep) else w.seqs
    return [s.frames for s in seqs] + [p.value.data for p in w.model.params.values()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_generates_identical_inputs(name, tmp_path):
    def inputs(seed):
        w = workloads.WORKLOADS[name]()
        w.setup(seed, tmp_path)
        return _inputs(w)

    first, again, other = inputs(3), inputs(3), inputs(4)
    assert len(first) == len(again)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_same_seed_repeats_training_ops(tmp_path):
    outs = []
    for _ in range(2):
        w = _tiny_train()
        w.setup(3, tmp_path)
        outs.append([w.op(i) for i in range(2)])
    assert outs[0] == outs[1]
    assert outs[0][0] != outs[0][1]


def test_corrupted_outputs_are_counted_as_failures(tmp_path):
    train = _tiny_train()
    assert train.check({"mean_loss": 0.01, "active_triplets": 0.5}, None) == []
    assert train.check({"mean_loss": math.nan, "active_triplets": 0.5}, None)
    assert train.check({"mean_loss": -0.1, "active_triplets": 0.5}, None)
    assert train.check({"mean_loss": 0.01, "active_triplets": 1.5}, None)

    embed = workloads.EmbedSet()
    rows = np.random.default_rng(0).normal(size=(embed.items_per_op, 256))
    reference = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    embed.model = model.GaitPTModel(model.GaitPTConfig.build(dims=(8, 16, 32, 64), blocks=1, heads=2))
    assert embed.check(reference.copy(), reference) == []
    scaled = reference * 1.001
    assert embed.check(scaled, reference)
    nudged = reference.copy()
    nudged[3, 5] = np.nextafter(nudged[3, 5], 1.0)
    assert embed.check(nudged, reference)               # unit-norm, but not identical
    nudged[3, 5] = np.nan
    assert embed.check(nudged, reference)

    retrieve = SmallRetrieve()
    retrieve.setup(5, tmp_path)
    good = retrieve.op(0)
    assert retrieve.check(good, good) == []
    casia, grew = retrieve.op(1)
    grew.rank_table[1] += 1.0 / len(retrieve.probe)
    assert retrieve.check((casia, grew), good)
    casia, grew = retrieve.op(2)
    c, i, j = retrieve.sampled_cells[0]
    casia.matrix[c][i, j] = 1.0 - casia.matrix[c][i, j]
    assert retrieve.check((casia, grew), good)

    # the harness: a bad output and a raising op each count once
    def op(i):
        if i == 4:
            raise RuntimeError("op blew up")
        return {"mean_loss": math.nan if i == 2 else 0.01, "active_triplets": 0.5}

    failures = [run.check_loop(train, run.run_loop(op, seconds=0.0, first_op=i), None) for i in range(6)]
    assert failures == [0, 0, 1, 0, 1, 0]


def test_span_self_times_fit_in_each_op(tmp_path):
    w = _tiny_train()
    layers = {name: sys.modules[f"gaitpt.{name}"] for name in metrics.LAYERS}
    def bindings():
        return ({name: dict(vars(module)) for name, module in layers.items()},
                [vars(getattr(layers[layer], cls))[method] for layer, cls, method, _ in tracing.METHODS])

    originals = bindings()
    tracer = tracing.Tracer(layers)
    with tracer.installed():
        assert bindings() != originals
        tracer.run_unit("setup", 0, w.setup, 7, tmp_path)
        for i in range(3):
            tracer.run_unit("op", i, w.op, i)
    assert bindings() == originals

    totals = tracer.unit_totals()
    for i in range(3):
        tot = totals["op", i]
        wall = tot["time", tracing.ROOT_SPAN]
        selfs = [tot["self", layer] for layer in metrics.LAYERS]
        assert all(s >= 0 for s in selfs)
        assert 0 < sum(selfs) <= wall
        assert tot["time", "training.train"] <= wall
        assert tot["calls", "numcore.backward_from"] == 2      # one micro-batch plus the loss
        assert tot["counter", "numcore.tape_nodes"] > 0
    assert totals["setup", 0]["counter", "synthgait.sequences"] == len(w.dataset)


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(t) for t in range(1, 31)]
    value, label, beyond = run.tail(times)
    assert label == "p66" and beyond == 10 and 20 < value < 21
    assert run.tail(times[:19]) == (19.0, "max", 0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [name for name in workloads.WORKLOADS if name != "retrieve"]
    assert spec["end_to_end"] == [m._asdict() for m in metrics.END_TO_END]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in metrics.PER_LAYER]
