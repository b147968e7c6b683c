"""The benchmark's metric tables: end-to-end metrics with their regression
bounds, and per-layer metrics with the trace source each is computed from
and the end-to-end metric and workload it is expected to move.

`BENCHMARK.json` at the repository root repeats the name, unit and better
direction of every entry here; `test_perfbench.py` checks that they agree.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float    # share of the parent's median it may worsen by


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: tuple   # (kind, key); kinds are listed in `tracer.Tracer.metric`
    per: str        # "op": median over timed ops; "setup": median over set-up repetitions; "run": once
    moves: str      # the end-to-end metric and workload it should move


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("items_per_s", "1/s", "higher", 0.25),
    EndToEnd("op_s_p50", "s", "lower", 0.25),
    EndToEnd("op_s_tail", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)

LAYERS = ("numcore", "skeleton", "model", "training", "evaluation", "synthgait", "dataio")

_TRAIN_BOTH = "items_per_s on train-default and train-small"
_FWD = "items_per_s on train-default and embed-default"
_SMALL = "items_per_s on train-small"
_RETRIEVE = "items_per_s and peak_rss_mb on retrieve, which is run by hand"
_EMBED_SETUP = "setup_s on embed-default"
_SYNTH_SETUP = "setup_s on train-default, train-small and embed-default"

PER_LAYER = (
    *(PerLayer(f"numcore.{f}.fwd_s", "s", "lower", ("time", f"numcore.{f}"), "op", _FWD)
      for f in ("matmul", "linear", "multi_head_attention", "softmax", "layer_norm", "gelu")),
    PerLayer("numcore.calls", "count", "lower", ("layer_calls", "numcore"), "op", _FWD),
    PerLayer("numcore.backward_from.s", "s", "lower", ("time", "numcore.backward_from"), "op", _TRAIN_BOTH),
    PerLayer("numcore.backward_from.calls", "count", "lower", ("calls", "numcore.backward_from"), "op", _TRAIN_BOTH),
    PerLayer("numcore.tape_nodes", "count", "lower", ("counter", "numcore.tape_nodes"), "op", _SMALL),
    *(PerLayer(f"model.stage{s}.{kind}.fwd_s", "s", "lower", ("time", f"model.stage{s}.{kind}"), "op",
               "items_per_s on embed-default and train-default")
      for s, kind in ((1, "spatial"), (1, "temporal"), (2, "spatial"), (2, "temporal"),
                      (3, "spatial"), (3, "temporal"), (4, "temporal"))),
    PerLayer("model.merge.fwd_s", "s", "lower", ("time", "model.joint_merge"), "op",
             "items_per_s on embed-default and train-default"),
    PerLayer("model.embed_batch.s", "s", "lower", ("time", "model.embed_batch"), "op",
             "items_per_s on embed-default and train-default"),
    *(PerLayer(f"training.{f}.s", "s", "lower", ("time", f"training.{f}"), "op", _SMALL)
      for f in ("batch_hard_mine", "triplet_loss", "adamw_step")),
    PerLayer("training.active_triplet_ratio", "ratio", "higher", ("counter", "training.active_triplet_ratio"),
             "op", "none: a useful-work ratio that should not move"),
    PerLayer("training.peak_traced_mb", "MB", "lower", ("peak", "training.peak_traced_mb"), "op",
             "peak_rss_mb on train-default"),
    PerLayer("skeleton.sample_window.s", "s", "lower", ("time", "skeleton.sample_window"), "op", _SMALL),
    PerLayer("skeleton.sample_window.calls", "count", "lower", ("calls", "skeleton.sample_window"), "op", _SMALL),
    *(PerLayer(f"evaluation.{f}.s", "s", "lower", ("time", f"evaluation.{f}"), "op", _RETRIEVE)
      for f in ("rank_k_accuracy", "casia_eval", "embed_sequence_set")),
    PerLayer("evaluation.EmbeddingSet.select.calls", "count", "lower",
             ("calls", "evaluation.EmbeddingSet.select"), "op", _RETRIEVE),
    PerLayer("evaluation.distance_bytes_computed", "B", "lower",
             ("counter", "evaluation.distance_bytes_computed"), "op", _RETRIEVE),
    *(PerLayer(f"dataio.{f}.s", "s", "lower", ("time", f"dataio.{f}"), "setup", _EMBED_SETUP)
      for f in ("read_sequences", "save_checkpoint", "load_checkpoint")),
    PerLayer("dataio.records_read", "count", "lower", ("counter", "dataio.records_read"), "setup", _EMBED_SETUP),
    PerLayer("dataio.bytes_read", "B", "lower", ("counter", "dataio.bytes_read"), "setup", _EMBED_SETUP),
    PerLayer("synthgait.generate_split_sequences.s", "s", "lower",
             ("time", "synthgait.generate_split_sequences"), "setup", _SYNTH_SETUP),
    PerLayer("synthgait.sequences", "count", "lower", ("counter", "synthgait.sequences"), "setup", _SYNTH_SETUP),
    *(PerLayer(f"{layer}.self_s", "s", "lower", ("self", layer), "setup" if layer in ("synthgait", "dataio") else "op",
               "items_per_s or setup_s on every workload that calls the layer")
      for layer in LAYERS),
    PerLayer("trace.items_per_s", "1/s", "higher", ("run", "trace.items_per_s"), "run",
             "none: items_per_s with tracing on"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", ("run", "trace.overhead_ratio"), "run",
             "none: untraced items_per_s over traced items_per_s"),
)
