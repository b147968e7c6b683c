#!/usr/bin/env python3
"""Ablation harnesses in miniature: compare stage subsets and limb-grouping
schemes across shared-seed runs, with Welch's t-test on the result columns.

Uses two runs per variant to stay quick; the acceptance suite runs the
5-seed version with a harder dataset.
"""

from gaitpt.evaluation import ablation_run, partition_study, welch_t_test
from gaitpt.model import GaitPTConfig
from gaitpt.skeleton import Condition, PartitionScheme
from gaitpt.synthgait import SynthConfig, generate_split_sequences
from gaitpt.training import TrainConfig

raw = generate_split_sequences(SynthConfig(
    identities=6, sequences_per_identity=6, frames=30, views=(0, 90),
    conditions=(Condition.NM, Condition.CL), seed=3, noise_level=0.04,
))
splits = {
    "train": raw["train"],
    "gallery": [s for s in raw["gallery"] if s.view == 0],   # enroll frontal
    "probe": [s for s in raw["probe"] if s.view == 90],      # query side view
}
print(f"cross-view task: {len(splits['train'])} train, {len(splits['gallery'])} gallery (0 deg), "
      f"{len(splits['probe'])} probe (90 deg)")

model_cfg = GaitPTConfig.build(dims=(8, 16, 32, 64), blocks=1, heads=2,
                               sequence_length=20, output_dim=32)
train_cfg = TrainConfig(p=4, k=3, epochs=4, seed=0, micro_batch=6)

print("\n== stage-activation ablation ==")
result = ablation_run(splits, [(4,), (1, 4), (1, 2, 3, 4)], runs=2, seed=17,
                      model_config=model_cfg, train_config=train_cfg)
print(result.render(), end="")

print("\n== limb-grouping schemes ==")
study = partition_study(splits, runs=2, seed=17, model_config=model_cfg,
                        train_config=train_cfg,
                        schemes=(PartitionScheme.HUL, PartitionScheme.OPPOSITE, PartitionScheme.ALL))
print(study.render(), end="")

print("\n== Welch's t-test on made-up accuracy columns ==")
res = welch_t_test([0.81, 0.84, 0.79, 0.83, 0.82], [0.71, 0.69, 0.74, 0.70, 0.72])
print(f"t = {res.t:+.3f}, df = {res.df:.2f}, two-sided p = {res.p:.2e}")
