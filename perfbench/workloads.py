"""The benchmark's four workloads, three of them listed in BENCHMARK.json
(`WORKLOADS` says why `retrieve` is not).

Each is a closed loop of identical ops run by one client: the next op starts
when the previous one returns. `setup(seed, workdir)` makes every input from
the seed and the fixed sizes below; `op(i)` calls the package's public
functions once; `check(output, reference)` returns what is wrong with one
op's output (the reference is the warm-up op's); `check_run()` returns what
is wrong with the state the ops leave behind. A workload whose `warm_up` is
true runs one untimed op after set-up.
"""

from __future__ import annotations

import io
import math
from dataclasses import replace

import numpy as np

from gaitpt import dataio, evaluation, model, synthgait, training
from gaitpt.skeleton import Condition

UNIT_NORM_TOL = 1e-5


class TrainStep:
    """One op is one `training.train` call of one epoch of one P x K step.

    Each op draws its batch from its own seed, so ops differ in data but not
    in shape or amount of work.
    """

    def __init__(self, model_config, data: synthgait.SynthConfig, p: int, k: int, micro_batch: int):
        self.model_config = model_config
        self.data = data
        self.p, self.k, self.micro_batch = p, k, micro_batch
        self.items_per_op = p * k          # windows trained
        self.warm_up = True

    def setup(self, seed: int, workdir) -> None:
        self.seed = seed
        splits = synthgait.generate_split_sequences(replace(self.data, seed=seed))
        self.dataset = [seq for part in splits.values() for seq in part]
        self.model = model.GaitPTModel(self.model_config, seed=seed)

    def op(self, i: int) -> dict:
        cfg = training.TrainConfig(p=self.p, k=self.k, micro_batch=self.micro_batch, epochs=1,
                                   steps_per_epoch=1, seed=self.seed * 1_000_003 + i)
        return training.train(self.model, self.dataset, cfg, log_stream=io.StringIO())[0]

    def check(self, out: dict, reference) -> list[str]:
        errors = []
        if not (math.isfinite(out["mean_loss"]) and out["mean_loss"] >= 0):
            errors.append(f"loss {out['mean_loss']} is not finite and >= 0")
        if not 0.0 <= out["active_triplets"] <= 1.0:
            errors.append(f"active triplet fraction {out['active_triplets']} is outside [0, 1]")
        return errors

    def check_run(self) -> list[str]:
        return [f"parameter {name} is not finite" for name, p in self.model.params.items()
                if not np.all(np.isfinite(p.value.data))]


class EmbedSet:
    """One op is `evaluation.embed_sequence_set` over 64 sequences read back
    from JSONL by a default model loaded from a checkpoint; set-up writes both."""

    items_per_op = 64                      # windows embedded
    warm_up = True

    def setup(self, seed: int, workdir) -> None:
        splits = synthgait.generate_split_sequences(synthgait.SynthConfig(
            identities=16, sequences_per_identity=2, frames=60, views=(0, 90), seed=seed))
        seqs = [seq for part in splits.values() for seq in part]
        ckpt, records = workdir / "model.ckpt", workdir / "sequences.jsonl"
        dataio.save_checkpoint(model.GaitPTModel(model.GaitPTConfig.build(), seed=seed), ckpt)
        dataio.write_records([dataio.sequence_to_record(s) for s in seqs], records)
        self.model = dataio.load_checkpoint(ckpt)
        self.seqs = dataio.read_sequences(records)

    def op(self, i: int) -> np.ndarray:
        return evaluation.embed_sequence_set(self.model, self.seqs).embeddings

    def check(self, out: np.ndarray, reference: np.ndarray) -> list[str]:
        if out.shape != (self.items_per_op, self.model.config.output_dim):
            return [f"embeddings have shape {out.shape}"]
        if not np.all(np.isfinite(out)):
            return ["embeddings are not finite"]
        errors = []
        worst = float(np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)))
        if worst > UNIT_NORM_TOL:
            errors.append(f"embedding norm is off 1 by {worst:.3g}")
        if not np.array_equal(out, reference):
            errors.append("embeddings differ from the warm-up op's")
        return errors

    def check_run(self) -> list[str]:
        return []


def _unit_rows(rng, centers: np.ndarray, noise: float) -> np.ndarray:
    """One unit-norm row per center row, scattered around it by `noise`."""
    rows = centers + noise * rng.normal(size=centers.shape) / math.sqrt(centers.shape[1])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _oracle_rank_k(g_keys, g_subjects, g_vecs, p_subjects, p_vecs, ks) -> dict[int, float]:
    """Rank-K accuracy from per-pair distances norm(a - b), ties by ascending key."""
    hits = dict.fromkeys(ks, 0)
    for subject, vec in zip(p_subjects, p_vecs):
        order = sorted(range(len(g_keys)),
                       key=lambda j: (float(np.linalg.norm(vec - g_vecs[j])), g_keys[j]))
        top = [g_subjects[j] for j in order[:max(ks)]]
        for k in ks:
            hits[k] += subject in top[:k]
    return {k: hits[k] / max(1, len(p_subjects)) for k in ks}


class Retrieve:
    """One op is `casia_eval` on the CASIA-B test shape (50 subjects x 11
    views x NM#1-6/BG#1-2/CL#1-2 = 5,500 rows) plus `grew_eval` at ks
    1/5/10/20 with gallery 1,000 x probe 500, all on unit-norm 256-d
    embeddings clustered by subject."""

    DIM = 256
    NOISE = 2.7                             # per-row spread that keeps accuracies mid-range
    CASIA_SUBJECTS = 50
    CASIA_SESSIONS = (("NM", 6), ("BG", 2), ("CL", 2))
    GALLERY_SESSIONS = 4                    # NM#1-4 enroll; casia_eval probes the rest
    GREW_SUBJECTS, GREW_GALLERY, GREW_PROBE = 250, 4, 2
    GREW_KS = (1, 5, 10, 20)
    SAMPLED_CELLS = 6
    # nothing to warm: the op is numpy over arrays made in set-up and
    # allocates afresh each time, and a second 18 s op would not fit the run
    warm_up = False

    def setup(self, seed: int, workdir) -> None:
        rng = np.random.default_rng(seed)
        views = evaluation.CASIA_VIEWS
        centers = _unit_rows(rng, np.zeros((self.CASIA_SUBJECTS, self.DIM)), 1.0)
        rows = [(s, view, cond, session) for s in range(self.CASIA_SUBJECTS) for view in views
                for cond, sessions in self.CASIA_SESSIONS for session in range(1, sessions + 1)]
        self.casia = evaluation.EmbeddingSet(
            keys=tuple(f"s{s:03d}-{c}-{v:03d}-{n:02d}" for s, v, c, n in rows),
            subject_ids=tuple(f"s{s:03d}" for s, *_ in rows),
            conditions=tuple(Condition(c) for _, _, c, _ in rows),
            views=np.array([v for _, v, _, _ in rows]),
            sessions=np.array([n for *_, n in rows]),
            embeddings=_unit_rows(rng, centers[[s for s, *_ in rows]], self.NOISE))

        centers = _unit_rows(rng, np.zeros((self.GREW_SUBJECTS, self.DIM)), 1.0)
        self.gallery, self.probe = (
            evaluation.EmbeddingSet(
                keys=tuple(f"{tag}{s:04d}-{r}" for s in range(self.GREW_SUBJECTS) for r in range(per)),
                subject_ids=tuple(f"g{s:04d}" for s in range(self.GREW_SUBJECTS) for _ in range(per)),
                conditions=(Condition.NM,) * (per * self.GREW_SUBJECTS),
                views=np.zeros(per * self.GREW_SUBJECTS, dtype=int),
                sessions=np.ones(per * self.GREW_SUBJECTS, dtype=int),
                embeddings=_unit_rows(rng, np.repeat(centers, per, axis=0), self.NOISE))
            for tag, per in (("g", self.GREW_GALLERY), ("p", self.GREW_PROBE)))

        cells = [(c, i, j) for c, _ in self.CASIA_SESSIONS
                 for i in range(len(views)) for j in range(len(views)) if i != j]
        picked = rng.choice(len(cells), size=self.SAMPLED_CELLS, replace=False)
        self.sampled_cells = [cells[n] for n in sorted(picked)]
        self._expected = None
        probes = sum(n - (self.GALLERY_SESSIONS if c == "NM" else 0) for c, n in self.CASIA_SESSIONS)
        # probe rankings: every CASIA probe against the gallery of each other view, plus the flat probes
        self.items_per_op = self.CASIA_SUBJECTS * probes * len(views) * (len(views) - 1) + len(self.probe)

    def op(self, i: int):
        return (evaluation.casia_eval(self.casia),
                evaluation.grew_eval(self.gallery, self.probe, ks=self.GREW_KS))

    def _oracle_cell(self, cond: str, pv: int, gv: int) -> float:
        e = self.casia
        conds = np.array([c.value for c in e.conditions])
        probe = np.flatnonzero((conds == cond) & (e.views == pv)
                               & ((conds != "NM") | (e.sessions > self.GALLERY_SESSIONS)))
        gallery = np.flatnonzero((conds == "NM") & (e.views == gv) & (e.sessions <= self.GALLERY_SESSIONS))
        return _oracle_rank_k([e.keys[j] for j in gallery], [e.subject_ids[j] for j in gallery],
                              e.embeddings[gallery], [e.subject_ids[j] for j in probe],
                              e.embeddings[probe], [1])[1]

    def expected(self):
        """Oracle values of the sampled CASIA cells and of the whole rank table."""
        if self._expected is None:
            views = evaluation.CASIA_VIEWS
            cells = {(c, i, j): self._oracle_cell(c, views[i], views[j]) for c, i, j in self.sampled_cells}
            g, p = self.gallery, self.probe
            table = _oracle_rank_k(g.keys, g.subject_ids, g.embeddings, p.subject_ids, p.embeddings,
                                   self.GREW_KS)
            self._expected = cells, table
        return self._expected

    def check(self, out, reference) -> list[str]:
        casia, grew = out
        cells, table = self.expected()
        errors = [f"casia {c} cell ({i}, {j}) is {casia.matrix[c][i, j]}, oracle {want}"
                  for (c, i, j), want in cells.items() if casia.matrix[c][i, j] != want]
        if grew.rank_table != table:
            errors.append(f"rank table {grew.rank_table} != oracle {table}")
        return errors

    def check_run(self) -> list[str]:
        return []


def _default_train() -> TrainStep:
    return TrainStep(model.GaitPTConfig.build(),
                     synthgait.SynthConfig(identities=16, sequences_per_identity=8, frames=60, views=(0, 90)),
                     p=8, k=4, micro_batch=8)


def _small_train() -> TrainStep:
    return TrainStep(model.GaitPTConfig.build(dims=(16, 32, 64, 128), blocks=1, heads=2,
                                              sequence_length=20, output_dim=32),
                     synthgait.SynthConfig(identities=12, sequences_per_identity=8, frames=30, views=(0, 90),
                                           conditions=(Condition.NM, Condition.CL), noise_level=0.05),
                     p=6, k=4, micro_batch=8)


# `retrieve` runs by hand but is not in BENCHMARK.json, so no change is gated
# on it: its 16-18 s op fits once or twice in a run, and about 40% of the op is
# kernel time faulting in its dense distance tensors (1 GB for the flat
# protocol), whose speed follows the shared host's memory load. Ten runs of
# the same code spread by 17-31% of their median in items_per_s.
WORKLOADS = {
    "train-default": _default_train,
    "train-small": _small_train,
    "embed-default": EmbedSet,
    "retrieve": Retrieve,
}
