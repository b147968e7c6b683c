"""Gallery-probe retrieval metrics and protocols, plus the Welch t-test
used by the stage-ablation and partition studies.

Retrieval is nearest-neighbor by Euclidean distance over embedding vectors;
distance ties break by ascending sequence key so reports are deterministic.
Probes whose subject is absent from the gallery count as failures rather
than being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as _dc_replace
from io import StringIO
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.special

from .errors import ConfigError, InputError, ProtocolError, ShapeError, StatisticsError, checked_int
from .model import GaitPTConfig, GaitPTModel
from .skeleton import Condition, GaitSequence, PartitionScheme
from .training import TrainConfig, pairwise_distances, train

CASIA_VIEWS = tuple(range(0, 181, 18))  # 0, 18, ..., 180
GALLERY_SESSIONS = (1, 2, 3, 4)         # normal-walk sessions enrolled as gallery


@dataclass(frozen=True)
class EmbeddingSet:
    """Rows of (key, subject, condition, view, session, embedding vector)."""

    keys: tuple[str, ...]
    subject_ids: tuple[str, ...]
    conditions: tuple[Condition, ...]
    views: np.ndarray
    sessions: np.ndarray
    embeddings: np.ndarray

    def __post_init__(self):
        n = len(self.keys)
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] != n:
            raise ShapeError(f"need (n, dim) embeddings for {n} keys, got {emb.shape}")
        if len(set(self.keys)) != n:
            raise InputError("embedding keys must be unique")
        lengths = {len(self.subject_ids), len(self.conditions), len(self.views), len(self.sessions)}
        if lengths != {n}:
            raise ShapeError(f"field lengths disagree: {lengths} vs {n} keys")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "views", np.asarray(self.views, dtype=int))
        object.__setattr__(self, "sessions", np.asarray(self.sessions, dtype=int))
        object.__setattr__(self, "conditions", tuple(Condition(c) for c in self.conditions))

    def __len__(self) -> int:
        return len(self.keys)

    def select(self, mask: np.ndarray) -> "EmbeddingSet":
        idx = np.flatnonzero(mask)
        return EmbeddingSet(
            keys=tuple(self.keys[i] for i in idx),
            subject_ids=tuple(self.subject_ids[i] for i in idx),
            conditions=tuple(self.conditions[i] for i in idx),
            views=self.views[idx],
            sessions=self.sessions[idx],
            embeddings=self.embeddings[idx],
        )


def embed_sequence_set(model: GaitPTModel, seqs: Sequence[GaitSequence]) -> EmbeddingSet:
    """Embed the head window of each sequence (at least one) into an EmbeddingSet."""
    if not seqs:
        raise InputError("no sequences to embed")
    window = model.config.sequence_length
    short = [i for i, s in enumerate(seqs) if len(s) < window]
    if short:
        raise InputError(f"{len(short)} sequences are shorter than the {window}-frame window")
    windows = np.stack([s.frames[:window] for s in seqs]).astype(model.config.np_dtype)
    emb = model.embed_arrays(windows)
    keys, seen = [], set()
    for i, s in enumerate(seqs):
        key, j = s.key, i
        while key in seen:  # a repeat becomes the first free "key#j", j >= its index
            key, j = f"{s.key}#{j}", j + 1
        seen.add(key)
        keys.append(key)
    return EmbeddingSet(
        keys=tuple(keys),
        subject_ids=tuple(s.subject_id for s in seqs),
        conditions=tuple(s.condition for s in seqs),
        views=np.array([s.view for s in seqs]),
        sessions=np.array([s.session for s in seqs]),
        embeddings=emb.astype(np.float64),
    )


# ---------------------------------------------------------------------------
# rank-K retrieval
# ---------------------------------------------------------------------------

def rank_k_accuracy(gallery: EmbeddingSet, probe: EmbeddingSet, ks: Iterable[int]) -> dict[int, float]:
    """Fraction of probes whose subject appears among the k nearest gallery
    rows, for each k; nearest by Euclidean distance, ties by ascending key."""
    ks = sorted({checked_int("ranks", k, error=InputError) for k in ks})
    if not ks:
        raise InputError("no ranks given")
    if len(gallery) == 0:
        raise ProtocolError("gallery is empty")
    d = pairwise_distances(probe.embeddings, gallery.embeddings)
    key_rank = np.broadcast_to(np.argsort(np.argsort(gallery.keys)), d.shape)
    order = np.lexsort((key_rank, d), axis=-1)
    match = np.array(gallery.subject_ids)[order] == np.array(probe.subject_ids)[:, None]
    # rank of each probe's first hit; a probe with no hit never counts
    first_hit = np.where(match.any(axis=1), match.argmax(axis=1), np.inf)
    total = max(1, len(probe))
    return {k: int(np.sum(first_hit < k)) / total for k in ks}


# ---------------------------------------------------------------------------
# protocol reports
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Accuracies aggregated per protocol; see `render` for the text form."""

    protocol: str
    conditions: tuple[str, ...] = ()
    views: tuple[int, ...] = ()
    matrix: dict[str, np.ndarray] | None = None          # probe view x gallery view
    probe_view_means: dict[str, np.ndarray] | None = None
    condition_means: dict[str, float] | None = None
    rank_table: dict[int, float] | None = None

    def to_dict(self) -> dict:
        out: dict = {"protocol": self.protocol}
        if self.matrix is not None:
            out["views"] = list(self.views)
            out["matrix"] = {
                c: [[None if np.isnan(v) else v for v in row] for row in m]
                for c, m in self.matrix.items()
            }
            out["probe_view_means"] = {c: list(v) for c, v in self.probe_view_means.items()}
            out["condition_means"] = dict(self.condition_means)
        if self.rank_table is not None:
            out["rank_table"] = {str(k): v for k, v in self.rank_table.items()}
        return out

    def render(self) -> str:
        buf = StringIO()
        if self.matrix is not None:
            header = "gallery..  " + " ".join(f"{v:>5d}" for v in self.views) + "   mean"
            for cond in self.conditions:
                print(f"[{cond}] rank-1 accuracy, probe view (rows) vs gallery view (cols)", file=buf)
                print(header, file=buf)
                for i, pv in enumerate(self.views):
                    row = self.matrix[cond][i]
                    cells = " ".join("    ." if np.isnan(v) else f"{v:5.3f}" for v in row)
                    print(f"probe {pv:>3d}  {cells}  {self.probe_view_means[cond][i]:6.3f}", file=buf)
                print(f"condition mean: {self.condition_means[cond]:.4f}", file=buf)
        if self.rank_table is not None:
            for k, acc in sorted(self.rank_table.items()):
                print(f"rank-{k:<3d} {acc:.4f}", file=buf)
        return buf.getvalue()


def casia_eval(embeddings: EmbeddingSet) -> EvalReport:
    """Cross-view protocol: normal-walk sessions 1-4 enroll the gallery; the
    probe sets are later normal sessions plus all bag and coat sequences.

    Every (gallery view, probe view, condition) pair of the 11 `CASIA_VIEWS`
    is scored by rank-1 accuracy except identical views; a probe view's mean
    therefore averages the other 10 gallery views, and a condition's score
    averages all 11 probe views.
    """
    cond = np.array([c.value for c in embeddings.conditions])
    gallery_mask = (cond == "NM") & np.isin(embeddings.sessions, GALLERY_SESSIONS)
    probe_masks = {
        "NM": (cond == "NM") & (embeddings.sessions > max(GALLERY_SESSIONS)),
        "BG": cond == "BG",
        "CL": cond == "CL",
    }

    gaps = [f"gallery NM#1-4 missing at view {v}" for v in CASIA_VIEWS
            if not np.any(gallery_mask & (embeddings.views == v))]
    scored = [c for c, m in probe_masks.items() if np.any(m)]
    if not scored:
        gaps.append("no probe rows in any of NM#5+, BG, CL")
    for c in scored:
        gaps.extend(
            f"probe {c} missing at view {v}" for v in CASIA_VIEWS
            if not np.any(probe_masks[c] & (embeddings.views == v))
        )
    if gaps:
        raise ProtocolError("protocol data gaps: " + "; ".join(gaps))

    nv = len(CASIA_VIEWS)
    galleries = [embeddings.select(gallery_mask & (embeddings.views == gv)) for gv in CASIA_VIEWS]
    matrix = {c: np.full((nv, nv), np.nan) for c in scored}
    for c in scored:
        for i, pv in enumerate(CASIA_VIEWS):
            probe = embeddings.select(probe_masks[c] & (embeddings.views == pv))
            for j, gallery in enumerate(galleries):
                if j != i:
                    matrix[c][i, j] = rank_k_accuracy(gallery, probe, [1])[1]

    probe_view_means = {c: np.nanmean(matrix[c], axis=1) for c in scored}
    condition_means = {c: float(np.mean(probe_view_means[c])) for c in scored}
    return EvalReport(
        protocol="casia",
        conditions=tuple(scored),
        views=CASIA_VIEWS,
        matrix=matrix,
        probe_view_means=probe_view_means,
        condition_means=condition_means,
    )


def grew_eval(gallery: EmbeddingSet, probe: EmbeddingSet,
              ks: Sequence[int] = (1, 5, 10, 20)) -> EvalReport:
    """Flat gallery-probe retrieval reported at several rank levels."""
    table = rank_k_accuracy(gallery, probe, ks)
    return EvalReport(protocol="rankk", rank_table=table)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

class WelchResult(NamedTuple):
    t: float
    df: float
    p: float


def welch_t_test(xs, ys) -> WelchResult:
    """Two-sample t-test without the equal-variance assumption.

    Returns the Welch statistic, Welch-Satterthwaite degrees of freedom, and
    the two-sided p-value. Needs >= 2 points per sample and nonzero variance
    in at least one of them.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise StatisticsError(f"each sample needs >= 2 points, got {x.size} and {y.size}")
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    if vx == 0.0 and vy == 0.0:
        raise StatisticsError("both samples have zero variance")
    sx, sy = vx / x.size, vy / y.size
    se = math.sqrt(sx + sy)
    t = (x.mean() - y.mean()) / se
    df = (sx + sy) ** 2 / (
        (sx * sx) / (x.size - 1) + (sy * sy) / (y.size - 1)
    )
    return WelchResult(t=float(t), df=float(df), p=float(2.0 * scipy.special.stdtr(df, -abs(t))))


# ---------------------------------------------------------------------------
# stage-ablation harness
# ---------------------------------------------------------------------------

@dataclass
class StudyResult:
    """Rank-1 accuracies of several model variants across shared-seed runs,
    plus pairwise Welch p-values between variants."""

    labels: list[str]
    accuracies: np.ndarray              # (n_variants, runs)
    p_values: dict[tuple[int, int], float]

    @property
    def means(self) -> np.ndarray:
        return self.accuracies.mean(axis=1)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "accuracies": self.accuracies.tolist(),
            "means": self.means.tolist(),
            "p_values": {
                f"{self.labels[i]} vs {self.labels[j]}": p
                for (i, j), p in self.p_values.items()
            },
        }

    def render(self) -> str:
        buf = StringIO()
        runs = self.accuracies.shape[1]
        width = max(len(l) for l in self.labels)
        print(f"{'variant':<{width}s}  mean rank-1 over {runs} runs", file=buf)
        for label, accs in zip(self.labels, self.accuracies):
            print(
                f"{label:<{width}s}  {accs.mean():.4f}  (runs: {' '.join(f'{a:.3f}' for a in accs)})",
                file=buf,
            )
        for (i, j), p in self.p_values.items():
            print(f"Welch p  {self.labels[i]} vs {self.labels[j]}: {p:.4g}", file=buf)
        return buf.getvalue()


def config_study(
    dataset,
    variants: Sequence[tuple[str, GaitPTConfig]],
    runs: int,
    seed: int,
    train_config: TrainConfig,
) -> StudyResult:
    """Train `runs` models per config variant and score rank-1 retrieval.

    Run seeds are shared across variants so comparisons pair up. `dataset`
    maps "train", "gallery" and "probe" to sequence lists, as
    `generate_split_sequences` and `load_split_sequences` return them.
    Variant pairs whose accuracy samples are both constant get the limiting
    p-value (1 if the means coincide, else 0) instead of a
    degenerate-variance error.
    """
    if not variants:
        raise ConfigError("no variants given")
    runs = checked_int("runs", runs)
    if runs < 2 and len(variants) > 1:
        raise ConfigError("pairwise t-tests need runs >= 2")

    run_seeds = [int(ss.generate_state(1)[0]) for ss in np.random.SeedSequence(seed).spawn(runs)]
    accs = np.zeros((len(variants), runs))
    for vi, (_, cfg) in enumerate(variants):
        for r, rs in enumerate(run_seeds):
            model = GaitPTModel(cfg, seed=rs)
            tcfg = _dc_replace(train_config, seed=rs ^ 0x5EED)
            train(model, dataset["train"], tcfg, log_stream=StringIO())
            gallery = embed_sequence_set(model, dataset["gallery"])
            probe = embed_sequence_set(model, dataset["probe"])
            accs[vi, r] = rank_k_accuracy(gallery, probe, [1])[1]

    p_values: dict[tuple[int, int], float] = {}
    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            a, b = accs[i], accs[j]
            if a.var(ddof=1) == 0.0 and b.var(ddof=1) == 0.0:
                p_values[(i, j)] = 1.0 if a.mean() == b.mean() else 0.0
            else:
                p_values[(i, j)] = welch_t_test(a, b).p
    return StudyResult(labels=[name for name, _ in variants], accuracies=accs, p_values=p_values)


def ablation_run(
    dataset,
    stage_subsets: Sequence[Iterable[int]],
    runs: int,
    seed: int,
    model_config: GaitPTConfig,
    train_config: TrainConfig,
) -> StudyResult:
    """Stage-activation ablation: one variant per stage subset."""
    configs = [_dc_replace(model_config, active_stages=s) for s in stage_subsets]
    variants = [("stages " + "+".join(map(str, c.active_stages)), c) for c in configs]
    return config_study(dataset, variants, runs, seed, train_config)


def partition_study(
    dataset,
    runs: int,
    seed: int,
    model_config: GaitPTConfig,
    train_config: TrainConfig,
    schemes: Sequence[PartitionScheme | str] = tuple(PartitionScheme),
) -> StudyResult:
    """Limb-grouping study: one variant per partitioning scheme."""
    configs = [_dc_replace(model_config, scheme=s) for s in schemes]
    variants = [(c.scheme.value, c) for c in configs]
    return config_study(dataset, variants, runs, seed, train_config)
