"""Metric-learning trainer: triplet loss with batch-hard mining over
identity-balanced P x K batches, AdamW, and a decaying cyclic learning rate.

The loss gradient is computed on the embedding matrix and pushed back
through the network in micro-batches, in the parameters' dtype, by one
`numcore.backward_from` call over all the micro-batch tapes. With one BLAS
thread and two or more CPUs it replays every other tape on a second thread;
the gradients are bitwise those of a serial replay. Every micro-batch's
tape stays alive until the whole P x K batch is mined, so peak memory
grows with P x K; each tape keeps only what its VJPs read and rebuilds
layer-norm outputs and attention contexts (see `numcore`), 126 MB for one
default-model float32 micro-batch of 8 windows. Traced (tracemalloc), a
default P x K = 32 step peaks at about 509 MB (511 MB with the second
thread) and the criterion-6 model's P x K = 24 step at about 44 MB, as
`test_criterion6_training_step_traced_peak_is_bounded` measures (numpy 2.4,
x86_64); README's Performance table gives step times and resident peaks.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import (
    ConfigError, InputError, NumericError, SamplingError, ShapeError, checked_int, checked_real,
)
from .model import GaitPTModel
from .numcore import GradTape, Parameter, Tensor
from .skeleton import GaitSequence, sample_window


# AdamW's rules, applied by TrainConfig and by every adamw_step call; each
# rule is false for NaN.
_ADAMW_RULES = (
    ("weight_decay", "finite and >= 0", lambda v: 0 <= v < math.inf),
    ("beta1", "in [0, 1)", lambda v: 0 <= v < 1),
    ("beta2", "in [0, 1)", lambda v: 0 <= v < 1),
    ("eps", "> 0", lambda v: v > 0),
)


@dataclass
class TrainConfig:
    """Hyperparameters; the loss/schedule defaults are the reference setup."""

    margin: float = 0.02
    p: int = 8                 # identities per batch
    k: int = 4                 # sequences per identity
    lr_min: float = 1e-4
    lr_max: float = 1e-2
    gamma: float = 0.995       # cyclic amplitude decay
    step_size: int = 15        # epochs per half-cycle of the learning rate
    weight_decay: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 30
    seed: int = 0
    steps_per_epoch: int | None = None
    micro_batch: int = 8

    def __post_init__(self):
        for name, minimum in (("p", 2), ("k", 2), ("step_size", 1), ("epochs", 1),
                              ("seed", 0), ("micro_batch", 1)):
            setattr(self, name, checked_int(name, getattr(self, name), minimum))
        if self.steps_per_epoch is not None:
            self.steps_per_epoch = checked_int("steps_per_epoch", self.steps_per_epoch)
        # Each rule is false for NaN; lr_max comes before lr_min, which reads it.
        for name, rule, ok in (
            ("margin", "> 0", lambda v: v > 0),
            ("lr_max", "finite and > 0", lambda v: 0 < v < math.inf),
            ("lr_min", "in (0, lr_max)", lambda v: 0 < v < self.lr_max),
            ("gamma", "in (0, 1]", lambda v: 0 < v <= 1),
            *_ADAMW_RULES,
        ):
            setattr(self, name, checked_real(name, getattr(self, name), rule, ok))

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class OptimizerState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @staticmethod
    def for_params(params: dict[str, Parameter]) -> "OptimizerState":
        return OptimizerState(
            m={name: np.zeros_like(p.value.data) for name, p in params.items()},
            v={name: np.zeros_like(p.value.data) for name, p in params.items()},
        )


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def euclidean_distance(a: Tensor, b: Tensor) -> Tensor:
    """L2 distance along the last axis (differentiable; 0 has a 0 adjoint)."""
    diff = nc.sub(a, b)
    return nc.sqrt(nc.tensor_sum(nc.mul(diff, diff), axis=-1))


def triplet_loss(anchor, positive, negative, margin: float = 0.02) -> Tensor:
    """max(0, d(a,p) - d(a,n) + margin).

    Inputs of shape (D,) give the single-triplet loss; (B, D) batches are
    averaged.
    """
    a, p, n = (x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
               for x in (anchor, positive, negative))
    if not a.shape == p.shape == n.shape:
        raise ShapeError(f"triplet embeddings disagree: {a.shape}, {p.shape}, {n.shape}")
    raw = nc.add(nc.sub(euclidean_distance(a, p), euclidean_distance(a, n)), margin)
    per_triplet = nc.relu(raw)
    return nc.mean(per_triplet) if per_triplet.ndim > 0 else per_triplet


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------

def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Dense Euclidean distances from each row of `a` to each row of `b`
    (default `a` itself); numpy, not differentiable.

    Computed from explicit differences, not the expanded quadratic form, so
    each entry is bit-identical to norm(a_i - b_j); rankings derived from it
    match per-pair oracles exactly. Memory is O(len(a) len(b) d).
    """
    b = a if b is None else b
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def batch_hard_mine(embeddings: np.ndarray, labels) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Per anchor: hardest positive (max distance, same label, not itself)
    and hardest negative (min distance, different label); returned with the
    float64 `pairwise_distances` matrix they were mined from.

    Ties break toward the lowest index. Every label must occur at least
    twice and at least two labels must be present.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if emb.ndim != 2 or emb.shape[0] != labels.shape[0]:
        raise ShapeError(f"embeddings {emb.shape} do not match {labels.shape[0]} labels")
    uniq, counts = np.unique(labels, return_counts=True)
    if uniq.size < 2:
        raise SamplingError(f"mining needs >= 2 distinct labels, got only {uniq[0]!r}")
    thin = uniq[counts < 2]
    if thin.size:
        raise SamplingError(f"label {thin[0]!r} has fewer than 2 samples in the batch")

    d = pairwise_distances(emb)
    same = labels[:, None] == labels[None, :]
    pos = np.where(same, d, -np.inf)
    np.fill_diagonal(pos, -np.inf)
    neg = np.where(same, np.inf, d)
    return list(zip(range(len(d)), np.argmax(pos, axis=1).tolist(), np.argmin(neg, axis=1).tolist())), d


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

def adamw_step(
    params: dict[str, Parameter],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    m <- b1 m + (1-b1) g ; v <- b2 v + (1-b2) g^2 ; bias-corrected;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta.
    Parameters without an entry in `grads` are treated as zero-gradient.
    Hyperparameters outside `TrainConfig`'s rules raise a ConfigError, and a
    gradient of the wrong shape or dtype a ShapeError, before anything is
    written.
    """
    lr = checked_real("learning rate", lr, "finite and > 0", lambda v: 0 < v < math.inf)
    hyper = {"weight_decay": weight_decay, "beta1": beta1, "beta2": beta2, "eps": eps}
    weight_decay, beta1, beta2, eps = (checked_real(name, hyper[name], rule, ok)
                                       for name, rule, ok in _ADAMW_RULES)
    for name, p in params.items():
        g, theta = grads.get(name), p.value.data
        if g is not None and g.shape != theta.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, parameter {theta.shape}")
        if g is not None and g.dtype != theta.dtype:
            raise ShapeError(f"gradient for {name} has dtype {g.dtype}, parameter {theta.dtype}")
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for name, p in params.items():
        theta = p.value.data
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        theta -= lr * update
        if weight_decay:
            theta -= lr * weight_decay * theta


def cyclic_lr(iteration: int, cfg: TrainConfig) -> float:
    """Triangular wave between lr_min and lr_min + amplitude * gamma^iter,
    with `step_size` iterations per half-cycle. Starts at lr_min; `train`
    steps it once per epoch."""
    iteration = checked_int("iteration", iteration, 0, error=InputError)
    cycle = math.floor(1 + iteration / (2.0 * cfg.step_size))
    x = abs(iteration / cfg.step_size - 2.0 * cycle + 1.0)
    amplitude = (cfg.lr_max - cfg.lr_min) * (cfg.gamma ** iteration)
    return cfg.lr_min + amplitude * max(0.0, 1.0 - x)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _group_by_subject(dataset: list[GaitSequence]) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, seq in enumerate(dataset):
        groups.setdefault(seq.subject_id, []).append(i)
    return groups


def train(
    model: GaitPTModel,
    dataset: list[GaitSequence],
    cfg: TrainConfig,
    log_stream=None,
    on_epoch=None,
) -> list[dict]:
    """Train in place; returns the per-epoch log (also printed as JSON lines).

    `dataset` holds normalized sequences at least one window long. After
    each epoch `on_epoch(model, entry)` is called with the epoch's log entry
    (to write a checkpoint, say) and may return True to stop early.
    Deterministic for a fixed cfg.seed.
    """
    window = model.config.sequence_length
    groups = _group_by_subject(dataset)
    subjects = sorted(groups)
    if len(subjects) < cfg.p:
        raise ConfigError(f"{len(subjects)} identities cannot fill P={cfg.p} batches")
    short = [i for i, s in enumerate(dataset) if len(s) < window]
    if short:
        raise ConfigError(
            f"{len(short)} sequences are shorter than the {window}-frame window; filter first"
        )

    rng = np.random.default_rng(cfg.seed)
    steps = cfg.steps_per_epoch or max(1, round(len(dataset) / (cfg.p * cfg.k)))
    params = model.params
    state = OptimizerState.for_params(params)
    log: list[dict] = []
    stream = log_stream if log_stream is not None else sys.stdout

    for epoch in range(cfg.epochs):
        lr = cyclic_lr(epoch, cfg)
        losses, active = [], []
        for step in range(steps):
            picked = rng.choice(len(subjects), size=cfg.p, replace=False)
            batch_idx: list[int] = []
            for s in picked:
                pool = groups[subjects[s]]
                batch_idx.extend(
                    int(pool[j])
                    for j in rng.choice(len(pool), size=cfg.k, replace=len(pool) < cfg.k)
                )
            windows = np.stack(
                [sample_window(dataset[i], window, rng) for i in batch_idx]
            ).astype(model.config.np_dtype)
            labels = [dataset[i].subject_id for i in batch_idx]
            loss_value, active_fraction = _train_step(
                model, windows, labels, cfg, state, lr, f"epoch {epoch} step {step}"
            )
            losses.append(loss_value)
            active.append(active_fraction)

        entry = {
            "epoch": epoch,
            "lr": lr,
            "mean_loss": float(np.mean(losses)),
            "active_triplets": float(np.mean(active)),
        }
        log.append(entry)
        print(json.dumps(entry), file=stream)
        if on_epoch is not None and on_epoch(model, entry):
            break
    return log


def _train_step(
    model: GaitPTModel,
    windows: np.ndarray,
    labels,
    cfg: TrainConfig,
    state: OptimizerState,
    lr: float,
    where: str,
) -> tuple[float, float]:
    """Forward in micro-batches, mine, and push the loss gradient back.
    A non-finite loss raises a NumericError naming `where` before any
    parameter moves; so does a parameter the update left non-finite."""
    starts = range(0, windows.shape[0], cfg.micro_batch)
    outputs = []
    for start in starts:
        with GradTape():
            outputs.append(model.embed_batch(windows[start : start + cfg.micro_batch]))
    embeddings = np.concatenate([emb.data for emb in outputs], axis=0)

    triplets, d = batch_hard_mine(embeddings, labels)
    a_idx, p_idx, n_idx = (list(t) for t in zip(*triplets))

    emb_leaf = Tensor(embeddings.astype(np.float64), requires_grad=True)
    with GradTape():
        loss = triplet_loss(
            nc.index_select(emb_leaf, 0, a_idx),
            nc.index_select(emb_leaf, 0, p_idx),
            nc.index_select(emb_leaf, 0, n_idx),
            margin=cfg.margin,
        )
        nc.backward(loss)
    if not math.isfinite(loss.item()):
        raise NumericError(f"{where}: loss is {loss.item()}; parameters keep their last finite values")
    cotangent = emb_leaf.grad.data.astype(embeddings.dtype)

    model.zero_grad()
    nc.backward_from(outputs, [cotangent[start : start + cfg.micro_batch] for start in starts])
    grads = {
        name: p.grad.data for name, p in model.params.items() if p.grad is not None
    }
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by name
        adamw_step(
            model.params, grads, state, lr,
            beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps, weight_decay=cfg.weight_decay,
        )
    model.zero_grad()
    for name, p in model.params.items():
        if not np.isfinite(p.value.data).all():
            raise NumericError(f"{where}: parameter {name} is not finite after the update at lr {lr:g}")

    margins = d[a_idx, p_idx] - d[a_idx, n_idx] + cfg.margin
    return float(loss.item()), float(np.mean(margins > 0))
