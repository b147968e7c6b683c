"""The gait pyramid network: four stages of spatial and temporal attention
over progressively merged skeleton tokens, producing one embedding per
walking sequence.

Token granularity advances 18 joints -> 5 limbs -> limb groups -> 1 body
token while the channel width doubles per stage (default 32/64/128/256).
Each stage runs a spatial encoder (tokens within a frame; absent at the
body level) and a temporal encoder (one token's trajectory through time),
each with its own learned class token and positional table and a 4C
feed-forward layer in every block. All class outputs are concatenated
and projected to the final embedding, which is L2-normalized so Euclidean
triplet margins are scale-free.

Stages can be deactivated for ablations; the merge projections always chain
so the token path still reaches the body level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from . import numcore as nc
from .errors import ConfigError, InputError, ShapeError, checked_int
from .numcore import AttentionWeights, Parameter, Tensor
from .skeleton import JOINTS, PartitionScheme, merge_plan, token_counts

DEFAULT_DIMS = (32, 64, 128, 256)
INPUT_CHANNELS = 2
FFN_MULTIPLIER = 4  # feed-forward hidden width per model width
EMBED_CHUNK = 8     # windows per `embed_arrays` batch, and the row multiple of the head's GEMM


@dataclass(frozen=True)
class StageConfig:
    """Width, depth, and activation of one pyramid stage."""

    index: int
    dim: int
    blocks: int = 3
    heads: int = 4
    active: bool = True

    @property
    def encoders(self) -> tuple[str, ...]:
        """Encoder kinds this stage runs, in forward order; the body-level
        stage (4) holds one token, so it has no spatial encoder."""
        if not self.active:
            return ()
        return ("spatial", "temporal") if self.index < 4 else ("temporal",)


def _four_ints(name: str, value, scalar_ok: bool) -> tuple[int, ...]:
    """Four positive ints, one per stage; with `scalar_ok`, one integer
    stands for all four."""
    if isinstance(value, (list, tuple, np.ndarray)):
        if len(value) == 4:
            return tuple(checked_int(f"{name}[{i}]", v) for i, v in enumerate(value))
    elif scalar_ok:
        return (checked_int(name, value),) * 4
    raise ConfigError(f"{name} takes {'one integer or ' if scalar_ok else ''}four integers, got {value!r}")


@dataclass(frozen=True)
class GaitPTConfig:
    """Wiring of the full pyramid. `blocks` and `heads` take one integer or
    four, one per stage; `active_stages` names the stages that keep their
    encoders. Fields are normalised, so equal wirings compare equal."""

    dims: tuple[int, ...] = DEFAULT_DIMS
    blocks: int | tuple[int, ...] = 3
    heads: int | tuple[int, ...] = 4
    active_stages: tuple[int, ...] = (1, 2, 3, 4)
    scheme: PartitionScheme = PartitionScheme.HUL
    sequence_length: int = 30
    output_dim: int = 256
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("dims", "blocks", "heads"):
            object.__setattr__(self, name, _four_ints(name, getattr(self, name), name != "dims"))
        if not isinstance(self.active_stages, Iterable):
            raise ConfigError(f"active_stages must be a list of stages, got {self.active_stages!r}")
        active = sorted({checked_int("active_stages", s, 1, 4) for s in self.active_stages})
        if not active:
            raise ConfigError(f"active_stages must be a nonempty subset of 1..4, got {active}")
        object.__setattr__(self, "active_stages", tuple(active))
        try:
            object.__setattr__(self, "scheme", PartitionScheme(self.scheme))
        except (TypeError, ValueError):
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        for name in ("sequence_length", "output_dim"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        for s in self.stages:
            if s.dim % s.heads != 0:
                raise ConfigError(f"stage {s.index}: width {s.dim} not divisible by {s.heads} heads")

    @classmethod
    def build(cls, **kwargs) -> "GaitPTConfig":
        """The constructor under its older name."""
        return cls(**kwargs)

    @property
    def stages(self) -> tuple[StageConfig, ...]:
        """The per-stage view the model reads."""
        return tuple(
            StageConfig(i, dim, blocks, heads, i in self.active_stages)
            for i, dim, blocks, heads in zip((1, 2, 3, 4), self.dims, self.blocks, self.heads)
        )

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype of parameters and inputs."""
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        """The fields as JSON values; the constructor rebuilds the config."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({k: list(out[k]) for k in ("dims", "blocks", "heads", "active_stages")})
        return {**out, "scheme": self.scheme.value}


# ---------------------------------------------------------------------------
# functional pieces
# ---------------------------------------------------------------------------

def joint_merge(feat: Tensor, plan, projections) -> Tensor:
    """Merge token groups: concatenate each group's members in plan order,
    then linearly project to the new width.

    `plan` is a sequence of index groups over the token axis; together the
    groups must cover every input token and no group may repeat a member.
    Groups may overlap each other (the ALL scheme is an overlapping cover).
    `projections` supplies one (w, b) pair per group with w shaped
    (len(group) * C_in, C_out), one C_out for all groups; their outputs are
    concatenated on the channel axis and reshaped once.
    """
    if feat.ndim != 4:
        raise ShapeError(f"joint_merge expects (batch, frames, tokens, C), got {feat.shape}")
    b, n, t_in, c_in = feat.shape
    covered = set()
    for group in plan:
        if len(set(group)) != len(group):
            raise ConfigError(f"merge group {group} repeats a token")
        if any(i < 0 or i >= t_in for i in group):
            raise ConfigError(f"merge group {group} is out of range for {t_in} tokens")
        covered.update(group)
    if covered != set(range(t_in)):
        missing = sorted(set(range(t_in)) - covered)
        raise ConfigError(f"merge plan does not cover tokens {missing}")
    if len(projections) != len(plan):
        raise ConfigError(f"{len(plan)} groups but {len(projections)} projections")

    outs = []
    for group, (w, bias) in zip(plan, projections):
        sel = nc.index_select(feat, 2, list(group))
        outs.append(nc.linear(nc.reshape(sel, (b, n, len(group) * c_in)), w, bias))
    widths = [out.shape[-1] for out in outs]
    if len(set(widths)) > 1:
        raise ShapeError(f"merge projections have unequal output widths {widths}")
    return nc.reshape(nc.concat(outs, axis=-1), (b, n, len(plan), widths[0]))


def _l2_normalize(x: Tensor) -> Tensor:
    norm = nc.sqrt(nc.tensor_sum(nc.mul(x, x), axis=-1, keepdims=True) + 1e-12)
    return nc.div(x, norm)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

_ATTENTION_PARAMS = tuple(f.name for f in fields(AttentionWeights))  # wq..wo, then bq..bo
# one block's parameter names, in `numcore.EncoderBlock` order
_BLOCK_PARAMS = ("ln1.g", "ln1.b", *(f"attn.{name}" for name in _ATTENTION_PARAMS),
                 "ln2.g", "ln2.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


def parameter_table(config: GaitPTConfig) -> Iterator[tuple[str, tuple[int, ...], float | None]]:
    """Yield (name, shape, initial value or None for a N(0, 0.02) draw) per
    parameter, in buffer and checkpoint order. It allocates nothing, so a
    checkpoint header can be checked against its first entries."""
    dims = config.dims
    yield "input_proj.w", (INPUT_CHANNELS, dims[0]), None
    yield "input_proj.b", (dims[0],), 0.0

    for s in (1, 2, 3):
        for gi, group in enumerate(merge_plan(s, config.scheme)):
            yield f"merge{s}.g{gi}.w", (len(group) * dims[s - 1], dims[s]), None
            yield f"merge{s}.g{gi}.b", (dims[s],), 0.0

    counts = token_counts(config.scheme)
    for stage in config.stages:
        for kind in stage.encoders:
            seq_len = counts[stage.index - 1] if kind == "spatial" else config.sequence_length
            yield from _encoder_table(stage, kind, seq_len)

    class_width = sum(stage.dim * len(stage.encoders) for stage in config.stages)
    yield "head.w", (class_width, config.output_dim), None
    yield "head.b", (config.output_dim,), 0.0


def _encoder_table(stage: StageConfig, kind: str, seq_len: int):
    c = stage.dim
    hidden = FFN_MULTIPLIER * c
    base = f"stage{stage.index}.{kind}"

    yield f"{base}.cls", (c,), None
    yield f"{base}.pos", (seq_len + 1, c), None
    for i in range(stage.blocks):
        blk = f"{base}.block{i}"
        yield f"{blk}.ln1.g", (c,), 1.0
        yield f"{blk}.ln1.b", (c,), 0.0
        for name in _ATTENTION_PARAMS:
            weight = name.startswith("w")
            yield f"{blk}.attn.{name}", (c, c) if weight else (c,), None if weight else 0.0
        yield f"{blk}.ln2.g", (c,), 1.0
        yield f"{blk}.ln2.b", (c,), 0.0
        yield f"{blk}.ffn.w1", (c, hidden), None
        yield f"{blk}.ffn.b1", (hidden,), 0.0
        yield f"{blk}.ffn.w2", (hidden, c), None
        yield f"{blk}.ffn.b2", (c,), 0.0


class GaitPTModel:
    """Parameters and forward pass of the pyramid.

    Parameters live in one contiguous buffer in the config's dtype, and each
    `Parameter.value.data` is a reshaped view into it. The buffer holds them
    in the order of the name -> Parameter dict, which is the checkpoint
    payload order; `layout` gives each one's (name, span, shape). Updates
    write into the views and never rebind them. A built model is immutable
    during inference, so concurrent embedding calls are safe, also while
    another thread holds a tape open: tapes are per thread, so an
    embedding call records nothing on it (tested). Training mutates
    parameter values and must be single-writer.

    Each encoder's block stack is one `numcore.encoder_blocks` call, which
    runs half of its sequences on numcore's worker thread when that exists
    (one BLAS thread, two or more CPUs). Embeddings and gradients are
    bitwise the same with and without it (tested).
    """

    def __init__(self, config: GaitPTConfig, seed: int = 0):
        table = self._lay_out(config)
        rng = np.random.default_rng(seed)
        for p, (_, _, fill) in zip(self.params.values(), table):
            p.value.data[...] = rng.normal(0.0, 0.02, size=p.shape) if fill is None else fill

    @classmethod
    def _unfilled(cls, config: GaitPTConfig) -> "GaitPTModel":
        """The model over an uninitialised buffer, for a checkpoint to be read
        into; it draws no random number."""
        model = cls.__new__(cls)
        model._lay_out(config)
        return model

    # -- construction -------------------------------------------------------

    def _lay_out(self, config: GaitPTConfig) -> list[tuple[str, tuple[int, ...], float | None]]:
        """Make the buffer and the parameters as views into it; return the parameter table."""
        self.config = config
        self.merge_plans = tuple(merge_plan(s, config.scheme) for s in (1, 2, 3))
        table = list(parameter_table(config))
        self._flat = np.empty(sum(math.prod(shape) for _, shape, _ in table), config.np_dtype)
        self.params: dict[str, Parameter] = {}
        self.layout: list[tuple[str, slice, tuple[int, ...]]] = []
        start = 0
        for name, shape, _ in table:
            span = slice(start, start + math.prod(shape))
            self.params[name] = Parameter(name, Tensor(self._flat[span].reshape(shape)))
            self.layout.append((name, span, shape))
            start = span.stop
        return table

    @property
    def class_layout(self) -> list[tuple[int, str, int]]:
        """(stage, encoder kind, width) per class output, in the head's input order."""
        return [(stage.index, kind, stage.dim) for stage in self.config.stages for kind in stage.encoders]

    # -- parameter plumbing --------------------------------------------------

    def parameter_values(self) -> dict[str, Tensor]:
        return {name: p.value for name, p in self.params.items()}

    def param_count(self) -> int:
        return self._flat.size

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.value.zero_grad()

    def flat_parameters(self) -> Tensor:
        """The parameter buffer as one vector: a view, so writing into it
        writes the parameters (`grad_check` perturbs a copy)."""
        return Tensor(self._flat)

    def params_from_flat(self, flat: Tensor) -> dict[str, Tensor]:
        """Differentiable view of a flat vector as the named parameter dict."""
        if flat.size != self.param_count():
            raise ShapeError(f"flat vector has {flat.size} entries, model has {self.param_count()}")
        return {name: nc.reshape(flat[span], shape) for name, span, shape in self.layout}

    # -- forward pieces -------------------------------------------------------

    def _with_class(self, x: Tensor, base: str, p: dict[str, Tensor]) -> Tensor:
        rows, t, c = x.shape
        pos = p[f"{base}.pos"]
        if pos.shape[0] < t + 1:
            raise ShapeError(f"{base}: {t} tokens exceed the positional table of {pos.shape[0] - 1}")
        cls = nc.broadcast_to(p[f"{base}.cls"], (rows, 1, c))
        return nc.add(nc.concat([cls, x], axis=1), pos[: t + 1])

    def spatial_attention_stage(self, feat, stage_index: int, params=None):
        """Attention across the tokens of each frame independently.

        Returns the per-frame token outputs (class stripped) and the mean
        over frames of the class outputs.
        """
        return self._attention_stage(feat, stage_index, "spatial", params)

    def temporal_attention_stage(self, feat, stage_index: int, params=None):
        """Attention through time for each token stream independently.

        Returns the token outputs (class stripped) and the mean over token
        streams of the class outputs.
        """
        return self._attention_stage(feat, stage_index, "temporal", params)

    def _attention_stage(self, feat, stage_index: int, kind: str, params):
        """One encoder over (batch, frames, tokens, C) features. Spatial
        attention runs along the token axis of each frame; temporal attention
        swaps the two middle axes first, so it runs along the frame axis of
        each token, and swaps them back after. The block stack is one
        `numcore.encoder_blocks` node over the batch x rows sequences. The
        class column and the tokens are slices of one (batch, rows, length +
        1, C) view of its output."""
        if not 1 <= stage_index <= 4:
            raise ConfigError(f"stage index must be 1..4, got {stage_index}")
        stage = self.config.stages[stage_index - 1]
        if kind not in stage.encoders:
            raise ConfigError(f"stage {stage_index} has no active {kind} encoder")
        x = feat if isinstance(feat, Tensor) else Tensor(np.asarray(feat, dtype=self.config.np_dtype))
        if x.ndim != 4:
            raise ShapeError(f"expected (batch, frames, tokens, C), got {x.shape}")
        p = params or self.parameter_values()
        if kind == "temporal":
            x = nc.transpose(x, (0, 2, 1, 3))
        b, rows, length, c = x.shape
        base = f"stage{stage_index}.{kind}"
        flat = self._with_class(nc.reshape(x, (b * rows, length, c)), base, p)
        blocks = [nc.EncoderBlock(*(p[f"{base}.block{i}.{name}"] for name in _BLOCK_PARAMS))
                  for i in range(stage.blocks)]
        out = nc.reshape(nc.encoder_blocks(flat, blocks, stage.heads), (b, rows, length + 1, c))
        cls = nc.mean(out[:, :, 0, :], axis=1)
        toks = out[:, :, 1:, :]
        if kind == "temporal":
            toks = nc.transpose(toks, (0, 2, 1, 3))
        return toks, cls

    def _merge(self, feat: Tensor, transition: int, p: dict[str, Tensor]) -> Tensor:
        plan = self.merge_plans[transition - 1]
        projections = [
            (p[f"merge{transition}.g{gi}.w"], p[f"merge{transition}.g{gi}.b"])
            for gi in range(len(plan))
        ]
        return joint_merge(feat, plan, projections)

    # -- embedding -----------------------------------------------------------

    def embed_batch(self, x, params: dict[str, Tensor] | None = None,
                    trace: list | None = None) -> Tensor:
        """Embed a batch of pose windows (B, n, 18, 2) -> (B, output_dim).

        `params` substitutes parameter tensors by name (used for functional
        gradient checks); `trace`, when given, collects (stage, tokens, width)
        after each stage's merge. The head, the only matrix product with one
        row per window, runs on a multiple of `EMBED_CHUNK` rows (the last row
        repeated, then dropped), so no window's embedding depends on B.
        """
        cfg = self.config
        t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=cfg.np_dtype))
        if t.ndim != 4 or t.shape[2] != JOINTS or t.shape[3] != INPUT_CHANNELS:
            raise InputError(f"expected input of shape (B, n, {JOINTS}, {INPUT_CHANNELS}), got {t.shape}")
        if t.shape[1] != cfg.sequence_length:
            raise InputError(
                f"sequence length {t.shape[1]} does not match configured {cfg.sequence_length}"
            )
        p = params or self.parameter_values()

        feat = nc.linear(t, p["input_proj.w"], p["input_proj.b"])
        class_outputs = []
        for stage in cfg.stages:
            if stage.index > 1:
                feat = self._merge(feat, stage.index - 1, p)
            if trace is not None:
                trace.append((stage.index, feat.shape[2], feat.shape[3]))
            for kind in stage.encoders:
                encode = self.spatial_attention_stage if kind == "spatial" else self.temporal_attention_stage
                feat, cls = encode(feat, stage.index, p)
                class_outputs.append(cls)

        merged = nc.concat(class_outputs, axis=-1)
        b, pad = merged.shape[0], -merged.shape[0] % EMBED_CHUNK
        merged = nc.index_select(merged, 0, [*range(b)] + [b - 1] * pad) if pad else merged
        emb = nc.linear(merged, p["head.w"], p["head.b"])
        return _l2_normalize(emb[:b] if pad else emb)

    def embed_arrays(self, windows: np.ndarray) -> np.ndarray:
        """Inference-mode embeddings for stacked windows (N, n, 18, 2).

        Runs `embed_batch` on chunks of `EMBED_CHUNK` windows, which bounds
        the memory of one call; the last chunk holds what is left. A window's
        embedding is bitwise the same whatever else it is embedded with.

        Where numcore runs work on two CPUs (see `numcore._in_two_children`),
        two or more chunks are split between two forked children: the first
        embeds chunks [0, ceil(k / 2)) of k and the second the rest, each one
        chunk at a time, so two chunks' temporaries are live at once, one in
        each child, while the caller waits and holds only their results.
        A child's error is raised here with its class. Otherwise the caller
        embeds every chunk, with each encoder's sequences split across the
        CPUs where numcore's worker exists.
        """
        n = windows.shape[0]
        if n == 0:
            raise InputError(f"no windows to embed: input has shape {windows.shape}")
        parts = nc._in_two_children(
            lambda starts: np.concatenate([self.embed_batch(windows[s : s + EMBED_CHUNK]).data
                                           for s in starts], axis=0),
            range(0, n, EMBED_CHUNK))
        return np.concatenate(parts, axis=0)
