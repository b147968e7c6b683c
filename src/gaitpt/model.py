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

from dataclasses import dataclass, fields
from typing import Iterable

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
    (len(group) * C_in, C_out).
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
        flat = nc.reshape(sel, (b, n, len(group) * c_in))
        proj = nc.linear(flat, w, bias)
        outs.append(nc.reshape(proj, (b, n, 1, w.shape[1])))
    return nc.concat(outs, axis=2)


def _l2_normalize(x: Tensor) -> Tensor:
    norm = nc.sqrt(nc.tensor_sum(nc.mul(x, x), axis=-1, keepdims=True) + 1e-12)
    return nc.div(x, norm)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class GaitPTModel:
    """Parameters and forward pass of the pyramid.

    Parameters live in an insertion-ordered name -> Parameter dict; the order
    is the checkpoint payload order. A built model is immutable during
    inference, so concurrent embedding calls are safe; training mutates
    parameter values and must be single-writer.
    """

    def __init__(self, config: GaitPTConfig, seed: int = 0):
        self.config = config
        self.merge_plans = tuple(merge_plan(s, config.scheme) for s in (1, 2, 3))
        self.params: dict[str, Parameter] = {}
        self.class_layout: list[tuple[int, str, int]] = []
        self._build(np.random.default_rng(seed))

    # -- construction -------------------------------------------------------

    def _add(self, name: str, array: np.ndarray) -> None:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name}")
        self.params[name] = Parameter(name, Tensor(array.astype(self.config.np_dtype)))

    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.config
        dims = cfg.dims
        counts = token_counts(cfg.scheme)

        def w(*shape):
            return rng.normal(0.0, 0.02, size=shape)

        self._add("input_proj.w", w(INPUT_CHANNELS, dims[0]))
        self._add("input_proj.b", np.zeros(dims[0]))

        for s in (1, 2, 3):
            for gi, group in enumerate(self.merge_plans[s - 1]):
                self._add(f"merge{s}.g{gi}.w", w(len(group) * dims[s - 1], dims[s]))
                self._add(f"merge{s}.g{gi}.b", np.zeros(dims[s]))

        for stage in cfg.stages:
            for kind in stage.encoders:
                seq_len = counts[stage.index - 1] if kind == "spatial" else cfg.sequence_length
                self._add_encoder(stage, kind, seq_len, rng)
                self.class_layout.append((stage.index, kind, stage.dim))

        concat_width = sum(width for _, _, width in self.class_layout)
        self._add("head.w", w(concat_width, cfg.output_dim))
        self._add("head.b", np.zeros(cfg.output_dim))

    def _add_encoder(self, stage: StageConfig, kind: str, seq_len: int,
                     rng: np.random.Generator) -> None:
        c = stage.dim
        hidden = FFN_MULTIPLIER * c
        base = f"stage{stage.index}.{kind}"

        def w(*shape):
            return rng.normal(0.0, 0.02, size=shape)

        self._add(f"{base}.cls", w(c))
        self._add(f"{base}.pos", w(seq_len + 1, c))
        for i in range(stage.blocks):
            blk = f"{base}.block{i}"
            self._add(f"{blk}.ln1.g", np.ones(c))
            self._add(f"{blk}.ln1.b", np.zeros(c))
            for proj in ("wq", "wk", "wv", "wo"):
                self._add(f"{blk}.attn.{proj}", w(c, c))
            for bias in ("bq", "bk", "bv", "bo"):
                self._add(f"{blk}.attn.{bias}", np.zeros(c))
            self._add(f"{blk}.ln2.g", np.ones(c))
            self._add(f"{blk}.ln2.b", np.zeros(c))
            self._add(f"{blk}.ffn.w1", w(c, hidden))
            self._add(f"{blk}.ffn.b1", np.zeros(hidden))
            self._add(f"{blk}.ffn.w2", w(hidden, c))
            self._add(f"{blk}.ffn.b2", np.zeros(c))

    # -- parameter plumbing --------------------------------------------------

    def parameter_values(self) -> dict[str, Tensor]:
        return {name: p.value for name, p in self.params.items()}

    def param_count(self) -> int:
        return sum(p.value.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.value.zero_grad()

    def flat_parameters(self) -> Tensor:
        """All parameter values concatenated into one vector (copy)."""
        return Tensor(
            np.concatenate([p.value.data.reshape(-1) for p in self.params.values()])
        )

    def params_from_flat(self, flat: Tensor) -> dict[str, Tensor]:
        """Differentiable view of a flat vector as the named parameter dict."""
        if flat.size != self.param_count():
            raise ShapeError(f"flat vector has {flat.size} entries, model has {self.param_count()}")
        out, offset = {}, 0
        for name, p in self.params.items():
            size = p.value.size
            out[name] = nc.reshape(flat[offset : offset + size], p.value.shape)
            offset += size
        return out

    # -- forward pieces -------------------------------------------------------

    def _with_class(self, x: Tensor, base: str, p: dict[str, Tensor]) -> Tensor:
        rows, t, c = x.shape
        cls = nc.broadcast_to(nc.reshape(p[f"{base}.cls"], (1, 1, c)), (rows, 1, c))
        x = nc.concat([cls, x], axis=1)
        pos = p[f"{base}.pos"]
        if pos.shape[0] < t + 1:
            raise ShapeError(f"{base}: {t} tokens exceed the positional table of {pos.shape[0] - 1}")
        return nc.add(x, nc.reshape(pos[: t + 1], (1, t + 1, c)))

    def _encoder(self, x: Tensor, stage: StageConfig, kind: str,
                 p: dict[str, Tensor]) -> Tensor:
        for i in range(stage.blocks):
            blk = f"stage{stage.index}.{kind}.block{i}"
            h = nc.layer_norm(x, p[f"{blk}.ln1.g"], p[f"{blk}.ln1.b"])
            h = nc.multi_head_attention(
                h,
                AttentionWeights(
                    wq=p[f"{blk}.attn.wq"], wk=p[f"{blk}.attn.wk"],
                    wv=p[f"{blk}.attn.wv"], wo=p[f"{blk}.attn.wo"],
                    bq=p[f"{blk}.attn.bq"], bk=p[f"{blk}.attn.bk"],
                    bv=p[f"{blk}.attn.bv"], bo=p[f"{blk}.attn.bo"],
                ),
                stage.heads,
            )
            x = nc.add(x, h)
            h = nc.layer_norm(x, p[f"{blk}.ln2.g"], p[f"{blk}.ln2.b"])
            h = nc.linear(h, p[f"{blk}.ffn.w1"], p[f"{blk}.ffn.b1"])
            h = nc.gelu(h)
            h = nc.linear(h, p[f"{blk}.ffn.w2"], p[f"{blk}.ffn.b2"])
            x = nc.add(x, h)
        return x

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
        each token, and swaps them back after."""
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
        flat = nc.reshape(x, (b * rows, length, c))
        flat = self._with_class(flat, f"stage{stage_index}.{kind}", p)
        flat = self._encoder(flat, stage, kind, p)
        cls = nc.mean(nc.reshape(flat[:, 0, :], (b, rows, c)), axis=1)
        toks = nc.reshape(flat[:, 1:, :], (b, rows, length, c))
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
        """
        n = windows.shape[0]
        if n == 0:
            raise InputError(f"no windows to embed: input has shape {windows.shape}")
        return np.concatenate([self.embed_batch(windows[s : s + EMBED_CHUNK]).data
                               for s in range(0, n, EMBED_CHUNK)], axis=0)
