"""Network structure and behavior: token/width ledger, class-token wiring,
equivariances, ablation semantics, parameter counts, and gradient fidelity."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_parameters_tile_the_flat_buffer, random_windows, tiny_config

from gaitpt import numcore as nc
from gaitpt.errors import ConfigError, InputError, ShapeError
from gaitpt.model import (
    GaitPTConfig,
    GaitPTModel,
    joint_merge,
)
from gaitpt.numcore import Tensor
from gaitpt.skeleton import PartitionScheme
from gaitpt.training import triplet_loss


def tiny_model(seed=0, **overrides):
    return GaitPTModel(tiny_config(**overrides), seed=seed)


def zero_positional(model, *kinds):
    """Zero the positional tables of the `kinds` encoders ("spatial",
    "temporal") in place, so those encoders see no token order."""
    for name, p in model.params.items():
        if name.endswith(".pos") and name.split(".")[1] in kinds:
            p.value.data[...] = 0
    return model


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_default_config_ledger():
    cfg = GaitPTConfig.build()
    model = GaitPTModel(cfg, seed=0)
    trace = []
    x = random_windows(1, cfg.sequence_length, dtype=np.float32)
    emb = model.embed_batch(x, trace=trace)
    assert [(t, c) for _, t, c in trace] == [(18, 32), (5, 64), (3, 128), (1, 256)]
    assert emb.shape == (1, 256)


def test_default_param_count_in_band():
    model = GaitPTModel(GaitPTConfig.build(), seed=0)
    assert 2_000_000 <= model.param_count() <= 8_000_000


def test_param_count_matches_hand_count_on_toy_config():
    cfg = GaitPTConfig.build(dims=(4, 4, 4, 4), blocks=1, heads=1,
                             sequence_length=3, output_dim=5)
    model = GaitPTModel(cfg, seed=0)

    c = 4
    block = 2 * c + 4 * (c * c + c) + 2 * c + (c * 4 * c + 4 * c) + (4 * c * c + c)
    encoder = c + block            # class token + one block
    positional = c * ((18 + 1) + (5 + 1) + (3 + 1))  # spatial tables of stages 1-3
    positional += 4 * c * (3 + 1)                    # temporal tables, 3 frames + class
    input_proj = 2 * c + c
    merge1 = (6 * c * c + c) + 4 * (3 * c * c + c)   # head group + 4 limbs
    merge2 = (1 * c * c + c) + 2 * (2 * c * c + c)   # HUL: head, arms, legs
    merge3 = 3 * c * c + c
    encoders = 7 * encoder          # spatial+temporal for stages 1-3, temporal for 4
    head = (7 * c) * 5 + 5
    expected = input_proj + merge1 + merge2 + merge3 + encoders + positional + head
    assert model.param_count() == expected


def test_doubling_dims_roughly_quadruples_matrix_weights():
    small = GaitPTModel(tiny_config(), seed=0)
    big = GaitPTModel(tiny_config(dims=(16, 32, 64, 128), output_dim=64), seed=0)

    def matrix_weights(m):
        return sum(p.value.size for p in m.params.values() if p.value.ndim == 2)

    ratio = matrix_weights(big) / matrix_weights(small)
    assert 3.0 < ratio < 4.5


def test_embedding_is_unit_norm_and_deterministic():
    model = tiny_model()
    x = random_windows(3, 20, dtype=np.float32)
    e1 = model.embed_batch(x).data
    e2 = model.embed_batch(x.copy()).data
    assert np.allclose(np.linalg.norm(e1, axis=1), 1.0, atol=1e-6)
    assert np.array_equal(e1, e2)


def test_forward_finite_on_all_zero_input():
    model = tiny_model()
    emb = model.embed_batch(np.zeros((1, 20, 18, 2)))
    assert np.isfinite(emb.data).all()


def test_forward_rejects_wrong_frame_count():
    model = tiny_model()
    with pytest.raises(InputError):
        model.embed_batch(random_windows(1, 21))
    with pytest.raises(InputError):
        model.embed_batch(np.zeros((1, 20, 17, 2)))


def test_forward_and_stages_reject_a_window_without_batch_axis():
    model = tiny_model()
    with pytest.raises(InputError, match=r"got \(20, 18, 2\)"):
        model.embed_batch(random_windows(1, 20)[0])
    for stage in (model.spatial_attention_stage, model.temporal_attention_stage):
        with pytest.raises(ShapeError, match=r"got \(20, 18, 8\)"):
            stage(np.zeros((20, 18, 8), dtype=np.float32), 1)


def test_all_scheme_only_changes_stage3_tokens():
    hul, all_ = [], []
    x = random_windows(1, 20, dtype=np.float32)
    GaitPTModel(tiny_config(), seed=0).embed_batch(x, trace=hul)
    GaitPTModel(tiny_config(scheme="ALL"), seed=0).embed_batch(x, trace=all_)
    assert [(t, c) for _, t, c in hul] == [(18, 8), (5, 16), (3, 32), (1, 64)]
    assert [(t, c) for _, t, c in all_] == [(18, 8), (5, 16), (7, 32), (1, 64)]


# ---------------------------------------------------------------------------
# stage ops
# ---------------------------------------------------------------------------

def one_window(stage, feat, stage_index):
    """`stage` run on `feat` (frames, tokens, C) as a batch of one; returns
    that window's token outputs and class output."""
    out, cls = stage(np.asarray(feat)[None], stage_index)
    return out[0], cls[0]


def test_spatial_stage_rejected_on_body_level():
    model = tiny_model()
    with pytest.raises(ConfigError):
        model.spatial_attention_stage(np.zeros((1, 20, 1, 64), dtype=np.float32), 4)


def test_spatial_stage_is_frame_independent():
    model = tiny_model()
    rng = np.random.default_rng(3)
    feat = rng.normal(size=(4, 18, 8)).astype(np.float32)
    out, cls = one_window(model.spatial_attention_stage, feat, 1)
    perm = np.array([2, 0, 3, 1])
    out_p, cls_p = one_window(model.spatial_attention_stage, feat[perm], 1)
    assert np.allclose(out_p.data, out.data[perm], atol=1e-6)
    assert np.allclose(cls_p.data, cls.data, atol=1e-6)


def test_spatial_stage_token_permutation_equivariance_without_pos():
    model = zero_positional(tiny_model(), "spatial")
    rng = np.random.default_rng(4)
    feat = rng.normal(size=(3, 18, 8)).astype(np.float64)
    out, cls = one_window(model.spatial_attention_stage, feat, 1)
    perm = rng.permutation(18)
    out_p, cls_p = one_window(model.spatial_attention_stage, feat[:, perm], 1)
    assert np.allclose(out_p.data, out.data[:, perm], atol=1e-9)
    assert np.allclose(cls_p.data, cls.data, atol=1e-9)


def test_temporal_stage_single_frame_is_finite():
    model = tiny_model()
    out, cls = one_window(model.temporal_attention_stage, np.zeros((1, 18, 8), dtype=np.float32), 1)
    assert out.shape == (1, 18, 8) and np.isfinite(out.data).all()
    assert np.isfinite(cls.data).all()


def test_temporal_stage_token_stream_independence():
    model = tiny_model()
    rng = np.random.default_rng(5)
    feat = rng.normal(size=(6, 18, 8)).astype(np.float32)
    out, cls = one_window(model.temporal_attention_stage, feat, 1)
    perm = rng.permutation(18)
    out_p, cls_p = one_window(model.temporal_attention_stage, feat[:, perm], 1)
    assert np.allclose(out_p.data, out.data[:, perm], atol=1e-5)
    assert np.allclose(cls_p.data, cls.data, atol=1e-5)


def test_temporal_stage_time_reversal_without_pos():
    model = zero_positional(tiny_model(), "temporal")
    rng = np.random.default_rng(6)
    feat = rng.normal(size=(7, 18, 8)).astype(np.float64)
    out, cls = one_window(model.temporal_attention_stage, feat, 1)
    out_r, cls_r = one_window(model.temporal_attention_stage, feat[::-1], 1)
    assert np.allclose(out_r.data, out.data[::-1], atol=1e-9)
    assert np.allclose(cls_r.data, cls.data, atol=1e-9)


def test_joint_merge_counts_and_passthrough():
    rng = np.random.default_rng(7)
    model = tiny_model()
    feat = Tensor(rng.normal(size=(2, 20, 18, 8)).astype(np.float32))
    merged = model._merge(feat, 1, model.parameter_values())
    assert merged.shape == (2, 20, 5, 16)

    # identity projection on singleton groups passes tokens through
    plan = ((0,), (1,))
    eye = Tensor(np.eye(3))
    zero = Tensor(np.zeros(3))
    x = Tensor(rng.normal(size=(1, 4, 2, 3)))
    out = joint_merge(x, plan, [(eye, zero), (eye, zero)])
    assert np.allclose(out.data, x.data, atol=1e-12)


def test_joint_merge_rejects_non_cover_and_repeats():
    x = Tensor(np.zeros((1, 2, 3, 4)))
    w = Tensor(np.zeros((4, 4)))
    b = Tensor(np.zeros(4))
    with pytest.raises(ConfigError):
        joint_merge(x, ((0, 1),), [(w, b)])            # token 2 uncovered
    with pytest.raises(ConfigError):
        joint_merge(x, ((0, 0), (1, 2)), [(w, b), (w, b)])  # repeated member


def test_joint_merge_refuses_projections_of_unequal_width():
    """Concatenated on the channel axis, widths 4 and 8 would reshape into
    two tokens of width 6; the merge names the widths instead."""
    x = Tensor(np.ones((1, 2, 2, 3)))
    narrow = (Tensor(np.ones((3, 4))), Tensor(np.zeros(4)))
    wide = (Tensor(np.ones((3, 8))), Tensor(np.zeros(8)))
    with pytest.raises(ShapeError, match=r"unequal output widths \[4, 8\]"):
        joint_merge(x, ((0,), (1,)), [narrow, wide])


def test_hul_stage2_merge_gives_three_double_width_tokens():
    cfg = GaitPTConfig.build()  # default 32/64/128/256
    model = GaitPTModel(cfg, seed=0)
    rng = np.random.default_rng(8)
    feat = Tensor(rng.normal(size=(1, 30, 5, 64)).astype(np.float32))
    out = model._merge(feat, 2, model.parameter_values())
    assert out.shape == (1, 30, 3, 128)


# ---------------------------------------------------------------------------
# stage ablations
# ---------------------------------------------------------------------------

def test_with_stages_full_set_is_identity():
    cfg = tiny_config()
    assert replace(cfg, active_stages=(1, 2, 3, 4)) == cfg


def test_with_stages_stage4_only():
    model = GaitPTModel(replace(tiny_config(), active_stages={4}), seed=0)
    trace = []
    model.embed_batch(random_windows(1, 20, dtype=np.float32), trace=trace)
    assert [(t, c) for _, t, c in trace] == [(18, 8), (5, 16), (3, 32), (1, 64)]
    assert model.class_layout == [(4, "temporal", 64)]
    assert not any(".spatial." in name for name in model.params)


def test_with_stages_one_and_four():
    model = GaitPTModel(replace(tiny_config(), active_stages={1, 4}), seed=0)
    assert model.class_layout == [(1, "spatial", 8), (1, "temporal", 8), (4, "temporal", 64)]
    # merge projections persist for the skipped stages
    assert any(name.startswith("merge2.") for name in model.params)
    assert any(name.startswith("merge3.") for name in model.params)
    assert not any(name.startswith("stage2.") or name.startswith("stage3.") for name in model.params)


def test_with_stages_rejects_empty_or_unknown():
    with pytest.raises(ConfigError):
        replace(tiny_config(), active_stages=())
    with pytest.raises(ConfigError):
        replace(tiny_config(), active_stages={0, 1})


# ---------------------------------------------------------------------------
# relabeling invariance
# ---------------------------------------------------------------------------

def test_forward_invariant_to_within_group_relabeling_without_pos():
    # Swapping joints consistently in the input and in the merge plan's
    # member lists must not change the embedding (positional tables zeroed).
    model = zero_positional(GaitPTModel(tiny_config(dtype="float64"), seed=1), "spatial", "temporal")
    x = random_windows(2, 20)

    sigma = {i: i for i in range(18)}
    sigma.update({5: 9, 9: 5, 11: 15, 15: 11, 1: 3, 3: 1})  # swaps inside L_ARM, L_LEG, HEAD

    relabeled = copy.copy(model)
    relabeled.merge_plans = tuple(
        tuple(tuple(sigma[m] for m in group) for group in plan) if stage == 0 else plan
        for stage, plan in enumerate(model.merge_plans)
    )
    x_p = x.copy()
    for src, dst in sigma.items():
        x_p[:, :, dst] = x[:, :, src]

    base = model.embed_batch(x).data
    moved = relabeled.embed_batch(x_p).data
    assert np.allclose(base, moved, atol=1e-9)


# ---------------------------------------------------------------------------
# gradients through the whole network
# ---------------------------------------------------------------------------

def test_triplet_loss_gradient_matches_finite_differences():
    cfg = tiny_config(sequence_length=4, dtype="float64")
    model = GaitPTModel(cfg, seed=2)
    x = random_windows(3, 4)

    def f(xt):
        emb = model.embed_batch(xt)
        return triplet_loss(emb[0], emb[1], emb[2], margin=0.1)

    report = nc.grad_check(f, Tensor(x), h=1e-5, tol=1e-4)
    assert report.passed, f"max_rel_err={report.max_rel_err:.3e}"


def test_flat_parameter_gradcheck():
    cfg = tiny_config(sequence_length=4, dtype="float64")
    model = GaitPTModel(cfg, seed=3)
    x = random_windows(1, 4)

    def f(theta):
        emb = model.embed_batch(Tensor(x), params=model.params_from_flat(theta))
        return nc.tensor_sum(nc.mul(emb, emb + 0.5))

    report = nc.grad_check(f, model.flat_parameters(), tol=1e-5,
                           sample=48, rng=np.random.default_rng(0))
    assert report.passed, f"max_rel_err={report.max_rel_err:.3e}"


def test_flat_parameters_through_grad_check_leave_the_parameters_unchanged():
    """`flat_parameters()` is a view of the parameter buffer; `grad_check`
    perturbs a copy of it, as `gaitpt gradcheck` does."""
    model = GaitPTModel(tiny_config(sequence_length=4, dtype="float64"), seed=3)
    before = {name: p.value.data.copy() for name, p in model.params.items()}
    flat = model.flat_parameters()
    x = random_windows(1, 4)

    def f(theta):
        return nc.tensor_sum(model.embed_batch(Tensor(x), params=model.params_from_flat(theta)))

    nc.grad_check(f, flat, sample=8, rng=np.random.default_rng(0))
    assert np.shares_memory(flat.data, model.params["head.w"].value.data)
    for name, p in model.params.items():
        assert p.value.data.tobytes() == before[name].tobytes(), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_built_parameters_are_views_into_one_buffer(dtype):
    model = tiny_model(dtype=dtype)
    assert_parameters_tile_the_flat_buffer(model)
    assert model.param_count() == model.flat_parameters().size
    assert [(name, shape) for name, _, shape in model.layout] == [
        (name, p.shape) for name, p in model.params.items()]


def test_config_normalises_its_fields_and_derives_stages():
    cfg = GaitPTConfig(dims=[8, 16, 32, 64], blocks=1, heads=[2, 2, 4, 4],
                       active_stages={4, 1, 1}, scheme="HLR")
    assert (cfg.dims, cfg.blocks, cfg.heads) == ((8, 16, 32, 64), (1,) * 4, (2, 2, 4, 4))
    assert cfg.active_stages == (1, 4) and cfg.scheme is PartitionScheme.HLR
    assert [(s.index, s.dim, s.blocks, s.heads, s.active) for s in cfg.stages] == [
        (1, 8, 1, 2, True), (2, 16, 1, 2, False), (3, 32, 1, 4, False), (4, 64, 1, 4, True)]
    assert replace(cfg, active_stages=[1, 4]) == cfg
    assert GaitPTConfig(**cfg.to_dict()) == cfg
    with pytest.raises(TypeError):
        GaitPTConfig(stages=cfg.stages)


def test_untaped_forward_does_not_track_gradients():
    model = tiny_model()
    x = random_windows(2, 20)
    assert not model.embed_batch(x).requires_grad
    with nc.GradTape():
        assert model.embed_batch(x).requires_grad


# ---------------------------------------------------------------------------
# batch-invariant inference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_embed_arrays_is_batch_invariant(dtype):
    # a window's embedding must be bitwise the same alone, at any position
    # of a smaller set, and inside the full set (criterion-6 model)
    cfg = GaitPTConfig.build(dims=(16, 32, 64, 128), blocks=1, heads=2,
                             sequence_length=20, output_dim=32, dtype=dtype)
    model = GaitPTModel(cfg, seed=0)
    rng = np.random.default_rng(1)
    windows = random_windows(66, 20, rng, dtype=cfg.np_dtype)
    full = model.embed_arrays(windows)
    assert full.shape == (66, 32) and full.dtype == cfg.np_dtype
    for n in (1, 2, 5, 8, 9, 66):
        order = rng.permutation(66)
        for start in (0, 29, 61):
            idx = np.take(order, range(start, start + n), mode="wrap")
            assert np.array_equal(model.embed_arrays(windows[idx]), full[idx]), (n, start)


@pytest.mark.parametrize("n, batches", [(1, [1]), (9, [8, 1]), (17, [8, 8, 1])])
def test_embed_arrays_runs_no_padded_window_through_the_pyramid(monkeypatch, n, batches):
    model = tiny_model()
    seen, embed_batch = [], model.embed_batch

    def spy(x, *args, **kwargs):
        seen.append(len(x))
        return embed_batch(x, *args, **kwargs)

    monkeypatch.setattr(model, "embed_batch", spy)
    assert model.embed_arrays(random_windows(n, 20, dtype=np.float32)).shape == (n, 32)
    assert seen == batches


def test_embed_arrays_rejects_zero_windows():
    with pytest.raises(InputError, match=r"\(0, 20, 18, 2\)"):
        tiny_model().embed_arrays(np.zeros((0, 20, 18, 2), dtype=np.float32))


def test_config_validation():
    with pytest.raises(ConfigError):
        GaitPTConfig.build(dims=(8, 16, 32))
    with pytest.raises(ConfigError):
        GaitPTConfig.build(heads=3)       # 32 % 3 != 0... dims[0]=32 default
    with pytest.raises(ConfigError):
        GaitPTConfig.build(output_dim=0)
    with pytest.raises(ConfigError):
        GaitPTConfig.build(dtype="float16")
    with pytest.raises(ConfigError):
        GaitPTConfig.build(active_stages=())
