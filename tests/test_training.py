"""Triplet loss, batch-hard mining, AdamW, the cyclic schedule, and the
training loop's determinism and learning behavior."""

import functools
import inspect
import io
import math
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import (
    assert_parameters_tile_the_flat_buffer, fast_train_config, random_windows, tiny_config, tiny_splits,
)

from gaitpt import numcore as nc
from gaitpt.dataio import config_from_dict
from gaitpt.errors import ConfigError, NumericError, SamplingError, ShapeError
from gaitpt.model import GaitPTModel
from gaitpt.numcore import GradTape, Parameter, Tensor
from gaitpt.training import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    batch_hard_mine,
    cyclic_lr,
    euclidean_distance,
    pairwise_distances,
    _train_step,
    train,
    triplet_loss,
)


# ---------------------------------------------------------------------------
# triplet loss
# ---------------------------------------------------------------------------

def test_triplet_loss_direct_evaluation():
    a, p, n = np.array([0.0]), np.array([0.5]), np.array([0.1])
    loss = triplet_loss(a, p, n, margin=0.02)
    assert math.isclose(loss.item(), 0.42, rel_tol=1e-12)


def test_triplet_loss_hinges_at_zero():
    a, p, n = np.array([0.0]), np.array([0.1]), np.array([0.5])
    assert triplet_loss(a, p, n, margin=0.02).item() == 0.0


def test_triplet_loss_degenerate_triplet_equals_margin():
    v = np.array([0.3, -0.2, 0.9])
    assert triplet_loss(v, v, v, margin=0.02).item() == 0.02


def test_triplet_loss_batched_mean():
    a = np.zeros((2, 1))
    p = np.array([[0.5], [0.3]])
    n = np.array([[0.1], [0.1]])
    loss = triplet_loss(a, p, n, margin=0.02)
    assert math.isclose(loss.item(), ((0.5 - 0.1 + 0.02) + (0.3 - 0.1 + 0.02)) / 2, rel_tol=1e-12)


def test_triplet_loss_rejects_dim_mismatch():
    with pytest.raises(ShapeError):
        triplet_loss(np.zeros(3), np.zeros(4), np.zeros(3))


def test_triplet_loss_nonnegative_and_zero_condition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, p, n = rng.normal(size=(3, 6))
        m = float(rng.uniform(0.0, 0.5))
        loss = triplet_loss(a, p, n, margin=m).item()
        assert loss >= 0.0
        d_ap = np.linalg.norm(a - p)
        d_an = np.linalg.norm(a - n)
        assert (loss == 0.0) == (d_an >= d_ap + m)


def test_identical_embeddings_give_zero_gradient_at_zero_margin():
    # loss 0 at the hinge corner -> subgradient 0 -> no parameter motion
    v = Tensor(np.array([0.3, 0.7]), requires_grad=True)
    with GradTape():
        loss = triplet_loss(v, v, v, margin=0.0)
        assert loss.item() == 0.0
        nc.backward(loss)
    assert np.allclose(v.grad.data, 0.0)


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------

def brute_force_mine(embeddings, labels):
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = list(labels)
    out = []
    for i in range(len(labels)):
        d = [float(np.linalg.norm(emb[i] - emb[j])) for j in range(len(labels))]
        pos = [(d[j], j) for j in range(len(labels)) if labels[j] == labels[i] and j != i]
        neg = [(d[j], j) for j in range(len(labels)) if labels[j] != labels[i]]
        hardest_pos = max(pos, key=lambda t: (t[0], -t[1]))[1]
        hardest_neg = min(neg, key=lambda t: (t[0], t[1]))[1]
        out.append((i, hardest_pos, hardest_neg))
    return out


def test_mining_two_identities_matches_exhaustive_search():
    emb = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [4.5, 0.0]])
    labels = ["a", "a", "b", "b"]
    assert batch_hard_mine(emb, labels)[0] == brute_force_mine(emb, labels)


def test_mining_identical_embeddings_yields_valid_triplets():
    emb = np.zeros((4, 3))
    labels = ["a", "a", "b", "b"]
    for a, p, n in batch_hard_mine(emb, labels)[0]:
        assert labels[a] == labels[p] and a != p
        assert labels[a] != labels[n]
        assert triplet_loss(emb[a], emb[p], emb[n], margin=0.02).item() == 0.02


def test_mining_matches_brute_force_on_random_batches():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_labels = rng.integers(2, 5)
        counts = rng.integers(2, 5, size=n_labels)
        labels = [f"id{i}" for i, c in enumerate(counts) for _ in range(c)]
        emb = rng.normal(size=(len(labels), rng.integers(2, 6)))
        assert batch_hard_mine(emb, labels)[0] == brute_force_mine(emb, labels)


def test_mining_hardest_negative_property():
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(12, 4))
    labels = ["a", "a", "a", "b", "b", "b", "c", "c", "c", "d", "d", "d"]
    d = pairwise_distances(emb)
    for a, _, n in batch_hard_mine(emb, labels)[0]:
        others = [d[a, j] for j in range(12) if labels[j] != labels[a]]
        assert d[a, n] <= min(others) + 1e-12


def test_mining_returns_the_distance_matrix_it_mined():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(8, 5)).astype(np.float32)
    labels = ["a", "a", "b", "b", "c", "c", "d", "d"]
    triplets, d = batch_hard_mine(emb, labels)
    assert d.dtype == np.float64
    assert d.tobytes() == pairwise_distances(emb.astype(np.float64)).tobytes()
    assert triplets == brute_force_mine(emb, labels)


def test_mining_preconditions_name_the_offender():
    with pytest.raises(SamplingError, match="id1"):
        batch_hard_mine(np.zeros((3, 2)), ["id0", "id0", "id1"])
    with pytest.raises(SamplingError):
        batch_hard_mine(np.zeros((3, 2)), ["solo", "solo", "solo"])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def make_params(values):
    return {name: Parameter(name, Tensor(np.asarray(v, dtype=np.float64)))
            for name, v in values.items()}


def test_adamw_zero_gradient_keeps_parameters():
    params = make_params({"w": [1.0, -2.0]})
    state = OptimizerState.for_params(params)
    adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.0)
    assert np.array_equal(params["w"].value.data, [1.0, -2.0])


def test_adamw_pure_decay():
    params = make_params({"w": [1.0, -2.0]})
    state = OptimizerState.for_params(params)
    adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.5)
    assert np.allclose(params["w"].value.data, np.array([1.0, -2.0]) * (1 - 0.1 * 0.5))


def test_adamw_first_step_is_signed_unit_step():
    params = make_params({"w": [0.0]})
    state = OptimizerState.for_params(params)
    adamw_step(params, {"w": np.array([3.7])}, state, lr=0.01)
    # bias correction makes m_hat / sqrt(v_hat) = sign(g) up to eps
    assert np.allclose(params["w"].value.data, [-0.01], atol=1e-6)
    params2 = make_params({"w": [0.0]})
    state2 = OptimizerState.for_params(params2)
    adamw_step(params2, {"w": np.array([-0.2])}, state2, lr=0.01)
    assert np.allclose(params2["w"].value.data, [0.01], atol=1e-6)


def test_adamw_descends_a_quadratic():
    params = make_params({"w": [5.0, -3.0]})
    state = OptimizerState.for_params(params)
    for _ in range(200):
        w = params["w"].value.data
        adamw_step(params, {"w": 2.0 * w}, state, lr=0.05)
    assert np.linalg.norm(params["w"].value.data) < 0.5


def test_adamw_rejects_a_gradient_of_another_dtype():
    params = {"a": Parameter("a", Tensor(np.ones(2, dtype=np.float32))),
              "w": Parameter("w", Tensor(np.ones(3, dtype=np.float32)))}
    state = OptimizerState.for_params(params)
    with pytest.raises(ShapeError, match="gradient for w has dtype float64, parameter float32"):
        adamw_step(params, {"a": np.ones(2, dtype=np.float32), "w": np.ones(3)}, state, lr=0.1)
    assert all(np.array_equal(p.value.data, np.ones(p.shape, dtype=np.float32)) for p in params.values())
    assert state.step == 0 and not state.m["a"].any()


@pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -0.1])
def test_adamw_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    params = make_params({"w": [1.0, -2.0]})
    state = OptimizerState.for_params(params)
    with pytest.raises(ConfigError, match="learning rate must be finite and > 0"):
        adamw_step(params, {"w": np.ones(2)}, state, lr=lr)
    assert np.array_equal(params["w"].value.data, [1.0, -2.0])
    assert state.step == 0


@pytest.mark.parametrize("name, value", [
    ("beta1", math.nan), ("beta1", 1.0), ("beta1", -0.1), ("beta2", math.nan), ("beta2", 1.0),
    ("eps", math.nan), ("eps", 0.0), ("eps", -1.0),
    ("weight_decay", math.nan), ("weight_decay", -1.0), ("weight_decay", math.inf),
])
def test_adamw_rejects_hyperparameters_train_config_rejects(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be"):
        TrainConfig(**{name: value})
    params = make_params({"w": [1.0, -2.0]})
    state = OptimizerState.for_params(params)
    adamw_step(params, {"w": np.ones(2)}, state, lr=0.1)
    before = (params["w"].value.data.copy(), state.m["w"].copy(), state.v["w"].copy())
    with pytest.raises(ConfigError, match=f"{name} must be"):
        adamw_step(params, {"w": np.ones(2)}, state, lr=0.1, **{name: value})
    after = (params["w"].value.data, state.m["w"], state.v["w"])
    assert all(np.array_equal(b, a) for b, a in zip(before, after))
    assert state.step == 1


def test_adamw_moment_shapes_track_parameters():
    params = make_params({"a": np.zeros((2, 3)), "b": np.zeros(4)})
    state = OptimizerState.for_params(params)
    assert state.m["a"].shape == (2, 3) and state.v["b"].shape == (4,)


# ---------------------------------------------------------------------------
# cyclic schedule
# ---------------------------------------------------------------------------

def test_cyclic_lr_starts_at_minimum():
    cfg = TrainConfig()
    assert cyclic_lr(0, cfg) == 1e-4


def test_cyclic_lr_peak_value():
    cfg = TrainConfig()
    expected = 1e-4 + (1e-2 - 1e-4) * 0.995 ** 15
    assert math.isclose(cyclic_lr(15, cfg), expected, rel_tol=1e-12)


def test_cyclic_lr_amplitude_decays_to_minimum():
    cfg = TrainConfig()
    assert cyclic_lr(15 * 401, cfg) < 1e-4 + 1e-6  # odd multiple of the half-cycle: a peak


def test_cyclic_lr_stays_in_band():
    cfg = TrainConfig()
    values = [cyclic_lr(i, cfg) for i in range(0, 500)]
    assert all(cfg.lr_min <= v <= cfg.lr_max for v in values)
    assert max(values) > 5e-3  # early peaks actually approach lr_max


def test_euclidean_distance_values():
    d = euclidean_distance(Tensor(np.array([0.0, 0.0])), Tensor(np.array([3.0, 4.0])))
    assert d.item() == 5.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_reduces_loss_on_synthetic_identities():
    splits = tiny_splits(identities=4, sequences_per_identity=4, frames=30, views=(90,), seed=5)
    model = GaitPTModel(tiny_config(), seed=0)
    log = train(model, splits["train"] + splits["probe"], fast_train_config(epochs=4, seed=3),
                log_stream=io.StringIO())
    assert log[-1]["mean_loss"] < log[0]["mean_loss"]
    assert set(log[0]) == {"epoch", "lr", "mean_loss", "active_triplets"}


def test_train_is_bitwise_reproducible():
    splits = tiny_splits(identities=4, sequences_per_identity=4, frames=30, views=(90,), seed=6)
    data = splits["train"] + splits["probe"]

    def run():
        model = GaitPTModel(tiny_config(), seed=1)
        log = train(model, data, fast_train_config(epochs=2, seed=9), log_stream=io.StringIO())
        return log, {k: p.value.data.copy() for k, p in model.params.items()}

    log1, params1 = run()
    log2, params2 = run()
    assert log1 == log2
    assert all(np.array_equal(params1[k], params2[k]) for k in params1)


def test_training_updates_the_parameters_in_their_buffer():
    splits = tiny_splits(identities=4, sequences_per_identity=4, frames=30, views=(90,), seed=6)
    model = GaitPTModel(tiny_config(), seed=1)
    before = model.flat_parameters().data.copy()
    train(model, splits["train"] + splits["probe"], fast_train_config(epochs=1, steps_per_epoch=1),
          log_stream=io.StringIO())
    assert not np.array_equal(model.flat_parameters().data, before)
    assert_parameters_tile_the_flat_buffer(model)


def test_train_stops_at_a_non_finite_loss():
    splits = tiny_splits(identities=4, sequences_per_identity=4, frames=30, views=(90,), seed=6)
    model = GaitPTModel(tiny_config(), seed=1)
    model.params["head.b"].value.data[0] = np.nan
    before = {k: p.value.data.copy() for k, p in model.params.items()}
    with pytest.raises(NumericError, match="epoch 0 step 0: loss is nan"):
        train(model, splits["train"], fast_train_config(), log_stream=io.StringIO())
    for k, p in model.params.items():  # no optimizer step ran
        assert np.array_equal(p.value.data, before[k], equal_nan=True), k


def test_train_stops_at_non_finite_parameters():
    splits = tiny_splits(identities=4, sequences_per_identity=4, frames=30, views=(90,), seed=6)
    model = GaitPTModel(tiny_config(), seed=1)
    cfg = fast_train_config(lr_min=1e30, lr_max=1e35)  # the update overflows float32
    with pytest.raises(NumericError, match="epoch 0 step 0: parameter ") as info:
        train(model, splits["train"], cfg, log_stream=io.StringIO())
    bad = [k for k, p in model.params.items() if not np.isfinite(p.value.data).all()]
    assert f"parameter {bad[0]} is not finite" in str(info.value)


def _micro_batch_step(model, micro_batches, seed=0):
    """One `_train_step` of `model` over `micro_batches` micro-batches of 4
    windows, 2 per identity; returns its loss."""
    windows = random_windows(4 * micro_batches, model.config.sequence_length,
                             np.random.default_rng(seed), model.config.np_dtype)
    labels = [i // 2 for i in range(len(windows))]
    loss, _ = _train_step(model, windows, labels, fast_train_config(micro_batch=4),
                          OptimizerState.for_params(model.params), 1e-3, "step")
    return loss


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_train_step_is_bitwise_the_same_with_and_without_the_worker(monkeypatch, worker, dtype):
    after = []
    for pool in (None, worker):
        monkeypatch.setattr(nc, "_WORKER", pool)
        model = GaitPTModel(tiny_config(dtype=dtype), seed=3)
        _micro_batch_step(model, 3)
        after.append(model.flat_parameters().data.tobytes())
    assert after[0] == after[1]


def test_no_public_numcore_function_runs_off_the_main_thread(monkeypatch, worker):
    """perfbench's tracer keeps one span stack for all threads, so traced
    code must stay on the calling thread. Every public numcore function is
    wrapped as the tracer wraps it, under every name the package binds it
    to; only the private replays may run on the worker."""
    calls, replays = [], []

    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls.append((fn.__name__, threading.current_thread()))
            return fn(*args, **kwargs)
        return traced

    wrappers = {id(fn): wrap(fn) for attr, fn in vars(nc).items()
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == nc.__name__}
    for name, module in list(sys.modules.items()):
        if name == "gaitpt" or name.startswith("gaitpt."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    replay = nc._replay
    monkeypatch.setattr(nc, "_replay", lambda *pair: replays.append(threading.current_thread()) or replay(*pair))

    _micro_batch_step(GaitPTModel(tiny_config(), seed=0), 3)
    assert {"linear", "backward_from"} <= {name for name, _ in calls}
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert {thread is threading.main_thread() for thread in replays} == {True, False}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork start method, Linux")
def test_a_child_forked_after_a_step_with_the_worker_trains(worker):
    model = GaitPTModel(tiny_config(), seed=0)
    _micro_batch_step(model, 2)
    assert worker._threads
    with warnings.catch_warnings():  # Python 3.12 warns when a threaded process forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(60)  # a hung child dies rather than hang the suite
            fresh = nc._WORKER is not None and nc._WORKER is not worker
            status = 0 if fresh and math.isfinite(_micro_batch_step(model, 2, seed=1)) else 1
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_train_rejects_insufficient_identities():
    splits = tiny_splits(identities=2, sequences_per_identity=4, frames=30, views=(90,), seed=7)
    model = GaitPTModel(tiny_config(), seed=0)
    with pytest.raises(ConfigError):
        train(model, splits["train"], fast_train_config(), log_stream=io.StringIO())


def test_train_rejects_short_sequences():
    splits = tiny_splits(identities=4, sequences_per_identity=4, frames=10, views=(90,), seed=8)
    model = GaitPTModel(tiny_config(), seed=0)  # window 20 > 10 frames
    with pytest.raises(ConfigError):
        train(model, splits["train"], fast_train_config(), log_stream=io.StringIO())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(margin=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_min=0.1, lr_max=0.01)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(step_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(k=1)
    for key, value in (("distance", "euclidean"), ("hinge", True), ("scheduler_per", "epoch")):
        with pytest.raises(ConfigError, match=f"unknown config key: train.{key}$"):
            config_from_dict({"train": {key: value}})
