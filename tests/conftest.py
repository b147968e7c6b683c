"""Shared builders for the test suite: tiny model configs and small
synthetic datasets that keep every test fast."""

import os

import numpy as np
import pytest

from gaitpt import numcore as nc
from gaitpt.model import GaitPTConfig
from gaitpt.skeleton import Condition
from gaitpt.synthgait import SynthConfig, generate_split_sequences
from gaitpt.training import TrainConfig


def tiny_config(**overrides) -> GaitPTConfig:
    base = dict(
        dims=(8, 16, 32, 64), blocks=1, heads=2,
        sequence_length=20, output_dim=32,
    )
    base.update(overrides)
    return GaitPTConfig.build(**base)


def fast_train_config(**overrides) -> TrainConfig:
    base = dict(p=4, k=2, epochs=2, seed=0, micro_batch=4)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_splits(identities=6, sequences_per_identity=4, frames=40, views=(0, 90),
                conditions=(Condition.NM,), seed=0, noise_level=0.004,
                train_fraction=0.5):
    cfg = SynthConfig(
        identities=identities,
        sequences_per_identity=sequences_per_identity,
        frames=frames,
        views=views,
        conditions=conditions,
        seed=seed,
        noise_level=noise_level,
        train_fraction=train_fraction,
    )
    return generate_split_sequences(cfg)


def random_windows(batch, frames, rng=None, dtype=np.float64):
    rng = rng or np.random.default_rng(0)
    return rng.uniform(0.0, 1.0, size=(batch, frames, 18, 2)).astype(dtype)


def assert_parameters_tile_the_flat_buffer(model):
    """Every parameter is a view into `model.flat_parameters()`, in table
    order, and together they cover it."""
    flat = model.flat_parameters().data
    start = 0
    for p in model.params.values():
        data = p.value.data
        assert data.dtype == flat.dtype and np.shares_memory(data, flat), p.name
        assert data.ctypes.data == flat.ctypes.data + start * flat.itemsize, p.name
        start += data.size
    assert start == flat.size


@pytest.fixture
def worker(monkeypatch):
    """Turns on numcore's worker thread, which replays tapes for
    `backward_from` and runs half of each `encoder_blocks` call, whatever
    the environment, and yields it."""
    pool = nc._pool()
    monkeypatch.setattr(nc, "_WORKER", pool)
    yield pool
    pool.shutdown()


@pytest.fixture
def forks(monkeypatch):
    """Records the pid of each child this process forks, and yields the
    list."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
