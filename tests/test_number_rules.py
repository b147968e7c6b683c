"""One rule per number kind: every real-valued config field and argument
refuses a bool, a numpy bool and a numeric string, naming itself, and treats
a numpy float exactly as the Python float it equals; the integer arguments
refuse a bool, a fraction and a string."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from gaitpt import dataio
from gaitpt.errors import ConfigError, InputError
from gaitpt.model import GaitPTConfig
from gaitpt.numcore import Parameter, Tensor
from gaitpt.skeleton import Condition, GaitSequence, normalize_sequence
from gaitpt.synthgait import IdentityParams, SynthConfig, generate_sequence, sample_identity
from gaitpt.training import OptimizerState, TrainConfig, adamw_step, cyclic_lr

IDENTITY = sample_identity(np.random.default_rng(0))
SEQUENCE = GaitSequence("s", Condition.NM, 0, 1, np.ones((3, 18, 2)))
ADAMW = {"lr": 0.1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.3}


def _run_config(name):  # the run-config reader, whose ConfigError exits 2
    return lambda value: getattr(dataio.config_from_dict({"train": {name: value}}).train, name)


def _synth(name):
    return lambda value: getattr(SynthConfig(**{name: value}), name)


def _identity(name):
    return lambda value: getattr(replace(IDENTITY, **{name: value}), name)


def _normalize(value):
    return normalize_sequence(SEQUENCE, value)


def _adamw(name):
    """The bytes of parameters and moments after three float32 steps."""
    def steps(value):
        rng = np.random.default_rng(0)
        params = {"w": Parameter("w", Tensor(rng.standard_normal(64).astype(np.float32)))}
        grads = {"w": rng.standard_normal(64).astype(np.float32)}
        state = OptimizerState.for_params(params)
        for _ in range(3):
            adamw_step(params, grads, state, **{**ADAMW, name: value})
        return b"".join(a.tobytes() for a in (params["w"].value.data, state.m["w"], state.v["w"]))
    return steps


# (id, call, name in the message, error, a valid value, its numpy type or
# None where nothing keeps the value to compare)
REALS = [
    *((f"train.{n}", _run_config(n), n, ConfigError, getattr(TrainConfig(), n), np.float32)
      for n in ("margin", "lr_min", "lr_max", "gamma", "weight_decay", "beta1", "beta2", "eps")),
    *((f"synth.{n}", _synth(n), n, ConfigError, getattr(SynthConfig(), n), np.float32)
      for n in ("noise_level", "train_fraction")),
    *((f"identity.{f.name}", _identity(f.name), f.name, InputError, getattr(IDENTITY, f.name), np.float32)
      for f in fields(IdentityParams)),
    ("normalize_sequence", _normalize, "frame_width", InputError, 640.0, None),
    # a float64 scalar, unlike a Python float, would round the float32 update
    *((f"adamw.{n}", _adamw(n), "learning rate" if n == "lr" else n, ConfigError, v, np.float64)
      for n, v in ADAMW.items()),
]

INTEGERS = [
    ("generate_sequence.frames", "frames must be an integer >= 1", InputError,
     lambda v: generate_sequence(IDENTITY, 90, Condition.NM, v, np.random.default_rng(0))),
    ("cyclic_lr.iteration", "iteration must be an integer >= 0", InputError,
     lambda v: cyclic_lr(v, TrainConfig())),
]

CASES = [
    *(pytest.param(call, f"{name} must be a number", error, bad, id=f"{label}={bad!r}")
      for label, call, name, error, good, _ in REALS
      for bad in (True, False, np.True_, str(good))),
    *(pytest.param(call, None, None, numpy(good), id=f"{label}={numpy.__name__}")
      for label, call, _, _, good, numpy in REALS if numpy is not None),
    *(pytest.param(call, message, error, bad, id=f"{label}={bad!r}")
      for label, message, error, call in INTEGERS for bad in (True, 2.5, "3")),
]


@pytest.mark.parametrize("call, message, error, value", CASES)
def test_number_rules(call, message, error, value):
    if error is None:  # a numpy float acts, and is kept, as the Python float it equals
        got, want = call(value), call(float(value))
        assert type(got) is type(want) and got == want
    else:
        with pytest.raises(error, match=f"^{message}, got "):
            call(value)


def test_numpy_float_margin_is_stored_as_a_float_and_serializes():
    cfg = TrainConfig(margin=np.float32(0.02))
    assert type(cfg.margin) is float and cfg.margin == float(np.float32(0.02))
    text = json.dumps(dataio.RunConfig(model=GaitPTConfig(), train=cfg).to_dict())
    assert json.loads(text)["train"]["margin"] == cfg.margin
