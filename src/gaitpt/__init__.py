"""Skeleton-based gait recognition with a hierarchical spatio-temporal
attention pyramid, built on an in-package reverse-mode autodiff engine.

Subpackage map:

    numcore     tensors, autodiff tape, attention primitives, grad_check
    skeleton    sequence type, limb groups, partition schemes
    model       the pyramid network and its configuration
    training    triplet loss, batch-hard mining, AdamW, cyclic LR, train loop
    evaluation  rank-K / cross-view protocols, Welch's t-test, Pearson r
    synthgait   parametric synthetic walker generator
    dataio      sequence records, manifests, checkpoints, run configs
    cli         command-line entry point
"""

from .errors import (
    ConfigError,
    DataFormatError,
    GaitError,
    InputError,
    IntegrityError,
    NumericError,
    ProtocolError,
    SamplingError,
    ShapeError,
    StatisticsError,
)
from .model import GaitPTConfig, GaitPTModel, StageConfig
from .numcore import GradTape, Parameter, Tensor, backward, grad_check
from .skeleton import LIMB_GROUPS, Condition, GaitSequence, PartitionScheme

__version__ = "0.1.0"

__all__ = [
    "LIMB_GROUPS",
    "Condition",
    "ConfigError",
    "DataFormatError",
    "GaitError",
    "GaitPTConfig",
    "GaitPTModel",
    "GaitSequence",
    "GradTape",
    "InputError",
    "IntegrityError",
    "NumericError",
    "Parameter",
    "PartitionScheme",
    "ProtocolError",
    "SamplingError",
    "ShapeError",
    "StageConfig",
    "StatisticsError",
    "Tensor",
    "backward",
    "grad_check",
]
