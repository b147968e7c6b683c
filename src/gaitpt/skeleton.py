"""Gait-sequence data model, limb-group merge hierarchy, partitioning
schemes, and sequence preprocessing.

Joint indices follow the 17-keypoint COCO convention (0 nose, 1/2 eyes,
3/4 ears, 5/6 shoulders, 7/8 elbows, 9/10 wrists, 11/12 hips, 13/14 knees,
15/16 ankles) plus index 17, a duplicated nose added at load time so the
head group and the four limbs tile all 18 joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import INT64, ConfigError, DataFormatError, InputError, checked_int, checked_real

JOINTS = 18
RAW_JOINTS = 17
NOSE = 0


class Condition(str, Enum):
    """Walking condition: normal, carrying a bag, wearing a coat."""

    NM = "NM"
    BG = "BG"
    CL = "CL"
    OTHER = "OTHER"


# Joints of the five limb tokens: head, left arm, right arm, left leg, right
# leg. The groups are disjoint and tile {0..17}; the head absorbs the
# duplicated nose, so counts come out 6+3+3+3+3. Hips belong to the legs.
LIMB_GROUPS = ((0, 1, 2, 3, 4, 17), (5, 7, 9), (6, 8, 10), (11, 13, 15), (12, 14, 16))

# Limb-token indices used by the partitioning schemes.
HEAD_TOKEN, L_ARM_TOKEN, R_ARM_TOKEN, L_LEG_TOKEN, R_LEG_TOKEN = range(5)


class PartitionScheme(Enum):
    """How the 5 limb tokens are grouped going into the limb-group level.

    HUL      head / upper body (both arms) / lower body (both legs)
    HLR      head / left side / right side
    OPPOSITE head / left arm + right leg / right arm + left leg
    ALL      the union of the distinct groups above (head deduplicated),
             which is an overlapping cover of the limbs, not a partition
    """

    HUL = "HUL"
    HLR = "HLR"
    OPPOSITE = "OPPOSITE"
    ALL = "ALL"

    @property
    def stage3_groups(self) -> tuple[tuple[int, ...], ...]:
        return _SCHEME_GROUPS[self]


_SCHEME_GROUPS = {
    PartitionScheme.HUL: ((HEAD_TOKEN,), (L_ARM_TOKEN, R_ARM_TOKEN), (L_LEG_TOKEN, R_LEG_TOKEN)),
    PartitionScheme.HLR: ((HEAD_TOKEN,), (L_ARM_TOKEN, L_LEG_TOKEN), (R_ARM_TOKEN, R_LEG_TOKEN)),
    PartitionScheme.OPPOSITE: ((HEAD_TOKEN,), (L_ARM_TOKEN, R_LEG_TOKEN), (R_ARM_TOKEN, L_LEG_TOKEN)),
}
_SCHEME_GROUPS[PartitionScheme.ALL] = _SCHEME_GROUPS[PartitionScheme.HUL] + tuple(
    g
    for scheme in (PartitionScheme.HLR, PartitionScheme.OPPOSITE)
    for g in _SCHEME_GROUPS[scheme]
    if g != (HEAD_TOKEN,)
)


@dataclass(frozen=True)
class GaitSequence:
    """A labeled time series of poses: frames has shape (n, 18, 2).

    `key` is fixed when the sequence is built: the on-disk record id when it
    was loaded from a file, otherwise `sequence_key` of its labels. Copies
    made with `replace` keep the key unless they pass a new one.
    """

    subject_id: str
    condition: Condition
    view: int
    session: int
    frames: np.ndarray = field(repr=False)
    key: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1:] != (JOINTS, 2):
            raise DataFormatError(
                f"sequence frames need shape (n, 18, 2) with n >= 1, got {arr.shape}"
            )
        object.__setattr__(self, "frames", arr)
        object.__setattr__(self, "condition", Condition(self.condition))
        for name in ("view", "session"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), *INT64, error=InputError))
        if self.key is None:
            key = sequence_key(self.subject_id, self.condition, self.view, self.session)
            object.__setattr__(self, "key", key)

    def __len__(self) -> int:
        return self.frames.shape[0]


def sequence_key(subject_id: str, condition: Condition, view: int, session: int) -> str:
    """Default id of a sequence built without a key of its own."""
    return f"{subject_id}-{condition.value}-v{view:03d}-{session:02d}"


def duplicate_nose(raw17) -> np.ndarray:
    """Extend 17-joint COCO poses (..., 17, 2) to 18 joints by appending a
    copy of the nose."""
    arr = np.asarray(raw17, dtype=np.float64)
    if arr.shape[-2:] != (RAW_JOINTS, 2):
        raise DataFormatError(f"expected 17-joint poses of shape (..., 17, 2), got {arr.shape}")
    return np.concatenate([arr, arr[..., NOSE : NOSE + 1, :]], axis=-2)


def normalize_sequence(seq: GaitSequence, frame_width: float) -> GaitSequence:
    """Divide both coordinates of every joint by the frame width."""
    width = checked_real("frame_width", frame_width, "finite and > 0", lambda v: 0 < v < math.inf, InputError)
    return replace(seq, frames=seq.frames / width)


def sample_window(seq: GaitSequence, length: int, rng: np.random.Generator) -> np.ndarray:
    """The frames of a `length`-frame contiguous window, a view of
    `seq.frames`, whose start is drawn uniformly from `rng`. Sequences
    shorter than `length` are an error; drop them first."""
    n = len(seq)
    if n < length:
        raise InputError(f"sequence has {n} frames, shorter than window {length}")
    start = int(rng.integers(0, n - length + 1))
    return seq.frames[start : start + length]


def merge_plan(stage: int, scheme: PartitionScheme = PartitionScheme.HUL) -> tuple[tuple[int, ...], ...]:
    """Token groups merged when leaving `stage` (1, 2, or 3).

    Stage 1 merges the 18 joints into the 5 limb tokens, stage 2 merges
    limbs per `scheme`, stage 3 merges everything into one body token.
    """
    if stage == 1:
        return LIMB_GROUPS
    if stage == 2:
        return scheme.stage3_groups
    if stage == 3:
        return (tuple(range(len(scheme.stage3_groups))),)
    raise ConfigError(f"no merge leaves stage {stage}; valid stages are 1-3")


def token_counts(scheme: PartitionScheme = PartitionScheme.HUL) -> tuple[int, int, int, int]:
    """Token count entering each of the four stages."""
    return (JOINTS, 5, len(scheme.stage3_groups), 1)
