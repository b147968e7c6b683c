"""Parametric synthetic walker: identity-separable 2D skeleton sequences
for desk-scale end-to-end experiments.

Each identity is a bundle of body proportions and gait dynamics (stride
frequency, swing amplitudes, phases). Frames are produced by a sinusoidal
articulated walker seen from a camera at `view` degrees: 0 faces the
camera (lateral body width fully visible), 90 is the side view (sagittal
swing fully visible). A joint's image x is

    x = 0.5 + cos(view) * lateral + sin(view) * sagittal

so the lateral component is foreshortened as the camera swings to the
side. The walker walks in place (hip sway and bob instead of translation)
to keep every coordinate inside the unit square. Conditions: BG damps one
arm's swing as if carrying a bag, CL jitters limb lengths per sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dataio
from .errors import ConfigError, InputError, config_int, config_rule
from .skeleton import Condition, GaitSequence, duplicate_nose

SHIN_FOLLOW = 0.85     # shin angle as a fraction of the thigh angle
WRIST_FOLLOW = 1.12    # wrist angle as a fraction of the upper-arm angle
HIP_BASE_Y = 0.52
EYE_DY, EYE_LAT = 0.015, 0.012
EAR_DY, EAR_LAT = 0.005, 0.028
BAG_ARM_DAMP = 0.15
CLOTHING_JITTER = 0.12


@dataclass(frozen=True)
class IdentityParams:
    """Body proportions (normalized units) and gait dynamics of one walker."""

    torso_len: float
    neck_len: float
    shoulder_halfwidth: float
    hip_halfwidth: float
    upper_arm: float
    forearm: float
    thigh: float
    shin: float
    stride_freq: float          # cycles per frame
    leg_amp: float              # radians
    arm_amp: float
    phase: float
    arm_phase: float
    bob_amp: float
    sway_amp: float
    noise_level: float = 0.004

    def __post_init__(self):
        lengths = (
            self.torso_len, self.neck_len, self.shoulder_halfwidth,
            self.hip_halfwidth, self.upper_arm, self.forearm, self.thigh, self.shin,
        )
        # Each check is written so that NaN fails it.
        if not all(0 < v < math.inf for v in lengths):
            raise InputError("all body lengths must be finite and > 0")
        if not 0 < self.stride_freq < 0.5:
            raise InputError(f"stride frequency must be in (0, 0.5), got {self.stride_freq}")
        if not all(0 <= a < math.inf for a in (self.leg_amp, self.arm_amp, self.bob_amp, self.sway_amp)):
            raise InputError("amplitudes must be finite and >= 0")
        if not math.isfinite(self.phase) or not math.isfinite(self.arm_phase):
            raise InputError("phases must be finite")
        if not 0 <= self.noise_level < math.inf:
            raise InputError(f"noise level must be finite and >= 0, got {self.noise_level}")


# Sampling ranges; chosen wide enough that two random identities differ in
# body geometry by far more than the default jitter noise.
_RANGES = {
    "torso_len": (0.22, 0.30),
    "neck_len": (0.05, 0.08),
    "shoulder_halfwidth": (0.05, 0.09),
    "hip_halfwidth": (0.03, 0.06),
    "upper_arm": (0.11, 0.17),
    "forearm": (0.09, 0.14),
    "thigh": (0.16, 0.23),
    "shin": (0.13, 0.19),
    "stride_freq": (0.05, 0.15),
    "leg_amp": (0.35, 0.65),
    "arm_amp": (0.25, 0.55),
    "phase": (0.0, 2.0 * math.pi),
    "arm_phase": (-0.25, 0.25),
    "bob_amp": (0.004, 0.012),
    "sway_amp": (0.004, 0.012),
}


def sample_identity(rng: np.random.Generator, noise_level: float = 0.004) -> IdentityParams:
    """Draw one identity uniformly from the documented parameter ranges."""
    drawn = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in _RANGES.items()}
    return IdentityParams(noise_level=noise_level, **drawn)


def generate_sequence(
    identity: IdentityParams,
    view: int,
    condition: Condition,
    frames: int,
    rng: np.random.Generator,
    subject_id: str = "synth",
    session: int = 1,
    key: str | None = None,
) -> GaitSequence:
    """Render `frames` poses of `identity` from a camera at `view` degrees.

    Already 18-joint (nose duplicated) and width-normalized to [0, 1].
    """
    if frames < 1:
        raise InputError(f"frames must be >= 1, got {frames}")
    condition = Condition(condition)
    ident = identity
    if condition is Condition.CL:
        def jitter(v):
            return v * float(1.0 + rng.uniform(-CLOTHING_JITTER, CLOTHING_JITTER))

        ident = replace(
            identity,
            torso_len=jitter(identity.torso_len),
            upper_arm=jitter(identity.upper_arm),
            forearm=jitter(identity.forearm),
            thigh=jitter(identity.thigh),
            shin=jitter(identity.shin),
        )
    arm_amp_l = ident.arm_amp * (BAG_ARM_DAMP if condition is Condition.BG else 1.0)
    arm_amp_r = ident.arm_amp

    t = np.arange(frames, dtype=np.float64)
    # each sequence starts at a random point of the stride cycle, so absolute
    # phase carries no identity information
    start = float(rng.uniform(0.0, 2.0 * math.pi))
    phase = 2.0 * math.pi * ident.stride_freq * t + ident.phase + start
    hip_y = HIP_BASE_Y + ident.bob_amp * np.sin(2.0 * phase)
    sway = ident.sway_amp * np.sin(phase)

    theta_leg_l = ident.leg_amp * np.sin(phase)
    theta_leg_r = ident.leg_amp * np.sin(phase + math.pi)
    # arms counter-swing: the left arm follows the right leg and vice versa
    theta_arm_l = arm_amp_l * np.sin(phase + math.pi + ident.arm_phase)
    theta_arm_r = arm_amp_r * np.sin(phase + ident.arm_phase)

    shoulder_y = hip_y - ident.torso_len
    nose_y = shoulder_y - ident.neck_len

    # per joint: (sagittal displacement, lateral displacement, y); lateral > 0
    # is the walker's left side
    zeros = np.zeros(frames)
    sag, lat, ys = {}, {}, {}

    def put(j, s, l, y):
        sag[j], lat[j], ys[j] = s, np.broadcast_to(l, (frames,)) if np.isscalar(l) else l, y

    put(0, zeros, 0.0, nose_y)                                  # nose
    put(1, zeros, +EYE_LAT, nose_y - EYE_DY)                    # left eye
    put(2, zeros, -EYE_LAT, nose_y - EYE_DY)                    # right eye
    put(3, zeros, +EAR_LAT, nose_y - EAR_DY)                    # left ear
    put(4, zeros, -EAR_LAT, nose_y - EAR_DY)                    # right ear
    put(5, zeros, +ident.shoulder_halfwidth, shoulder_y)        # left shoulder
    put(6, zeros, -ident.shoulder_halfwidth, shoulder_y)        # right shoulder
    for j_elbow, j_wrist, theta, side in ((7, 9, theta_arm_l, +1), (8, 10, theta_arm_r, -1)):
        l = side * ident.shoulder_halfwidth
        es = ident.upper_arm * np.sin(theta)
        ey = shoulder_y + ident.upper_arm * np.cos(theta)
        put(j_elbow, es, l, ey)
        tw = WRIST_FOLLOW * theta
        put(j_wrist, es + ident.forearm * np.sin(tw), l, ey + ident.forearm * np.cos(tw))
    put(11, zeros, +ident.hip_halfwidth, hip_y)                 # left hip
    put(12, zeros, -ident.hip_halfwidth, hip_y)                 # right hip
    for j_knee, j_ankle, theta, side in ((13, 15, theta_leg_l, +1), (14, 16, theta_leg_r, -1)):
        l = side * ident.hip_halfwidth
        ks = ident.thigh * np.sin(theta)
        ky = hip_y + ident.thigh * np.cos(theta)
        put(j_knee, ks, l, ky)
        ta = SHIN_FOLLOW * theta
        put(j_ankle, ks + ident.shin * np.sin(ta), l, ky + ident.shin * np.cos(ta))

    vr = math.radians(view)
    cos_v, sin_v = math.cos(vr), math.sin(vr)
    raw = np.empty((frames, 17, 2))
    for j in range(17):
        raw[:, j, 0] = 0.5 + cos_v * (lat[j] + sway) + sin_v * sag[j]
        raw[:, j, 1] = ys[j]
    if ident.noise_level > 0:
        raw += rng.normal(0.0, ident.noise_level, size=(frames, 17, 2))
    pose = np.clip(duplicate_nose(raw), 0.0, 1.0)

    return GaitSequence(
        subject_id=subject_id,
        condition=condition,
        view=int(view),
        session=session,
        frames=pose,
        key=key,
    )


# ---------------------------------------------------------------------------
# dataset builder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """How many identities/sequences/views/conditions to generate.

    `sequences_per_identity` counts sequences per (identity, view,
    condition) group; sessions number them 1..S within each group. The
    first ceil(train_fraction * S) sessions of each group go to the train
    split, the first remaining NM session per (identity, view) enrolls the
    gallery, and everything else left is a probe.
    """

    identities: int = 8
    sequences_per_identity: int = 4
    frames: int = 60
    views: tuple[int, ...] = (0, 90)
    conditions: tuple[Condition, ...] = (Condition.NM,)
    seed: int = 0
    noise_level: float = 0.004
    train_fraction: float = 0.5

    def __post_init__(self):
        for name in ("identities", "sequences_per_identity", "frames"):
            object.__setattr__(self, name, config_int(name, getattr(self, name)))
        # Each rule is false for NaN.
        config_rule("noise_level", self.noise_level, "finite and >= 0", lambda v: 0 <= v < math.inf)
        config_rule("train_fraction", self.train_fraction, "in [0, 1)", lambda v: 0 <= v < 1)
        if not self.views:
            raise ConfigError("need at least one view")
        for c in self.conditions:
            if c not in ("NM", "BG", "CL"):
                raise ConfigError(f"unknown condition {c!r}; the generator takes NM, BG, CL")
        conds = tuple(Condition(c) for c in self.conditions)
        if not conds:
            raise ConfigError("need at least one condition")
        if Condition.NM not in conds:
            raise ConfigError("the NM condition is required (it enrolls the gallery)")
        object.__setattr__(self, "views", tuple(int(v) for v in self.views))
        object.__setattr__(self, "conditions", conds)


def generate_split_sequences(cfg: SynthConfig) -> dict[str, list[GaitSequence]]:
    """Generate all sequences and assign them to train/gallery/probe."""
    root = np.random.SeedSequence(cfg.seed)
    id_entropy, data_entropy = root.spawn(2)
    id_rng = np.random.default_rng(id_entropy)
    identities = [sample_identity(id_rng, cfg.noise_level) for _ in range(cfg.identities)]

    total = cfg.identities * len(cfg.views) * len(cfg.conditions) * cfg.sequences_per_identity
    children = data_entropy.spawn(total)
    splits: dict[str, list[GaitSequence]] = {"train": [], "gallery": [], "probe": []}
    n_train = math.ceil(cfg.train_fraction * cfg.sequences_per_identity)

    child = iter(children)
    for i, ident in enumerate(identities):
        subject = f"s{i:03d}"
        for view in cfg.views:
            gallery_taken = False
            for condition in cfg.conditions:
                for session in range(1, cfg.sequences_per_identity + 1):
                    rng = np.random.default_rng(next(child))
                    seq = generate_sequence(ident, view, condition, cfg.frames, rng,
                                            subject_id=subject, session=session)
                    if session <= n_train:
                        splits["train"].append(seq)
                    elif condition is Condition.NM and not gallery_taken:
                        splits["gallery"].append(seq)
                        gallery_taken = True
                    else:
                        splits["probe"].append(seq)
    return splits


def build_dataset(cfg: SynthConfig, out_dir) -> Path:
    """Write the generated splits as record files plus a manifest.

    Returns the manifest path. Regenerating with the same config is
    byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    splits = generate_split_sequences(cfg)
    if not splits["train"] and cfg.train_fraction > 0:
        raise ConfigError("train split came out empty; lower train_fraction")
    if not splits["gallery"] or not splits["probe"]:
        raise ConfigError(
            "gallery or probe split is empty; raise sequences_per_identity or lower train_fraction"
        )

    files = {}
    for name, seqs in splits.items():
        path = out / f"{name}.jsonl"
        dataio.write_records([dataio.sequence_to_record(s) for s in seqs], path)
        files[name] = path.name

    manifest = dataio.Manifest(
        dataset_name="synthetic-walkers",
        seed=cfg.seed,
        files=files,
        splits={name: [s.key for s in seqs] for name, seqs in splits.items()},
        generator={
            "identities": cfg.identities,
            "sequences_per_identity": cfg.sequences_per_identity,
            "frames": cfg.frames,
            "views": list(cfg.views),
            "conditions": [c.value for c in cfg.conditions],
            "noise_level": cfg.noise_level,
            "train_fraction": cfg.train_fraction,
        },
    )
    return dataio.write_manifest(manifest, out / "manifest.json")
