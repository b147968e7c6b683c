"""Synthetic walker: determinism, kinematic structure, identity
separability, and dataset building."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gaitpt import dataio
from gaitpt.errors import ConfigError, InputError
from gaitpt.skeleton import Condition
from gaitpt.synthgait import (
    _RANGES,
    SynthConfig,
    build_dataset,
    generate_sequence,
    generate_split_sequences,
    sample_identity,
)


def ident(seed=0, noise=0.004):
    return sample_identity(np.random.default_rng(seed), noise_level=noise)


# ---------------------------------------------------------------------------
# identity sampling
# ---------------------------------------------------------------------------

def test_sample_identity_is_deterministic():
    a = sample_identity(np.random.default_rng(9))
    b = sample_identity(np.random.default_rng(9))
    assert a == b


def test_sampled_identities_stay_in_documented_ranges():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = sample_identity(rng)
        for name, (lo, hi) in _RANGES.items():
            assert lo <= getattr(p, name) <= hi, name


def test_identities_differ_with_overwhelming_probability():
    rng = np.random.default_rng(2)
    draws = [sample_identity(rng) for _ in range(1000)]
    assert len({tuple(vars(d).values()) for d in draws}) == 1000


def test_inter_identity_distance_dominates_noise():
    # mean parameter-space distance between identities should exceed the
    # default jitter noise by a wide margin (well over 3x)
    rng = np.random.default_rng(3)
    draws = [sample_identity(rng) for _ in range(200)]
    geom = np.array([
        [d.torso_len, d.shoulder_halfwidth, d.upper_arm, d.forearm, d.thigh, d.shin]
        for d in draws
    ])
    dists = [
        np.linalg.norm(geom[i] - geom[j])
        for i in range(50) for j in range(i + 1, 50)
    ]
    assert np.mean(dists) >= 3.0 * draws[0].noise_level


def test_identity_params_validation():
    good = ident()
    with pytest.raises(InputError):
        replace(good, thigh=0.0)
    with pytest.raises(InputError):
        replace(good, stride_freq=0.5)
    with pytest.raises(InputError):
        replace(good, leg_amp=-0.1)
    with pytest.raises(InputError):
        replace(good, noise_level=-1.0)


@pytest.mark.parametrize("field", ["thigh", "leg_amp", "phase", "noise_level"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_identity_params_reject_non_finite_values(field, value):
    with pytest.raises(InputError, match="finite"):
        replace(ident(), **{field: value})


# ---------------------------------------------------------------------------
# sequence generation
# ---------------------------------------------------------------------------

def test_generate_sequence_deterministic():
    a = generate_sequence(ident(), 90, Condition.NM, 25, np.random.default_rng(4))
    b = generate_sequence(ident(), 90, Condition.NM, 25, np.random.default_rng(4))
    assert np.array_equal(a.frames, b.frames)


def test_single_frame_sequence_is_valid():
    seq = generate_sequence(ident(), 0, Condition.NM, 1, np.random.default_rng(5))
    assert seq.frames.shape == (1, 18, 2)
    assert np.array_equal(seq.frames[0, 17], seq.frames[0, 0])


def test_coordinates_stay_in_unit_square():
    rng = np.random.default_rng(6)
    for seed in range(20):
        seq = generate_sequence(ident(seed, noise=0.02), int(rng.integers(0, 181)),
                                Condition.NM, 60, np.random.default_rng(seed))
        assert seq.frames.min() >= 0.0 and seq.frames.max() <= 1.0


def test_side_view_ankles_swing_in_antiphase():
    # zero-crossing analysis of the two ankle x-trajectories at the side view
    walker = replace(ident(8), noise_level=0.0)
    seq = generate_sequence(walker, 90, Condition.NM, 400, np.random.default_rng(0))
    left = seq.frames[:, 15, 0] - seq.frames[:, 15, 0].mean()
    right = seq.frames[:, 16, 0] - seq.frames[:, 16, 0].mean()

    def up_crossings(x):
        return np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))

    period = 1.0 / walker.stride_freq
    lc, rc = up_crossings(left), up_crossings(right)
    gaps = [np.min(np.abs(rc - c)) for c in lc[1:-1]]
    phase_gap = 2.0 * np.pi * np.mean(gaps) / period
    assert abs(phase_gap - np.pi) < 0.1


def test_frontal_view_hides_sagittal_swing():
    walker = replace(ident(10), noise_level=0.0)
    side = generate_sequence(walker, 90, Condition.NM, 120, np.random.default_rng(1))
    front = generate_sequence(walker, 0, Condition.NM, 120, np.random.default_rng(1))
    swing = lambda s: s.frames[:, 15, 0].std()
    assert swing(front) < 0.25 * swing(side)


def test_bag_condition_damps_one_arm():
    walker = replace(ident(11), noise_level=0.0)
    nm = generate_sequence(walker, 90, Condition.NM, 200, np.random.default_rng(2))
    bg = generate_sequence(walker, 90, Condition.BG, 200, np.random.default_rng(2))
    left_wrist = lambda s: s.frames[:, 9, 0].std()
    right_wrist = lambda s: s.frames[:, 10, 0].std()
    assert left_wrist(bg) < 0.5 * left_wrist(nm)
    assert right_wrist(bg) > 0.5 * right_wrist(nm)


def test_clothing_condition_jitters_lengths():
    walker = replace(ident(12), noise_level=0.0)
    nm = generate_sequence(walker, 90, Condition.NM, 50, np.random.default_rng(3))
    cl = generate_sequence(walker, 90, Condition.CL, 50, np.random.default_rng(3))
    torso_len = lambda s: np.abs(s.frames[:, 5, 1] - s.frames[:, 11, 1]).mean()
    assert abs(torso_len(nm) - torso_len(cl)) > 1e-4


def test_identities_are_separable_by_trajectory_statistics():
    # nearest-centroid on per-joint mean/std features at zero noise
    rng = np.random.default_rng(13)
    walkers = [replace(ident(100 + i), noise_level=0.0) for i in range(12)]

    def features(seq):
        f = seq.frames[:, :17]
        return np.concatenate([f.mean(axis=0).ravel(), f.std(axis=0).ravel()])

    train, test = {}, []
    for wi, w in enumerate(walkers):
        feats = [
            features(generate_sequence(w, 90, Condition.NM, 60, np.random.default_rng(int(rng.integers(1 << 30)))))
            for _ in range(6)
        ]
        train[wi] = np.mean(feats[:3], axis=0)
        test.extend((wi, f) for f in feats[3:])

    correct = sum(
        1 for wi, f in test
        if wi == min(train, key=lambda c: np.linalg.norm(train[c] - f))
    )
    assert correct / len(test) >= 0.95


# ---------------------------------------------------------------------------
# dataset building
# ---------------------------------------------------------------------------

def test_split_counts_and_disjointness():
    cfg = SynthConfig(identities=8, sequences_per_identity=4, frames=12,
                      views=(0, 90), seed=21, train_fraction=0.5)
    splits = generate_split_sequences(cfg)
    total = sum(len(v) for v in splits.values())
    assert total == 8 * 4 * 2
    assert len(splits["train"]) == 8 * 2 * 2      # ceil(0.5*4)=2 sessions per (id, view)
    assert len(splits["gallery"]) == 8 * 2        # one NM per (id, view)
    keys = [s.key for v in splits.values() for s in v]
    assert len(keys) == len(set(keys))


def test_zero_train_fraction_matches_first_nm_rule():
    cfg = SynthConfig(identities=3, sequences_per_identity=3, frames=10,
                      views=(0,), seed=22, train_fraction=0.0)
    splits = generate_split_sequences(cfg)
    assert len(splits["train"]) == 0
    assert len(splits["gallery"]) == 3 and all(s.session == 1 for s in splits["gallery"])
    assert len(splits["probe"]) == 6


def test_build_dataset_writes_manifest_and_files(tmp_path):
    cfg = SynthConfig(identities=4, sequences_per_identity=4, frames=10, views=(0, 90), seed=23)
    manifest_path = build_dataset(cfg, tmp_path)
    manifest = dataio.load_manifest(manifest_path)
    splits = dataio.load_split_sequences(manifest_path)
    assert sum(len(v) for v in manifest.splits.values()) == 4 * 4 * 2
    assert len(splits["train"]) == len(manifest.splits["train"])
    for s in splits["train"] + splits["gallery"] + splits["probe"]:
        assert np.array_equal(s.frames[:, 17], s.frames[:, 0])


def test_loaded_splits_have_the_generated_form_and_keys(tmp_path):
    cfg = SynthConfig(identities=3, sequences_per_identity=4, frames=8, views=(0, 90), seed=24)
    generated = generate_split_sequences(cfg)
    loaded = dataio.load_split_sequences(build_dataset(cfg, tmp_path))
    assert list(loaded) == list(generated) == ["train", "gallery", "probe"]
    for name, seqs in generated.items():
        assert [s.key for s in loaded[name]] == [s.key for s in seqs]


def test_build_dataset_regeneration_is_byte_identical(tmp_path):
    cfg = SynthConfig(identities=3, sequences_per_identity=4, frames=8, views=(0,), seed=24)
    a = tmp_path / "a"
    b = tmp_path / "b"
    build_dataset(cfg, a)
    build_dataset(cfg, b)
    for name in ("manifest.json", "train.jsonl", "gallery.jsonl", "probe.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_conditions_multiply_sequence_count():
    cfg = SynthConfig(identities=2, sequences_per_identity=2, frames=8, views=(0,),
                      conditions=(Condition.NM, Condition.BG, Condition.CL), seed=25)
    splits = generate_split_sequences(cfg)
    assert sum(len(v) for v in splits.values()) == 2 * 2 * 3


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(identities=0)
    with pytest.raises(ConfigError):
        SynthConfig(views=())
    with pytest.raises(ConfigError):
        SynthConfig(conditions=(Condition.BG,))   # NM required for the gallery
    with pytest.raises(ConfigError):
        SynthConfig(train_fraction=1.0)


@pytest.mark.parametrize("field, value", [
    ("identities", 2.5), ("sequences_per_identity", "4"), ("frames", None),
    ("noise_level", float("nan")), ("noise_level", float("inf")), ("noise_level", "0.1"),
    ("train_fraction", float("nan")), ("train_fraction", None),
])
def test_synth_config_rejects_a_bad_value_by_name(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        SynthConfig(**{field: value})
