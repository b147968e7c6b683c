"""Limb groups, partition schemes, merge plans, and preprocessing."""

from dataclasses import replace

import numpy as np
import pytest

from gaitpt.errors import ConfigError, DataFormatError, InputError
from gaitpt.skeleton import (
    LIMB_GROUPS,
    Condition,
    GaitSequence,
    PartitionScheme,
    duplicate_nose,
    merge_plan,
    normalize_sequence,
    sample_window,
    sequence_key,
    token_counts,
)


def make_seq(n=10, subject="s0", view=0, session=1, scale=1.0):
    frames = np.linspace(0.0, scale, n * 36).reshape(n, 18, 2)
    return GaitSequence(subject, Condition.NM, view, session, frames)


# ---------------------------------------------------------------------------
# anatomy and schemes
# ---------------------------------------------------------------------------

def test_anatomy_groups_tile_all_joints():
    groups = LIMB_GROUPS
    members = [j for g in groups for j in g]
    assert sorted(members) == list(range(18))
    assert len(groups[0]) == 6                      # head takes the extra nose
    assert all(len(g) == 3 for g in groups[1:])
    assert len(groups) == 5


def test_scheme_group_definitions():
    assert PartitionScheme.HUL.stage3_groups == ((0,), (1, 2), (3, 4))
    assert PartitionScheme.HLR.stage3_groups == ((0,), (1, 3), (2, 4))
    assert PartitionScheme.OPPOSITE.stage3_groups == ((0,), (1, 4), (2, 3))


def test_all_scheme_is_the_seven_distinct_groups():
    groups = set(map(frozenset, PartitionScheme.ALL.stage3_groups))
    expected = {
        frozenset({0}),          # head, deduplicated
        frozenset({1, 2}),       # both arms
        frozenset({3, 4}),       # both legs
        frozenset({1, 3}),       # left side
        frozenset({2, 4}),       # right side
        frozenset({1, 4}),       # left arm + right leg
        frozenset({2, 3}),       # right arm + left leg
    }
    assert groups == expected
    assert len(PartitionScheme.ALL.stage3_groups) == 7


@pytest.mark.parametrize("scheme", list(PartitionScheme))
@pytest.mark.parametrize("stage", [1, 2, 3])
def test_merge_plans_cover_their_inputs(scheme, stage):
    plan = merge_plan(stage, scheme)
    t_in = token_counts(scheme)[stage - 1]
    members = [j for g in plan for j in g]
    assert set(members) == set(range(t_in))
    for g in plan:
        assert len(set(g)) == len(g)  # no repeats inside one group
    if not (stage == 2 and scheme is PartitionScheme.ALL):
        # every plan except ALL's limb grouping is a strict partition
        assert len(members) == t_in


def test_merge_plan_examples():
    assert merge_plan(2, PartitionScheme.HUL) == ((0,), (1, 2), (3, 4))
    assert merge_plan(3, PartitionScheme.HUL) == ((0, 1, 2),)
    assert merge_plan(3, PartitionScheme.ALL) == ((0, 1, 2, 3, 4, 5, 6),)
    assert merge_plan(1, PartitionScheme.HUL) == LIMB_GROUPS
    with pytest.raises(ConfigError):
        merge_plan(4, PartitionScheme.HUL)


def test_token_counts_per_scheme():
    assert token_counts(PartitionScheme.HUL) == (18, 5, 3, 1)
    assert token_counts(PartitionScheme.ALL) == (18, 5, 7, 1)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_normalize_divides_both_coordinates():
    seq = GaitSequence("s", Condition.NM, 0, 1, np.full((1, 18, 2), 320.0))
    out = normalize_sequence(seq, 640.0)
    assert np.allclose(out.frames, 0.5)


def test_normalize_zero_pose_stays_zero():
    seq = GaitSequence("s", Condition.NM, 0, 1, np.zeros((2, 18, 2)))
    assert (normalize_sequence(seq, 123.0).frames == 0.0).all()


def test_normalize_width_one_is_identity():
    seq = make_seq()
    once = normalize_sequence(seq, 480.0)
    twice = normalize_sequence(once, 1.0)
    assert np.array_equal(once.frames, twice.frames)


def test_normalize_is_linear():
    seq = make_seq(scale=3.0)
    scaled = GaitSequence("s", Condition.NM, 0, 1, 2.5 * seq.frames)
    assert np.allclose(normalize_sequence(scaled, 7.0).frames,
                       2.5 * normalize_sequence(seq, 7.0).frames)


def test_normalize_rejects_bad_width():
    for width in (float("nan"), float("inf"), 0.0, -1.0, -3.0):
        with pytest.raises(InputError, match="finite and > 0"):
            normalize_sequence(make_seq(), width)


def test_sample_window_whole_sequence():
    seq = make_seq(n=30)
    assert np.array_equal(sample_window(seq, 30, np.random.default_rng(0)), seq.frames)


def test_sample_window_random_is_reproducible():
    seq = make_seq(n=100)
    a = sample_window(seq, 30, np.random.default_rng(7))
    b = sample_window(seq, 30, np.random.default_rng(7))
    assert np.array_equal(a, b)
    start = int(np.flatnonzero((seq.frames == a[0]).all(axis=(1, 2)))[0])
    assert np.array_equal(a, seq.frames[start : start + 30])  # one contiguous window


def test_sample_window_rejects_short_sequence():
    with pytest.raises(InputError):
        sample_window(make_seq(n=10), 30, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# nose duplication
# ---------------------------------------------------------------------------

def test_duplicate_nose_copies_joint_zero():
    raw = np.zeros((17, 2))
    raw[0] = (0.1, 0.2)
    joints = duplicate_nose(raw)
    assert joints.shape == (18, 2)
    assert np.array_equal(joints[17], [0.1, 0.2])


def test_duplicate_nose_rejects_wrong_counts():
    with pytest.raises(DataFormatError):
        duplicate_nose(np.zeros((18, 2)))
    with pytest.raises(DataFormatError):
        duplicate_nose(np.zeros((16, 2)))
    with pytest.raises(DataFormatError):
        duplicate_nose(np.zeros((5, 17, 3)))


def test_duplicate_nose_preserves_original_joints():
    rng = np.random.default_rng(2)
    raw = rng.uniform(size=(4, 17, 2))
    frames = duplicate_nose(raw)
    assert frames.shape == (4, 18, 2)
    assert np.array_equal(frames[:, :17], raw)
    assert np.array_equal(frames[:, 17], raw[:, 0])


def test_key_is_fixed_when_the_sequence_is_built():
    frames = np.zeros((2, 18, 2))
    seq = GaitSequence("s7", "BG", 36, 2, frames)
    assert seq.key == sequence_key("s7", Condition.BG, 36, 2) == "s7-BG-v036-02"
    assert normalize_sequence(seq, 2.0).key == seq.key
    assert replace(seq, view=54).key == seq.key
    assert GaitSequence("s7", "BG", 36, 2, frames, key="rec-1").key == "rec-1"


@pytest.mark.parametrize("field", ["view", "session"])
@pytest.mark.parametrize("value", [90.5, "90", True, np.float64(1.0), 2**63, -(2**63) - 1])
@pytest.mark.parametrize("key", [None, "rec-1"])
def test_non_integer_view_or_session_is_rejected(field, value, key):
    labels = {"view": 90, "session": 1, field: value}
    with pytest.raises(InputError, match=f"{field} must be an integer in int64 range"):
        GaitSequence("s", "NM", labels["view"], labels["session"], np.zeros((2, 18, 2)), key=key)


def test_integer_view_and_session_are_stored_as_int():
    seq = GaitSequence("s", "NM", np.int64(2**63 - 1), np.int16(-3), np.zeros((2, 18, 2)))
    assert (seq.view, seq.session) == (2**63 - 1, -3)
    assert type(seq.view) is int and type(seq.session) is int


def test_pose_and_sequence_validation():
    with pytest.raises(DataFormatError):
        GaitSequence("s", Condition.NM, 0, 1, np.zeros((0, 18, 2)))
    with pytest.raises(DataFormatError):
        GaitSequence("s", Condition.NM, 0, 1, np.zeros((3, 17, 2)))
