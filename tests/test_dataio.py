"""File formats: record round-trips with line-addressed errors, manifest
validation, bit-exact checkpoints with integrity checks, and run configs."""

import json
import os
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_parameters_tile_the_flat_buffer, random_windows, tiny_config

from gaitpt import dataio
from gaitpt.cli import main
from gaitpt.errors import ConfigError, DataFormatError, IntegrityError
from gaitpt.evaluation import EmbeddingSet
from gaitpt.model import GaitPTConfig, GaitPTModel
from gaitpt.skeleton import Condition, PartitionScheme, sequence_key
from gaitpt.training import TrainConfig


def make_record(key="r0", n=2, width=640.0, session=1):
    rng = np.random.default_rng(hash(key) % (2**32))
    return dataio.SequenceRecord(
        key=key, subject_id="s0", condition="NM", view=90, session=session,
        frame_width=width, frames=rng.uniform(0, width, size=(n, 17, 2)),
    )


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_record_roundtrip_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    dataio.write_records([make_record("r0", n=1), make_record("r1", n=3)], p1)
    records = dataio.read_records(p1)
    dataio.write_records(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_sequences_normalizes_and_duplicates_nose(tmp_path):
    path = tmp_path / "seqs.jsonl"
    records = [make_record(f"r{i:03d}", n=2) for i in range(100)]
    dataio.write_records(records, path)
    seqs = dataio.read_sequences(path)
    assert len(seqs) == 100
    for seq, rec in zip(seqs, records):
        assert seq.frames.shape == (2, 18, 2)
        assert np.array_equal(seq.frames[:, 17], seq.frames[:, 0])
        assert np.allclose(seq.frames[:, :17], rec.frames / rec.frame_width)
        assert seq.key == rec.key


def test_wrong_joint_count_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = make_record("ok")
    with open(path, "w") as fh:
        for rec in (good,):
            obj = {"key": rec.key, "subject_id": rec.subject_id, "condition": rec.condition,
                   "view": rec.view, "session": rec.session, "frame_width": rec.frame_width,
                   "frames": rec.frames.tolist()}
            fh.write(json.dumps(obj) + "\n")
        obj["key"] = "short"
        obj["frames"] = [[[0.0, 0.0]] * 16]  # 16 joints
        fh.write(json.dumps(obj) + "\n")
    with pytest.raises(DataFormatError, match="line 2"):
        dataio.read_records(path)


def test_invalid_json_and_unknown_keys_are_line_addressed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"key": "a"\nnope\n')
    with pytest.raises(DataFormatError, match="line 1"):
        dataio.read_records(path)

    rec = make_record("x")
    obj = {"key": rec.key, "subject_id": rec.subject_id, "condition": rec.condition,
           "view": rec.view, "session": 1, "frame_width": rec.frame_width,
           "frames": rec.frames.tolist(), "extra": 1}
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DataFormatError, match="extra"):
        dataio.read_records(path)


def test_missing_session_defaults_to_one(tmp_path):
    rec = make_record("x")
    obj = {"key": rec.key, "subject_id": rec.subject_id, "condition": rec.condition,
           "view": rec.view, "frame_width": rec.frame_width, "frames": rec.frames.tolist()}
    path = tmp_path / "nosession.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    assert dataio.read_records(path)[0].session == 1


def _record_line(**overrides) -> str:
    rec = make_record("x")
    obj = {"key": rec.key, "subject_id": rec.subject_id, "condition": rec.condition,
           "view": rec.view, "session": rec.session, "frame_width": rec.frame_width,
           "frames": rec.frames.tolist(), **overrides}
    return json.dumps(obj) + "\n"


def test_read_records_reports_non_utf8_byte_offset(tmp_path):
    line = _record_line().encode()
    path = tmp_path / "bad.jsonl"
    path.write_bytes(line + b"\xff\n")
    with pytest.raises(DataFormatError, match=f"byte offset {len(line)}"):
        dataio.read_records(path)


BAD_INTEGER_LABELS = [
    ("view", 90.7), ("view", 90.0), ("view", "90"), ("view", True),
    ("session", True), ("session", 1.5), ("session", "1"), ("session", None),
    # integers outside int64, which EmbeddingSet would wrap or fail to hold
    ("view", 2**63), ("view", -(2**63) - 1), ("view", 10**30),
    ("session", 2**63), ("session", -(2**63) - 1), ("session", 10**30),
]

BAD_LABELS_AND_WIDTHS = [
    ("key", 5, "a string"), ("key", None, "a string"), ("subject_id", True, "a string"),
    ("subject_id", 7, "a string"), ("condition", ["NM"], "a string"),
    ("frame_width", "1.0", "a number"), ("frame_width", True, "a number"),
    ("frame_width", None, "a number"), ("condition", "XX", "one of NM, BG, CL, OTHER"),
]


@pytest.mark.parametrize("field, value", BAD_INTEGER_LABELS)
def test_non_integer_view_or_session_is_rejected_by_line(tmp_path, field, value):
    path = tmp_path / "bad.jsonl"
    path.write_text(_record_line() + _record_line(key="y", **{field: value}))
    with pytest.raises(DataFormatError, match=f"line 2: {field} must be an integer"):
        dataio.read_records(path)


@pytest.mark.parametrize("field, value, rule", BAD_LABELS_AND_WIDTHS)
def test_mistyped_label_or_frame_width_is_rejected_by_line(tmp_path, field, value, rule):
    path = tmp_path / "bad.jsonl"
    path.write_text(_record_line() + _record_line(**{"key": "y", field: value}))
    with pytest.raises(DataFormatError, match=f"line 2: {field} must be {rule}"):
        dataio.read_records(path)


def _strings(frames):
    return [[[str(v) for v in joint] for joint in frame] for frame in frames]


def _bools(frames):
    return [[[v > 320 for v in joint] for joint in frame] for frame in frames]


def _one_bool(frames):  # numpy reads [0.5, False] as float64 too
    frames[1][3][0] = False
    return frames


@pytest.mark.parametrize("coerce", [_strings, _bools, _one_bool])
def test_frame_coordinate_that_is_not_a_number_is_rejected_by_line(tmp_path, coerce):
    frames = coerce(make_record("x").frames.tolist())
    path = tmp_path / "bad.jsonl"
    path.write_text(_record_line() + _record_line(key="y", frames=frames))
    with pytest.raises(DataFormatError, match="line 2: frames must hold only JSON numbers"):
        dataio.read_records(path)


_RECORD_FIELDS = dict(key="x", subject_id="s0", condition="NM", view=90, session=1, frame_width=640.0)


@pytest.mark.parametrize("field, value, rule", [
    *((field, value, "must be an integer in int64 range") for field, value in BAD_INTEGER_LABELS),
    *((field, value, f"must be {rule}") for field, value, rule in BAD_LABELS_AND_WIDTHS),
    ("frame_width", float("nan"), "must be finite and > 0"), ("frame_width", 10**400, "must be finite and > 0"),
    ("frames", _strings(np.ones((2, 17, 2)).tolist()), "must hold integers or floats"),
    ("frames", np.ones((2, 17, 2), dtype=bool), "must hold integers or floats"),
    ("frames", np.ones((2, 17, 2), dtype=object), "must hold integers or floats"),
    ("frames", np.ones((2, 16, 2)), r"need shape \(n, 17, 2\)"),
    ("frames", [np.ones((17, 2)), np.ones((16, 2))], r"need shape \(n, 17, 2\)"),
    ("frames", np.full((2, 17, 2), np.inf), "hold non-finite coordinates"),
])
def test_record_refuses_what_the_reader_refuses(field, value, rule):
    fields = {**_RECORD_FIELDS, "frames": np.ones((2, 17, 2)), field: value}
    with pytest.raises(DataFormatError, match=f"^{field} {rule}"):
        dataio.SequenceRecord(**fields)


def test_record_with_numpy_scalars_roundtrips_unchanged(tmp_path):
    frames = np.arange(2 * 17 * 2, dtype=np.float32).reshape(2, 17, 2)
    rec = dataio.SequenceRecord(key="k", subject_id="s", condition=Condition.CL, view=np.int64(90),
                                session=np.int16(2), frame_width=np.float32(640), frames=frames)
    assert (rec.condition, rec.view, rec.session, rec.frame_width) == ("CL", 90, 2, 640.0)
    assert [type(v) for v in (rec.condition, rec.view, rec.session, rec.frame_width)] == [str, int, int, float]
    assert rec.frames.dtype == np.float64
    path = tmp_path / "r.jsonl"
    dataio.write_records([rec, replace(rec, key="i", frames=frames.astype(np.int16))], path)
    back = dataio.read_records(path)
    for name in ("key", "subject_id", "condition", "view", "session", "frame_width"):
        assert getattr(back[0], name) == getattr(rec, name)
        assert type(getattr(back[0], name)) is type(getattr(rec, name))
    assert np.array_equal(back[0].frames, frames) and np.array_equal(back[1].frames, frames)


def test_view_and_session_at_the_int64_bounds_load(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text(_record_line(view=2**63 - 1, session=-(2**63)))
    rec = dataio.read_records(path)[0]
    assert (rec.view, rec.session) == (2**63 - 1, -(2**63))


@pytest.mark.parametrize("field, value", [("view", 2**63), ("session", 10**30)])
def test_embed_exits_3_on_a_view_or_session_outside_int64(tmp_path, capsys, field, value):
    path, ckpt = tmp_path / "bad.jsonl", tmp_path / "m.ckpt"
    path.write_text(_record_line(**{field: value}))
    dataio.save_checkpoint(GaitPTModel(tiny_config(sequence_length=2), seed=0), ckpt)
    assert main(["embed", "--data", str(path), "--ckpt", str(ckpt),
                 "--out", str(tmp_path / "e.jsonl")]) == 3
    assert f"line 1: {field} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "e.jsonl").exists()


def test_loaded_record_keeps_its_own_key(tmp_path):
    path = tmp_path / "r.jsonl"
    dataio.write_records([make_record("custom-key")], path)
    seq = dataio.read_sequences(path)[0]
    assert seq.key == "custom-key" != sequence_key(seq.subject_id, seq.condition, seq.view, seq.session)
    assert dataio.sequence_to_record(seq).key == "custom-key"


def test_integer_frame_width_loads_as_float(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text(_record_line(frame_width=640))
    assert dataio.read_records(path)[0].frame_width == 640.0


def test_frame_width_too_large_for_a_float_is_rejected_by_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(_record_line().replace('"frame_width": 640.0', '"frame_width": 1' + "0" * 400))
    with pytest.raises(DataFormatError, match="line 1"):
        dataio.read_records(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        dataio.read_records(tmp_path / "absent.jsonl")


def test_readers_are_total_on_garbage(tmp_path):
    # any byte stream parses or fails with an addressed error, never crashes
    rng = np.random.default_rng(0)
    samples = [
        b"\x00\xff\xfe garbage\n",
        b'{"key": 1}\n',
        b"[1, 2, 3]\n",
        b'{"key": "k", "subject_id": "s", "condition": "NM", "view": "x", '
        b'"session": 1, "frame_width": 1.0, "frames": []}\n',
        bytes(rng.integers(0, 256, size=200, dtype=np.uint8)),
    ]
    for i, blob in enumerate(samples):
        path = tmp_path / f"junk{i}"
        path.write_bytes(blob)
        with pytest.raises(DataFormatError):
            dataio.read_records(path)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_rejects_overlapping_splits():
    with pytest.raises(DataFormatError, match="k1"):
        dataio.Manifest(dataset_name="d", seed=0, files={},
                        splits={"train": ["k1"], "probe": ["k1"]})


def test_manifest_missing_file_is_reported(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "dataset_name": "d", "seed": 0,
        "files": {"train": "absent.jsonl"}, "splits": {"train": []},
    }))
    with pytest.raises(DataFormatError, match="absent.jsonl"):
        dataio.load_manifest(path)


def test_split_missing_from_the_manifest_loads_empty(tmp_path):
    dataio.write_records([make_record("k1")], tmp_path / "gallery.jsonl")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "dataset_name": "d", "seed": 0,
        "files": {"gallery": "gallery.jsonl"}, "splits": {"gallery": ["k1"]},
    }))
    splits = dataio.load_split_sequences(path)
    assert list(splits) == ["train", "gallery", "probe"]
    assert splits["train"] == splits["probe"] == []
    assert [s.key for s in splits["gallery"]] == ["k1"]


def test_split_key_mismatch_is_detected(tmp_path):
    dataio.write_records([make_record("k1")], tmp_path / "train.jsonl")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "dataset_name": "d", "seed": 0,
        "files": {"train": "train.jsonl"}, "splits": {"train": ["other"]},
    }))
    with pytest.raises(DataFormatError, match="disagree"):
        dataio.load_split_sequences(path)


@pytest.mark.parametrize("field, value", [
    ("splits", 5), ("splits", {"train": "k1"}), ("splits", {"train": [1]}),
    ("files", "train.jsonl"), ("files", {"train": 3}),
    ("seed", "x"), ("seed", True), ("seed", 1.5), ("dataset_name", 3), (None, 5),
])
def test_malformed_manifest_names_file_and_field(tmp_path, capsys, field, value):
    dataio.write_records([make_record("k1")], tmp_path / "train.jsonl")
    obj = {"dataset_name": "d", "seed": 0,
           "files": {"train": "train.jsonl"}, "splits": {"train": ["k1"]}}
    if field is None:  # valid JSON, but not an object
        obj, expected = value, "not a JSON object"
    else:
        obj[field], expected = value, f"field '{field}'"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataFormatError, match=expected) as err:
        dataio.load_manifest(path)
    assert str(path) in str(err.value)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "m.ckpt")]) == 3
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("dataset_name", 5), ("seed", 1.5), ("seed", True), ("files", {"train": 3}), ("splits", {"train": "k"}),
])
def test_manifest_refuses_a_mistyped_field_as_the_loader_does(tmp_path, field, value):
    obj = {"dataset_name": "d", "seed": 0, "files": {}, "splits": {}, field: value}
    with pytest.raises(DataFormatError, match=f"^manifest field '{field}' must be"):
        dataio.Manifest(**obj)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataFormatError, match=f"manifest field '{field}' must be") as err:
        dataio.load_manifest(path)
    assert str(path) in str(err.value)


def test_manifest_with_a_numpy_seed_roundtrips(tmp_path):
    manifest = dataio.Manifest(dataset_name="d", seed=np.int64(7), files={}, splits={"train": ["k"]})
    assert type(manifest.seed) is int
    assert dataio.load_manifest(dataio.write_manifest(manifest, tmp_path / "m.json")) == manifest


def test_non_utf8_manifest_is_a_data_format_error(tmp_path, capsys):
    dataio.write_records([make_record("k1")], tmp_path / "train.jsonl")
    head = b'{"dataset_name": "d'
    path = tmp_path / "manifest.json"
    path.write_bytes(head + b'\xff", "seed": 0, "files": {"train": "train.jsonl"}, '
                     b'"splits": {"train": ["k1"]}}')
    with pytest.raises(DataFormatError, match=f"byte offset {len(head)}"):
        dataio.load_manifest(path)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "m.ckpt")]) == 3
    assert f"byte offset {len(head)}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    model = GaitPTModel(tiny_config(), seed=3)
    x = random_windows(2, 20, dtype=np.float32)
    before = model.embed_batch(x).data.copy()
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, path)
    loaded = dataio.load_checkpoint(path)
    after = loaded.embed_batch(x).data
    assert np.array_equal(before, after)
    for name, p in model.params.items():
        assert np.array_equal(p.value.data, loaded.params[name].value.data)


def test_checkpoint_corruption_is_detected(tmp_path):
    model = GaitPTModel(tiny_config(), seed=4)
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="CRC"):
        dataio.load_checkpoint(path)


def test_checkpoint_truncation_reports_byte_counts(tmp_path):
    model = GaitPTModel(tiny_config(), seed=5)
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-64])
    with pytest.raises(IntegrityError) as err:
        dataio.load_checkpoint(path)
    assert "bytes" in str(err.value)


def test_checkpoint_version_mismatch_rejected(tmp_path):
    model = GaitPTModel(tiny_config(), seed=6)
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, path)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    for version in (999, 1):  # version 1 headers carried three more model fields
        header["format_version"] = version
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(IntegrityError, match=f"version {version} != supported 2"):
            dataio.load_checkpoint(path)


def _tiny_table_with_first_dim(value):
    """The [name, shape] table of `tiny_config()` (first row `input_proj.w`,
    shape [2, 8]) with that 2 replaced by `value`."""
    table = [[name, list(p.value.shape)] for name, p in GaitPTModel(tiny_config(), seed=0).params.items()]
    table[0][1][0] = value
    return table


_BAD_PARAM_TABLES = {
    "params=5": 5,
    "params=[[name]]": [["input_proj.w"]],
    "params=[[3, shape]]": [[3, [2, 8]]],
    "params=[[name, [2.5, 8]]]": [["input_proj.w", [2.5, 8]]],
    "params=[[name, [-2, 8]]]": [["input_proj.w", [-2, 8]]],
    "params=full table, [2.0, 8]": _tiny_table_with_first_dim(2.0),
    "params=full table, [true, 8]": _tiny_table_with_first_dim(True),
}


@pytest.mark.parametrize("field", ["payload_bytes", "crc32", "params", None, *_BAD_PARAM_TABLES])
def test_checkpoint_header_gaps_name_file_and_field(tmp_path, field):
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(GaitPTModel(tiny_config(), seed=6), path)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    if field is None:  # valid JSON, but not an object
        header, expected = [header], "not a JSON object"
    elif field in _BAD_PARAM_TABLES:
        header["params"] = _BAD_PARAM_TABLES[field]
        expected = r"'params' is not a list of \[name, shape\] pairs"
    else:
        del header[field]
        expected = repr(field)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(DataFormatError, match=expected) as err:
        dataio.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_params_table_refuses_true_for_a_one(tmp_path):
    """`true == 1` in Python, but a shape entry of 1 must be the integer."""
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(GaitPTModel(tiny_config(output_dim=1), seed=6), path)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    assert header["params"][-1] == ["head.b", [1]]
    header["params"][-1][1][0] = True
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(DataFormatError, match=r"'params' is not a list of \[name, shape\] pairs"):
        dataio.load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_payload_is_each_parameter_little_endian_in_table_order(tmp_path, dtype):
    model = GaitPTModel(tiny_config(dtype=dtype), seed=3)
    path = dataio.save_checkpoint(model, tmp_path / "m.ckpt")
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    little = np.dtype(dtype).newbyteorder("<")
    assert payload == b"".join(p.value.data.astype(little).tobytes() for p in model.params.values())
    assert header["params"] == [[name, list(p.value.shape)] for name, p in model.params.items()]
    assert header["payload_bytes"] == len(payload) == model.param_count() * little.itemsize
    assert header["crc32"] == zlib.crc32(payload)


@pytest.mark.parametrize("resize", ["one element short", "8 bytes too long", "8 bytes in all"])
def test_checkpoint_payload_that_disagrees_with_its_table_exits_3(tmp_path, capsys, resize):
    """The header's byte count and CRC are rewritten to fit the new payload,
    so only the parameter table can tell that it is the wrong length."""
    ckpt = tmp_path / "m.ckpt"
    dataio.save_checkpoint(GaitPTModel(tiny_config(sequence_length=2), seed=0), ckpt)
    header_line, _, payload = ckpt.read_bytes().partition(b"\n")
    resized = {"one element short": payload[:-4], "8 bytes too long": payload + bytes(8),
               "8 bytes in all": payload[:8]}[resize]
    header = json.loads(header_line)
    header["payload_bytes"], header["crc32"] = len(resized), zlib.crc32(resized)
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + resized)
    with pytest.raises(IntegrityError, match=f"payload is {len(resized)} bytes, the parameter table "
                                             f"needs {len(payload)}"):
        dataio.load_checkpoint(ckpt)
    records = tmp_path / "r.jsonl"
    records.write_text(_record_line())
    argv = ["embed", "--data", str(records), "--ckpt", str(ckpt), "--out", str(tmp_path / "e.jsonl")]
    assert main(argv) == 3
    assert str(ckpt) in capsys.readouterr().err


def test_checkpoint_header_echoes_config(tmp_path):
    cfg = tiny_config(scheme="OPPOSITE")
    model = GaitPTModel(cfg, seed=8)
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, path)
    header = json.loads(path.read_bytes().partition(b"\n")[0])
    assert GaitPTConfig(**header["model_config"]) == cfg


def test_checkpoint_roundtrip_property_over_random_models(tmp_path):
    rng = np.random.default_rng(12)
    for i in range(6):
        dims = tuple(int(d) for d in 2 ** rng.integers(2, 5) * np.array([1, 2, 4, 8]))
        cfg = tiny_config(
            dims=dims, heads=int(rng.choice([1, 2])),
            scheme=str(rng.choice(["HUL", "HLR", "OPPOSITE", "ALL"])),
            sequence_length=int(rng.integers(2, 9)),
            output_dim=int(rng.integers(3, 30)),
            dtype=str(rng.choice(["float32", "float64"])),
        )
        model = GaitPTModel(cfg, seed=int(rng.integers(1 << 16)))
        path = tmp_path / f"rt{i}.ckpt"
        dataio.save_checkpoint(model, path)
        loaded = dataio.load_checkpoint(path)
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            assert np.array_equal(p.value.data, loaded.params[name].value.data)


def _buildable_configs():
    base = dict(dims=(4, 8, 8, 16), blocks=1, heads=2, sequence_length=3, output_dim=4)
    full = GaitPTConfig.build(**base)
    for mask in range(1, 16):
        yield replace(full, active_stages=[i for i in (1, 2, 3, 4) if mask >> (i - 1) & 1])
    for scheme in PartitionScheme:
        yield GaitPTConfig.build(**base, scheme=scheme, active_stages=(2, 3))
    yield GaitPTConfig.build(dims=(4, 8, 8, 16), blocks=(1, 2, 1, 2), heads=(1, 2, 4, 8),
                             sequence_length=2, output_dim=3, dtype="float64")
    yield GaitPTConfig(**base, active_stages=(1, 3, 4))


def test_every_buildable_config_roundtrips_through_checkpoint(tmp_path):
    path = tmp_path / "cfg.ckpt"
    for cfg in _buildable_configs():
        model = GaitPTModel(cfg, seed=1)
        dataio.save_checkpoint(model, path)
        loaded = dataio.load_checkpoint(path)
        assert loaded.config == cfg
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            assert np.array_equal(p.value.data, loaded.params[name].value.data)


def test_checkpoint_roundtrip_float64(tmp_path):
    model = GaitPTModel(tiny_config(dtype="float64"), seed=9)
    path = tmp_path / "m64.ckpt"
    dataio.save_checkpoint(model, path)
    loaded = dataio.load_checkpoint(path)
    for name, p in model.params.items():
        assert np.array_equal(p.value.data, loaded.params[name].value.data)
        assert loaded.params[name].value.dtype == np.float64


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_loaded_parameters_are_views_into_one_buffer(tmp_path, dtype):
    path = dataio.save_checkpoint(GaitPTModel(tiny_config(dtype=dtype), seed=9), tmp_path / "m.ckpt")
    assert_parameters_tile_the_flat_buffer(dataio.load_checkpoint(path))


def test_checkpoint_load_holds_one_copy_of_the_payload(tmp_path):
    """The default float32 model's payload is read into the model's buffer:
    the traced peak of a load stays below 1.25x the payload."""
    path = dataio.save_checkpoint(GaitPTModel(GaitPTConfig(), seed=0), tmp_path / "m.ckpt")
    payload = path.stat().st_size - len(path.read_bytes().partition(b"\n")[0]) - 1
    tracemalloc.start()
    try:
        model = dataio.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload == model.param_count() * 4
    assert peak < 1.25 * payload, f"peak {peak / payload:.2f}x the payload"


def test_checkpoint_with_a_payload_that_changes_while_read_is_refused(tmp_path, monkeypatch):
    """A payload that grows or shrinks after the size check is caught by the
    read itself, naming the byte counts."""
    path = dataio.save_checkpoint(GaitPTModel(tiny_config(sequence_length=2), seed=0), tmp_path / "m.ckpt")
    blob = path.read_bytes()
    size = len(blob) - len(blob.partition(b"\n")[0]) - 1
    real_fstat = dataio.os.fstat
    for change, expected in ((blob + b"x", f"{size} bytes read of {size}, and more"),
                             (blob[:-3], f"{size - 3} bytes read of {size}, then the end")):
        path.write_bytes(change)
        monkeypatch.setattr(dataio.os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], len(blob), *real_fstat(fd)[7:])))
        with pytest.raises(IntegrityError, match=f"payload changed while read: {expected}"):
            dataio.load_checkpoint(path)
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_embeddings_roundtrip(tmp_path):
    emb = EmbeddingSet(
        keys=("a", "b"),
        subject_ids=("s0", "s1"),
        conditions=(Condition.NM, Condition.CL),
        views=np.array([0, 90]),
        sessions=np.array([1, 2]),
        embeddings=np.array([[0.1, 0.2], [0.3, 0.4]]),
    )
    path = tmp_path / "emb.jsonl"
    dataio.write_embeddings(emb, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {"key": "a", "subject_id": "s0", "condition": "NM", "view": 0, "session": 1,
         "embedding": [0.1, 0.2]},
        {"key": "b", "subject_id": "s1", "condition": "CL", "view": 90, "session": 2,
         "embedding": [0.3, 0.4]},
    ]


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def test_empty_config_gives_reference_defaults():
    run = dataio.config_from_dict({})
    assert run.train.margin == 0.02
    assert run.model.dims == (32, 64, 128, 256)
    assert run.train.lr_min == 1e-4 and run.train.lr_max == 1e-2
    assert run.train.gamma == 0.995 and run.train.step_size == 15
    assert run.model.output_dim == 256


def test_config_rejects_bad_margin(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"margin": -1}}))
    with pytest.raises(ConfigError):
        dataio.load_config(path)


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    head = b'{"train": {"margin": 0.02}, "x": "'
    path = tmp_path / "cfg.json"
    path.write_bytes(head + b'\xff"}')
    with pytest.raises(ConfigError, match=f"byte offset {len(head)}"):
        dataio.load_config(path)
    assert main(["train", "--data", str(tmp_path / "absent.json"), "--config", str(path),
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    assert f"byte offset {len(head)}" in capsys.readouterr().err


def test_config_rejects_unknown_keys_with_path():
    with pytest.raises(ConfigError, match="train.margni"):
        dataio.config_from_dict({"train": {"margni": 0.02}})
    with pytest.raises(ConfigError, match="model.depth"):
        dataio.config_from_dict({"model": {"depth": 3}})
    with pytest.raises(ConfigError, match="extra"):
        dataio.config_from_dict({"extra": {}})


def test_model_keys_are_the_config_fields_in_to_dict_order():
    assert set(GaitPTConfig().to_dict()) == dataio._MODEL_KEYS
    assert list(GaitPTConfig().to_dict()) == [
        "dims", "blocks", "heads", "active_stages", "scheme", "sequence_length",
        "output_dim", "dtype",
    ]


@pytest.mark.parametrize("key", ["ffn_multiplier", "spatial_positional", "temporal_positional"])
def test_removed_model_fields_are_unknown_keys(key):
    # Every encoder has positional tables and a 4C feed-forward layer.
    with pytest.raises(ConfigError, match=rf"unknown config key: model\.{key}$"):
        dataio.config_from_dict({"model": {key: "false"}})


@pytest.mark.parametrize("section, key, value", [
    ("model", "blocks", [1, 2]),
    ("model", "heads", [1, 2, 4]),
    ("model", "blocks", 1.5),
    ("model", "dims", [8.5, 16, 32, 64]),
    ("model", "dims", 32),
    ("model", "output_dim", 2.5),
    ("model", "sequence_length", 2.5),
    ("model", "dtype", "float16"),
    ("model", "active_stages", [1, 2.0]),
    ("model", "active_stages", 4),
    ("model", "scheme", "NOPE"),
    ("train", "micro_batch", 2.5),
    ("train", "p", "8"),
    ("train", "epochs", None),
    ("train", "steps_per_epoch", 1.5),
    ("train", "seed", -1),
    ("train", "margin", float("nan")),
    ("train", "margin", "0.02"),
    ("train", "lr_max", float("inf")),
    ("train", "lr_min", float("nan")),
    ("train", "lr_min", 0.0),
    ("train", "gamma", float("nan")),
    ("train", "weight_decay", -1),
    ("train", "beta1", 7),
    ("train", "beta2", 1.0),
    ("train", "eps", -1),
    ("train", "eps", float("nan")),
    # bools are not counts
    ("model", "blocks", True),
    ("model", "dims", [True, 16, 32, 64]),
    ("train", "epochs", True),
    ("train", "seed", False),
])
def test_config_from_dict_names_the_bad_field(section, key, value):
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        dataio.config_from_dict({section: {key: value}})


def test_config_accepts_numpy_integers_as_python_ints():
    cfg = GaitPTConfig(dims=np.array([8, 16, 32, 64]), blocks=np.int64(1), heads=(2, 2, 2, np.int32(2)),
                       active_stages={np.int64(4), 1}, sequence_length=np.int16(20), output_dim=np.uint8(32))
    assert cfg == tiny_config(active_stages=(1, 4))
    assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()
    train = TrainConfig(p=np.int64(4), steps_per_epoch=np.int32(2))
    assert (type(train.p), type(train.steps_per_epoch)) == (int, int)


def test_config_roundtrips_through_dict():
    run = dataio.config_from_dict(
        {"model": {"dims": [8, 16, 32, 64], "scheme": "HLR"}, "train": {"p": 4, "k": 2}}
    )
    again = dataio.config_from_dict(run.to_dict())
    assert again == run


# ---------------------------------------------------------------------------
# JSON decoding
# ---------------------------------------------------------------------------

HUGE_INT = "1" + "0" * 4999  # more digits than Python turns into an int by default


def _huge_int_cases(tmp_path):
    """For each JSON reader: a file holding a 5,000-digit integer, the
    reader, and the `gaitpt` arguments that read the file."""
    ckpt, records = tmp_path / "m.ckpt", tmp_path / "r.jsonl"
    dataio.save_checkpoint(GaitPTModel(tiny_config(sequence_length=2), seed=0), ckpt)
    records.write_text(_record_line())
    bad_records = tmp_path / "bad.jsonl"
    bad_records.write_text(_record_line() + _record_line(key="y").replace('"view": 90', f'"view": {HUGE_INT}'))
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"dataset_name": "d", "seed": %s, "files": {}, "splits": {}}' % HUGE_INT)
    config = tmp_path / "cfg.json"
    config.write_text('{"train": {"seed": %s}}' % HUGE_INT)
    bad_ckpt = tmp_path / "bad.ckpt"
    header, _, payload = ckpt.read_bytes().partition(b"\n")
    bad_ckpt.write_bytes(header[:-1] + b', "note": ' + HUGE_INT.encode() + b"}\n" + payload)
    out = ["--out", str(tmp_path / "out")]
    return {
        "records": (bad_records, dataio.read_records,
                    ["embed", "--data", str(bad_records), "--ckpt", str(ckpt), *out]),
        "manifest": (manifest, dataio.load_manifest, ["train", "--data", str(manifest), *out]),
        "config": (config, dataio.load_config,
                   ["train", "--data", str(manifest), "--config", str(config), *out]),
        "checkpoint": (bad_ckpt, dataio.load_checkpoint,
                       ["embed", "--data", str(records), "--ckpt", str(bad_ckpt), *out]),
    }


@pytest.mark.parametrize("reader, error, code", [
    ("records", DataFormatError, 3), ("manifest", DataFormatError, 3),
    ("config", ConfigError, 2), ("checkpoint", DataFormatError, 3),
])
def test_integer_past_the_digit_limit_names_the_file(tmp_path, capsys, reader, error, code):
    path, load, argv = _huge_int_cases(tmp_path)[reader]
    with pytest.raises(error, match="invalid JSON") as err:
        load(path)
    assert str(path) in str(err.value)
    if reader == "records":
        assert "line 2" in str(err.value)
    assert main(argv) == code
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("generator", [5, "g", [1]])
def test_manifest_generator_must_be_an_object_or_null(tmp_path, generator):
    obj = {"dataset_name": "d", "seed": 0, "files": {}, "splits": {}, "generator": generator}
    with pytest.raises(DataFormatError, match="^manifest field 'generator' must be an object or null"):
        dataio.Manifest(**obj)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataFormatError, match="manifest field 'generator' must be an object or null"):
        dataio.load_manifest(path)


@pytest.mark.parametrize("generator", [
    {"noise_level": np.float32(0.004)}, {"views": {0, 90}}, {1: "a", "b": 2},
], ids=["numpy-scalar", "set", "mixed-type-keys"])
def test_manifest_generator_must_be_json_encodable(generator):
    with pytest.raises(DataFormatError, match="^manifest field 'generator' must hold only JSON values"):
        dataio.Manifest(dataset_name="d", seed=0, files={}, splits={}, generator=generator)


@pytest.mark.parametrize("field, value", [
    ("files", {"train": "t.jsonl", 0: "u.jsonl"}), ("splits", {"train": [], 0: []}),
])
def test_manifest_split_names_must_be_strings(field, value):
    fields = {"files": {}, "splits": {}, field: value}
    with pytest.raises(DataFormatError, match=f"^manifest field '{field}' must be an object of .* by split name"):
        dataio.Manifest(dataset_name="d", seed=0, **fields)


def test_failed_manifest_write_leaves_the_old_file_unchanged(tmp_path, monkeypatch):
    path = dataio.write_manifest(
        dataio.Manifest(dataset_name="d", seed=0, files={}, splits={}, generator={"frames": 8}),
        tmp_path / "manifest.json")
    before = path.read_bytes()
    real_dumps = dataio.json.dumps

    def dumps(obj, **kwargs):  # fails the manifest itself, after its field rules have passed
        if isinstance(obj, dict) and "dataset_name" in obj:
            raise TypeError("not serializable")
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(dataio.json, "dumps", dumps)
    with pytest.raises(TypeError):
        dataio.write_manifest(dataio.Manifest(dataset_name="d", seed=1, files={}, splits={}), path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("field, value", [
    ("generator", {"noise_level": np.float32(0.004)}), ("files", {"train": 5}), ("splits", {"train": [1]}),
])
def test_manifest_changed_after_construction_is_refused_at_write(tmp_path, field, value):
    manifest = dataio.Manifest(dataset_name="d", seed=0, files={}, splits={}, generator={})
    getattr(manifest, field).update(value)
    with pytest.raises(DataFormatError, match=f"^manifest field '{field}' must"):
        dataio.write_manifest(manifest, tmp_path / "manifest.json")
    assert not (tmp_path / "manifest.json").exists()
