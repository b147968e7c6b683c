"""File formats: record round-trips with line-addressed errors, manifest
validation, bit-exact checkpoints with integrity checks, and run configs."""

import json

import numpy as np
import pytest

from conftest import random_windows, tiny_config

from gaitpt import dataio
from gaitpt.errors import ConfigError, DataFormatError, IntegrityError
from gaitpt.evaluation import EmbeddingSet
from gaitpt.model import GaitPTConfig, GaitPTModel, with_stages
from gaitpt.skeleton import Condition, PartitionScheme
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


def test_split_key_mismatch_is_detected(tmp_path):
    dataio.write_records([make_record("k1")], tmp_path / "train.jsonl")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "dataset_name": "d", "seed": 0,
        "files": {"train": "train.jsonl"}, "splits": {"train": ["other"]},
    }))
    with pytest.raises(DataFormatError, match="disagree"):
        dataio.load_split_sequences(path)


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
    header["format_version"] = 999
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(IntegrityError, match="version"):
        dataio.load_checkpoint(path)


_BAD_PARAM_TABLES = {
    "params=5": 5,
    "params=[[name]]": [["input_proj.w"]],
    "params=[[3, shape]]": [[3, [2, 8]]],
    "params=[[name, [2.5, 8]]]": [["input_proj.w", [2.5, 8]]],
    "params=[[name, [-2, 8]]]": [["input_proj.w", [-2, 8]]],
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


def test_checkpoint_config_mismatch_rejected(tmp_path):
    model = GaitPTModel(tiny_config(), seed=7)
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, path)
    dataio.load_checkpoint(path, expected_config=tiny_config())  # matching: fine
    with pytest.raises(ConfigError, match="does not match"):
        dataio.load_checkpoint(path, expected_config=tiny_config(output_dim=64))


def test_checkpoint_header_echoes_config(tmp_path):
    cfg = tiny_config(scheme="OPPOSITE")
    model = GaitPTModel(cfg, seed=8)
    path = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, path)
    header = json.loads(path.read_bytes().partition(b"\n")[0])
    assert GaitPTConfig.from_dict(header["model_config"]) == cfg


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
        yield with_stages(full, [i for i in (1, 2, 3, 4) if mask >> (i - 1) & 1])
    for scheme in PartitionScheme:
        yield GaitPTConfig.build(**base, scheme=scheme, active_stages=(2, 3))
    yield GaitPTConfig.build(dims=(4, 8, 8, 16), blocks=(1, 2, 1, 2), heads=(1, 2, 4, 8),
                             sequence_length=2, output_dim=3, ffn_multiplier=1,
                             spatial_positional=False, temporal_positional=False, dtype="float64")
    yield GaitPTConfig(**base, active_stages=(1, 3, 4))


def test_every_buildable_config_roundtrips_through_checkpoint(tmp_path):
    path = tmp_path / "cfg.ckpt"
    for cfg in _buildable_configs():
        model = GaitPTModel(cfg, seed=1)
        dataio.save_checkpoint(model, path)
        loaded = dataio.load_checkpoint(path, expected_config=cfg)
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
    back = dataio.read_embeddings(path)
    assert back.keys == emb.keys
    assert back.subject_ids == emb.subject_ids
    assert back.conditions == emb.conditions
    assert np.array_equal(back.views, emb.views)
    assert np.array_equal(back.embeddings, emb.embeddings)


_EMBEDDING_ROW = '{"key": "%s", "subject_id": "s0", "condition": "NM", "view": 0, "embedding": %s}\n'


@pytest.mark.parametrize("blob, where", [
    ((_EMBEDDING_ROW % ("a", "[0.1, 0.2]")).encode() + b"\xff\n", "byte offset 88"),
    (_EMBEDDING_ROW % ("a", "[0.1, 0.2]") + _EMBEDDING_ROW % ("b", "[0.1, 0.2, 0.3]"), "line 2"),
    (_EMBEDDING_ROW % ("a", "[0.1, 0.2]") + "\n" + _EMBEDDING_ROW % ("b", "[NaN, 0.2]"), "line 3"),
], ids=["not-utf8", "ragged", "non-finite"])
def test_read_embeddings_rejects_bad_rows_by_position(tmp_path, blob, where):
    path = tmp_path / "emb.jsonl"
    if isinstance(blob, str):
        path.write_text(blob)
    else:
        path.write_bytes(blob)
    with pytest.raises(DataFormatError, match=where):
        dataio.read_embeddings(path)


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
        "output_dim", "ffn_multiplier", "spatial_positional", "temporal_positional", "dtype",
    ]


@pytest.mark.parametrize("section, key, value", [
    ("model", "blocks", [1, 2]),
    ("model", "heads", [1, 2, 4]),
    ("model", "blocks", 1.5),
    ("model", "dims", [8.5, 16, 32, 64]),
    ("model", "dims", 32),
    ("model", "output_dim", 2.5),
    ("model", "sequence_length", 2.5),
    ("model", "ffn_multiplier", 2.5),
    ("model", "active_stages", [1, 2.0]),
    ("model", "active_stages", 4),
    ("model", "scheme", "NOPE"),
    ("train", "micro_batch", 2.5),
    ("train", "p", "8"),
    ("train", "epochs", None),
    ("train", "steps_per_epoch", 1.5),
    ("train", "seed", -1),
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
