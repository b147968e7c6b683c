"""On-disk formats: JSONL pose-sequence records, dataset manifests, binary
model checkpoints, and run configuration files.

Records store 17 joints (the pose-estimator-native count); the duplicated
nose and width normalization are applied at load. Checkpoints are a JSON
header line followed by a raw little-endian parameter payload in header
order, guarded by a length check and a CRC32.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, IntegrityError
from .evaluation import EmbeddingSet
from .model import GaitPTConfig, GaitPTModel
from .skeleton import (
    RAW_JOINTS, Condition, GaitSequence, duplicate_nose, normalize_sequence, sequence_key,
)
from .training import TrainConfig

CHECKPOINT_VERSION = 1

_RECORD_KEYS = ("key", "subject_id", "condition", "view", "session", "frame_width", "frames")
_OPTIONAL_RECORD_KEYS = ("session",)


@dataclass(frozen=True)
class SequenceRecord:
    """One stored walking sequence: raw 17-joint coordinates plus labels."""

    key: str
    subject_id: str
    condition: str
    view: int
    session: int
    frame_width: float
    frames: np.ndarray  # (n, 17, 2), unnormalized

    def __post_init__(self):
        try:
            arr = np.asarray(self.frames, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise DataFormatError(f"record {self.key!r}: frames are not numeric") from e
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1:] != (RAW_JOINTS, 2):
            raise DataFormatError(
                f"record {self.key!r}: frames need shape (n, 17, 2) with n >= 1, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise DataFormatError(f"record {self.key!r}: frames hold non-finite coordinates")
        if not (np.isfinite(self.frame_width) and self.frame_width > 0):
            raise DataFormatError(f"record {self.key!r}: frame_width must be finite and > 0")
        object.__setattr__(self, "frames", arr)


def sequence_to_record(seq: GaitSequence, frame_width: float = 1.0) -> SequenceRecord:
    """Store a normalized in-memory sequence; joint 17 (the duplicated nose)
    is dropped and coordinates are scaled back out by `frame_width`."""
    frames = seq.frames[:, :RAW_JOINTS]
    if frame_width != 1.0:
        frames = frames * frame_width
    return SequenceRecord(
        key=seq.key or sequence_key(seq.subject_id, seq.condition, seq.view, seq.session),
        subject_id=seq.subject_id,
        condition=seq.condition.value,
        view=seq.view,
        session=seq.session,
        frame_width=float(frame_width),
        frames=frames,
    )


def record_to_sequence(rec: SequenceRecord) -> GaitSequence:
    """Apply nose duplication and width normalization."""
    seq = GaitSequence(
        subject_id=rec.subject_id,
        condition=Condition(rec.condition),
        view=rec.view,
        session=rec.session,
        frames=duplicate_nose(rec.frames),
        key=rec.key,
    )
    return normalize_sequence(seq, rec.frame_width)


def write_records(records, path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        for rec in records:
            obj = {k: getattr(rec, k) for k in _RECORD_KEYS}
            obj["frames"] = rec.frames.tolist()
            fh.write(json.dumps(obj) + "\n")
    return path


def _jsonl_objects(path: Path):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    Non-UTF-8 bytes are reported with their byte offset, and invalid JSON or
    a row that is not an object with its line.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text (byte offset {e.start})") from e
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path} line {lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(obj, dict):
            raise DataFormatError(f"{path} line {lineno}: expected a JSON object")
        yield lineno, obj


def read_records(path) -> list[SequenceRecord]:
    """Parse a JSONL record file; every problem is reported with its line
    (or byte offset, for non-text files)."""
    path = Path(path)
    records = []
    for lineno, obj in _jsonl_objects(path):
        unknown = set(obj) - set(_RECORD_KEYS)
        if unknown:
            raise DataFormatError(f"{path} line {lineno}: unknown keys {sorted(unknown)}")
        missing = set(_RECORD_KEYS) - set(_OPTIONAL_RECORD_KEYS) - set(obj)
        if missing:
            raise DataFormatError(f"{path} line {lineno}: missing keys {sorted(missing)}")
        try:
            records.append(
                SequenceRecord(
                    key=str(obj["key"]),
                    subject_id=str(obj["subject_id"]),
                    condition=str(obj["condition"]),
                    view=int(obj["view"]),
                    session=int(obj.get("session", 1)),
                    frame_width=float(obj["frame_width"]),
                    frames=obj["frames"],
                )
            )
        except (DataFormatError, ValueError, TypeError) as e:
            raise DataFormatError(f"{path} line {lineno}: {e}") from e
    return records


def read_sequences(path) -> list[GaitSequence]:
    """Load validated, normalized 18-joint sequences."""
    out = []
    for rec in read_records(path):
        try:
            out.append(record_to_sequence(rec))
        except (DataFormatError, ValueError) as e:
            raise DataFormatError(f"{path}: record {rec.key!r}: {e}") from e
    return out


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Manifest:
    """Dataset manifest: split record files and their sequence keys."""

    dataset_name: str
    seed: int
    files: dict[str, str]          # split name -> record file, relative
    splits: dict[str, list[str]]   # split name -> sequence keys
    generator: dict | None = None

    def __post_init__(self):
        seen: dict[str, str] = {}
        for split, keys in self.splits.items():
            for k in keys:
                if k in seen:
                    raise DataFormatError(
                        f"manifest: key {k!r} appears in both {seen[k]!r} and {split!r}"
                    )
                seen[k] = split


@dataclass
class DatasetSplits:
    """Loaded train/gallery/probe sequences of one dataset."""

    train: list[GaitSequence] = field(default_factory=list)
    gallery: list[GaitSequence] = field(default_factory=list)
    probe: list[GaitSequence] = field(default_factory=list)


def write_manifest(manifest: Manifest, path) -> Path:
    path = Path(path)
    obj = {
        "dataset_name": manifest.dataset_name,
        "seed": manifest.seed,
        "files": manifest.files,
        "splits": manifest.splits,
    }
    if manifest.generator is not None:
        obj["generator"] = manifest.generator
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    for key in ("dataset_name", "seed", "files", "splits"):
        if key not in obj:
            raise DataFormatError(f"{path}: manifest is missing {key!r}")
    manifest = Manifest(
        dataset_name=obj["dataset_name"],
        seed=int(obj["seed"]),
        files=dict(obj["files"]),
        splits={k: list(v) for k, v in obj["splits"].items()},
        generator=obj.get("generator"),
    )
    for split, fname in manifest.files.items():
        if not (path.parent / fname).exists():
            raise DataFormatError(f"{path}: split {split!r} references missing file {fname!r}")
    return manifest


def load_split_sequences(manifest_path) -> DatasetSplits:
    """Load every split's sequences, checking keys against the manifest."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    splits = DatasetSplits()
    for split in ("train", "gallery", "probe"):
        if split not in manifest.files:
            continue
        seqs = read_sequences(manifest_path.parent / manifest.files[split])
        expected = set(manifest.splits.get(split, []))
        actual = {s.key for s in seqs}
        if expected != actual:
            raise DataFormatError(
                f"{manifest_path}: split {split!r} keys disagree with the record file "
                f"(missing {sorted(expected - actual)[:3]}, extra {sorted(actual - expected)[:3]})"
            )
        setattr(splits, split, seqs)
    return splits


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: GaitPTModel, path) -> Path:
    path = Path(path)
    names = list(model.params)
    payload = b"".join(
        model.params[n].value.data.astype(model.config.np_dtype.newbyteorder("<")).tobytes()
        for n in names
    )
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": model.config.dtype,
        "model_config": model.config.to_dict(),
        "params": [[n, list(model.params[n].value.shape)] for n in names],
        "payload_bytes": len(payload),
        "crc32": zlib.crc32(payload),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(payload)
    return path


def load_checkpoint(path, expected_config: GaitPTConfig | None = None) -> GaitPTModel:
    """Rebuild a model bitwise from a checkpoint file.

    Rejects version mismatches, truncated or corrupted payloads, and (when
    `expected_config` is given) configs that disagree with the caller's.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"{path}: unreadable checkpoint header") from e
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise IntegrityError(f"{path}: format version {version} != supported {CHECKPOINT_VERSION}")
    for field_name in ("payload_bytes", "crc32", "params"):
        if field_name not in header:
            raise DataFormatError(f"{path}: checkpoint header has no {field_name!r} field")
    if len(payload) != header["payload_bytes"]:
        raise IntegrityError(
            f"{path}: payload is {len(payload)} bytes, header promises {header['payload_bytes']}"
        )
    if zlib.crc32(payload) != header["crc32"]:
        raise IntegrityError(f"{path}: payload CRC mismatch, file is corrupted")

    try:
        config = GaitPTConfig.from_dict(header["model_config"])
    except (KeyError, TypeError, ConfigError) as e:
        raise DataFormatError(f"{path}: invalid model config in header: {e}") from e
    if expected_config is not None and config != expected_config:
        raise ConfigError(
            f"{path}: checkpoint config {config.to_dict()} does not match requested {expected_config.to_dict()}"
        )

    table = header["params"]
    if not (isinstance(table, list) and all(
        isinstance(row, list) and len(row) == 2 and isinstance(row[0], str)
        and isinstance(row[1], list) and all(type(n) is int and n >= 0 for n in row[1])
        for row in table
    )):
        raise DataFormatError(f"{path}: checkpoint 'params' is not a list of [name, shape] pairs")
    model = GaitPTModel(config, seed=0)
    dtype = config.np_dtype.newbyteorder("<")
    if [name for name, _ in table] != list(model.params):
        raise IntegrityError(f"{path}: parameter table does not match the config's parameters")
    offset = 0
    for name, shape in table:
        p = model.params[name]
        if tuple(shape) != p.value.shape:
            raise IntegrityError(f"{path}: parameter {name} has shape {shape}, expected {p.value.shape}")
        nbytes = int(np.prod(shape)) * dtype.itemsize
        chunk = payload[offset : offset + nbytes]
        arr = np.frombuffer(chunk, dtype=dtype).reshape(shape)
        p.value.data[...] = arr
        offset += nbytes
    return model


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def write_embeddings(embset: EmbeddingSet, path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        for i in range(len(embset)):
            obj = {
                "key": embset.keys[i],
                "subject_id": embset.subject_ids[i],
                "condition": embset.conditions[i].value,
                "view": int(embset.views[i]),
                "session": int(embset.sessions[i]),
                "embedding": embset.embeddings[i].tolist(),
            }
            fh.write(json.dumps(obj) + "\n")
    return path


def read_embeddings(path) -> EmbeddingSet:
    """Parse a JSONL embedding file; every problem is reported with its line
    (or byte offset, for non-text files)."""
    path = Path(path)
    keys, subjects, conditions, views, sessions, vectors = [], [], [], [], [], []
    for lineno, obj in _jsonl_objects(path):
        try:
            vector = np.asarray(obj["embedding"], dtype=np.float64)
            if vector.ndim != 1:
                raise ValueError(f"embedding must be a flat list, got shape {vector.shape}")
            if vectors and vector.size != vectors[0].size:
                raise ValueError(f"embedding has {vector.size} entries, earlier rows {vectors[0].size}")
            if not np.isfinite(vector).all():
                raise ValueError("embedding holds non-finite values")
            keys.append(str(obj["key"]))
            subjects.append(str(obj["subject_id"]))
            conditions.append(Condition(obj["condition"]))
            views.append(int(obj["view"]))
            sessions.append(int(obj.get("session", 1)))
            vectors.append(vector)
        except (KeyError, ValueError, TypeError) as e:
            raise DataFormatError(f"{path} line {lineno}: {e}") from e
    if not vectors:
        raise DataFormatError(f"{path}: no embedding rows")
    return EmbeddingSet(
        keys=tuple(keys),
        subject_ids=tuple(subjects),
        conditions=tuple(conditions),
        views=np.array(views),
        sessions=np.array(sessions),
        embeddings=np.stack(vectors),
    )


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """A validated {model, train} configuration pair."""

    model: GaitPTConfig
    train: TrainConfig

    def to_dict(self) -> dict:
        return {"model": self.model.to_dict(), "train": self.train.to_dict()}


_MODEL_KEYS = {f.name for f in fields(GaitPTConfig)}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def config_from_dict(obj: dict) -> RunConfig:
    """Apply the reference defaults, then overlay `obj`; unknown keys and
    out-of-range values are rejected with their dotted path."""
    if not isinstance(obj, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(obj) - {"model", "train"}
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    model_obj = obj.get("model", {})
    train_obj = obj.get("train", {})
    for section, allowed, got in (("model", _MODEL_KEYS, model_obj), ("train", _TRAIN_KEYS, train_obj)):
        if not isinstance(got, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key in set(got) - allowed:
            raise ConfigError(f"unknown config key: {section}.{key}")
    try:
        train_cfg = TrainConfig(**train_obj)
    except TypeError as e:  # a float field holding a non-number
        raise ConfigError(f"train config: {e}") from e
    return RunConfig(model=GaitPTConfig(**model_obj), train=train_cfg)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    return config_from_dict(obj)
