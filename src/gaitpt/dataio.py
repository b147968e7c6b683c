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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, IntegrityError
from .evaluation import EmbeddingSet
from .model import GaitPTConfig, GaitPTModel
from .skeleton import INT64, RAW_JOINTS, Condition, GaitSequence, duplicate_nose, normalize_sequence
from .training import TrainConfig

CHECKPOINT_VERSION = 2

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


def sequence_to_record(seq: GaitSequence) -> SequenceRecord:
    """Store a normalized in-memory sequence with frame width 1.0; joint 17
    (the duplicated nose) is dropped."""
    return SequenceRecord(
        key=seq.key,
        subject_id=seq.subject_id,
        condition=seq.condition.value,
        view=seq.view,
        session=seq.session,
        frame_width=1.0,
        frames=seq.frames[:, :RAW_JOINTS],
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


def _utf8_text(path: Path, error: type[Exception]) -> str:
    """The file's text; a non-UTF-8 byte raises `error` naming its offset."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (byte offset {e.start})") from e


def _json_value(text: str | bytes, error: type[Exception], where: str):
    """The JSON value of `text`; bytes must be UTF-8 (`json.loads` would also
    take UTF-16 and UTF-32). Every ValueError it meets, be it bad UTF-8, bad
    syntax or an integer past Python's int-to-str digit limit, raises `error`
    naming `where`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as e:
        raise error(f"{where}: invalid JSON ({e})") from e


def _jsonl_objects(path: Path):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    Non-UTF-8 bytes are reported with their byte offset, and invalid JSON or
    a row that is not an object with its line.
    """
    for lineno, line in enumerate(_utf8_text(path, DataFormatError).splitlines(), start=1):
        if not line.strip():
            continue
        obj = _json_value(line, DataFormatError, f"{path} line {lineno}")
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
        view, session = obj["view"], obj.get("session", 1)
        for name, rule, ok in (  # nothing is coerced, and bools are not numbers
            ("key", "a string", isinstance(obj["key"], str)),
            ("subject_id", "a string", isinstance(obj["subject_id"], str)),
            ("condition", "a string", isinstance(obj["condition"], str)),
            ("view", "an integer in int64 range",
             type(view) is int and INT64.min <= view <= INT64.max),
            ("session", "an integer in int64 range",
             type(session) is int and INT64.min <= session <= INT64.max),
            ("frame_width", "a number", type(obj["frame_width"]) in (int, float)),
        ):
            if not ok:
                raise DataFormatError(f"{path} line {lineno}: {name} must be {rule}, got {obj[name]!r}")
        try:
            records.append(
                SequenceRecord(
                    key=obj["key"],
                    subject_id=obj["subject_id"],
                    condition=obj["condition"],
                    view=view,
                    session=session,
                    frame_width=float(obj["frame_width"]),
                    frames=obj["frames"],
                )
            )
        except (DataFormatError, ValueError, TypeError, OverflowError) as e:
            raise DataFormatError(f"{path} line {lineno}: {e}") from e
        # the record's (n, 17, 2) shape holds, so `frames` nests lists three deep
        if any(type(v) not in (int, float) for frame in obj["frames"] for joint in frame for v in joint):
            raise DataFormatError(f"{path} line {lineno}: frames must hold only JSON numbers")
    return records


def read_sequences(path) -> list[GaitSequence]:
    """Load validated, normalized 18-joint sequences (none from an empty file)."""
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
    obj = _json_value(_utf8_text(path, DataFormatError), DataFormatError, str(path))
    if not isinstance(obj, dict):
        raise DataFormatError(f"{path}: manifest is not a JSON object")
    files, splits = obj.get("files"), obj.get("splits")
    for key, rule, ok in (
        ("dataset_name", "a string", isinstance(obj.get("dataset_name"), str)),
        ("seed", "an integer", type(obj.get("seed")) is int),
        ("files", "an object of file names",
         isinstance(files, dict) and all(isinstance(f, str) for f in files.values())),
        ("splits", "an object of key lists", isinstance(splits, dict) and all(
            isinstance(keys, list) and all(isinstance(k, str) for k in keys) for keys in splits.values())),
    ):
        if not ok:
            problem = f"must be {rule}" if key in obj else "is missing"
            raise DataFormatError(f"{path}: manifest field {key!r} {problem}")
    manifest = Manifest(
        dataset_name=obj["dataset_name"],
        seed=obj["seed"],
        files=files,
        splits=splits,
        generator=obj.get("generator"),
    )
    for split, fname in manifest.files.items():
        if not (path.parent / fname).exists():
            raise DataFormatError(f"{path}: split {split!r} references missing file {fname!r}")
    return manifest


def load_split_sequences(manifest_path) -> dict[str, list[GaitSequence]]:
    """Load the "train", "gallery" and "probe" sequences, checking keys
    against the manifest; the dict has the form `generate_split_sequences`
    returns, and a split the manifest lacks maps to []."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    splits: dict[str, list[GaitSequence]] = {"train": [], "gallery": [], "probe": []}
    for split in splits:
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
        splits[split] = seqs
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


def load_checkpoint(path) -> GaitPTModel:
    """Rebuild a model bitwise from a checkpoint file.

    Rejects version mismatches, truncated or corrupted payloads, and
    malformed headers.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = _json_value(header_line, DataFormatError, f"{path}: unreadable checkpoint header")
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
        config = GaitPTConfig(**header["model_config"])
    except (KeyError, TypeError, ConfigError) as e:
        raise DataFormatError(f"{path}: invalid model config in header: {e}") from e

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
    return RunConfig(model=GaitPTConfig(**model_obj), train=TrainConfig(**train_obj))


def load_config(path) -> RunConfig:
    path = Path(path)
    return config_from_dict(_json_value(_utf8_text(path, ConfigError), ConfigError, str(path)))
