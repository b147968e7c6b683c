"""On-disk formats: JSONL pose-sequence records, dataset manifests, binary
model checkpoints, and run configuration files.

Records store 17 joints (the pose-estimator-native count); the duplicated
nose and width normalization are applied at load. Checkpoints are a JSON
header line and the flat parameter vector (little-endian, in the order of
its [name, shape] table); the length must fit the table, the CRC32 the bytes.
Saving writes the model's parameter buffer, and loading reads the payload
into the buffer of a model built without its random init.
"""

from __future__ import annotations

import json
import math
import os
import sys
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import INT64, ConfigError, DataFormatError, IntegrityError, checked_int, checked_real
from .evaluation import EmbeddingSet
from .model import GaitPTConfig, GaitPTModel
from .skeleton import RAW_JOINTS, Condition, GaitSequence, duplicate_nose, normalize_sequence
from .training import TrainConfig

CHECKPOINT_VERSION = 2

_RECORD_KEYS = ("key", "subject_id", "condition", "view", "session", "frame_width", "frames")
_MANIFEST_KEYS = ("dataset_name", "seed", "files", "splits")


@dataclass(frozen=True)
class SequenceRecord:
    """One stored walking sequence: raw 17-joint coordinates plus labels.
    A bad field raises DataFormatError naming it, so any record that builds
    is one `read_records` reads back; the fields are stored as annotated."""

    key: str
    subject_id: str
    condition: str
    view: int
    session: int
    frame_width: float
    frames: np.ndarray  # (n, 17, 2) float64, unnormalized

    def __post_init__(self):
        for name in ("key", "subject_id", "condition"):
            if not isinstance(getattr(self, name), str):
                raise DataFormatError(f"{name} must be a string, got {getattr(self, name)!r}")
        try:
            object.__setattr__(self, "condition", Condition(self.condition).value)
        except ValueError:
            names = ", ".join(c.value for c in Condition)
            raise DataFormatError(f"condition must be one of {names}, got {self.condition!r}") from None
        for name in ("view", "session"):
            value = checked_int(name, getattr(self, name), *INT64, error=DataFormatError)
            object.__setattr__(self, name, value)
        width = checked_real("frame_width", self.frame_width, "finite and > 0",
                             lambda v: 0 < v < math.inf, DataFormatError)
        object.__setattr__(self, "frame_width", width)
        try:
            arr = np.asarray(self.frames)
        except ValueError as e:  # ragged nesting
            raise DataFormatError(f"frames need shape (n, 17, 2): {e}") from None
        if arr.dtype.kind not in "iuf":
            raise DataFormatError(f"frames must hold integers or floats, got dtype {arr.dtype}")
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1:] != (RAW_JOINTS, 2):
            raise DataFormatError(f"frames need shape (n, 17, 2) with n >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise DataFormatError("frames hold non-finite coordinates")
        object.__setattr__(self, "frames", arr.astype(np.float64, copy=False))


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


def _json_numbers_only(frames) -> bool:
    """False if a leaf three lists deep is not a JSON number (numpy reads a
    `false` among floats as 0.0); other nestings fail the record's shape check."""
    try:
        return all(type(v) in (int, float) for frame in frames for joint in frame for v in joint)
    except TypeError:
        return True


def read_records(path) -> list[SequenceRecord]:
    """Parse a JSONL record file; every problem is reported with its line
    (or byte offset, for non-text files)."""
    path = Path(path)
    records = []
    for lineno, obj in _jsonl_objects(path):
        unknown = set(obj) - set(_RECORD_KEYS)
        if unknown:
            raise DataFormatError(f"{path} line {lineno}: unknown keys {sorted(unknown)}")
        obj.setdefault("session", 1)
        missing = set(_RECORD_KEYS) - set(obj)
        if missing:
            raise DataFormatError(f"{path} line {lineno}: missing keys {sorted(missing)}")
        try:
            if not _json_numbers_only(obj["frames"]):
                raise DataFormatError("frames must hold only JSON numbers")
            records.append(SequenceRecord(**obj))
        except DataFormatError as e:
            raise DataFormatError(f"{path} line {lineno}: {e}") from e
    return records


def read_sequences(path) -> list[GaitSequence]:
    """Load validated, normalized 18-joint sequences (none from an empty file)."""
    return [record_to_sequence(rec) for rec in read_records(path)]


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
        for name, rule, ok in (  # a bad field raises DataFormatError naming it
            ("dataset_name", "a string", isinstance(self.dataset_name, str)),
            ("files", "an object of file names by split name", isinstance(self.files, dict) and all(
                isinstance(split, str) and isinstance(f, str) for split, f in self.files.items())),
            ("splits", "an object of key lists by split name", isinstance(self.splits, dict) and all(
                isinstance(split, str) and isinstance(keys, list) and all(isinstance(k, str) for k in keys)
                for split, keys in self.splits.items())),
            ("generator", "an object or null", self.generator is None or isinstance(self.generator, dict)),
        ):
            if not ok:
                raise DataFormatError(f"manifest field {name!r} must be {rule}")
        try:  # as `write_manifest` will: a numpy scalar, a set or mixed-type keys fail here
            json.dumps(self.generator, sort_keys=True)
        except (TypeError, ValueError) as e:
            raise DataFormatError(f"manifest field 'generator' must hold only JSON values: {e}") from None
        seed = checked_int("manifest field 'seed'", self.seed, None, error=DataFormatError)
        object.__setattr__(self, "seed", seed)
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
    manifest = replace(manifest)  # its dicts may have changed since it was built: check them again
    obj = {k: getattr(manifest, k) for k in _MANIFEST_KEYS}
    if manifest.generator is not None:
        obj["generator"] = manifest.generator
    # serialized before the file opens, so a failure leaves an old manifest as it was
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path) -> Manifest:
    path = Path(path)
    obj = _json_value(_utf8_text(path, DataFormatError), DataFormatError, str(path))
    if not isinstance(obj, dict):
        raise DataFormatError(f"{path}: manifest is not a JSON object")
    for key in _MANIFEST_KEYS:
        if key not in obj:
            raise DataFormatError(f"{path}: manifest field {key!r} is missing")
    try:
        manifest = Manifest(**{k: obj[k] for k in _MANIFEST_KEYS}, generator=obj.get("generator"))
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from e
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
    # the model's buffer itself on a little-endian host (a byte-swapped copy on a big-endian one)
    payload = model.flat_parameters().data.astype(model.config.np_dtype.newbyteorder("<"), copy=False)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": model.config.dtype,
        "model_config": model.config.to_dict(),
        "params": _param_table(model),
        "payload_bytes": payload.nbytes,
        "crc32": zlib.crc32(payload),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(payload)
    return path


def _param_table(model: GaitPTModel) -> list:
    """The header's [[name, shape], ...] table, in flat-vector order."""
    return [[name, list(shape)] for name, _, shape in model.layout]


def load_checkpoint(path) -> GaitPTModel:
    """Rebuild a model bitwise from a checkpoint file.

    The payload is read straight into the parameter buffer of a model built
    with no random init, so a load holds one copy of it. Rejects version
    mismatches, malformed headers, a payload whose length differs from the
    header's count, a `params` table (compared as JSON text, so `2.0` for
    `2` fails) or payload length that differs from the config's flat
    vector, and a CRC mismatch.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = _json_value(fh.readline(), DataFormatError, f"{path}: unreadable checkpoint header")
        if not isinstance(header, dict):
            raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
        version = header.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise IntegrityError(f"{path}: format version {version} != supported {CHECKPOINT_VERSION}")
        for field_name in ("payload_bytes", "crc32", "params"):
            if field_name not in header:
                raise DataFormatError(f"{path}: checkpoint header has no {field_name!r} field")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != header["payload_bytes"]:
            raise IntegrityError(f"{path}: payload is {size} bytes, header promises {header['payload_bytes']}")

        try:
            config = GaitPTConfig(**header["model_config"])
        except (KeyError, TypeError, ConfigError) as e:
            raise DataFormatError(f"{path}: invalid model config in header: {e}") from e
        model = GaitPTModel._unfilled(config)
        if json.dumps(header["params"]) != json.dumps(_param_table(model)):
            raise IntegrityError(f"{path}: 'params' is not a list of [name, shape] pairs of its config")
        flat = model.flat_parameters().data
        if size != flat.nbytes:
            raise IntegrityError(f"{path}: payload is {size} bytes, the parameter table needs {flat.nbytes}")
        got = fh.readinto(memoryview(flat).cast("B"))
        if got != flat.nbytes or fh.read(1):  # the file changed after the size check
            raise IntegrityError(f"{path}: payload changed while read: {got} bytes read of {flat.nbytes}, "
                                 f"{'and more' if got == flat.nbytes else 'then the end'}")
    if zlib.crc32(flat) != header["crc32"]:
        raise IntegrityError(f"{path}: payload CRC mismatch, file is corrupted")
    if sys.byteorder == "big":  # the payload is little-endian
        flat.byteswap(inplace=True)
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
