#!/usr/bin/env python3
"""Bit-level fingerprints of the numeric outputs of one or more gaitpt trees.

    python tools/fingerprint.py TREE [TREE ...]

TREE is a checkout holding `src/gaitpt`. Each tree's package runs in a fresh
process with one BLAS thread, and one sha256 prefix is printed per output:

    train-small     parameters after one training op of the criterion-6 model
    train-default   parameters after one training op of the default model
    embed-float32   embeddings of 17 fixed windows by a default model that
    embed-float64   went through a checkpoint, in each dtype
    checkpoint      the bytes of those two checkpoint files (default config, seed 1)
    gradcheck       every `gaitpt gradcheck` report, errors at full precision
    synth           the files of a `gaitpt synth --seed 1` directory

A last `tape-nodes` line gives, per tree, the tape nodes one taped micro-batch
of 8 windows records on the criterion-6 model and on the default model. These
are counts, not digests, so they do not enter the exit status.

The training ops are the first op of the benchmark's `train-small` and
`train-default` workloads at seed 1. Digests depend on the BLAS build, so
compare trees on one machine rather than against stored values. With more
than one tree, the exit status is 1 if any digest differs.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

SEED = 1
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _params_digest(model) -> str:
    return _digest(name.encode() + p.value.data.tobytes() for name, p in model.params.items())


def _train_one_op(model_config, data, p: int, k: int, micro_batch: int) -> str:
    from gaitpt import model, synthgait, training

    splits = synthgait.generate_split_sequences(replace(data, seed=SEED))
    m = model.GaitPTModel(model_config, seed=SEED)
    cfg = training.TrainConfig(p=p, k=k, micro_batch=micro_batch, epochs=1, steps_per_epoch=1,
                               seed=SEED * 1_000_003)
    training.train(m, [s for part in splits.values() for s in part], cfg, log_stream=io.StringIO())
    return _params_digest(m)


def _embed_through_checkpoint(dtype: str, workdir: Path) -> str:
    from gaitpt import dataio, model

    cfg = model.GaitPTConfig(dtype=dtype)
    path = dataio.save_checkpoint(model.GaitPTModel(cfg, seed=SEED), workdir / f"{dtype}.ckpt")
    windows = np.random.default_rng(SEED).uniform(size=(17, cfg.sequence_length, 18, 2))
    return _digest([dataio.load_checkpoint(path).embed_arrays(windows.astype(cfg.np_dtype)).tobytes()])


def _gradcheck() -> str:
    from gaitpt import cli, numcore as nc

    tol = 1e-4  # `gaitpt gradcheck`'s default, with its default seed 0
    reports = [(name, nc.grad_check(f, x, tol=tol))
               for name, f, x in cli._gradcheck_cases(np.random.default_rng(0))]
    reports += cli.tiny_model_gradcheck(tol, seed=0)
    return _digest(f"{name} {r.max_rel_err!r} {r.checked} {r.total}\n".encode() for name, r in reports)


def _synth(workdir: Path) -> str:
    from gaitpt import cli

    out = workdir / "synth"
    with redirect_stdout(io.StringIO()):
        if cli.main(["synth", "--out", str(out), "--seed", str(SEED)]) != 0:
            raise RuntimeError("gaitpt synth failed")
    files = sorted(out.iterdir())
    return _digest(f.name.encode() + b"\0" + f.read_bytes() for f in files)


def _small_model_config():
    from gaitpt import model

    return model.GaitPTConfig(dims=(16, 32, 64, 128), blocks=1, heads=2, sequence_length=20, output_dim=32)


def tape_nodes() -> str:
    """Tape nodes of one taped 8-window micro-batch, criterion-6 model/default model."""
    from gaitpt import model, numcore

    counts = []
    for cfg in (_small_model_config(), model.GaitPTConfig()):
        windows = np.random.default_rng(SEED).uniform(size=(8, cfg.sequence_length, 18, 2))
        with numcore.GradTape() as tape:
            model.GaitPTModel(cfg, seed=SEED).embed_batch(windows.astype(cfg.np_dtype))
        counts.append(str(len(tape)))
    return "/".join(counts)


def tree_digests(tree: str) -> dict[str, str]:
    """The digests of the gaitpt package on sys.path, which must come from
    the absolute path `tree`."""
    import gaitpt
    from gaitpt import model, synthgait
    from gaitpt.skeleton import Condition

    src = Path(tree) / "src"
    if not Path(gaitpt.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"gaitpt was imported from {gaitpt.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        return {
            "train-small": _train_one_op(
                _small_model_config(),
                synthgait.SynthConfig(identities=12, sequences_per_identity=8, frames=30, views=(0, 90),
                                      conditions=(Condition.NM, Condition.CL), noise_level=0.05),
                p=6, k=4, micro_batch=8),
            "train-default": _train_one_op(
                model.GaitPTConfig(),
                synthgait.SynthConfig(identities=16, sequences_per_identity=8, frames=60, views=(0, 90)),
                p=8, k=4, micro_batch=8),
            "embed-float32": _embed_through_checkpoint("float32", workdir),
            "embed-float64": _embed_through_checkpoint("float64", workdir),
            "checkpoint": _digest((workdir / f"{dtype}.ckpt").read_bytes() for dtype in ("float32", "float64")),
            "gradcheck": _gradcheck(),
            "synth": _synth(workdir),
        }


def _run_tree(tree: str) -> dict[str, str]:
    """`tree_digests` in a fresh process that imports gaitpt from `tree`."""
    root = Path(tree).resolve()
    env = {**os.environ, **ONE_THREAD,
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).resolve().parent), str(root / "src")])}
    code = ("import sys, fingerprint\n"
            "for name, d in fingerprint.tree_digests(sys.argv[1]).items(): print(name, d)\n"
            "print('tape-nodes', fingerprint.tape_nodes())")
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run([sys.executable, "-c", code, str(root)], env=env, cwd=cwd,
                             check=True, capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


def main(argv: list[str]) -> int:
    if not argv or any(a.startswith("-") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for tree in argv:
        try:
            results.append(_run_tree(tree))
        except subprocess.CalledProcessError as e:
            print(f"{tree}: fingerprinting failed\n{e.stderr}", file=sys.stderr)
            return 2
    print("output         " + "  ".join(f"{t:<16s}" for t in argv))
    nodes = [r.pop("tape-nodes") for r in results]
    same = True
    for name in results[0]:
        digests = [r.get(name, "-") for r in results]
        same &= len(set(digests)) == 1
        print(f"{name:<14s} " + "  ".join(f"{d:<16s}" for d in digests))
    print("tape-nodes     " + "  ".join(f"{n:<16s}" for n in nodes))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
