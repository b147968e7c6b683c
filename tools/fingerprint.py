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
    schemes         embeddings and every parameter gradient of the criterion-6
                    model under the ALL, HLR and OPPOSITE schemes in float32
                    and float64, on 5 windows (so the head pads its rows)

Two last lines count, per tree, what one taped micro-batch of 8 windows
records on the criterion-6 model and on the default model: `tape-nodes`, its
tape nodes, and `tape-bytes`, the bytes of the arrays its VJP closures hold
(see `tape_bytes`). These are counts, not digests, so they do not enter the
exit status.

The training ops are the first op of the tree's own `perfbench/workloads.py`
`train-small` and `train-default` workloads at seed 1, and the criterion-6
model is `train-small`'s. Digests depend on the BLAS build, so compare trees
on one machine rather than against stored values. With more than one tree,
the exit status is 1 if any digest differs.
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


def _train_one_op(workload: str, workdir: Path) -> str:
    """Parameters after the first op of a perfbench training workload."""
    import workloads

    step = workloads.WORKLOADS[workload]()
    step.setup(SEED, workdir)
    step.op(0)
    return _params_digest(step.model)


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
    """The criterion-6 model's config, as perfbench's `train-small` builds it."""
    import workloads

    return workloads.WORKLOADS["train-small"]().model_config


def _schemes() -> str:
    from gaitpt import model, numcore

    chunks = []
    for scheme in ("ALL", "HLR", "OPPOSITE"):
        for dtype in ("float32", "float64"):
            cfg = replace(_small_model_config(), scheme=scheme, dtype=dtype)
            rng = np.random.default_rng(SEED)
            windows = rng.uniform(size=(5, cfg.sequence_length, 18, 2)).astype(dtype)
            m = model.GaitPTModel(cfg, seed=SEED)
            with numcore.GradTape():
                emb = m.embed_batch(windows)
                numcore.backward_from(emb, rng.normal(size=emb.shape))
            chunks.append(emb.data.tobytes())
            chunks += [name.encode() + p.grad.data.tobytes() for name, p in m.params.items()]
    return _digest(chunks)


def _closure_arrays(fn):
    """The arrays a function's closure holds, through nested functions (a
    `linear` VJP's recipe, and the function a cached recipe wraps), tuples
    and lists."""
    todo = [fn]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif callable(obj):
            todo.extend(cell.cell_contents for cell in getattr(obj, "__closure__", None) or ())
            if hasattr(obj, "__wrapped__"):
                todo.append(obj.__wrapped__)


def tape_bytes(tape, params: np.ndarray) -> int:
    """Bytes of the arrays the VJP closures on `tape` hold, each base buffer
    counted once and the parameter buffer `params` not at all. It depends
    only on shapes and dtypes, not on the host."""
    bases = {}
    for node in tape._nodes:
        for a in _closure_arrays(node.vjp):
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a
    return sum(a.nbytes for a in bases.values() if a is not params)


def tape_counts() -> tuple[str, str]:
    """Tape nodes and `tape_bytes` of one taped 8-window micro-batch, each as
    criterion-6 model/default model."""
    from gaitpt import model, numcore

    nodes, sizes = [], []
    for cfg in (_small_model_config(), model.GaitPTConfig()):
        windows = np.random.default_rng(SEED).uniform(size=(8, cfg.sequence_length, 18, 2))
        m = model.GaitPTModel(cfg, seed=SEED)
        with numcore.GradTape() as tape:
            m.embed_batch(windows.astype(cfg.np_dtype))
        nodes.append(str(len(tape)))
        sizes.append(str(tape_bytes(tape, m.flat_parameters().data)))
    return "/".join(nodes), "/".join(sizes)


def tree_digests(tree: str) -> dict[str, str]:
    """The digests of the gaitpt package on sys.path, which must come from
    the absolute path `tree`."""
    import gaitpt

    src = Path(tree) / "src"
    if not Path(gaitpt.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"gaitpt was imported from {gaitpt.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        return {
            "train-small": _train_one_op("train-small", workdir),
            "train-default": _train_one_op("train-default", workdir),
            "embed-float32": _embed_through_checkpoint("float32", workdir),
            "embed-float64": _embed_through_checkpoint("float64", workdir),
            "checkpoint": _digest((workdir / f"{dtype}.ckpt").read_bytes() for dtype in ("float32", "float64")),
            "gradcheck": _gradcheck(),
            "synth": _synth(workdir),
            "schemes": _schemes(),
        }


def _run_tree(tree: str) -> dict[str, str]:
    """`tree_digests` in a fresh process that imports gaitpt from `tree`."""
    root = Path(tree).resolve()
    path = [Path(__file__).resolve().parent, root / "src", root / "perfbench"]
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(map(str, path))}
    code = ("import sys, fingerprint\n"
            "for name, d in fingerprint.tree_digests(sys.argv[1]).items(): print(name, d)\n"
            "nodes, sizes = fingerprint.tape_counts()\n"
            "print('tape-nodes', nodes)\nprint('tape-bytes', sizes)")
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
    print("output         " + "  ".join(f"{t:<20s}" for t in argv))
    counts = {name: [r.pop(name, "-") for r in results] for name in ("tape-nodes", "tape-bytes")}
    same = True
    for name in results[0]:
        digests = [r.get(name, "-") for r in results]
        same &= len(set(digests)) == 1
        print(f"{name:<14s} " + "  ".join(f"{d:<20s}" for d in digests))
    for name, values in counts.items():
        print(f"{name:<14s} " + "  ".join(f"{v:<20s}" for v in values))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
