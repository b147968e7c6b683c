"""Command-line entry point.

Commands: synth, train, embed, eval, ablate, gradcheck, partition-study.
Every command accepts --seed and --config. Exit codes: 0 success, 1 failed
verification (gradcheck), 2 usage or configuration problem, 3 protocol or
data problem, 4 internal invariant violation. All output is reproducible
under a fixed --seed; nothing on stdout carries timestamps.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio, evaluation, numcore as nc, synthgait
from .errors import (
    ConfigError,
    DataFormatError,
    GaitError,
    InputError,
    IntegrityError,
    ProtocolError,
    SamplingError,
    StatisticsError,
)
from .model import GaitPTConfig, GaitPTModel
from .numcore import AttentionWeights, Tensor
from .skeleton import PartitionScheme
from .training import train


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _load_run_config(args) -> dataio.RunConfig:
    cfg = dataio.load_config(args.config) if args.config else dataio.config_from_dict({})
    if args.seed is not None:
        cfg = dataio.RunConfig(model=cfg.model, train=replace(cfg.train, seed=args.seed))
    return cfg


def _read_nonempty(path) -> list:
    seqs = dataio.read_sequences(path)
    if not seqs:
        raise DataFormatError(f"{path}: no sequence records")
    return seqs


def _seed_of(args) -> int:
    return 0 if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = synthgait.SynthConfig(
        identities=args.identities,
        sequences_per_identity=args.seqs_per_id,
        frames=args.frames,
        views=tuple(_int_list(args.views)),
        conditions=tuple(c.strip() for c in args.conditions.split(",")),
        seed=_seed_of(args),
        noise_level=args.noise,
        train_fraction=args.train_fraction,
    )
    manifest_path = synthgait.build_dataset(cfg, args.out)
    manifest = dataio.load_manifest(manifest_path)
    print(json.dumps({
        "manifest": str(manifest_path),
        "sequences": sum(len(v) for v in manifest.splits.values()),
        "splits": {k: len(v) for k, v in manifest.splits.items()},
    }))
    return 0


def cmd_train(args) -> int:
    run = _load_run_config(args)
    model_cfg = run.model
    if args.scheme:
        model_cfg = replace(model_cfg, scheme=args.scheme)
    if args.stages:
        model_cfg = replace(model_cfg, active_stages=_int_list(args.stages))
    train_cfg = run.train
    if args.epochs is not None:
        train_cfg = replace(train_cfg, epochs=args.epochs)

    splits = dataio.load_split_sequences(args.data)
    if not splits["train"]:
        raise ConfigError(f"{args.data}: manifest has no train split")
    model = GaitPTModel(model_cfg, seed=train_cfg.seed)

    def save_epoch(trained, entry):
        dataio.save_checkpoint(trained, Path(args.checkpoint_dir) / f"epoch{entry['epoch']:03d}.ckpt")

    train(model, splits["train"], train_cfg,
          on_epoch=save_epoch if args.checkpoint_dir is not None else None)
    dataio.save_checkpoint(model, args.out)
    return 0


def _keep_freed_memory_for_reuse() -> None:
    """Pin glibc's malloc thresholds where its own rule puts them once a
    32 MB block is freed: blocks up to 32 MB come from the heap, which is
    trimmed only past 64 MB free. A checkpoint load frees no large block, so
    without this each multi-MB forward temporary is mapped and faulted in
    afresh (about 215,000 page faults per 64-window pass). Only `embed` and
    `eval`, which load a checkpoint and then embed, call it. Off Linux, or
    without glibc's `mallopt`, nothing changes.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def cmd_embed(args) -> int:
    _keep_freed_memory_for_reuse()
    model = dataio.load_checkpoint(args.ckpt)
    seqs = _read_nonempty(args.data)
    embset = evaluation.embed_sequence_set(model, seqs)
    dataio.write_embeddings(embset, args.out)
    print(json.dumps({"embedded": len(embset), "dim": int(embset.embeddings.shape[1])}))
    return 0


def cmd_eval(args) -> int:
    _keep_freed_memory_for_reuse()
    model = dataio.load_checkpoint(args.ckpt)
    if args.protocol == "casia":
        seqs = _read_nonempty(args.gallery)
        if Path(args.probe) != Path(args.gallery):
            seqs = seqs + _read_nonempty(args.probe)
        report = evaluation.casia_eval(evaluation.embed_sequence_set(model, seqs))
    else:
        gallery = evaluation.embed_sequence_set(model, _read_nonempty(args.gallery))
        probe = evaluation.embed_sequence_set(model, _read_nonempty(args.probe))
        report = evaluation.grew_eval(gallery, probe, ks=_int_list(args.ks))
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(report.render(), end="")
    return 0


def cmd_ablate(args) -> int:
    run = _load_run_config(args)
    subsets = [_int_list(part) for part in args.subsets.split("|") if part.strip()]
    splits = dataio.load_split_sequences(args.data)
    result = evaluation.ablation_run(
        splits, subsets, runs=args.runs, seed=run.train.seed,
        model_config=run.model, train_config=run.train,
    )
    _print_study(result, args.json)
    return 0


def cmd_partition_study(args) -> int:
    run = _load_run_config(args)
    schemes = [s.strip() for s in args.schemes.split(",")]
    splits = dataio.load_split_sequences(args.data)
    result = evaluation.partition_study(
        splits, runs=args.runs, seed=run.train.seed,
        model_config=run.model, train_config=run.train, schemes=schemes,
    )
    _print_study(result, args.json)
    return 0


def _print_study(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.to_dict()))
    else:
        print(result.render(), end="")


def _gradcheck_cases(rng: np.random.Generator, dtype=np.float64):
    """Scalar-valued probes of every differentiable primitive, each with
    its input and closed-over tensors in `dtype`."""
    def t(*shape):
        return Tensor(rng.normal(size=shape), dtype=dtype)

    def sq(y):  # reduce anything to a well-conditioned scalar
        return nc.tensor_sum(nc.mul(y, y))

    a34, b34, m43 = t(3, 4), t(3, 4), t(4, 3)
    w = t(4, 4)
    att = AttentionWeights(wq=t(4, 4), wk=t(4, 4), wv=t(4, 4), wo=t(4, 4),
                           bq=t(4), bk=t(4), bv=t(4), bo=t(4))
    cases = [
        ("add", lambda x: sq(nc.add(x, b34)), t(3, 4)),
        ("sub", lambda x: sq(nc.sub(x, b34)), t(3, 4)),
        ("mul", lambda x: sq(nc.mul(x, b34)), t(3, 4)),
        ("div", lambda x: sq(nc.div(a34, nc.add(nc.mul(x, x), 1.0))), t(3, 4)),
        ("matmul", lambda x: sq(nc.matmul(x, m43)), t(3, 4)),
        ("linear", lambda x: sq(nc.linear(x, w, att.bq)), t(2, 3, 4)),
        ("reshape", lambda x: sq(nc.reshape(x, (4, 3))), t(3, 4)),
        ("transpose", lambda x: sq(nc.transpose(x, (1, 0))), t(3, 4)),
        ("broadcast_to", lambda x: sq(nc.broadcast_to(x, (5, 3, 4))), t(1, 3, 4)),
        ("concat", lambda x: sq(nc.concat([x, b34], axis=1)), t(3, 4)),
        ("slice", lambda x: sq(x[1:, ::2]), t(3, 4)),
        ("index_select", lambda x: sq(nc.index_select(x, 1, [0, 2, 2])), t(3, 4)),
        ("sum", lambda x: sq(nc.tensor_sum(x, axis=1)), t(3, 4)),
        ("mean", lambda x: sq(nc.mean(x, axis=0)), t(3, 4)),
        ("sqrt", lambda x: sq(nc.sqrt(nc.add(nc.mul(x, x), 0.5))), t(3, 4)),
        ("relu", lambda x: sq(nc.relu(x)), t(3, 4)),
        ("gelu", lambda x: sq(nc.gelu(x)), t(3, 4)),
        ("softmax", lambda x: sq(nc.softmax(x, axis=-1)), t(3, 4)),
        ("layer_norm", lambda x: sq(nc.layer_norm(x, att.bq + 1.0, att.bk)), t(3, 4)),
        ("multi_head_attention", lambda x: sq(nc.multi_head_attention(x, att, 2)), t(2, 3, 4)),
    ]
    # drawn after the other cases' tensors, whose draws therefore do not depend on it
    blocks = [nc.EncoderBlock(*(t(*shape) for shape in [(4,)] * 2 + [(4, 4)] * 4 + [(4,)] * 6
                                + [(4, 8), (8,), (8, 4), (4,)])) for _ in range(2)]
    cases.append(("encoder_blocks", lambda x: sq(nc.encoder_blocks(x, blocks, 2)), t(3, 3, 4)))
    return cases


def tiny_model_gradcheck(tol: float, seed: int = 0, sample: int = 64) -> list[tuple[str, nc.GradCheckReport]]:
    """Finite-difference check of the full network, input side and
    parameter side (parameter coordinates subsampled for speed)."""
    cfg = GaitPTConfig.build(
        dims=(8, 16, 32, 64), blocks=1, heads=2, sequence_length=4,
        output_dim=16, dtype="float64",
    )
    model = GaitPTModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 4, 18, 2))

    def through_input(xt):
        emb = model.embed_batch(xt)
        return nc.tensor_sum(nc.mul(emb, nc.add(emb, 0.25)))

    def through_params(theta):
        p = model.params_from_flat(theta)
        emb = model.embed_batch(Tensor(x), params=p)
        return nc.tensor_sum(nc.mul(emb, nc.add(emb, 0.25)))

    return [
        ("model/input", nc.grad_check(through_input, Tensor(x), tol=tol)),
        ("model/params", nc.grad_check(
            through_params, model.flat_parameters(), tol=tol,
            sample=sample, rng=np.random.default_rng(seed + 1),
        )),
    ]


def cmd_gradcheck(args) -> int:
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    t0 = time.time()
    results = []
    for name, f, x in _gradcheck_cases(rng):
        results.append((name, nc.grad_check(f, x, tol=args.tol)))
    results.extend(tiny_model_gradcheck(args.tol, seed=seed))
    ok = True
    for name, rep in results:
        ok &= rep.passed
        status = "PASS" if rep.passed else "FAIL"
        print(f"{name:<24s} max_rel_err={rep.max_rel_err:.3e}  ({rep.checked}/{rep.total} coords)  {status}")
    print(f"gradcheck {'passed' if ok else 'FAILED'} at tol {args.tol:g} "
          f"({len(results)} checks, {time.time() - t0:.1f}s)", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaitpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--config", default=None, help="JSON run-config file")

    p = sub.add_parser("synth", help="generate a synthetic walker dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--identities", type=int, default=8)
    p.add_argument("--seqs-per-id", type=int, default=4)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--views", default="0,90")
    p.add_argument("--conditions", default="NM")
    p.add_argument("--noise", type=float, default=0.004)
    p.add_argument("--train-fraction", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset manifest")
    p.add_argument("--data", required=True, help="manifest.json path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--stages", default=None, help="active stages, e.g. 1,2,4")
    p.add_argument("--scheme", default=None, choices=[s.value for s in PartitionScheme])
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--checkpoint-dir", default=None, help="also write per-epoch checkpoints here")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a record file with a checkpoint")
    p.add_argument("--data", required=True, help="sequence records (JSONL)")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="embedding output (JSONL)")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="gallery-probe evaluation")
    p.add_argument("--gallery", required=True, help="sequence records (JSONL)")
    p.add_argument("--probe", required=True, help="sequence records (JSONL)")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--protocol", choices=["casia", "rankk"], default="rankk")
    p.add_argument("--ks", default="1,5,10,20")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="stage-activation ablation study")
    p.add_argument("--data", required=True)
    p.add_argument("--subsets", default="4|1,4|1,2,4|1,2,3,4")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("partition-study", help="limb-grouping scheme study")
    p.add_argument("--data", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--schemes", default=",".join(s.value for s in PartitionScheme))
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_partition_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, SamplingError, InputError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ProtocolError, DataFormatError, IntegrityError, StatisticsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GaitError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
