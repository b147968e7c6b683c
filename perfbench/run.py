"""gaitpt benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 10 --trace 0

It imports `gaitpt` from `src/`, makes the workload's inputs from the seed,
sets up `SETUP_REPEATS` times, runs one warm-up op (for the workloads that
have one), then runs ops back to
back for `--seconds` and checks every op's output. It prints the
environment, each metric by name with its unit, and as its last line one
JSON object {correct, attempted, failed, metrics}.

With `--trace 0` the metrics are the end-to-end ones in `metrics.END_TO_END`.
With `--trace 1` set-up and the warm-up are traced; the first half of the
time runs untraced and the second half traced (with tracemalloc on), and the
metrics are the per-layer ones in `metrics.PER_LAYER`, plus the tracing
overhead. Spans are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
BLAS_THREADS = 1        # one thread: steadier on a shared machine, and never above nproc
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Loop:
    """Outcome of a closed loop of ops: per-op time, output and check errors."""

    times: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    elapsed: float = 0.0


def run_loop(call_op, seconds: float, first_op: int) -> Loop:
    """Run ops back to back until `seconds` have passed (at least one op).

    An op that raises is recorded with its error and no output.
    """
    loop = Loop()
    start = time.perf_counter()
    i = first_op
    while True:
        t = time.perf_counter()
        try:
            out, errors = call_op(i), []
        except Exception:
            out, errors = None, [traceback.format_exc()]
        loop.times.append(time.perf_counter() - t)
        loop.outputs.append(out)
        loop.errors.append(errors)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    loop.elapsed = time.perf_counter() - start
    return loop


def check_loop(workload, loop: Loop, reference) -> int:
    """Check each output that exists; return how many ops failed."""
    for out, errors in zip(loop.outputs, loop.errors):
        if not errors:
            errors.extend(workload.check(out, reference))
    return sum(bool(errors) for errors in loop.errors)


def tail(times: list[float]) -> tuple[float, str, int]:
    """The highest whole percentile with at least 10 samples beyond it, its
    label and how many samples lie beyond it. Below 20 samples that
    percentile would fall under the median, so the maximum stands in."""
    n = len(times)
    if n < 20:
        return max(times), "max", 0
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(times)
    pos = (n - 1) * pct / 100
    lo = math.floor(pos)
    value = ordered[lo] + (ordered[min(lo + 1, n - 1)] - ordered[lo]) * (pos - lo)
    return value, f"p{pct}", sum(t > value for t in times)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):     # numpy before 1.26 has no dict form
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import the layer modules from this checkout's `src/`, or explain why not."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gaitpt
        modules = {name: importlib.import_module(f"gaitpt.{name}") for name in metrics.LAYERS}
    except ImportError as e:
        return None, f"cannot import gaitpt from {ROOT / 'src'}: {e}"
    if not Path(gaitpt.__file__).resolve().is_relative_to(ROOT / "src"):
        return None, f"gaitpt was imported from {gaitpt.__file__}, not from {ROOT / 'src'}"
    return modules, None


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    layers, problem = _import_package()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import workloads     # imports numpy, so only once the BLAS threads are set

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = _measure(args, workloads.WORKLOADS[args.workload](), workdir, import_s,
                          tracing.Tracer(layers) if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(args, workload, workdir, import_s, tracer) -> dict:
    def unit(kind, index, fn, *fn_args):
        return tracer.run_unit(kind, index, fn, *fn_args) if tracer else fn(*fn_args)

    reps = []
    with tracer.installed() if tracer else nullcontext():
        for r in range(SETUP_REPEATS):
            t = time.perf_counter()
            unit("setup", r, workload.setup, args.seed, workdir)
            reps.append(time.perf_counter() - t)
        t = time.perf_counter()
        reference = unit("warmup", 0, workload.op, 0) if workload.warm_up else None
        warm_s = time.perf_counter() - t

    if tracer is None:
        loop = run_loop(workload.op, args.seconds, first_op=1)
        loops = [loop]
    else:
        import tracemalloc

        plain = run_loop(workload.op, args.seconds / 2, first_op=1)
        tracemalloc.start()
        try:
            with tracer.installed():
                loop = run_loop(lambda i: tracer.run_unit("op", i, workload.op, i),
                                args.seconds / 2, first_op=1 + len(plain.times))
        finally:
            tracemalloc.stop()
        loops = [plain, loop]

    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(check_loop(workload, lp, reference) for lp in loops)
    run_errors = workload.check_run()
    failed = min(attempted, failed + len(run_errors))
    for errors in [e for lp in loops for e in lp.errors if e][:5] + [run_errors]:
        for error in errors:
            print(f"check failed: {error}", file=sys.stderr)

    items_per_s = workload.items_per_op * len(loop.times) / loop.elapsed
    if tracer is None:
        tail_s, tail_label, beyond = tail(loop.times)
        values = {
            "setup_s": import_s + statistics.median(reps) + warm_s,
            "items_per_s": items_per_s,
            "op_s_p50": statistics.median(loop.times),
            "op_s_tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {"op_s_tail": f"{tail_label}, {beyond} of {len(loop.times)} ops beyond",
                 "setup_s": f"imports {import_s:.3f} s + median of {SETUP_REPEATS} set-ups + warm-up op {warm_s:.3f} s"}
        specs = [(m.name, m.unit) for m in metrics.END_TO_END]
    else:
        run_values = {"trace.items_per_s": items_per_s,
                      "trace.overhead_ratio": (workload.items_per_op * len(plain.times) / plain.elapsed) / items_per_s}
        totals = tracer.unit_totals()
        values = {m.name: tracer.metric(m, totals, run_values) for m in metrics.PER_LAYER}
        notes = {}
        specs = [(m.name, m.unit) for m in metrics.PER_LAYER]
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")

    for name, unit_name in specs:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {values[name]:>14.6g} {unit_name}{note}")
    # not a BENCHMARK.json metric, since it is 0 on a correct program: the
    # JSON result carries it as failed / attempted
    print(f"{'fail_ratio':<40} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} ops failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_name} for name, unit_name in specs},
    }


if __name__ == "__main__":
    sys.exit(main())
