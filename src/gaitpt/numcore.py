"""Dense tensors with reverse-mode automatic differentiation.

Every model computation in this package is built from the primitives here.
A ``GradTape`` records primitive applications in execution order; ``backward``
replays the record in reverse, accumulating vector-Jacobian products onto the
``requires_grad`` leaves. ``grad_check`` provides the central-finite-difference
oracle used throughout the test suite.

Training runs in float32 by default; gradient checks require float64. A
tape's backward runs in its parameters' dtype: every VJP returns
cotangents in the dtype it received, so a float32 model never computes its
backward pass in float64.

GELU's normal CDF comes from ``scipy.special.erf`` in float64, imported at
the first float64 GELU. In float32 it is a clamped rational approximation
evaluated with in-place numpy ufuncs, within 5e-7 * max(1, |x|) of the
float64 GELU (tested).

A tape retains only what its backward pass reads. Each node keeps its
output's slot (its own index on the tape) and, per input, the slot of an
input this tape produced, the `Tensor` itself for a leaf (a parameter or an
output of another tape), or None for an input that needs no gradient.
Intermediate tensors are therefore freed as soon as the forward pass drops
them; a VJP closure holds shapes plus the arrays it reads: an operand of
`mul`, `matmul` or `linear` (the input's 2-D view or the weight) only when
the other needs a gradient, both operands of `div`, softmax's output, sqrt's
root, relu's mask, GELU's slope cdf + x pdf, layer norm's normalized input,
inverse deviation and gain, and the attention core's split q, kᵀ and v and
its softmax output.

Layer norm and the attention core also register a recipe on their node: a
function that rebuilds their output bitwise from those kept arrays (plus
layer norm's bias), by one elementwise pass or one small batched matmul.
A `linear` whose input such a node produced on the same live tape keeps
that recipe instead of the input, so the tape holds no layer-norm output
and no attention context. Untaped ops register nothing.

`linear` and `attention_core` are single nodes that write each activation
once, and `encoder_blocks` runs a whole pre-norm block stack as one node.
Their outputs, gradients and kept arrays are bitwise those of the
compositions of primitives they replace, which the tests keep as oracles.
The public primitives and `encoder_blocks` call the same private kernels
(`_layer_norm_into`, `_gemm_bias`, `_attention_into`, `_gelu_into`) and
VJPs (`_layer_norm_vjp`, `_linear_vjp`, `_attention_vjp`).

`backward_from` takes one output or a sequence of outputs of distinct
tapes, with their cotangents; training passes one per micro-batch. Each
tape is replayed on its own, and its leaf gradients are added to `.grad`
in sequence order, so the sums are bitwise those of one call per output.

When the process may use two or more CPUs and BLAS started with one thread
(the variable it reads, `OPENBLAS_NUM_THREADS` or `MKL_NUM_THREADS`, else
`OMP_NUM_THREADS`, is 1), a module-level worker thread runs two kinds of
work; otherwise the caller runs it all:

- `backward_from` replays the odd-indexed tapes on it while the caller
  replays the even ones;
- `encoder_blocks` runs sequences [n // 2, n) of its n on it while the
  caller runs the rest. Sequences never interact, and each row's result
  does not depend on how many rows share the call, so the bits do not
  change.

The worker runs only VJPs, recipes and private kernels, which call numpy
and other private helpers, so no public function of this module ever runs
off the calling thread, and work on the worker never waits for the
worker.

Under the same rule, on Linux, `_in_two_children` splits a list of
independent untaped jobs (the model's `embed_arrays` chunks) between two
forked children while the caller waits; otherwise the caller runs them.
Each child has its own interpreter lock, so neither half waits on the
other's numpy calls. A child is a copy of the caller without a worker, so
its results are bitwise the caller's inline ones; it runs everything on
its own main thread, and what it records (tracing included) dies with it.
Two jobs are in flight at once, each child holding its own job's
temporaries and a copy of each page of the caller it writes; the caller
allocates only the results it reads back.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import sys
import threading
import warnings
from collections import deque, namedtuple
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

import numpy as np

from .errors import ConfigError, GaitError, NumericError, ShapeError, checked_int, checked_real

_SUPPORTED_DTYPES = (np.float32, np.float64)


class GradTape:
    """Ordered record of primitive ops, replayable in reverse for adjoints.

    Use as a context manager; ops executed inside record themselves when any
    input requires a gradient. Open tapes are per thread: a tape records only
    the ops of the thread that entered it, and ops on a thread with no open
    tape record nothing. A tape is single-writer: never record onto one tape
    from two concurrent contexts. Replaying (see `backward`) consumes the
    record, releasing intermediate buffers as it walks; a consumed tape
    that is still open records nothing more.

    The record holds no intermediate tensor: nodes name this tape's outputs
    by slot, hold only leaves, and their VJPs keep shapes and the arrays
    they read (see the module docstring).
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _OPEN_TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _OPEN_TAPES.stack.pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def __len__(self) -> int:
        return len(self._nodes)


class _TapeStack(threading.local):
    """The calling thread's open tapes, innermost last."""

    def __init__(self):
        self.stack: list[GradTape] = []


_OPEN_TAPES = _TapeStack()


def _active_tape() -> GradTape | None:
    stack = _OPEN_TAPES.stack
    return stack[-1] if stack else None


class _Node:
    """One recorded primitive: its output's slot, one reference per input
    (a slot on this tape, a leaf `Tensor`, or None when no gradient is
    needed), the VJP closure and, for some primitives, a recipe: a
    no-argument function that rebuilds the output bitwise from arrays the
    VJP keeps anyway. A recipe runs at most once, so the q, k and v
    projections of one layer-norm output rebuild it once; its result lives
    until this node is replayed."""

    __slots__ = ("slot", "inputs", "vjp", "recipe")

    def __init__(self, slot: int, inputs: tuple, vjp, recipe):
        self.slot = slot
        self.inputs = inputs
        self.vjp = vjp
        self.recipe = recipe


class Tensor:
    """A dense n-dimensional array of float32 or float64 scalars.

    ``data`` is a contiguous numpy buffer. Tensors are treated as immutable by
    every op in this module; new tensors are produced instead of mutating.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_slot")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _SUPPORTED_DTYPES:
            arr = arr.astype(np.float32)
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Tensor | None = None
        self._tape: GradTape | None = None
        self._slot: int | None = None  # node index on `_tape`

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else _scalar_error(self)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __getitem__(self, key):
        return tensor_slice(self, key)


def _scalar_error(t: Tensor):
    raise ShapeError(f"item() needs a single-element tensor, got shape {t.shape}")


@dataclass
class Parameter:
    """A named leaf tensor of a model; names are unique within a model."""

    name: str
    value: Tensor

    def __post_init__(self):
        self.value.requires_grad = True

    @property
    def grad(self) -> Tensor | None:
        return self.value.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


# ---------------------------------------------------------------------------
# recording machinery
# ---------------------------------------------------------------------------

def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _recording(*inputs: Tensor) -> GradTape | None:
    """The tape an op on `inputs` records onto, or None if it records
    nothing; a consumed tape counts as no tape."""
    tape = _active_tape()
    if tape is not None and not tape._consumed and any(t.requires_grad for t in inputs):
        return tape
    return None


def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp, recipe=None) -> Tensor:
    """Attach `out` to the active tape when any input tracks gradients;
    with no tape active, `out` is returned untouched. The node refers to
    each input by slot, as a leaf, or not at all (see `_Node`)."""
    tape = _recording(*inputs)
    if tape is not None:
        refs = tuple(
            t._slot if t._tape is tape else (t if t.requires_grad else None) for t in inputs
        )
        out.requires_grad = True
        out._tape = tape
        out._slot = len(tape._nodes)
        tape._nodes.append(_Node(out._slot, refs, vjp, recipe and functools.cache(recipe)))
    return out


def _recipe(x: Tensor, inputs: tuple[Tensor, ...]):
    """The recipe of x's producer when an op on `inputs` records onto the
    live tape that produced x; otherwise None (a leaf, a tensor of another
    tape or of a consumed one, or an untaped op)."""
    tape = _recording(*inputs)
    if tape is None or x._tape is not tape:
        return None
    return tape._nodes[x._slot].recipe


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = Tensor(a.data * b.data)
    sa, sb = a.shape, b.shape
    # each gradient reads the other operand; keep it only if that gradient is needed
    xa = a.data if b.requires_grad else None
    xb = b.data if a.requires_grad else None

    def vjp(g):
        ga = None if xb is None else _unbroadcast(g * xb, sa)
        gb = None if xa is None else _unbroadcast(g * xa, sb)
        return ga, gb

    return _record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = Tensor(a.data / b.data)
    xa, xb, sa, sb = a.data, b.data, a.shape, b.shape

    def vjp(g):
        ga = _unbroadcast(g / xb, sa)
        gb = _unbroadcast(-g * xa / (xb * xb), sb)
        return ga, gb

    return _record(out, (a, b), vjp)


def sqrt(a) -> Tensor:
    """Elementwise square root; the adjoint at 0 is taken to be 0."""
    a = _as_tensor(a)
    out = Tensor(np.sqrt(a.data))
    root = out.data

    def vjp(g):
        return (np.where(root > 0, 0.5 / np.where(root > 0, root, 1.0), 0.0) * g,)

    return _record(out, (a,), vjp)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0))
    mask = a.data > 0
    return _record(out, (a,), lambda g: (g * mask,))


# Eigen's generic_fast_erf_float rational for erf(z), |z| <= 4 (XLA uses it
# too), rewritten in x = sqrt(2) z with 0.5 * (1 + erf) folded in:
# Phi(x) = 0.5 + x P(x^2) / Q(x^2) on |x| <= 4 sqrt(2). Beyond that edge
# float32 Phi is 0 or 1, which the final clip gives.
_ERF_ODD = (-1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04,
            -5.69250639462346e-05, -2.10102402082508e-06, 2.77068142495902e-08,
            -2.72614225801306e-10)
_ERF_EVEN = (-1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03,
             -2.13374055278905e-04, -1.45660718464996e-05)
_PHI_P = tuple(np.float32(0.5 * a / math.sqrt(2.0) / 2.0**k) for k, a in enumerate(_ERF_ODD))
_PHI_Q = tuple(np.float32(b / 2.0**k) for k, b in enumerate(_ERF_EVEN))
_PHI_EDGE = np.float32(4.0 * math.sqrt(2.0))
GELU_BLOCK = 1 << 16  # float32 elements per block: each buffer is 256 KB and stays in cache


def _horner(coeffs, x2: np.ndarray, acc: np.ndarray) -> None:
    """acc = sum_k coeffs[k] x2**k, in place."""
    np.multiply(x2, coeffs[-1], out=acc)
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= x2
    acc += coeffs[0]


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, d: np.ndarray) -> np.ndarray:
    """d = cdf + x * pdf(x), in place in `d`, rounded in x's dtype."""
    np.multiply(x, -0.5, out=d)
    d *= x
    np.exp(d, out=d)
    d /= np.sqrt(np.asarray(2.0 * np.pi, dtype=x.dtype))
    d *= x
    d += cdf
    return d


def _gelu_into(x: np.ndarray, y: np.ndarray, d: np.ndarray | None) -> None:
    """GELU x * Phi(x) of array `x` into `y` and, unless `d` is None, its
    slope Phi(x) + x pdf(x) into `d`; both are contiguous, of x's shape.
    With no slope, `y` may be `x` itself.

    float64 takes Phi from `scipy.special.erf`, imported here so that only
    float64 GELU loads scipy. float32 works in blocks of `GELU_BLOCK`, so Phi
    lives only in block scratch and `y` and `d` are its only full-size
    arrays."""
    if x.dtype != np.float32:
        from scipy.special import erf

        cdf = 0.5 * (1.0 + erf(x / np.sqrt(np.asarray(2.0, dtype=x.dtype))))
        np.multiply(x, cdf, out=y)
        if d is not None:
            _gelu_slope(x, cdf, d)
        return
    flat, y, d = x.reshape(-1), y.reshape(-1), None if d is None else d.reshape(-1)
    scratch = np.empty((4, min(flat.size, GELU_BLOCK)), np.float32)
    for lo in range(0, flat.size, GELU_BLOCK):
        xb = flat[lo : lo + GELU_BLOCK]
        c, x2, p, q = scratch[:, : xb.size]
        np.clip(xb, -_PHI_EDGE, _PHI_EDGE, out=c)  # c holds the clamped x until the divide
        np.multiply(c, c, out=x2)
        _horner(_PHI_P, x2, p)
        p *= c
        _horner(_PHI_Q, x2, q)
        np.divide(p, q, out=c)
        c += 0.5
        np.clip(c, 0.0, 1.0, out=c)  # the rational overshoots [0, 1] by ~2e-7 at the edges
        np.multiply(xb, c, out=y[lo : lo + xb.size])
        if d is not None:
            _gelu_slope(xb, c, d[lo : lo + xb.size])


def gelu(a) -> Tensor:
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF.

    float64 takes Phi from `scipy.special.erf`; float32 from a clamped
    rational (see `_gelu_into`) within 5e-7 * max(1, |x|) of the float64
    value. Untaped, GELU allocates only its output; taped, also its slope.
    """
    a = _as_tensor(a)
    x = a.data
    taped = _recording(a) is not None
    y = np.empty_like(x)
    d = np.empty_like(x) if taped else None
    _gelu_into(x, y, d)
    out = Tensor(y)
    if not taped:
        return out
    # the VJP keeps the slope d alone, not x and cdf; g has x's dtype
    return _record(out, (a,), lambda g: (np.multiply(d, g, out=d),))


# ---------------------------------------------------------------------------
# shape primitives
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes))
    return _record(out, (a,), lambda g: (np.transpose(g, inv),))


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    out = Tensor(np.broadcast_to(a.data, shape).copy())
    return _record(out, (a,), lambda g: (_unbroadcast(g, old),))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(parts), vjp)


def tensor_slice(a, key) -> Tensor:
    """Basic indexing (ints, slices, tuples); gradient scatters back."""
    a = _as_tensor(a)
    out = Tensor(a.data[key])
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[key] += g
        return (full,)

    return _record(out, (a,), vjp)


def index_select(a, axis: int, indices) -> Tensor:
    """Gather slices along `axis`; repeated indices accumulate gradient."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(np.take(a.data, idx, axis=axis))
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        sel = [slice(None)] * len(shape)
        sel[axis] = idx
        if np.unique(idx % max(shape[axis], 1)).size == idx.size:
            # what np.add.at would store, 0.0 + g, which turns -0.0 into +0.0
            full[tuple(sel)] = g + 0.0
        else:
            np.add.at(full, tuple(sel), g)
        return (full,)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record(out, (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    shape = a.shape
    # A Python int, not np.prod's int64 scalar: NumPy 2 promotes float32 / int64 to float64.
    count = a.size if axis is None else math.prod(shape[i] for i in np.atleast_1d(axis))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; batch axes broadcast."""
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    try:
        out = Tensor(a.data @ b.data)
    except ValueError as e:  # batch extents not broadcastable
        raise ShapeError(f"matmul batch extents incompatible: {a.shape} @ {b.shape}") from e

    sa, sb = a.shape, b.shape
    xa = a.data if b.requires_grad else None  # as in `mul`
    xb = b.data if a.requires_grad else None

    def vjp(g):
        ga = None if xb is None else _unbroadcast(g @ np.swapaxes(xb, -1, -2), sa)
        gb = None if xa is None else _unbroadcast(np.swapaxes(xa, -1, -2) @ g, sb)
        return ga, gb

    return _record(out, (a, b), vjp)


def linear(x, w, b) -> Tensor:
    """Affine map x @ w + b over the last axis; w has shape (in, out).

    One node: one GEMM on x's 2-D view with the bias added in place. The
    VJP's expressions are those of reshape, matmul and add, so outputs and
    gradients are bitwise equal to that composition (tested).

    w's gradient reads x. When x's producer recorded a recipe on the same
    live tape (`layer_norm`, `attention_core`), the VJP keeps that recipe
    and rebuilds x at backward time instead of keeping x itself. A recipe,
    like this VJP's read of w, takes parameter values as they are at
    backward time, so parameters must not change between a forward pass
    and its backward pass.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    b = _as_tensor(b, w)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input width {x.shape} does not match weight {w.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out = Tensor(_gemm_bias(x2, w.data, b.data).reshape(x.shape[:-1] + (w.shape[1],)))
    sx, sb = x.shape, b.shape
    # as in `matmul`, each operand is kept only when the other's gradient is needed
    xa = (_recipe(x, (x, w, b)) or (lambda: x2)) if w.requires_grad else None
    wa = w.data if x.requires_grad else None
    return _record(out, (x, w, b), lambda g: _linear_vjp(g, xa, wa, sx, sb))


def _gemm_bias(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`linear`'s output on a 2-D input: one GEMM, the bias added in place."""
    y = x2 @ w
    y += b
    return y


def _linear_vjp(g, xa, wa, sx, sb) -> tuple:
    """`linear`'s cotangents for x, w and b from the output's `g`. `xa`
    returns the input (None: w needs no gradient), `wa` is the weight
    (None: x needs none), `sx` and `sb` are the input and bias shapes."""
    g = g.reshape(-1, g.shape[-1])
    gx = None if wa is None else (g @ np.swapaxes(wa, -1, -2)).reshape(sx)
    gw = None if xa is None else np.swapaxes(xa().reshape(-1, sx[-1]), -1, -2) @ g
    return gx, gw, _unbroadcast(g, sb)


def softmax(x, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; rejects non-finite input."""
    x = _as_tensor(x)
    if not np.isfinite(x.data).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (x,), vjp)


def _affine(xn: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Layer norm's output from its normalized input; the forward pass and
    the recipe share it, so the recipe rebuilds the output bitwise."""
    y = xn * gain
    y += bias
    return y


def _layer_norm_into(x: np.ndarray, gain, bias, xn: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Layer norm of array `x` over its last axis. Writes the normalized
    input into `xn` (x's shape) and the inverse deviation into `inv` (x's
    shape with a last extent of 1); returns the output."""
    mu = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mu, out=xn)
    var = (xn * xn).mean(axis=-1, keepdims=True)
    np.divide(1.0, np.sqrt(var + 1e-5), out=inv)
    xn *= inv  # the centred input, normalized in place
    return _affine(xn, gain, bias)


def _layer_norm_vjp(g, xn, inv, gain) -> tuple:
    """`layer_norm`'s cotangents for x, gain and bias from the output's `g`."""
    n = xn.shape[-1]
    dgain = (g * xn).reshape(-1, n).sum(axis=0)
    dbias = g.reshape(-1, n).sum(axis=0)
    dxn = g * gain
    dx = inv * (
        dxn
        - dxn.mean(axis=-1, keepdims=True)
        - xn * (dxn * xn).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Taped, it registers the recipe `_affine(xn, gain, bias)` for its output,
    from the normalized input its VJP keeps (see `linear`)."""
    x = _as_tensor(x)
    gain = _as_tensor(gain, x)
    bias = _as_tensor(bias, x)
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm gain/bias must match last extent {x.shape[-1]}, "
            f"got {gain.shape} and {bias.shape}"
        )
    w, shift = gain.data, bias.data
    xn, inv = _norm_arrays(x.shape, x.dtype)
    out = Tensor(_layer_norm_into(x.data, w, shift, xn, inv))
    return _record(out, (x, gain, bias), lambda g: _layer_norm_vjp(g, xn, inv, w),
                   lambda: _affine(xn, w, shift))


def _row_max_min(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The max and min over the last axis of `x`, reduced along the first
    axis of a copy that moves the last axis to the front.

    They equal x.max(axis=-1) and x.min(axis=-1), except that a zero may
    differ in sign. Attention rows are tokens + 1 wide, 3 to 31 here, where
    numpy's reduction along a short last axis is 2-20x slower than three
    passes over whole arrays (and a loop over columns makes 2 calls per
    column, each a GIL hand-off when the worker runs the other half).
    """
    front = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    return np.maximum.reduce(front, axis=0), np.minimum.reduce(front, axis=0)


def _softmax_last_axis_(s: np.ndarray) -> None:
    """`softmax` over the last axis of `s`, in place and bitwise equal.

    NaN propagates into both the row max and the row min, +inf shows in the
    max and -inf in the min, so the check reads no full-size array. A zero
    row max of the other sign changes s - max only where s is a zero, and
    exp gives 1 there either way.
    """
    top, low = _row_max_min(s)
    if not (np.isfinite(top).all() and np.isfinite(low).all()):
        raise NumericError("softmax input contains non-finite values")
    s -= top[..., None]
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)


def _merge_heads(p: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """The attention context: p @ vh per head, (b, h, t, hd), merged to a
    contiguous (b, t, h * hd); the forward pass and the recipe share it."""
    b, h, t, hd = vh.shape
    return np.ascontiguousarray((p @ vh).transpose(0, 2, 1, 3)).reshape(b, t, h * hd)


def _head_arrays(b: int, t: int, heads: int, hd: int, dtype) -> list[np.ndarray]:
    """Empty buffers for the attention core's split q (b, h, t, hd), kᵀ
    (b, h, hd, t) and v and its softmax output (b, h, t, t), then its score
    scale 1 / sqrt(hd) as a 0-d array."""
    return [*(np.empty(shape, dtype) for shape in
              ((b, heads, t, hd), (b, heads, hd, t), (b, heads, t, hd), (b, heads, t, t))),
            np.asarray(1.0 / math.sqrt(hd), dtype=dtype)]


def _attention_into(q, k, v, qh, kt, vh, p, scale) -> np.ndarray:
    """The attention core of arrays q, k, v (b, t, C). Writes the heads of q,
    kᵀ and v into `qh`, `kt` and `vh` and the softmax into `p` (see
    `_head_arrays`); returns the merged context."""
    b, heads, t, hd = qh.shape
    for x, dst, axes in ((q, qh, (0, 2, 1, 3)), (k, kt, (0, 2, 3, 1)), (v, vh, (0, 2, 1, 3))):
        np.copyto(dst, x.reshape(b, t, heads, hd).transpose(axes))
    np.matmul(qh, kt, out=p)
    p *= scale
    _softmax_last_axis_(p)
    return _merge_heads(p, vh)


def _attention_vjp(g, qh, kt, vh, p, scale) -> tuple:
    """The attention core's cotangents for q, k and v from the context's `g`,
    by the expressions of the head split, matmul, mul, `softmax` and merge."""
    b, heads, t, hd = qh.shape
    c = heads * hd
    g = np.transpose(g.reshape(b, t, heads, hd), (0, 2, 1, 3))
    gp = g @ np.swapaxes(vh, -1, -2)
    gv = np.swapaxes(p, -1, -2) @ g
    dot = (gp * p).sum(axis=-1, keepdims=True)
    gs = p * (gp - dot) * scale
    gq = gs @ np.swapaxes(kt, -1, -2)
    gkt = np.swapaxes(qh, -1, -2) @ gs
    return (np.transpose(gq, (0, 2, 1, 3)).reshape(b, t, c),
            np.transpose(gkt, (0, 3, 1, 2)).reshape(b, t, c),
            np.transpose(gv, (0, 2, 1, 3)).reshape(b, t, c))


def attention_core(q, k, v, heads: int) -> Tensor:
    """Scaled dot-product attention over `heads` heads of projected tokens.

    q, k, v: (batch, t, C) with C divisible by `heads`; returns the (batch,
    t, C) merge of softmax(q_h k_hᵀ / sqrt(C / heads)) v_h. One node that
    splits the heads into contiguous copies (kᵀ too), scales and soft-maxes
    the score buffer in place, and merges the heads back. Its VJP repeats
    the expressions of the head split, matmul, mul, `softmax` and merge it
    replaces, in their order, so outputs and gradients are bitwise equal
    to that composition (tested). Taped, it registers the recipe
    `_merge_heads(p, vh)` for its output, from the softmax output and split
    v its VJP keeps (see `linear`).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention expects (batch, tokens, C), got {q.shape}, {k.shape}, {v.shape}")
    b, t, c = q.shape
    if heads < 1 or c % heads != 0:
        raise ConfigError(f"model width {c} is not divisible by head count {heads}")
    qh, kt, vh, p, scale = _head_arrays(b, t, heads, c // heads, np.result_type(q.data, k.data, v.data))
    out = Tensor(_attention_into(q.data, k.data, v.data, qh, kt, vh, p, scale))
    return _record(out, (q, k, v), lambda g: _attention_vjp(g, qh, kt, vh, p, scale),
                   lambda: _merge_heads(p, vh))


@dataclass
class AttentionWeights:
    """Projection weights (C x C) and biases (C) of one multi-head attention
    layer."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor


def multi_head_attention(tokens, weights: AttentionWeights, heads: int) -> Tensor:
    """Multi-head self-attention: the q, k and v projections of `tokens`
    (batch, t, C), `attention_core`, then the output projection."""
    tokens = _as_tensor(tokens)
    q = linear(tokens, weights.wq, weights.bq)
    k = linear(tokens, weights.wk, weights.bk)
    v = linear(tokens, weights.wv, weights.bv)
    return linear(attention_core(q, k, v, heads), weights.wo, weights.bo)


EncoderBlock = namedtuple("EncoderBlock", "ln1_g ln1_b wq wk wv wo bq bk bv bo ln2_g ln2_b w1 b1 w2 b2")
EncoderBlock.__doc__ = """Parameters of one pre-norm encoder block, in checkpoint order: C-wide
layer norms and attention projections, and a feed-forward layer of hidden
width H (w1: C x H, w2: H x C)."""


def encoder_blocks(x, blocks: Sequence[EncoderBlock], heads: int) -> Tensor:
    """A stack of pre-norm transformer blocks over (sequences, t, C) as one
    tape node. Each block adds `multi_head_attention(layer_norm(x))` to x,
    then w2-`linear`(`gelu`(w1-`linear`(`layer_norm`(x)))).

    Attention runs within a sequence, so sequences never mix. With the
    worker (see `_new_worker`), sequences [n // 2, n) run on it while the
    caller runs [0, n // 2); otherwise the caller runs all. Either way each
    row calls the kernels the public primitives call, and a taped call
    writes its rows of the arrays their VJPs keep into full-size buffers.
    The VJP runs those VJPs on the replaying thread in the order the
    composition's replay would, so outputs, gradients and the bytes kept
    are bitwise those of the composition of `layer_norm`, `linear`,
    `attention_core`, `gelu` and `add` (tested). An error in either half is
    raised once both halves have finished, and nothing is recorded.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"encoder_blocks expects (sequences, tokens, C), got {x.shape}")
    n, t, c = x.shape
    if heads < 1 or c % heads != 0:
        raise ConfigError(f"model width {c} is not divisible by head count {heads}")
    blocks = [EncoderBlock(*(_as_tensor(w, x) for w in blk)) for blk in blocks]
    for i, blk in enumerate(blocks):
        _check_block(i, blk, c, x.dtype)
    if not blocks:
        return x
    weights = [tuple(w.data for w in blk) for blk in blocks]
    inputs = (x, *(w for blk in blocks for w in blk))
    kept = ([_block_arrays(n, t, heads, w, x.dtype) for w in weights]
            if _recording(*inputs) is not None else None)
    out = np.empty_like(x.data)

    def rows(lo, hi):
        _encoder_rows(x.data[lo:hi], weights, heads, out[lo:hi],
                      kept and [[a[lo:hi] if a.ndim else a for a in arrays] for arrays in kept])

    _on_two_cpus(rows, n)
    if kept is None:
        return Tensor(out)

    def vjp(g):
        grads = []
        while kept:  # last block first, each block's arrays dropped once used
            g, block_grads = _block_vjp(g, weights[len(kept) - 1], kept.pop())
            grads[:0] = block_grads
        return (g, *grads)

    return _record(Tensor(out), inputs, vjp)


def _check_block(i: int, blk: EncoderBlock, c: int, dtype) -> None:
    h = blk.w1.shape[-1] if blk.w1.ndim == 2 else -1
    want = [(c,)] * 2 + [(c, c)] * 4 + [(c,)] * 6 + [(c, h), (h,), (h, c), (c,)]
    for name, w, shape in zip(EncoderBlock._fields, blk, want):
        if w.shape != shape:
            raise ShapeError(f"encoder block {i}: {name} has shape {w.shape}, expected {shape}")
        if w.dtype != dtype:
            raise ConfigError(f"encoder block {i}: {name} is {w.dtype}, the input {dtype}")


def _norm_arrays(shape: tuple[int, ...], dtype) -> list[np.ndarray]:
    """Empty buffers for layer norm's normalized input, of x's `shape`, and
    its inverse deviation, of that shape with a last extent of 1."""
    return [np.empty(shape, dtype), np.empty(shape[:-1] + (1,), dtype)]


def _block_arrays(n: int, t: int, heads: int, weights, dtype) -> list[np.ndarray]:
    """Buffers for the arrays one block's VJP reads, over n sequences: layer
    norm 1's (see `_norm_arrays`), the attention core's (see
    `_head_arrays`), layer norm 2's, then GELU's slope and output."""
    c, hidden = weights[12].shape
    return [*_norm_arrays((n, t, c), dtype), *_head_arrays(n, t, heads, c // heads, dtype),
            *_norm_arrays((n, t, c), dtype), np.empty((n, t, hidden), dtype), np.empty((n, t, hidden), dtype)]


def _encoder_rows(x: np.ndarray, weights, heads: int, out: np.ndarray, kept) -> None:
    """The block stack over the sequences of array `x`, written into `out`.
    `kept` holds per block these sequences' rows of `_block_arrays`, or is
    None when untaped. Calls only private kernels, so it may run on the
    worker."""
    for i, w in enumerate(weights):
        keep = kept[i] if kept else None
        x = _feed_forward_rows(_attention_rows(x, w, heads, keep), w, keep)
    out[...] = x


def _attention_rows(x: np.ndarray, w, heads: int, keep) -> np.ndarray:
    """x plus its attention sublayer: layer norm 1, the q, k and v
    projections, the attention core and the output projection. Untaped, the
    kernels' buffers live only for their call, as in the composition."""
    ln1_g, ln1_b, wq, wk, wv, wo, bq, bk, bv, bo = w[:10]
    rows, t, c = x.shape
    h = _layer_norm_into(x, ln1_g, ln1_b, *(keep[0:2] if keep else _norm_arrays(x.shape, x.dtype)))
    h = h.reshape(-1, c)
    ctx = _attention_into(*(_gemm_bias(h, wp, bp) for wp, bp in ((wq, bq), (wk, bk), (wv, bv))),
                          *(keep[2:7] if keep else _head_arrays(rows, t, heads, c // heads, x.dtype)))
    return x + _gemm_bias(ctx.reshape(h.shape), wo, bo).reshape(x.shape)


def _feed_forward_rows(x: np.ndarray, w, keep) -> np.ndarray:
    """x plus its feed-forward sublayer: layer norm 2, the w1 projection,
    GELU (in place when untaped) and the w2 projection."""
    ln2_g, ln2_b, w1, b1, w2, b2 = w[10:]
    h = _layer_norm_into(x, ln2_g, ln2_b, *(keep[7:9] if keep else _norm_arrays(x.shape, x.dtype)))
    u = _gemm_bias(h.reshape(-1, x.shape[-1]), w1, b1)
    y = keep[10] if keep else u
    _gelu_into(u.reshape(y.shape), y, keep[9] if keep else None)
    return x + _gemm_bias(y.reshape(u.shape), w2, b2).reshape(x.shape)


def _block_vjp(g: np.ndarray, weights, kept) -> tuple:
    """One block's cotangents: for its input, and for its 16 parameters in
    `EncoderBlock` order, from the output's `g`. The composition's replay
    gives both residual adds g unchanged and sums the three projections'
    cotangents of layer norm 1's output as (v + k) + q; so does this."""
    ln1_g, ln1_b, wq, wk, wv, wo, bq, bk, bv, bo, ln2_g, ln2_b, w1, b1, w2, b2 = weights
    xn1, inv1, qh, kt, vh, p, scale, xn2, inv2, d, gelu_out = kept
    shape = g.shape
    gh, gw2, gb2 = _linear_vjp(g, lambda: gelu_out, w2, d.shape, b2.shape)
    gh = np.multiply(d, gh, out=d)  # GELU
    gy, gw1, gb1 = _linear_vjp(gh, lambda: _affine(xn2, ln2_g, ln2_b), w1, shape, b1.shape)
    dx, gg2, gbb2 = _layer_norm_vjp(gy, xn2, inv2, ln2_g)
    g = g + dx
    gctx, gwo, gbo = _linear_vjp(g, lambda: _merge_heads(p, vh), wo, shape, bo.shape)
    gq, gk, gv = _attention_vjp(gctx, qh, kt, vh, p, scale)
    y1 = functools.cache(lambda: _affine(xn1, ln1_g, ln1_b))  # rebuilt once for the three
    gyv, gwv, gbv = _linear_vjp(gv, y1, wv, shape, bv.shape)
    gyk, gwk, gbk = _linear_vjp(gk, y1, wk, shape, bk.shape)
    gyq, gwq, gbq = _linear_vjp(gq, y1, wq, shape, bq.shape)
    dx, gg1, gbb1 = _layer_norm_vjp(gyv + gyk + gyq, xn1, inv1, ln1_g)
    return g + dx, (gg1, gbb1, gwq, gwk, gwv, gwo, gbq, gbk, gbv, gbo, gg2, gbb2, gw1, gb1, gw2, gb2)


def _on_two_cpus(rows: Callable[[int, int], None], n: int) -> None:
    """rows(lo, hi) over [0, n): with the worker, [n // 2, n) runs on it
    while the caller runs [0, n // 2); otherwise the caller runs [0, n). An
    error is raised once both halves have finished."""
    worker = _WORKER if n > 1 else None
    if worker is None:
        rows(0, n)
        return
    half = worker.submit(rows, n // 2, n)
    try:
        rows(0, n // 2)
    except BaseException:
        half.cancel()
        raise
    finally:
        futures.wait([half])
    half.result()


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) onto every requires_grad leaf's .grad.

    `loss` must be a single-element tensor produced while a tape was active.
    Deterministic: identical forward passes yield identical gradients. The
    walk consumes the tape (intermediate buffers are freed as it goes), so
    each recorded graph supports one backward pass.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {getattr(loss, 'shape', None)}")
    backward_from(loss, np.ones_like(loss.data))


def backward_from(output: Tensor | Sequence[Tensor], cotangent) -> None:
    """Vector-Jacobian product: propagate `cotangent` (d loss / d output)
    back from `output` onto the requires_grad leaves.

    `output` and `cotangent` may also be equal-length sequences: outputs of
    distinct tapes and their cotangents, as when one logical loss is split
    across micro-batches. Gradients accumulate across pairs and across
    calls. Every pair is checked before any tape is consumed; a tape named
    twice is refused, since replaying one record twice at once would race.

    Each tape is replayed on its own and its leaf gradients are added to
    `.grad` in pair order, each result dropped once added, so `.grad` holds
    bitwise what one call per pair, in that order, would leave. With the
    worker thread (see `_new_worker`), odd-indexed tapes replay on it while
    the caller replays the even ones; without it, all replay on the caller.
    A replay's exception is raised once the worker is idle, with the pairs
    before it accumulated and every tape of the call consumed.
    """
    pairs = _checked_pairs(output, cotangent)
    for out, _ in pairs:
        out._tape._consumed = True
    worker = _WORKER if len(pairs) > 1 else None
    if worker is None:
        for pair in pairs:
            _accumulate(_replay(*pair))
        return
    pending = deque(worker.submit(_replay, *pair) for pair in pairs[1::2])
    try:
        for i, pair in enumerate(pairs):
            _accumulate(pending.popleft().result() if i % 2 else _replay(*pair))
    finally:
        for future in pending:
            future.cancel()
        futures.wait(pending)


def _checked_pairs(output, cotangent) -> list[tuple[Tensor, np.ndarray]]:
    """`backward_from`'s (output, cotangent) pairs, each cotangent in its
    output's dtype; raises, consuming nothing, unless every output comes from
    its own unconsumed tape and matches its cotangent's shape."""
    if isinstance(output, Tensor):
        output, cotangent = [output], [cotangent]
    output, cotangent = list(output), list(cotangent)
    if len(output) != len(cotangent):
        raise ShapeError(f"backward: {len(output)} outputs but {len(cotangent)} cotangents")
    pairs, tapes = [], set()
    for out, g in zip(output, cotangent):
        tape = out._tape
        if tape is None:
            raise ConfigError("backward: tensor was not produced under an active GradTape")
        if tape._consumed:
            raise ConfigError("backward: this tape's record was already consumed")
        if tape in tapes:
            raise ConfigError("backward: two outputs of one tape in one call")
        tapes.add(tape)
        g = np.asarray(g, dtype=out.dtype)
        if g.shape != out.shape:
            raise ShapeError(f"cotangent shape {g.shape} != output shape {out.shape}")
        pairs.append((out, g))
    return pairs


def _replay(output: Tensor, cotangent: np.ndarray) -> dict:
    """Walk `output`'s tape in reverse from `cotangent`; returns the leaves'
    gradients keyed by leaf. Touches no state but that tape's record and
    calls no public function, so it may run on the worker thread."""
    tape = output._tape
    # Cotangents keyed by slot for this tape's outputs, by the Tensor itself
    # (identity hash) for leaves; a slot's entry is popped at its node.
    grads: dict = {output._slot: cotangent}
    for node in reversed(tape._nodes):
        g = grads.pop(node.slot, None)
        if g is not None:
            for ref, gi in zip(node.inputs, node.vjp(g)):
                if ref is None or gi is None:
                    continue
                grads[ref] = grads[ref] + gi if ref in grads else gi
        # release the record as we go so peak memory stays near the forward pass
        node.inputs = node.vjp = node.recipe = None
    tape._nodes.clear()
    return grads  # only leaves are left


def _accumulate(grads: dict) -> None:
    for t, g in grads.items():
        g = g.reshape(t.shape)
        t.grad = Tensor(g) if t.grad is None else Tensor(t.grad.data + g)


def _blas_threads() -> str:
    """The BLAS thread count the environment sets, or "" if it sets none:
    OpenBLAS (numpy's wheels) reads OPENBLAS_NUM_THREADS and MKL reads
    MKL_NUM_THREADS, each falling back to OMP_NUM_THREADS."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    own = "MKL_NUM_THREADS" if "mkl" in blas.get("name", "") else "OPENBLAS_NUM_THREADS"
    return (os.environ.get(own) or os.environ.get("OMP_NUM_THREADS") or "").strip()


_WORKER_NAME = "numcore-worker"  # the prefix of the worker thread's name


def _pool() -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(1, thread_name_prefix=_WORKER_NAME)


def _new_worker() -> futures.ThreadPoolExecutor | None:
    """One thread that replays tapes for `backward_from` and runs half of
    each `encoder_blocks` call, or None.

    It exists only when the process may use two or more CPUs and BLAS runs
    one thread: a threaded BLAS already fills the CPUs, and a second
    thread then slows each step. The thread starts at its first task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return _pool() if cpus >= 2 and _blas_threads() == "1" else None


_WORKER = _new_worker()


def _restart_worker() -> None:
    """A forked child inherits the pool but not its thread, and would wait
    on it forever; give the child a pool of its own."""
    global _WORKER
    if _WORKER is not None:
        _WORKER = _pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_restart_worker)


def _in_two_children(run: Callable[[Sequence], object], items: Sequence) -> list:
    """[run(items)], or [run(items[:h]), run(items[h:])] with h = ceil(k / 2)
    computed by two forked children while the caller waits.

    The children run only when the worker exists (two or more CPUs, one
    BLAS thread), on Linux, for k >= 2 items, and when every other live
    thread is a numcore worker, idle since each submit waits for its
    future. Each child is a copy of the caller with no worker of its own
    that runs `run` inline, so the bits are the caller's, and sends its
    result or exception back through a pipe. The earlier part's exception
    is raised once both children are reaped; a child that sends nothing
    raises a `GaitError` naming its exit status. If the caller is
    interrupted, the children still running are killed."""
    others = [t for t in threading.enumerate() if t is not threading.current_thread()]
    if (_WORKER is None or not sys.platform.startswith("linux") or len(items) < 2
            or not all(t.name.startswith(_WORKER_NAME) for t in others)):
        return [run(items)]
    half = -(-len(items) // 2)
    children, outcomes = [], []  # (pid, pipe reader) of each unreaped child
    try:
        for part in (items[:half], items[half:]):
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    if others:  # Python 3.12 warns when a threaded process forks
                        warnings.filterwarnings("ignore", "This process", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(run, part, r, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        while children:
            pid, reader = children[0]
            with reader:
                payload = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            outcomes.append(pickle.loads(payload) if code == 0 else
                            (False, GaitError(f"a forked child ended with exit status {code}")))
    finally:
        for pid, reader in children:
            reader.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _child(run, part, r: int, w: int) -> NoReturn:
    """A forked child's life: run(part) with no worker, its pickled
    (True, result) or (False, exception) written to `w`; exits 0 once that
    is written, else 1, running no exit handler and flushing no buffer."""
    global _WORKER
    code = 1
    try:
        os.close(r)
        _WORKER = None
        try:
            outcome = (True, run(part))
        except BaseException as e:
            outcome = (False, e)
        with open(w, "wb") as f:
            f.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_err: float
    tol: float
    checked: int
    total: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    tol: float = 1e-5,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued `f` at `x` to central
    differences (f(x+h e_i) - f(x-h e_i)) / 2h.

    Relative error per coordinate is |a-n| / max(1, |a|, |n|), and NaN where
    either side is not finite, which fails the report. Inputs must be
    non-empty float64. `sample` (>= 1) limits the check to that many randomly
    chosen coordinates (seeded through `rng`); default checks all of them.
    """
    if x.dtype != np.float64 or x.size == 0:
        raise ConfigError(f"grad_check requires non-empty float64 input, got {x.dtype} {x.shape}")
    h = checked_real("h", h, "finite and > 0", lambda v: 0 < v < math.inf)
    tol = checked_real("tol", tol, "finite and >= 0", lambda v: 0 <= v < math.inf)  # 0 fails every report
    if sample is not None:
        sample = checked_int("sample", sample)

    leaf = Tensor(x.data.copy(), requires_grad=True)
    with GradTape():
        y = f(leaf)
        if not isinstance(y, Tensor) or y.size != 1:
            raise ShapeError("grad_check: f must return a scalar tensor")
        backward(y)
    analytic = (
        leaf.grad.data.reshape(-1) if leaf.grad is not None else np.zeros(x.size)
    )

    coords = np.arange(x.size)
    if sample is not None and sample < x.size:
        gen = rng if rng is not None else np.random.default_rng(0)
        coords = gen.choice(x.size, size=sample, replace=False)

    base = x.data.reshape(-1).copy()
    numeric = np.empty(len(coords))
    for j, i in enumerate(coords):
        probe = base.copy()
        probe[i] = base[i] + h
        fp = f(Tensor(probe.reshape(x.shape))).item()
        probe[i] = base[i] - h
        fm = f(Tensor(probe.reshape(x.shape))).item()
        numeric[j] = (fp - fm) / (2.0 * h)
    # A non-finite coordinate's error is NaN (inf/inf or nan), which np.max
    # keeps and `passed` refuses; so does a non-finite analytic one not sampled.
    a = analytic[coords]
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - numeric) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    max_rel = np.max(rel, initial=0.0) if np.isfinite(analytic).all() else math.nan

    return GradCheckReport(
        max_rel_err=float(max_rel),
        tol=tol,
        checked=len(coords),
        total=int(x.size),
    )
