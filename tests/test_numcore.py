"""Tensor engine tests: op semantics, gradient fidelity against central
finite differences, and the attention/normalization building blocks."""

import functools
import math
import sys

import numpy as np
import pytest
import scipy.special

from gaitpt import numcore as nc
from gaitpt.errors import ConfigError, NumericError, ShapeError
from gaitpt.numcore import AttentionWeights, GradTape, Tensor


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def grad_of(f, x):
    leaf = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    with GradTape():
        nc.backward(f(leaf))
    return leaf.grad.data


# ---------------------------------------------------------------------------
# tensor basics
# ---------------------------------------------------------------------------

def test_tensor_buffer_matches_shape():
    t = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert t.shape == (3, 2)
    assert t.size == int(np.prod(t.shape)) == t.data.size
    assert t.data.flags.c_contiguous


def test_reshape_roundtrip_is_identity():
    x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    back = nc.reshape(nc.reshape(Tensor(x), (4, 6)), (2, 3, 4))
    assert np.array_equal(back.data, x)


def test_item_rejects_non_scalar():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    out = nc.matmul(t64([[1, 0], [0, 1]]), t64([[3, 4], [5, 6]]))
    assert np.array_equal(out.data, [[3, 4], [5, 6]])


def test_matmul_1x2_2x1():
    out = nc.matmul(t64([[1, 2]]), t64([[3], [4]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = nc.matmul(t64(a), t64(b))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        nc.matmul(t64(np.zeros((3, 4))), t64(np.zeros((5, 2))))
    assert "(3, 4)" in str(err.value) and "(5, 2)" in str(err.value)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    assert np.allclose(nc.softmax(t64([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_large_inputs_do_not_overflow():
    out = nc.softmax(t64([1000.0, 1000.0]))
    assert np.allclose(out.data, [0.5, 0.5])
    assert np.isfinite(out.data).all()


def test_softmax_closed_form():
    out = nc.softmax(t64([0.0, math.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7)) * 3
    y = nc.softmax(t64(x), axis=-1).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    shifted = nc.softmax(t64(x + 13.7), axis=-1).data
    assert np.allclose(y, shifted, atol=1e-6)


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        nc.softmax(t64([np.nan, 1.0]))
    with pytest.raises(NumericError):
        nc.softmax(t64([np.inf, 1.0]))


# ---------------------------------------------------------------------------
# layer norm and gelu
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_maps_to_bias():
    out = nc.layer_norm(t64([1.0, 1.0, 1.0]), t64([1, 1, 1]), t64([0, 0, 0]))
    assert np.allclose(out.data, 0.0, atol=1e-2)  # zero-variance row collapses


def test_layer_norm_unit_variance_row_is_fixed_point():
    out = nc.layer_norm(t64([-1.0, 1.0]), t64([1, 1]), t64([0, 0]))
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_normalizes_random_rows():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 5.0, size=(4, 32))
    gain = np.ones(32)
    bias = np.zeros(32)
    out = nc.layer_norm(t64(x), t64(gain), t64(bias)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_shape_validation():
    with pytest.raises(ShapeError):
        nc.layer_norm(t64(np.zeros((2, 4))), t64(np.ones(3)), t64(np.zeros(4)))


def test_gelu_zero_and_asymptote():
    assert nc.gelu(t64([0.0])).data[0] == 0.0
    big = nc.gelu(t64([30.0])).data[0]
    assert abs(big - 30.0) < 1e-9


def test_gelu_matches_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    xs = np.linspace(-6.0, 6.0, 49)
    ours = nc.gelu(t64(xs)).data
    for x, y in zip(xs, ours):
        expected = float(mpmath.mpf(x) * 0.5 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))
        assert abs(y - expected) < 1e-6


def test_gelu_monotone_on_grid():
    xs = np.linspace(-0.5, 6.0, 200)  # monotone region starts left of 0
    ys = nc.gelu(t64(xs)).data
    assert np.all(np.diff(ys) > 0)


def _gelu_f64_formula(x):
    """The float64 GELU as scipy's erf gives it, with its VJP's pdf."""
    cdf = 0.5 * (1.0 + scipy.special.erf(x / np.sqrt(np.asarray(2.0))))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(np.asarray(2.0 * np.pi))
    return x * cdf, cdf + x * pdf


def _f32_gelu_probes():
    edge = np.float32(4.0 * math.sqrt(2.0))  # where the rational's clamp starts
    edges = [e for s in (edge, -edge) for e in (s, np.nextafter(s, np.float32(-np.inf)),
                                                 np.nextafter(s, np.float32(np.inf)))]
    extremes = [1e4, -1e4, 3e38, -3e38, 0.0, -0.0]
    grid = np.linspace(-8.0, 8.0, 400_001)
    return np.concatenate([grid, extremes, edges]).astype(np.float32), edge


def test_float32_gelu_matches_float64_erf_within_bound():
    x, edge = _f32_gelu_probes()
    y = nc.gelu(Tensor(x)).data
    assert y.dtype == np.float32
    wide = x.astype(np.float64)
    err = np.abs(y - _gelu_f64_formula(wide)[0])
    assert np.all(err <= 5e-7 * np.maximum(1.0, np.abs(wide))), float(np.max(err))
    # past the clamp edge float32 Phi is exactly 0 or 1, and the sign of zero is kept
    assert np.array_equal(y[x > edge], x[x > edge])
    assert np.all(y[x < -edge] == 0.0)
    zeros = nc.gelu(Tensor(np.array([0.0, -0.0], dtype=np.float32))).data
    assert np.array_equal(np.signbit(zeros), [False, True])


def test_float32_gelu_is_monotone_and_its_cdf_stays_in_unit_interval(monkeypatch):
    xs = np.linspace(-0.5, 8.0, 200_001).astype(np.float32)
    assert np.all(np.diff(nc.gelu(Tensor(xs)).data) >= 0)
    # Phi lives only in block scratch; read it out through the slope's array
    monkeypatch.setattr(nc, "_gelu_slope", lambda x, cdf, d: np.copyto(d, cdf))
    _, cdf = nc._gelu_f32(_f32_gelu_probes()[0], True)
    assert cdf.min() >= 0.0 and cdf.max() <= 1.0


@pytest.mark.parametrize("n", [0, 1, nc.GELU_BLOCK - 1, nc.GELU_BLOCK + 1, 3 * nc.GELU_BLOCK + 1234])
def test_float32_gelu_blocks_agree_with_one_unblocked_pass(n, monkeypatch):
    x = np.random.default_rng(n).normal(scale=3.0, size=n).astype(np.float32)
    blocked = nc._gelu_f32(x, True)
    monkeypatch.setattr(nc, "GELU_BLOCK", max(n, 1))
    whole = nc._gelu_f32(x, True)
    assert len(blocked) == len(whole) == 2
    assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))


@pytest.mark.parametrize("taped, outputs", [(False, 1), (True, 2)])
def test_float32_gelu_allocates_only_its_output_and_taped_its_slope(taped, outputs):
    """N elements cost 4N bytes per full-size array plus the block scratch;
    computing Phi in a full-size array would add 4N more."""
    import tracemalloc

    n = 5 * nc.GELU_BLOCK + 123
    x = Tensor(np.random.default_rng(0).normal(size=n).astype(np.float32), requires_grad=taped)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with GradTape():
            y = nc.gelu(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert y.data.dtype == np.float32
    scratch = 4 * 4 * nc.GELU_BLOCK
    assert peak <= outputs * 4 * n + scratch + 4096, peak


@pytest.mark.parametrize("shape", [(), (3, 5, 7), (2, nc.GELU_BLOCK + 3)])
def test_float32_gelu_keeps_dtype_and_shape(shape):
    x = np.random.default_rng(4).normal(size=shape).astype(np.float32)
    leaf = Tensor(x, requires_grad=True)
    with GradTape():
        y = nc.gelu(leaf)
        nc.backward_from(y, np.ones(shape, dtype=np.float32))
    assert y.data.dtype == leaf.grad.data.dtype == np.float32
    assert y.shape == leaf.grad.shape == shape


def test_float32_gelu_gradient_tracks_float64():
    x = np.linspace(-8.0, 8.0, 4001)
    leaf = Tensor(x.astype(np.float32), requires_grad=True)
    with GradTape():
        nc.backward(nc.tensor_sum(nc.gelu(leaf)))
    assert np.max(np.abs(leaf.grad.data - _gelu_f64_formula(x)[1])) < 2e-6


def test_float64_gelu_is_the_scipy_erf_formula_bitwise():
    x = np.random.default_rng(5).normal(scale=4.0, size=(40, 50))
    g = np.random.default_rng(6).normal(size=x.shape)
    leaf = Tensor(x, requires_grad=True)
    with GradTape():
        y = nc.gelu(leaf)
        nc.backward_from(y, g)
    out, slope = _gelu_f64_formula(x)
    assert np.array_equal(y.data, out)
    assert np.array_equal(leaf.grad.data, g * slope)


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------

def _rand_weights(rng, c, bias=True):
    def mat():
        return t64(rng.normal(size=(c, c)))

    def vec():
        return t64(rng.normal(size=c) if bias else np.zeros(c))

    return AttentionWeights(wq=mat(), wk=mat(), wv=mat(), wo=mat(),
                            bq=vec(), bk=vec(), bv=vec(), bo=vec())


def test_attention_single_token_reduces_to_projections():
    rng = np.random.default_rng(5)
    w = _rand_weights(rng, 4, bias=False)
    x = rng.normal(size=(1, 1, 4))
    out = nc.multi_head_attention(t64(x), w, heads=2).data
    expected = (x[0] @ w.wv.data) @ w.wo.data
    assert np.allclose(out[0], expected, atol=1e-10)


def test_attention_identical_tokens_average_uniformly():
    rng = np.random.default_rng(6)
    w = _rand_weights(rng, 4)
    row = rng.normal(size=4)
    x = np.tile(row, (1, 5, 1))
    out = nc.multi_head_attention(t64(x), w, heads=2).data
    single = nc.multi_head_attention(t64(row.reshape(1, 1, 4)), w, heads=2).data
    # uniform weights over identical values reproduce the single-token case
    assert np.allclose(out, np.tile(single, (1, 5, 1)), atol=1e-10)


def test_attention_matches_per_head_scalar_oracle():
    rng = np.random.default_rng(7)
    b, t, c, h = 1, 3, 4, 2
    hd = c // h
    w = _rand_weights(rng, c)
    x = rng.normal(size=(b, t, c))

    q = x @ w.wq.data + w.bq.data
    k = x @ w.wk.data + w.bk.data
    v = x @ w.wv.data + w.bv.data
    ctx = np.zeros((b, t, c))
    for head in range(h):
        sl = slice(head * hd, (head + 1) * hd)
        for i in range(t):
            scores = np.array([
                float(np.dot(q[0, i, sl], k[0, j, sl])) / math.sqrt(hd) for j in range(t)
            ])
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            for j in range(t):
                ctx[0, i, sl] += alpha[j] * v[0, j, sl]
    expected = ctx @ w.wo.data + w.bo.data

    out = nc.multi_head_attention(t64(x), w, heads=h).data
    assert np.allclose(out, expected, atol=1e-10)


def test_attention_single_head_equals_direct_computation():
    rng = np.random.default_rng(8)
    c = 6
    w = _rand_weights(rng, c, bias=False)
    x = rng.normal(size=(2, 4, c))
    q, k, v = x @ w.wq.data, x @ w.wk.data, x @ w.wv.data
    scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(c)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    expected = (attn @ v) @ w.wo.data
    out = nc.multi_head_attention(t64(x), w, heads=1).data
    assert np.allclose(out, expected, atol=1e-10)


def test_attention_rejects_indivisible_heads():
    rng = np.random.default_rng(9)
    w = _rand_weights(rng, 4)
    with pytest.raises(ConfigError):
        nc.multi_head_attention(t64(np.zeros((1, 2, 4))), w, heads=3)


# ---------------------------------------------------------------------------
# fused linear and attention core against the compositions they replace
# ---------------------------------------------------------------------------

def _composed_linear(x, w, b):
    """`linear` as reshape, matmul, add and reshape: the oracle."""
    flat = x if x.ndim == 2 else nc.reshape(x, (-1, x.shape[-1]))
    out = nc.add(nc.matmul(flat, w), b)
    return out if x.ndim == 2 else nc.reshape(out, x.shape[:-1] + (w.shape[1],))


def _composed_attention_core(q, k, v, heads):
    """`attention_core` as head split, matmul, mul, `softmax`, matmul and
    merge: the oracle."""
    b, t, c = q.shape
    hd = c // heads

    def split(x):  # (b, t, C) -> (b, h, t, hd)
        return nc.transpose(nc.reshape(x, (b, t, heads, hd)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = nc.mul(nc.matmul(q, nc.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    ctx = nc.matmul(nc.softmax(scores, axis=-1), v)
    return nc.reshape(nc.transpose(ctx, (0, 2, 1, 3)), (b, t, c))


def _composed_attention(tokens, w, heads):
    q, k, v = (_composed_linear(tokens, wx, bx) for wx, bx in ((w.wq, w.bq), (w.wk, w.bk), (w.wv, w.bv)))
    return _composed_linear(_composed_attention_core(q, k, v, heads), w.wo, w.bo)


def _forward_backward(f, arrays, needs_grad, seed=0):
    """f's output and the gradients of the leaves that need one, for a
    random cotangent."""
    leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)]
    with GradTape():
        out = f(*leaves)
        g = np.random.default_rng(seed).normal(size=out.shape).astype(out.dtype)
        nc.backward_from(out, g)
    return [out.data] + [leaf.grad.data for leaf in leaves if leaf.requires_grad]


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), i
        assert a.tobytes() == b.tobytes(), f"array {i} differs"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(6, 5), (2, 3, 4, 5)])
@pytest.mark.parametrize("needs_grad", [(True, True, True), (False, True, True)])
def test_fused_linear_is_bitwise_the_composition(dtype, x_shape, needs_grad):
    """(False, True, True) is the input projection: only w and b need a gradient."""
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=s).astype(dtype) for s in (x_shape, (5, 7), (7,))]
    _assert_bitwise(_forward_backward(nc.linear, arrays, needs_grad),
                    _forward_backward(_composed_linear, arrays, needs_grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, t, c, heads", [(2, 1, 8, 2), (3, 5, 6, 1), (2, 7, 8, 4), (4, 17, 16, 2), (2, 31, 32, 4)])
def test_attention_core_is_bitwise_the_composition(dtype, b, t, c, heads):
    rng = np.random.default_rng(t)
    arrays = [rng.normal(scale=2.0, size=(b, t, c)).astype(dtype) for _ in range(3)]
    core = lambda q, k, v: nc.attention_core(q, k, v, heads)  # noqa: E731
    oracle = lambda q, k, v: _composed_attention_core(q, k, v, heads)  # noqa: E731
    _assert_bitwise(_forward_backward(core, arrays, (True,) * 3),
                    _forward_backward(oracle, arrays, (True,) * 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_multi_head_attention_is_bitwise_the_composition(dtype):
    """Tokens and all eight projection leaves, so the order in which the
    q, k and v gradients accumulate onto the tokens is covered too."""
    rng = np.random.default_rng(2)
    c, heads = 8, 2
    arrays = [rng.normal(size=(3, 6, c))] + [rng.normal(size=(c, c)) for _ in range(4)]
    arrays = [a.astype(dtype) for a in arrays + [rng.normal(size=c) for _ in range(4)]]

    def run(attend):
        return lambda x, *ws: attend(x, AttentionWeights(*ws), heads)

    needs = (True,) * len(arrays)
    _assert_bitwise(_forward_backward(run(nc.multi_head_attention), arrays, needs),
                    _forward_backward(run(_composed_attention), arrays, needs))


@pytest.mark.parametrize("which", [0, 1, 2])
def test_attention_core_matches_finite_differences(which):
    rng = np.random.default_rng(3 + which)
    qkv = [t64(rng.normal(size=(2, 3, 4))) for _ in range(3)]
    weight = t64(rng.normal(size=(2, 3, 4)))

    def f(x):
        args = list(qkv)
        args[which] = x
        return nc.tensor_sum(nc.mul(nc.attention_core(*args, heads=2), weight))

    report = nc.grad_check(f, qkv[which], tol=1e-4)
    assert report.passed, report.max_rel_err


def test_attention_core_rejects_bad_shapes_and_heads():
    x = t64(np.zeros((1, 2, 4)))
    with pytest.raises(ShapeError):
        nc.attention_core(x, x, t64(np.zeros((1, 3, 4))), heads=2)
    with pytest.raises(ShapeError):
        nc.attention_core(t64(np.zeros((2, 4))), t64(np.zeros((2, 4))), t64(np.zeros((2, 4))), heads=2)
    with pytest.raises(ConfigError):
        nc.attention_core(x, x, x, heads=3)


# ---------------------------------------------------------------------------
# recipes: a linear over a layer norm or an attention core rebuilds its input
# ---------------------------------------------------------------------------

_PRODUCERS = {
    "layer_norm": (nc.layer_norm, ["x", (8,), (8,)]),
    "attention_core": (lambda q, k, v: nc.attention_core(q, k, v, heads=2), ["x"] * 3),
}


def _chain(name, through_reshape=False):
    """linear(producer(...), w, c); a `reshape` in between registers no
    recipe, so there `linear` keeps its input: the oracle."""
    producer = _PRODUCERS[name][0]

    def f(*leaves):
        h = producer(*leaves[:-2])
        if through_reshape:
            h = nc.reshape(h, h.shape)
        return nc.linear(h, *leaves[-2:])
    return f


def _chain_arrays(name, dtype, rng, batch=2, tokens=5):
    shapes = [(batch, tokens, 8) if s == "x" else s for s in _PRODUCERS[name][1]] + [(8, 6), (6,)]
    return [rng.normal(size=s).astype(dtype) for s in shapes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(_PRODUCERS))
def test_linear_over_a_recipe_is_bitwise_linear_over_its_kept_input(dtype, name):
    arrays = _chain_arrays(name, dtype, np.random.default_rng(6))
    needs = (True,) * len(arrays)
    _assert_bitwise(_forward_backward(_chain(name), arrays, needs),
                    _forward_backward(_chain(name, through_reshape=True), arrays, needs))

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    for through_reshape, recipes in ((False, [True, False]), (True, [True, False, False])):
        with GradTape() as tape:
            _chain(name, through_reshape)(*leaves)
        assert [node.recipe is not None for node in tape._nodes] == recipes
        kept = [cell.cell_contents for cell in tape._nodes[-1].vjp.__closure__]
        assert any(c is tape._nodes[0].recipe for c in kept) is not through_reshape


def test_a_layer_norm_output_read_by_three_projections_is_rebuilt_once(monkeypatch):
    calls, affine = [], nc._affine
    monkeypatch.setattr(nc, "_affine", lambda *a: calls.append(a) or affine(*a))
    x, g, b, w, c = [Tensor(a, requires_grad=True)
                     for a in _chain_arrays("layer_norm", np.float32, np.random.default_rng(11))]
    with GradTape():
        h = nc.layer_norm(x, g, b)
        out = nc.add(nc.add(nc.linear(h, w, c), nc.linear(h, w, c)), nc.linear(h, w, c))
        nc.backward_from(out, np.ones_like(out.data))
    assert len(calls) == 2  # the forward pass and one rebuild
    assert w.grad.data.tobytes() == (3 * (h.data.reshape(-1, 8).T @ np.ones((10, 6), np.float32))).tobytes()


def test_linear_keeps_its_input_from_another_tape_or_a_consumed_one():
    x, g, b, w, c = [Tensor(a, requires_grad=True)
                     for a in _chain_arrays("layer_norm", np.float64, np.random.default_rng(9))]
    with GradTape() as outer:
        h = nc.layer_norm(x, g, b)
        recipe = outer._nodes[0].recipe
        with GradTape() as inner:
            out = nc.linear(h, w, c)
        nc.backward(nc.tensor_sum(h))
        nc.linear(h, w, c)  # the open tape is consumed, so this records nothing
    (node,) = inner._nodes
    assert not any(cell.cell_contents is recipe for cell in node.vjp.__closure__)
    assert len(outer) == 0
    cotangent = np.random.default_rng(10).normal(size=out.shape)
    nc.backward_from(out, cotangent)
    assert np.array_equal(w.grad.data, h.data.reshape(-1, 8).T @ cotangent.reshape(-1, 6))


@pytest.mark.parametrize("name", list(_PRODUCERS))
def test_linear_over_a_recipe_matches_finite_differences(name):
    """Every input, w included, is a slice of one vector, so the producer
    is taped and w's gradient comes from the recipe."""
    rng = np.random.default_rng(7)
    arrays = _chain_arrays(name, np.float64, rng)
    bounds = np.cumsum([0] + [a.size for a in arrays])
    weight = t64(rng.normal(size=(2, 5, 6)))

    def loss(theta):
        leaves = [nc.reshape(theta[lo:hi], a.shape) for lo, hi, a in zip(bounds, bounds[1:], arrays)]
        return nc.tensor_sum(nc.mul(_chain(name)(*leaves), weight))

    report = nc.grad_check(loss, t64(np.concatenate([a.ravel() for a in arrays])))
    assert report.passed, report.max_rel_err


@pytest.mark.parametrize("name", list(_PRODUCERS))
def test_untaped_chain_registers_no_recipe_and_keeps_nothing(name):
    """With no tape open, the chain leaves behind only its output: no
    normalized input, softmax output or context is kept alive."""
    import tracemalloc

    leaves = [Tensor(a, requires_grad=True)
              for a in _chain_arrays(name, np.float64, np.random.default_rng(8), batch=16, tokens=32)]
    _chain(name)(*leaves)  # warm up numpy's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _chain(name)(*leaves)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out._tape is None and not out.requires_grad
    assert held < out.data.nbytes + 4096 < out.data.nbytes + leaves[0].data.nbytes, held


def test_a_tape_open_on_one_thread_records_no_op_of_another():
    """Another thread holds a tape open while this one embeds: the embedding
    is untaped, and that tape stays empty."""
    import threading

    from gaitpt.model import GaitPTConfig, GaitPTModel

    model = GaitPTModel(GaitPTConfig(dims=(16, 32, 64, 128), blocks=1, heads=2,
                                     sequence_length=20, output_dim=32), seed=0)
    windows = np.random.default_rng(0).uniform(size=(8, 20, 18, 2)).astype(np.float32)
    opened, release, tapes = threading.Event(), threading.Event(), []

    def hold_a_tape_open():
        with GradTape() as tape:
            tapes.append(tape)
            opened.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold_a_tape_open)
    holder.start()
    try:
        assert opened.wait(timeout=60)
        emb = model.embed_batch(windows)
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()
    assert emb._tape is None and not emb.requires_grad
    assert len(tapes[0]) == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 2, 5, 17, 31, 33])
def test_in_place_softmax_is_bitwise_softmax_with_signed_zero_ties(dtype, width):
    """Rows whose max is a tie of +0 and -0: the column loop may pick the
    other zero than x.max does, which changes no output."""
    rng = np.random.default_rng(width)
    x = -np.abs(rng.normal(size=(64, 3, width))).astype(dtype)
    zeros = rng.integers(0, 3, size=x.shape)
    x[zeros == 1] = 0.0
    x[zeros == 2] = -0.0
    top, low = nc._row_max_min(x)
    assert np.array_equal(top, x.max(axis=-1)) and np.array_equal(low, x.min(axis=-1))
    s = x.copy()
    nc._softmax_last_axis_(s)
    assert s.tobytes() == nc.softmax(Tensor(x), axis=-1).data.tobytes()


@pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 3, 6])
def test_in_place_softmax_rejects_non_finite_as_softmax_does(fill, column):
    x = np.random.default_rng(column).normal(size=(2, 3, 7))
    x[1, 2, column] = fill
    with pytest.raises(NumericError) as composed:
        nc.softmax(t64(x), axis=-1)
    with pytest.raises(NumericError) as fused:
        nc._softmax_last_axis_(x.copy())
    assert str(fused.value) == str(composed.value) == "softmax input contains non-finite values"


def test_attention_core_rejects_non_finite_scores():
    x = np.ones((1, 3, 4))
    x[0, 1, 2] = math.nan
    with pytest.raises(NumericError, match="softmax input contains non-finite values"):
        nc.attention_core(t64(x), t64(np.ones((1, 3, 4))), t64(np.ones((1, 3, 4))), heads=2)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    g = grad_of(lambda x: nc.tensor_sum(x), np.array([1.0, -2.0, 5.0]))
    assert np.array_equal(g, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares_closed_form():
    g = grad_of(lambda x: nc.tensor_sum(nc.mul(x, x)), np.array([1.0, 2.0]))
    assert np.allclose(g, [2.0, 4.0])


def test_backward_two_op_chain_rule():
    # loss = sum((x * c)^2) -> d/dx = 2 c^2 x
    c = np.array([3.0, -2.0, 0.5])
    x = np.array([1.0, 4.0, -2.0])
    g = grad_of(lambda t: nc.tensor_sum(nc.mul(nc.mul(t, c), nc.mul(t, c))), x)
    assert np.allclose(g, 2.0 * c * c * x)

    # loss = mean(sqrt(x + 10)) -> d/dx = 1/(2 n sqrt(x + 10))
    g2 = grad_of(lambda t: nc.mean(nc.sqrt(nc.add(t, 10.0))), x)
    assert np.allclose(g2, 1.0 / (2.0 * len(x) * np.sqrt(x + 10.0)))


def test_backward_accumulates_over_shared_subexpressions():
    # loss = sum(x*y) + sum(x*x): dx = y + 2x
    x = np.array([1.0, 2.0])
    y = np.array([5.0, -1.0])
    g = grad_of(lambda t: nc.add(nc.tensor_sum(nc.mul(t, y)), nc.tensor_sum(nc.mul(t, t))), x)
    assert np.allclose(g, y + 2 * x)


def test_backward_rejects_non_scalar():
    leaf = Tensor(np.ones(3), requires_grad=True)
    with GradTape():
        out = nc.mul(leaf, 2.0)
        with pytest.raises(ShapeError):
            nc.backward(out)


def test_backward_requires_a_tape():
    leaf = Tensor(np.ones(3), requires_grad=True)
    out = nc.tensor_sum(leaf)  # no tape active
    with pytest.raises(ConfigError):
        nc.backward(out)


def test_backward_on_consumed_tape_is_rejected():
    leaf = Tensor(np.ones(3), requires_grad=True)
    with GradTape():
        out = nc.tensor_sum(leaf)
        nc.backward(out)
        with pytest.raises(ConfigError):
            nc.backward(out)


def test_ops_after_backward_inside_an_open_tape_record_nothing():
    """A consumed tape counts as no tape: ops run after its backward pass
    inside its `with` block are untaped and keep nothing alive."""
    leaf = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        nc.backward(nc.tensor_sum(leaf))
        out = nc.gelu(nc.mul(leaf, leaf))
    assert len(tape) == 0
    assert out._tape is None and not out.requires_grad
    assert np.array_equal(leaf.grad.data, np.ones(3))


def _micro_batch_tapes(n, seed=0):
    """`n` tapes of GELU over a linear with a shared weight and bias, their
    outputs and cotangents, and the two leaves; one seed gives one set of
    arrays."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    outputs, cotangents = [], []
    for _ in range(n):
        with GradTape():
            outputs.append(nc.gelu(nc.linear(Tensor(rng.normal(size=(3, 5))), w, b)))
        cotangents.append(rng.normal(size=(3, 4)))
    return outputs, cotangents, (w, b)


def _assert_serial_grads(leaves, n, replayed):
    """`leaves` hold bitwise the gradients that the leaves of
    `_micro_batch_tapes(n)` get from one `backward_from` call for each of
    its first `replayed` pairs, in order."""
    outputs, cotangents, serial = _micro_batch_tapes(n)
    for out, g in list(zip(outputs, cotangents))[:replayed]:
        nc.backward_from(out, g)
    for leaf, expected in zip(leaves, serial):
        assert (leaf.grad is None) == (expected.grad is None)
        if leaf.grad is not None:
            assert leaf.grad.data.tobytes() == expected.grad.data.tobytes()


@pytest.fixture(params=["inline", "worker"])
def replay_worker(request, monkeypatch):
    """Runs the test with `backward_from`'s worker thread off, then on."""
    if request.param == "worker":
        return request.getfixturevalue("worker")
    monkeypatch.setattr(nc, "_WORKER", None)
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_backward_from_a_sequence_is_bitwise_one_call_per_pair(replay_worker, n):
    """Under a short thread switch interval, so the two replays interleave
    at fine grain."""
    outputs, cotangents, leaves = _micro_batch_tapes(n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        nc.backward_from(outputs, cotangents)
    finally:
        sys.setswitchinterval(interval)
    _assert_serial_grads(leaves, n, n)
    assert all(out._tape._consumed and len(out._tape) == 0 for out in outputs)


@pytest.mark.parametrize("fault", ["repeated tape", "consumed tape", "shape mismatch", "count mismatch"])
def test_backward_from_refuses_a_bad_pair_and_consumes_no_tape(replay_worker, fault):
    outputs, cotangents, leaves = _micro_batch_tapes(4)
    with GradTape():
        spent = nc.tensor_sum(Tensor(np.ones(2), requires_grad=True))
    nc.backward(spent)
    bad_outputs, bad_cotangents = list(outputs), list(cotangents)
    if fault == "repeated tape":
        bad_outputs[3] = outputs[1]
    elif fault == "consumed tape":
        bad_outputs[3], bad_cotangents[3] = spent, np.ones(())
    elif fault == "shape mismatch":
        bad_cotangents[3] = cotangents[3][:2]
    else:
        bad_cotangents.pop()
    with pytest.raises((ConfigError, ShapeError)):
        nc.backward_from(bad_outputs, bad_cotangents)
    assert not any(out._tape._consumed for out in outputs)
    assert [len(out._tape) for out in outputs] == [2, 2, 2, 2]
    _assert_serial_grads(leaves, 4, 0)
    nc.backward_from(outputs, cotangents)  # the record is intact
    _assert_serial_grads(leaves, 4, 4)


@pytest.mark.parametrize("failing", [0, 1, 2, 3])
def test_a_replay_error_is_raised_once_the_worker_is_idle(replay_worker, failing):
    """Pair `failing`'s VJP raises and every other pair's replay sleeps, so
    the worker is mid-replay when the error reaches the caller: every
    replay that started has finished before `backward_from` raises. The
    pairs before the failing one are accumulated as one call per pair would
    leave them, and no later one."""
    import time

    outputs, cotangents, leaves = _micro_batch_tapes(5)
    started, finished = [], []

    def fail(g):
        raise NumericError("injected")

    def slow(g, vjp, i):
        started.append(i)
        time.sleep(0.1)
        finished.append(i)
        return vjp(g)

    for i, out in enumerate(outputs):
        node = out._tape._nodes[-1]
        node.vjp = fail if i == failing else functools.partial(slow, vjp=node.vjp, i=i)
    with pytest.raises(NumericError, match="injected"):
        nc.backward_from(outputs, cotangents)
    assert sorted(finished) == sorted(started)
    assert all(out._tape._consumed for out in outputs)
    _assert_serial_grads(leaves, 5, failing)


def test_backward_is_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 6))

    def run():
        return grad_of(lambda t: nc.tensor_sum(nc.mul(nc.softmax(t, axis=-1), t)), x)

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("indices", [[2, 0, 3], [-1, 0], [[1, 3], [0, 2]], [1, 1, 3], [3, -1]])
def test_index_select_vjp_is_bitwise_np_add_at(dtype, indices):
    """Unique indices assign the cotangent, repeated ones accumulate it; either
    way the gradient is bitwise the np.add.at one, +0.0 where the cotangent holds -0.0."""
    rng = np.random.default_rng(0)
    leaf = Tensor(rng.normal(size=(2, 4, 3)).astype(dtype), requires_grad=True)
    with GradTape():
        out = nc.index_select(leaf, 1, indices)
    g = rng.normal(size=out.shape).astype(dtype)
    g.reshape(-1)[::3] = -0.0
    nc.backward_from(out, g)
    expected = np.zeros(leaf.shape, dtype)
    np.add.at(expected, (slice(None), np.asarray(indices)), g)
    assert leaf.grad.data.dtype == dtype
    assert leaf.grad.data.tobytes() == expected.tobytes()
    assert not np.signbit(leaf.grad.data[leaf.grad.data == 0]).any()


# ---------------------------------------------------------------------------
# finite-difference fidelity for every differentiable primitive
# ---------------------------------------------------------------------------

def test_every_primitive_matches_finite_differences():
    from gaitpt.cli import _gradcheck_cases

    rng = np.random.default_rng(123)
    for name, f, x in _gradcheck_cases(rng):
        report = nc.grad_check(f, x, tol=1e-5)
        assert report.passed, f"{name}: max_rel_err={report.max_rel_err:.3e}"


def _backward_dtype_leaks(output, tape, cotangent, leaves, dtype):
    """Backpropagate `cotangent` from `output` with every VJP on `tape`
    wrapped to log the dtypes it receives and returns; list each VJP call
    or leaf gradient whose dtype is not `dtype`."""
    calls = []
    for node in tape._nodes:
        def logged(g, vjp=node.vjp):
            grads = vjp(g)
            calls.append((vjp.__qualname__, g.dtype, [gi.dtype for gi in grads if gi is not None]))
            return grads
        node.vjp = logged
    nc.backward_from(output, cotangent)
    assert calls
    leaks = [c for c in calls if c[1] != dtype or any(d != dtype for d in c[2])]
    leaks += [(name, t.grad.dtype) for name, t in leaves.items() if t.grad.dtype != dtype]
    return leaks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_primitive_backward_keeps_parameter_dtype(dtype):
    from gaitpt.cli import _gradcheck_cases

    for name, f, x in _gradcheck_cases(np.random.default_rng(5), dtype=dtype):
        leaf = Tensor(x.data, requires_grad=True)
        assert leaf.dtype == dtype, name
        with GradTape() as tape:
            y = f(leaf)
        leaks = _backward_dtype_leaks(y, tape, np.ones_like(y.data), {name: leaf}, dtype)
        assert not leaks, f"{name}: {leaks}"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_default_model_backward_keeps_parameter_dtype(dtype):
    from gaitpt.model import GaitPTConfig, GaitPTModel
    from gaitpt.training import TrainConfig

    model = GaitPTModel(GaitPTConfig.build(dtype=dtype), seed=0)
    rng = np.random.default_rng(0)
    windows = rng.uniform(size=(TrainConfig().micro_batch, model.config.sequence_length, 18, 2))
    with GradTape() as tape:
        emb = model.embed_batch(windows.astype(dtype))
    cotangent = rng.normal(size=emb.shape).astype(dtype)
    leaves = {name: p.value for name, p in model.params.items()}
    leaks = _backward_dtype_leaks(emb, tape, cotangent, leaves, np.dtype(dtype))
    assert not leaks, f"{len(leaks)} dtype leaks, first {leaks[:3]}"


def test_grad_check_quadratic_is_nearly_exact():
    report = nc.grad_check(
        lambda x: nc.tensor_sum(nc.mul(x, x)),
        Tensor(np.array([0.3, -1.2, 2.0])),
        h=1e-5, tol=1e-9,
    )
    assert report.max_rel_err < 1e-9


def test_grad_check_requires_float64():
    with pytest.raises(ConfigError):
        nc.grad_check(lambda x: nc.tensor_sum(x), Tensor(np.ones(3, dtype=np.float32)))


def test_grad_check_subsampling_counts():
    report = nc.grad_check(
        lambda x: nc.tensor_sum(nc.mul(x, x)),
        Tensor(np.ones(100)), sample=17, rng=np.random.default_rng(0),
    )
    assert report.checked == 17 and report.total == 100


# ---------------------------------------------------------------------------
# lean tape: slots, leaves, and only the arrays the VJPs read
# ---------------------------------------------------------------------------

def test_default_model_tape_holds_slots_leaves_or_nothing():
    from gaitpt.model import GaitPTConfig, GaitPTModel
    from gaitpt.training import TrainConfig

    model = GaitPTModel(GaitPTConfig.build(), seed=0)
    windows = np.random.default_rng(0).uniform(
        size=(TrainConfig().micro_batch, model.config.sequence_length, 18, 2)).astype(np.float32)
    with GradTape() as tape:
        model.embed_batch(windows)
    refs = [ref for node in tape._nodes for ref in node.inputs]
    kinds = {type(ref) for ref in refs}
    assert kinds == {int, Tensor, type(None)}, kinds
    assert all(ref._tape is not tape for ref in refs if isinstance(ref, Tensor))
    assert all(0 <= ref < node.slot for node in tape._nodes for ref in node.inputs
               if isinstance(ref, int))
    assert [node.slot for node in tape._nodes] == list(range(len(tape)))


def _fingerprint_tool():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_criterion6_micro_batch_records_a_pinned_number_of_tape_nodes():
    """One taped 8-window micro-batch: 196 nodes on the criterion-6 model and
    364 on the default one, whose VJP closures hold 14,775,420 and
    132,078,324 bytes besides the parameters (`tools/fingerprint.py`'s
    `tape-bytes`; 17,767,548 and 158,786,292 when `linear` kept every
    layer-norm output and attention context). Counts, so they do not depend
    on the host."""
    from gaitpt.model import GaitPTConfig, GaitPTModel

    tape_bytes = _fingerprint_tool().tape_bytes
    criterion6 = GaitPTConfig(dims=(16, 32, 64, 128), blocks=1, heads=2, sequence_length=20, output_dim=32)
    counts = []
    for cfg in (criterion6, GaitPTConfig()):
        windows = np.random.default_rng(0).uniform(size=(8, cfg.sequence_length, 18, 2)).astype(np.float32)
        model = GaitPTModel(cfg, seed=0)
        with GradTape() as tape:
            model.embed_batch(windows)
        counts.append((len(tape), tape_bytes(tape, model.flat_parameters().data)))
    assert counts == [(196, 14_775_420), (364, 132_078_324)]


def test_backward_is_exact_when_dropped_outputs_free_their_ids():
    def f(x):
        ids, acc = [], nc.tensor_sum(nc.mul(x, x))
        for i in range(16):
            ids.append(id(nc.mul(x, float(i))))  # recorded, then dropped at once
            acc = nc.add(acc, nc.tensor_sum(nc.gelu(nc.mul(x, 0.1 * i))))
        assert len(set(ids)) < len(ids), "no id was reused; the case is not forced"
        return acc

    report = nc.grad_check(f, t64(np.random.default_rng(2).normal(size=(3, 4))))
    assert report.passed, report.max_rel_err


_CONSTANT = np.random.default_rng(3).normal(size=(4, 4))


@pytest.mark.parametrize("name, f", [
    ("mul constant left", lambda x: nc.mul(t64(_CONSTANT), x)),
    ("mul constant right", lambda x: nc.mul(x, t64(_CONSTANT))),
    ("mul python scalar", lambda x: nc.mul(x, 0.5)),
    ("matmul constant left", lambda x: nc.matmul(t64(_CONSTANT), x)),
    ("matmul constant right", lambda x: nc.matmul(x, t64(_CONSTANT))),
])
def test_constant_operand_gets_no_gradient_and_grad_check_passes(name, f):
    x = np.random.default_rng(4).normal(size=(4, 4))
    report = nc.grad_check(lambda t: nc.tensor_sum(nc.gelu(f(t))), t64(x))
    assert report.passed, f"{name}: {report.max_rel_err:.3e}"
    leaf = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        y = f(leaf)
    (node,) = tape._nodes
    grads = node.vjp(np.ones_like(y.data))
    assert [r is None for r in node.inputs] == [g is None for g in grads], name
    assert sum(g is None for g in grads) == 1, name


def test_criterion6_training_step_traced_peak_is_bounded():
    """A P x K = 24 criterion-6 step keeps every micro-batch tape alive until
    mining. It peaks at about 44 MB traced (52 MB while `linear` kept
    layer-norm outputs and attention contexts); tapes that held every
    intermediate tensor peaked at 137 MB."""
    import tracemalloc

    from gaitpt.model import GaitPTConfig, GaitPTModel
    from gaitpt.training import OptimizerState, TrainConfig, _train_step

    model = GaitPTModel(GaitPTConfig.build(dims=(16, 32, 64, 128), blocks=1, heads=2,
                                           sequence_length=20, output_dim=32), seed=0)
    cfg = TrainConfig(p=6, k=4, micro_batch=8)
    windows = np.random.default_rng(0).uniform(
        size=(cfg.p * cfg.k, 20, 18, 2)).astype(model.config.np_dtype)
    labels = [i // cfg.k for i in range(cfg.p * cfg.k)]
    state = OptimizerState.for_params(model.params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _train_step(model, windows, labels, cfg, state, 1e-3, "step")
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 90, f"{peak_mb:.1f} MB"


def _square_with_vjp(vjp):
    """sum(x^2) through a primitive whose VJP is `vjp(x, g)`, not 2 x g."""
    def f(x):
        return nc.tensor_sum(nc._record(Tensor(x.data ** 2), (x,), lambda g: (vjp(x.data, g),)))
    return f


@pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf])
def test_grad_check_fails_a_vjp_with_non_finite_gradients(fill):
    f = _square_with_vjp(lambda x, g: np.full(x.shape, fill))
    report = nc.grad_check(f, t64([0.3, -1.2, 2.0]), tol=1e-4)
    assert not report.passed and math.isnan(report.max_rel_err)
    assert nc.grad_check(_square_with_vjp(lambda x, g: 2.0 * x * g), t64([0.3, -1.2, 2.0])).passed


def test_grad_check_fails_a_non_finite_analytic_coordinate_it_did_not_sample():
    def vjp(x, g):
        grad = 2.0 * x * g
        grad[0] = math.nan
        return grad
    x = t64(np.linspace(1.0, 2.0, 50))
    report = nc.grad_check(_square_with_vjp(vjp), x, tol=1e-4, sample=1, rng=np.random.default_rng(0))
    assert report.checked == 1 and not report.passed


def test_grad_check_fails_a_non_finite_difference():
    x0 = np.array([0.3, -1.2, 2.0])

    def f(x):  # finite at x0 only: every central difference is inf - inf
        return nc.tensor_sum(x) if np.array_equal(x.data, x0) else Tensor(np.array(math.inf))
    report = nc.grad_check(f, t64(x0), tol=1e-4)
    assert not report.passed


@pytest.mark.parametrize("kwargs, message", [
    ({"sample": 0}, "sample must be an integer >= 1"), ({"sample": True}, "sample must be an integer"),
    ({"sample": 1.5}, "sample must be an integer"),
    ({"tol": math.nan}, "tol must be finite and >= 0"), ({"tol": math.inf}, "tol must be finite"),
    ({"tol": -1.0}, "tol must be finite and >= 0"), ({"tol": True}, "tol must be a number"),
    ({"h": 0.0}, "h must be finite and > 0"), ({"h": math.nan}, "h must be finite and > 0"),
    ({"h": -1e-5}, "h must be finite and > 0"), ({"h": "1e-5"}, "h must be a number"),
])
def test_grad_check_refuses_a_vacuous_or_meaningless_setting(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        nc.grad_check(lambda x: nc.tensor_sum(nc.mul(x, x)), t64([0.3, -1.2, 2.0]), **kwargs)


def test_grad_check_refuses_an_input_with_no_coordinates():
    with pytest.raises(ConfigError, match="non-empty"):
        nc.grad_check(lambda x: nc.tensor_sum(x), t64(np.zeros((2, 0))))
