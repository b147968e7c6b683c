#!/usr/bin/env python3
"""A tour of the tensor engine: building expressions on a gradient tape,
pulling gradients back, and checking them against finite differences."""

import numpy as np

from gaitpt import numcore as nc
from gaitpt.numcore import AttentionWeights, GradTape, Tensor

print("== scalars and the tape ==")
x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
y = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
with GradTape():
    loss = nc.tensor_sum(nc.mul(x, y) + nc.sqrt(x))
    nc.backward(loss)
print("loss       :", loss.item())
print("d loss / dx:", x.grad.data, " (expected y + 1/(2*sqrt(x)))")
print("d loss / dy:", y.grad.data, " (expected x)")

print()
print("== softmax stability ==")
big = Tensor(np.array([1000.0, 1000.0, 999.0]))
print("softmax([1000, 1000, 999]) =", nc.softmax(big).data, "(no overflow)")

print()
print("== attention over three tokens ==")
rng = np.random.default_rng(0)
c = 4
weights = AttentionWeights(
    wq=Tensor(rng.normal(size=(c, c))), wk=Tensor(rng.normal(size=(c, c))),
    wv=Tensor(rng.normal(size=(c, c))), wo=Tensor(rng.normal(size=(c, c))),
    bq=Tensor(np.zeros(c)), bk=Tensor(np.zeros(c)), bv=Tensor(np.zeros(c)), bo=Tensor(np.zeros(c)),
)
tokens = Tensor(rng.normal(size=(1, 3, c)))
out = nc.multi_head_attention(tokens, weights, heads=2)
print("tokens (1, 3, 4) -> attention ->", out.shape)

print()
print("== finite-difference audit ==")
report = nc.grad_check(
    lambda t: nc.tensor_sum(nc.mul(nc.softmax(t, axis=-1), t)),
    Tensor(rng.normal(size=(5, 4))),
    tol=1e-6,
)
print(f"softmax-weighted sum: max relative error {report.max_rel_err:.2e} "
      f"over {report.checked} coordinates -> {'PASS' if report.passed else 'FAIL'}")
