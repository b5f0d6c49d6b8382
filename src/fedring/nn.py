"""Two-layer MLP with manual backpropagation.

Architecture is input -> hidden (polynomial sigmoid) -> 1 output; binary
models apply the polynomial sigmoid to the output as well and threshold at
0.5. Loss is per-example squared error, averaged over the batch, so the
mean of per-example gradients equals the batch gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch

TASK_REGRESSION = "regression"
TASK_BINARY = "binary"


def sigmoid_poly(x: np.ndarray) -> np.ndarray:
    """Degree-3 approximation of the logistic sigmoid, 1/2 + x/4 - x**3/48.
    It leaves [0, 1] for |x| > ~4.3 and is evaluated unclamped. The cube is
    two multiplications: numpy computes x**3 with a pow() call per element,
    an order of magnitude slower, and differs from x * x * x only in the
    last bit."""
    return 0.5 + x / 4.0 - x * x * x / 48.0


def sigmoid_poly_deriv(x: np.ndarray) -> np.ndarray:
    """d/dx of sigmoid_poly: 1/4 - x**2/16."""
    return 0.25 - x * x / 16.0


@dataclass
class Model:
    """MLP parameters as a flat Float64 vector plus layer bookkeeping."""

    dims: tuple[int, ...]  # (input, hidden, 1)
    task: str
    params: np.ndarray
    # regression targets may be trained in standardized units; predictions
    # are mapped back through (mean, std) at evaluation time
    target_scale: tuple[float, float] = (0.0, 1.0)

    @property
    def n_params(self) -> int:
        return param_count(self.dims)

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = forward(self.params, self.dims, self.task, X)
        if self.task == TASK_REGRESSION:
            mean, std = self.target_scale
            return raw * std + mean
        return raw


def param_count(dims) -> int:
    d, h, o = dims
    return d * h + h + h * o + o


def param_shapes(dims):
    d, h, o = dims
    return [(d, h), (h,), (h, o), (o,)]


def init_params(dims, rng: np.random.Generator, weight_std: float = 0.1) -> np.ndarray:
    d, h, o = dims
    w1 = rng.normal(0.0, weight_std, (d, h))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, weight_std, (h, o))
    b2 = np.zeros(o)
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def unflatten(params: np.ndarray, dims):
    if params.size != param_count(dims):
        raise ShapeMismatch(
            f"parameter vector length {params.size}, expected {param_count(dims)}"
        )
    out, i = [], 0
    for s in param_shapes(dims):
        n = math.prod(s)
        out.append(params[i : i + n].reshape(s))
        i += n
    return out


def forward(params: np.ndarray, dims, task: str, X: np.ndarray) -> np.ndarray:
    w1, b1, w2, b2 = unflatten(params, dims)
    if X.ndim != 2 or X.shape[1] != dims[0]:
        raise ShapeMismatch(f"input {X.shape} does not match dims {dims}")
    z1 = X @ w1 + b1
    a1 = sigmoid_poly(z1)
    z2 = a1 @ w2 + b2
    out = z2[:, 0]
    if task == TASK_BINARY:
        out = sigmoid_poly(out)
    return out


def sigmoid_poly_chain(v, pool=None):
    """sigmoid_poly over tensor chains: v*v, then (v*v)*v, then
    v/4 - x3/48 + 1/2, each float constant a fixed-point product."""
    x3 = v.dispatch("mul", v, pool=pool).dispatch("mul", v, pool=pool)
    t = v.dispatch("scale", c=0.25).dispatch("add", x3.dispatch("scale", c=-1.0 / 48.0))
    return t.dispatch("offset", c=0.5)


def forward_chain(x, w1, b1, w2, b2, task: str, pool=None):
    """forward over tensor chains, biases tiled to the batch, through
    .dispatch alone: on local fixed-precision chains the plaintext oracle,
    on shared ones, with the pool's triples, the shared pass."""
    z1 = x.dispatch("matmul", w1, pool=pool).dispatch("add", b1)
    z2 = sigmoid_poly_chain(z1, pool).dispatch("matmul", w2, pool=pool).dispatch("add", b2)
    return sigmoid_poly_chain(z2, pool) if task == TASK_BINARY else z2


def forward_backward(
    params: np.ndarray,
    dims,
    task: str,
    X: np.ndarray,
    y: np.ndarray,
    per_example: bool = False,
):
    """Loss and gradient of mean squared error over the batch.

    per_example=True returns one gradient row per example; the row mean
    equals the batch gradient.
    """
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"batch shapes {X.shape} vs {y.shape}")
    w1, b1, w2, b2 = unflatten(params, dims)
    B = X.shape[0]
    z1 = X @ w1 + b1
    a1 = sigmoid_poly(z1)
    z2 = a1 @ w2 + b2
    if task == TASK_BINARY:
        pred = sigmoid_poly(z2[:, 0])
        d2 = (2.0 * (pred - y) * sigmoid_poly_deriv(z2[:, 0]))[:, None]
    else:
        pred = z2[:, 0]
        d2 = (2.0 * (pred - y))[:, None]
    loss = float(np.mean((pred - y) ** 2))
    da1 = d2 @ w2.T
    dz1 = da1 * sigmoid_poly_deriv(z1)
    if per_example:
        gw1 = np.einsum("bd,bh->bdh", X, dz1).reshape(B, -1)
        gb1 = dz1
        gw2 = np.einsum("bh,bo->bho", a1, d2).reshape(B, -1)
        gb2 = d2
        return loss, np.concatenate([gw1, gb1, gw2, gb2], axis=1)
    gw1 = X.T @ dz1 / B
    gb1 = dz1.mean(axis=0)
    gw2 = a1.T @ d2 / B
    gb2 = d2.mean(axis=0)
    return loss, np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def clip_rows(G: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row to L2 norm at most clip_norm, keeping its direction;
    rows within the bound and zero rows pass through unchanged."""
    if not clip_norm > 0:  # NaN too
        raise ConfigError(f"clip_norm {clip_norm} must be positive")
    norms = np.linalg.norm(G, axis=1)
    factors = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    return G * factors[:, None]


def project_hidden_max_norm(params: np.ndarray, dims, max_norm: float) -> np.ndarray:
    """Cap hidden-layer column norms and biases so pre-activations stay in
    the polynomial sigmoid's valid range under noisy updates. Returns a
    new vector, clipped in place through unflatten's views of it."""
    out = params.copy()
    w1, b1, _, _ = unflatten(out, dims)
    col = np.linalg.norm(w1, axis=0)
    w1 *= np.minimum(1.0, max_norm / np.maximum(col, 1e-300))
    np.clip(b1, -max_norm, max_norm, out=b1)
    return out
