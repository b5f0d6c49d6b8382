import numpy as np
import pytest

from fedring.errors import ShapeMismatch
from fedring.nn import (
    clip_rows,
    forward,
    forward_backward,
    init_params,
    param_count,
    project_hidden_max_norm,
    sigmoid_poly,
    sigmoid_poly_deriv,
    unflatten,
)

DIMS = (5, 8, 1)


def make_batch(rng, n, task):
    X = rng.normal(size=(n, DIMS[0]))
    if task == "binary":
        y = rng.integers(0, 2, size=n).astype(np.float64)
    else:
        y = rng.normal(size=n)
    return X, y


class TestShapes:
    def test_param_count(self):
        assert param_count((13, 32, 1)) == 13 * 32 + 32 + 32 + 1

    def test_unflatten_roundtrip(self):
        rng = np.random.default_rng(0)
        p = init_params(DIMS, rng)
        w1, b1, w2, b2 = unflatten(p, DIMS)
        assert w1.shape == (5, 8) and b1.shape == (8,)
        assert w2.shape == (8, 1) and b2.shape == (1,)
        assert np.array_equal(np.concatenate([w1.ravel(), b1, w2.ravel(), b2]), p)

    def test_bad_lengths(self):
        with pytest.raises(ShapeMismatch):
            unflatten(np.zeros(10), DIMS)
        with pytest.raises(ShapeMismatch):
            forward(init_params(DIMS, np.random.default_rng(0)), DIMS,
                    "regression", np.zeros((3, 4)))


class TestGradients:
    @pytest.mark.parametrize("task", ["regression", "binary"])
    def test_finite_differences(self, task):
        rng = np.random.default_rng(1)
        p = init_params(DIMS, rng, weight_std=0.3)
        X, y = make_batch(rng, 16, task)
        _, grad = forward_backward(p, DIMS, task, X, y)
        h = 1e-6
        for i in rng.choice(p.size, size=20, replace=False):
            e = np.zeros_like(p)
            e[i] = h
            lp, _ = forward_backward(p + e, DIMS, task, X, y)
            lm, _ = forward_backward(p - e, DIMS, task, X, y)
            num = (lp - lm) / (2 * h)
            assert grad[i] == pytest.approx(num, rel=1e-4, abs=1e-8)

    def test_closed_form_single_linear_unit(self):
        """With w1 = b1 = 0 the hidden layer outputs a constant 0.5, so the
        model is linear in (w2, b2) and the gradient has a closed form."""
        d, h = DIMS[0], DIMS[1]
        p = np.zeros(param_count(DIMS))
        w2 = np.full(h, 0.3)
        b2 = 1.5
        p[d * h + h : d * h + h + h] = w2
        p[-1] = b2
        rng = np.random.default_rng(2)
        X, y = make_batch(rng, 32, "regression")
        pred = 0.5 * w2.sum() + b2
        loss, grad = forward_backward(p, DIMS, "regression", X, y)
        resid = pred - y
        assert loss == pytest.approx(np.mean(resid**2))
        gw2 = grad[d * h + h : d * h + h + h]
        assert np.allclose(gw2, 2.0 * np.mean(resid) * 0.5)
        assert grad[-1] == pytest.approx(2.0 * np.mean(resid))

    @pytest.mark.parametrize("task", ["regression", "binary"])
    def test_per_example_mean_is_batch_gradient(self, task):
        rng = np.random.default_rng(3)
        p = init_params(DIMS, rng, weight_std=0.2)
        X, y = make_batch(rng, 24, task)
        loss_b, g_batch = forward_backward(p, DIMS, task, X, y)
        loss_p, G = forward_backward(p, DIMS, task, X, y, per_example=True)
        assert G.shape == (24, p.size)
        assert loss_p == pytest.approx(loss_b)
        assert np.max(np.abs(G.mean(axis=0) - g_batch)) < 1e-12

    def test_zero_lr_fixed_point(self):
        """Gradient of a perfect fit is zero (regression)."""
        rng = np.random.default_rng(4)
        p = init_params(DIMS, rng)
        X, _ = make_batch(rng, 8, "regression")
        y = forward(p, DIMS, "regression", X)
        loss, grad = forward_backward(p, DIMS, "regression", X, y)
        assert loss == pytest.approx(0.0, abs=1e-30)
        assert np.max(np.abs(grad)) < 1e-12


class TestClipping:
    def test_clip_rows(self):
        G = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
        out = clip_rows(G, 1.0)
        assert np.allclose(np.linalg.norm(out, axis=1), [1.0, 0.5, 0.0])
        assert np.allclose(out[0], [0.6, 0.8])
        assert np.array_equal(out[1], G[1])

    def test_project_hidden_max_norm(self):
        rng = np.random.default_rng(5)
        p = init_params(DIMS, rng, weight_std=2.0)
        p[DIMS[0] * DIMS[1]] = 3.0  # a large b1 entry
        out = project_hidden_max_norm(p, DIMS, 1.0)
        w1, b1, w2, b2 = unflatten(out, DIMS)
        assert np.all(np.linalg.norm(w1, axis=0) <= 1.0 + 1e-12)
        assert np.all(np.abs(b1) <= 1.0)
        ow1, ob1, ow2, ob2 = unflatten(p, DIMS)
        assert np.array_equal(w2, ow2) and np.array_equal(b2, ob2)

    def test_project_hidden_max_norm_fresh_and_exact(self):
        """The result is a new array, bit-equal to clipping a copy and
        concatenating its parts, and the input is left as it was."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = init_params(DIMS, rng, weight_std=float(rng.uniform(0.1, 3.0)))
            p[DIMS[0] * DIMS[1]:][: DIMS[1]] = rng.normal(0.0, 2.0, DIMS[1])
            before = p.copy()
            out = project_hidden_max_norm(p, DIMS, 1.0)
            assert not np.shares_memory(out, p)
            assert np.array_equal(p, before)
            w1, b1, w2, b2 = (a.copy() for a in unflatten(p, DIMS))
            w1 *= np.minimum(1.0, 1.0 / np.maximum(np.linalg.norm(w1, axis=0), 1e-300))
            np.clip(b1, -1.0, 1.0, out=b1)
            want = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
            assert out.tobytes() == want.tobytes()


class TestSigmoidPoly:
    def test_matches_literal_polynomial(self):
        """x * x * x in place of x**3 moves a result by at most 4e-16 for
        |x| <= 4, inside the range where the polynomial approximates the
        sigmoid."""
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(0.0, 1.0, 4096), rng.uniform(-4.0, 4.0, 4096)])
        x = np.clip(x, -4.0, 4.0)
        literal = 0.5 + x / 4.0 - x**3 / 48.0
        assert np.max(np.abs(sigmoid_poly(x) - literal)) <= 4e-16
        assert sigmoid_poly(np.array([0.0, 2.0, -2.0])).tolist() == [0.5, 0.8333333333333334,
                                                                     0.16666666666666666]

    def test_deriv(self):
        x = np.linspace(-3, 3, 101)
        h = 1e-6
        num = (sigmoid_poly(x + h) - sigmoid_poly(x - h)) / (2 * h)
        assert np.allclose(sigmoid_poly_deriv(x), num, atol=1e-8)
