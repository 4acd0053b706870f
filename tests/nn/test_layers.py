"""Tests for repro.nn.layers: shapes, gradients, and modes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import BatchNorm, Dense, Dropout


def rng():
    return np.random.default_rng(0)


class TestDense:
    def test_build_allocates_correct_shapes(self):
        layer = Dense(7)
        out_dim = layer.build(4, rng())
        assert out_dim == 7
        assert layer.W.shape == (4, 7)
        assert layer.b.shape == (7,)

    def test_forward_linear(self):
        layer = Dense(3, kernel_init="zeros", use_bias=True)
        layer.build(2, rng())
        layer.W[...] = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        layer.b[...] = np.array([0.5, 0.0, 0.0])
        y = layer.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(y, [[1.5, 2.0, 0.0]])

    def test_no_bias(self):
        layer = Dense(3, use_bias=False)
        layer.build(2, rng())
        assert "b" not in layer.parameters()

    def test_rejects_wrong_input_width(self):
        layer = Dense(3)
        layer.build(4, rng())
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))

    def test_use_before_build_raises(self):
        with pytest.raises(ConfigurationError):
            Dense(3).forward(np.zeros((1, 2)))

    def test_rejects_nonpositive_units(self):
        with pytest.raises(ConfigurationError):
            Dense(0)

    def test_gradient_shapes_match_params(self):
        layer = Dense(5, "relu")
        layer.build(3, rng())
        y = layer.forward(rng().normal(size=(8, 3)))
        layer.backward(np.ones_like(y))
        grads = layer.gradients()
        assert grads["W"].shape == layer.W.shape
        assert grads["b"].shape == layer.b.shape

    def test_backward_gradient_numerically(self):
        layer = Dense(4, "tanh")
        layer.build(3, rng())
        x = rng().normal(size=(5, 3))

        def loss(xv):
            return float(np.sum(layer.forward(xv) ** 2)) / 2

        y = layer.forward(x)
        analytic = layer.backward(y)  # dL/dx for L = sum(y^2)/2
        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in np.ndindex(*x.shape):
            xp = x.copy(); xp[i] += eps
            xm = x.copy(); xm[i] -= eps
            numeric[i] = (loss(xp) - loss(xm)) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5, seed=0)
        layer.build(10, rng())
        x = rng().normal(size=(4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_zeroes_and_scales(self):
        layer = Dropout(0.5, seed=0)
        layer.build(1000, rng())
        x = np.ones((1, 1000))
        y = layer.forward(x, training=True)
        kept = y != 0
        # Kept units are scaled by 1/keep.
        np.testing.assert_allclose(y[kept], 2.0)
        assert 0.35 < kept.mean() < 0.65

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, seed=1)
        layer.build(50, rng())
        x = np.ones((2, 50))
        y = layer.forward(x, training=True)
        g = layer.backward(np.ones_like(y))
        np.testing.assert_array_equal((g != 0), (y != 0))

    def test_zero_rate_noop(self):
        layer = Dropout(0.0)
        layer.build(5, rng())
        x = rng().normal(size=(3, 5))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_rejects_rate_one(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        layer = BatchNorm()
        layer.build(4, rng())
        x = rng().normal(3.0, 2.0, size=(64, 4))
        y = layer.forward(x, training=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_converge(self):
        layer = BatchNorm(momentum=0.5)
        layer.build(2, rng())
        x = rng().normal(5.0, 1.0, size=(256, 2))
        for _ in range(30):
            layer.forward(x, training=True)
        assert np.all(np.abs(layer.running_mean - 5.0) < 0.3)

    def test_inference_uses_running_stats(self):
        layer = BatchNorm()
        layer.build(2, rng())
        x = rng().normal(size=(32, 2))
        for _ in range(10):
            layer.forward(x, training=True)
        single = layer.forward(x[:1], training=False)
        assert single.shape == (1, 2)

    def test_backward_gradient_numerically(self):
        layer = BatchNorm()
        layer.build(3, rng())
        x = rng().normal(size=(6, 3))

        def loss(xv):
            return float(np.sum(layer.forward(xv, training=True) ** 2)) / 2

        y = layer.forward(x, training=True)
        analytic = layer.backward(y)
        eps = 1e-5
        numeric = np.zeros_like(x)
        for i in np.ndindex(*x.shape):
            xp = x.copy(); xp[i] += eps
            xm = x.copy(); xm[i] -= eps
            numeric[i] = (loss(xp) - loss(xm)) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ConfigurationError):
            BatchNorm(momentum=1.0)
