"""Tests for repro.nn.layers: shapes, gradients, and argument checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Dense


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
        layer = Dense(3)
        layer.build(2, rng())
        layer.W[...] = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        layer.b[...] = np.array([0.5, 0.0, 0.0])
        y = layer.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(y, [[1.5, 2.0, 0.0]])

    def test_bias_starts_at_zero(self):
        layer = Dense(3)
        layer.build(2, rng())
        np.testing.assert_array_equal(layer.parameters()["b"], np.zeros(3))

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

    @pytest.mark.parametrize("units", [2.5, True, "2"])
    def test_rejects_non_int_units(self, units):
        # A fractional or boolean width used to build int(units) units.
        with pytest.raises(ConfigurationError, match="^units must be an int"):
            Dense(units)

    def test_gradient_shapes_match_params(self):
        layer = Dense(5, "relu")
        layer.build(3, rng())
        y = layer.forward(rng().normal(size=(8, 3)))
        layer.backward(np.ones_like(y))
        assert layer.dW.shape == layer.W.shape
        assert layer.db.shape == layer.b.shape

    def test_backward_gradient_numerically(self):
        layer = Dense(4, "sigmoid")
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
