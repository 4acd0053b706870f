"""Tests for repro.nn.activations, including derivative correctness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.nn.activations import (
    LeakyReLU,
    ReLU,
    Sigmoid,
    get_activation,
)

ALL_ACTIVATIONS = [ReLU(), LeakyReLU(0.2), Sigmoid()]


def numeric_derivative(act, x, eps=1e-6):
    return (act.forward(x + eps) - act.forward(x - eps)) / (2 * eps)


class TestForwardValues:
    def test_relu_clamps_negative(self):
        x = np.array([-2.0, -0.1, 0.0, 0.5, 3.0])
        np.testing.assert_array_equal(ReLU().forward(x), [0, 0, 0, 0.5, 3.0])

    def test_leaky_relu_scales_negative(self):
        x = np.array([-2.0, 1.0])
        np.testing.assert_allclose(LeakyReLU(0.1).forward(x), [-0.2, 1.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        y = Sigmoid().forward(x)
        assert np.all((y >= 0) & (y <= 1))
        np.testing.assert_allclose(y + y[::-1], 1.0, atol=1e-12)

    def test_sigmoid_extreme_inputs_finite(self):
        y = Sigmoid().forward(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-12)



class TestDerivatives:
    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_matches_numeric(self, act):
        # Avoid the ReLU kink at exactly 0.
        x = np.array([-2.0, -0.7, -0.01, 0.01, 0.4, 1.7, 3.0])
        y = act.forward(x)
        analytic = act.backward(x, y)
        numeric = numeric_derivative(act, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    @given(st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-3))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_derivative_property(self, v):
        x = np.array([v])
        act = Sigmoid()
        y = act.forward(x)
        np.testing.assert_allclose(
            act.backward(x, y), numeric_derivative(act, x), atol=1e-6
        )


class TestConfig:
    def test_leaky_relu_rejects_negative_alpha(self):
        with pytest.raises(ConfigurationError):
            LeakyReLU(-0.1)


class TestRegistry:
    def test_by_name(self):
        assert isinstance(get_activation("relu"), ReLU)

    def test_instance_passthrough(self):
        act = LeakyReLU(0.3)
        assert get_activation(act) is act

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown activation"):
            get_activation("swishy")
