"""Tests for repro.nn.losses: values, gradients, GAN objectives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.nn.losses import (
    BinaryCrossEntropy,
    GeneratorLossMinimax,
    GeneratorLossNonSaturating,
    discriminator_loss,
    get_loss,
)


def numeric_gradient(loss, pred, target, eps=1e-7):
    grad = np.zeros_like(pred)
    for i in np.ndindex(*pred.shape):
        p_plus = pred.copy(); p_plus[i] += eps
        p_minus = pred.copy(); p_minus[i] -= eps
        grad[i] = (loss.value(p_plus, target) - loss.value(p_minus, target)) / (2 * eps)
    return grad


class TestBCE:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            BinaryCrossEntropy().value(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            BinaryCrossEntropy().gradient(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_perfect_prediction_near_zero(self):
        pred = np.array([[0.999999, 0.000001]])
        target = np.array([[1.0, 0.0]])
        assert BinaryCrossEntropy().value(pred, target) < 1e-4

    def test_symmetric(self):
        loss = BinaryCrossEntropy()
        a = loss.value(np.array([[0.3]]), np.array([[1.0]]))
        b = loss.value(np.array([[0.7]]), np.array([[0.0]]))
        assert a == pytest.approx(b)

    def test_handles_exact_zero_one(self):
        loss = BinaryCrossEntropy()
        val = loss.value(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert np.isfinite(val)

    def test_gradient_numeric(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, size=(5, 2))
        target = (rng.random((5, 2)) > 0.5).astype(float)
        loss = BinaryCrossEntropy()
        np.testing.assert_allclose(
            loss.gradient(pred, target), numeric_gradient(loss, pred, target), atol=1e-5
        )

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=40, deadline=None)
    def test_gradient_property(self, p, t):
        loss = BinaryCrossEntropy()
        pred = np.array([[p]])
        target = np.array([[float(t)]])
        np.testing.assert_allclose(
            loss.gradient(pred, target),
            numeric_gradient(loss, pred, target),
            atol=1e-4,
        )


class TestGeneratorLosses:
    def test_minimax_decreases_in_pred(self):
        loss = GeneratorLossMinimax()
        low = loss.value(np.array([[0.1]]))
        high = loss.value(np.array([[0.9]]))
        assert high < low  # Higher D(G) => lower log(1-D)

    def test_non_saturating_decreases_in_pred(self):
        loss = GeneratorLossNonSaturating()
        assert loss.value(np.array([[0.9]])) < loss.value(np.array([[0.1]]))

    def test_both_gradients_negative(self):
        # Both objectives improve when D(G(z)) grows, so d loss / d pred < 0.
        pred = np.array([[0.3], [0.6]])
        assert np.all(GeneratorLossMinimax().gradient(pred) < 0)
        assert np.all(GeneratorLossNonSaturating().gradient(pred) < 0)

    def test_non_saturating_stronger_gradient_when_d_wins(self):
        # At D(G)=0.01 (discriminator winning), the heuristic loss gives a
        # much larger magnitude gradient — its whole reason to exist.
        pred = np.array([[0.01]])
        g_mm = abs(GeneratorLossMinimax().gradient(pred)[0, 0])
        g_ns = abs(GeneratorLossNonSaturating().gradient(pred)[0, 0])
        assert g_ns > 10 * g_mm

    def test_gradients_numeric(self):
        pred = np.array([[0.2], [0.5], [0.8]])
        for loss in (GeneratorLossMinimax(), GeneratorLossNonSaturating()):
            numeric = np.zeros_like(pred)
            eps = 1e-7
            for i in np.ndindex(*pred.shape):
                pp = pred.copy(); pp[i] += eps
                pm = pred.copy(); pm[i] -= eps
                numeric[i] = (loss.value(pp) - loss.value(pm)) / (2 * eps)
            np.testing.assert_allclose(loss.gradient(pred), numeric, atol=1e-5)


class TestDiscriminatorLoss:
    def test_perfect_discriminator_low_loss(self):
        val = discriminator_loss(np.array([0.999]), np.array([0.001]))
        assert val < 0.01

    def test_fooled_discriminator_at_equilibrium(self):
        # D outputs 0.5 everywhere: loss = 2 ln 2.
        val = discriminator_loss(np.array([0.5]), np.array([0.5]))
        assert val == pytest.approx(2 * np.log(2), abs=1e-9)

    def test_worst_case_larger(self):
        worst = discriminator_loss(np.array([0.01]), np.array([0.99]))
        mid = discriminator_loss(np.array([0.5]), np.array([0.5]))
        assert worst > mid


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_loss("bce"), BinaryCrossEntropy)
        assert isinstance(get_loss("gen_minimax"), GeneratorLossMinimax)
        assert isinstance(get_loss("gen_non_saturating"), GeneratorLossNonSaturating)

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_loss("hinge")
        with pytest.raises(ConfigurationError):
            get_loss("mse")
