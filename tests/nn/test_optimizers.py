"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam


class _Quadratic:
    """A fake network whose flat parameter vector ``w`` has the loss
    ||w - target||^2; the gradient buffer is written in place, as a
    network's backward does."""

    def __init__(self, w0, target):
        self.w = np.array(w0, dtype=float)
        self.target = np.array(target, dtype=float)
        self.flat_params = self.w
        self.flat_grads = np.zeros_like(self.w)

    def compute_grad(self):
        np.multiply(2.0, self.w - self.target, out=self.flat_grads)


def optimize(opt, steps=200, w0=(5.0, -3.0), target=(1.0, 2.0)):
    layer = _Quadratic(w0, target)
    for _ in range(steps):
        layer.compute_grad()
        opt.step(layer)
    return layer


class TestConvergence:
    @pytest.mark.parametrize("opt", [Adam(0.1)], ids=["adam"])
    def test_converges_on_quadratic(self, opt):
        layer = optimize(opt)
        np.testing.assert_allclose(layer.w, layer.target, atol=1e-2)


class TestState:
    def test_adam_bias_correction_first_step(self):
        # First Adam step should be ~lr in the gradient direction.
        layer = _Quadratic([10.0], [0.0])
        layer.compute_grad()
        Adam(0.5).step(layer)
        assert layer.w[0] == pytest.approx(9.5, abs=1e-6)

    def test_reset_clears_momentum(self):
        # load_optimizer_state calls reset() before restoring a checkpoint:
        # the moments, the step count and the scratch must all go.
        opt = Adam(0.1)
        layer = _Quadratic([1.0], [0.0])
        layer.compute_grad()
        opt.step(layer)
        assert opt._state and opt._scratch
        opt.reset()
        assert not opt._state and not opt._scratch
        assert opt.iterations == 0
        # The next step is a first step again: bias correction uses t = 1.
        layer.w[...] = 10.0
        layer.compute_grad()
        opt.step(layer)
        assert layer.w[0] == pytest.approx(9.9, abs=1e-6)

    def test_iteration_counter(self):
        opt = Adam(0.01)
        layer = _Quadratic([1.0], [0.0])
        for _ in range(5):
            layer.compute_grad()
            opt.step(layer)
        assert opt.iterations == 5

    def test_step_skips_layers_without_grads(self):
        net = Sequential([Dense(3)], input_dim=2, seed=0)
        w_before = net.layers[0].W.copy()
        Adam(0.1).step(net)  # No backward ran: gradients are all zero.
        np.testing.assert_array_equal(net.layers[0].W, w_before)

    def test_matches_allocating_formula_bitwise(self):
        # The in-place flat update replicates the allocating per-tensor
        # formula operation for operation, past t = 54 where the
        # first-moment bias correction rounds to 1; the bits must not move.
        rng = np.random.default_rng(0)
        layer = _Quadratic(rng.normal(size=50), rng.normal(size=50))
        w, m, v = layer.w.copy(), np.zeros(50), np.zeros(50)
        opt = Adam(0.01)
        for t in range(1, 81):
            layer.compute_grad()
            grad = layer.flat_grads.copy()
            opt.step(layer)
            m = m * opt.beta1 + (1.0 - opt.beta1) * grad
            v = v * opt.beta2 + (1.0 - opt.beta2) * grad * grad
            m_hat = m / (1.0 - opt.beta1**t)
            v_hat = v / (1.0 - opt.beta2**t)
            w -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps)
            np.testing.assert_array_equal(layer.w, w)

    def test_updates_in_place(self):
        layer = _Quadratic([1.0], [0.0])
        ref = layer.w
        layer.compute_grad()
        Adam(0.1).step(layer)
        assert ref is layer.w  # Identity preserved for serialization.


class TestValidation:
    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_rejects_non_finite_lr(self, lr):
        with pytest.raises(ConfigurationError, match="^learning_rate must be finite"):
            Adam(lr)
