"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.optimizers import Adam


class _Quadratic:
    """A fake 'layer' with a single parameter and loss ||w - target||^2."""

    def __init__(self, w0, target):
        self.w = np.array(w0, dtype=float)
        self.target = np.array(target, dtype=float)
        self.grad = None

    def compute_grad(self):
        self.grad = 2.0 * (self.w - self.target)

    def parameters(self):
        return {"w": self.w}

    def gradients(self):
        return {"w": self.grad}


def optimize(opt, steps=200, w0=(5.0, -3.0), target=(1.0, 2.0)):
    layer = _Quadratic(w0, target)
    for _ in range(steps):
        layer.compute_grad()
        opt.step([layer])
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
        Adam(0.5).step([layer])
        assert layer.w[0] == pytest.approx(9.5, abs=1e-6)

    def test_reset_clears_momentum(self):
        # load_optimizer_state calls reset() before restoring a checkpoint:
        # the moments, per-tensor step counts and scratch must all go.
        opt = Adam(0.1)
        layer = _Quadratic([1.0], [0.0])
        layer.compute_grad()
        opt.step([layer])
        assert opt._state and opt._scratch
        opt.reset()
        assert not opt._state and not opt._scratch
        assert opt.iterations == 0
        # The next step is a first step again: bias correction uses t = 1.
        layer.w[...] = 10.0
        layer.compute_grad()
        opt.step([layer])
        assert layer.w[0] == pytest.approx(9.9, abs=1e-6)

    def test_iteration_counter(self):
        opt = Adam(0.01)
        layer = _Quadratic([1.0], [0.0])
        for _ in range(5):
            layer.compute_grad()
            opt.step([layer])
        assert opt.iterations == 5

    def test_step_skips_layers_without_grads(self):
        layer = Dense(3)
        layer.build(2, np.random.default_rng(0))
        w_before = layer.W.copy()
        Adam(0.1).step([layer])  # No backward ran: gradients are None.
        np.testing.assert_array_equal(layer.W, w_before)

    def test_updates_in_place(self):
        layer = _Quadratic([1.0], [0.0])
        ref = layer.w
        layer.compute_grad()
        Adam(0.1).step([layer])
        assert ref is layer.w  # Identity preserved for serialization.


class TestValidation:
    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_rejects_non_finite_lr(self, lr):
        with pytest.raises(ConfigurationError, match="^learning_rate must be finite"):
            Adam(lr)

    def test_adam_rejects_bad_betas(self):
        with pytest.raises(ConfigurationError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(0.1, beta2=-0.1)
