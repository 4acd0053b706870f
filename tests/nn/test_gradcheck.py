"""Property-based gradient verification of whole networks.

The single most important correctness property of the NN substrate:
analytic backprop must match central-difference numerics for arbitrary
layer stacks.  Hypothesis samples architectures; the checker verifies
both input gradients and every parameter gradient.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.gradcheck import (
    check_input_gradient,
    check_parameter_gradients,
    numerical_gradient,
)
from repro.nn.layers import Dense
from repro.nn.network import Sequential

TOL = 1e-6

# Property tests use smooth activations only: ReLU-family kinks make
# central differences disagree with the (correct) subgradient whenever a
# random pre-activation lands within eps of zero.  ReLU/LeakyReLU get
# dedicated fixed-seed coverage in TestFixedArchitectures instead.
activations = st.sampled_from(["sigmoid", None])
widths = st.integers(min_value=1, max_value=6)


class TestNumericalGradient:
    def test_quadratic(self):
        grad = numerical_gradient(lambda v: float(np.sum(v**2)), np.array([1.0, -2.0]))
        np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-5)


class TestFixedArchitectures:
    def test_two_layer(self):
        net = Sequential([Dense(6, "sigmoid"), Dense(3, "sigmoid")], input_dim=4, seed=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        target = np.random.default_rng(1).uniform(0.1, 0.9, size=(5, 3))
        assert check_input_gradient(net, x, target=target) < TOL
        errs = check_parameter_gradients(net, x, target=target)
        assert max(errs.values()) < TOL

    def test_relu_leaky_relu_stack(self):
        net = Sequential(
            [Dense(6, "relu"), Dense(4, "leaky_relu"), Dense(3, "sigmoid")],
            input_dim=4,
            seed=0,
        )
        x = np.random.default_rng(0).normal(size=(5, 4))
        target = np.random.default_rng(1).uniform(0.1, 0.9, size=(5, 3))
        assert check_input_gradient(net, x, target=target) < TOL
        errs = check_parameter_gradients(net, x, target=target)
        assert max(errs.values()) < TOL


class TestPropertyBased:
    @given(
        act1=activations,
        act2=activations,
        w1=widths,
        w2=widths,
        in_dim=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_mlp_gradients(self, act1, act2, w1, w2, in_dim, seed):
        net = Sequential(
            [Dense(w1, act1), Dense(w2, act2), Dense(2, "sigmoid")],
            input_dim=in_dim,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        # Keep inputs away from ReLU kinks by nudging magnitudes.
        x = rng.normal(size=(3, in_dim)) + 0.05
        target = rng.uniform(0.2, 0.8, size=(3, 2))
        assert check_input_gradient(net, x, target=target) < 1e-5
        errs = check_parameter_gradients(net, x, target=target)
        assert max(errs.values()) < 1e-5
