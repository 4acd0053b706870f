"""Tests for repro.nn.network.Sequential."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.nn.layers import Dense, Dropout
from repro.nn.network import Sequential


def make_net(seed=0):
    return Sequential(
        [Dense(8, "sigmoid"), Dense(4, "relu"), Dense(2, "sigmoid")],
        input_dim=5,
        seed=seed,
    )


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_rejects_non_layer(self):
        with pytest.raises(ConfigurationError):
            Sequential([Dense(3), "not-a-layer"])

    def test_lazy_build(self):
        net = Sequential([Dense(3)])
        assert not net.built
        net.build(4, seed=0)
        assert net.built
        assert net.output_dim == 3

    def test_forward_before_build_raises(self):
        with pytest.raises(NotFittedError):
            Sequential([Dense(3)]).forward(np.zeros((1, 4)))

    def test_output_dim_chains(self):
        net = make_net()
        assert net.input_dim == 5
        assert net.output_dim == 2


class TestForward:
    def test_shapes(self):
        net = make_net()
        y = net.forward(np.zeros((7, 5)))
        assert y.shape == (7, 2)

    def test_1d_input_promoted(self):
        net = make_net()
        y = net.forward(np.zeros(5))
        assert y.shape == (1, 2)

    def test_callable_alias(self):
        net = make_net()
        x = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_array_equal(net(x), net.forward(x))

    def test_predict_is_inference_mode(self):
        net = Sequential([Dense(8, "relu"), Dropout(0.9, seed=0), Dense(2)],
                         input_dim=4, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 4))
        a = net.predict(x)
        b = net.predict(x)
        np.testing.assert_array_equal(a, b)  # Dropout off => deterministic.


class TestWeights:
    def test_num_parameters(self):
        net = make_net()
        # (5*8+8) + (8*4+4) + (4*2+2) = 48+36+10
        assert net.num_parameters() == 94

    def test_get_set_roundtrip(self):
        net = make_net(seed=1)
        weights = net.get_weights()
        net2 = make_net(seed=2)
        x = np.random.default_rng(3).normal(size=(4, 5))
        assert not np.allclose(net.predict(x), net2.predict(x))
        net2.set_weights(weights)
        np.testing.assert_allclose(net.predict(x), net2.predict(x))

    def test_set_weights_rejects_missing_key(self):
        net = make_net()
        weights = net.get_weights()
        weights.pop("0.W")
        with pytest.raises(ConfigurationError, match="missing"):
            net.set_weights(weights)

    def test_set_weights_rejects_bad_shape(self):
        net = make_net()
        weights = net.get_weights()
        weights["0.W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError, match="shape"):
            net.set_weights(weights)

    def test_clone_is_independent(self):
        net = make_net()
        twin = net.clone()
        x = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_allclose(net.predict(x), twin.predict(x))
        twin.layers[0].W += 1.0
        assert not np.allclose(net.predict(x), twin.predict(x))
