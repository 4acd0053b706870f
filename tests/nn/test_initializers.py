"""Tests for repro.nn.initializers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.initializers import GlorotUniform, HeUniform, get_initializer


class TestVarianceScaling:
    @pytest.mark.parametrize("cls", [GlorotUniform])
    def test_glorot_variance(self, cls):
        fan_in, fan_out = 50, 150
        w = cls()((fan_in, fan_out), 12)
        expected_var = 2.0 / (fan_in + fan_out)
        assert abs(w.var() - expected_var) / expected_var < 0.15

    @pytest.mark.parametrize("cls", [HeUniform])
    def test_he_variance(self, cls):
        fan_in = 80
        w = cls()((fan_in, 120), 12)
        expected_var = 2.0 / fan_in
        assert abs(w.var() - expected_var) / expected_var < 0.15

    def test_bias_shape_uses_length_as_fan(self):
        w = GlorotUniform()((64,), 3)
        assert w.shape == (64,)
        limit = np.sqrt(6.0 / (64 + 64))
        assert np.all(np.abs(w) <= limit)


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = GlorotUniform()((10, 10), 42)
        b = GlorotUniform()((10, 10), 42)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_weights(self):
        a = GlorotUniform()((10, 10), 42)
        b = GlorotUniform()((10, 10), 43)
        assert not np.array_equal(a, b)


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_initializer("he_uniform"), HeUniform)
        assert isinstance(get_initializer("glorot_uniform"), GlorotUniform)

    def test_passthrough_instance(self):
        init = HeUniform()
        assert get_initializer(init) is init

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown initializer"):
            get_initializer("nope")

    def test_garbage_spec_raises(self):
        with pytest.raises(ConfigurationError):
            get_initializer(123)
