"""Tests for repro.gan.noise."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gan.noise import GaussianNoise


class TestGaussian:
    def test_shape(self):
        z = GaussianNoise(8)(16, seed=0)
        assert z.shape == (16, 8)

    def test_statistics(self):
        z = GaussianNoise(4)(5000, seed=0)
        assert abs(z.mean()) < 0.1
        assert abs(z.std() - 1.0) < 0.1

    def test_deterministic(self):
        np.testing.assert_array_equal(
            GaussianNoise(3)(5, seed=7), GaussianNoise(3)(5, seed=7)
        )

    def test_rejects_bad_dim(self):
        with pytest.raises(ConfigurationError):
            GaussianNoise(0)

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            GaussianNoise(2)(0)
