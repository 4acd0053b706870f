"""Tests for repro.security.mutual_information."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.security.mutual_information import (
    condition_entropy_bits,
    feature_leakage_profile,
    histogram_mutual_information,
)


class TestHistogramMI:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        values = rng.random(3000)
        labels = rng.integers(0, 2, 3000)
        mi = histogram_mutual_information(values, labels)
        assert mi < 0.05

    def test_deterministic_dependency_near_entropy(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 2000)
        values = labels + rng.normal(0, 0.01, 2000)
        mi = histogram_mutual_information(values, labels)
        assert mi > 0.9  # H(label) = 1 bit.

    def test_mi_nonnegative(self):
        rng = np.random.default_rng(1)
        mi = histogram_mutual_information(rng.random(100), rng.integers(0, 3, 100))
        assert mi >= 0.0

    def test_misaligned_raises(self):
        with pytest.raises(DataError):
            histogram_mutual_information(np.ones(5), np.ones(4))

    def test_rejects_bad_bins(self):
        with pytest.raises(ConfigurationError):
            histogram_mutual_information(np.ones(5), np.ones(5), bins=1)


class TestConditionEntropy:
    def test_uniform_three_conditions(self):
        conds = np.vstack([np.eye(3)] * 10)
        assert condition_entropy_bits(conds) == pytest.approx(np.log2(3))

    def test_degenerate(self):
        conds = np.tile([1.0, 0.0], (20, 1))
        assert condition_entropy_bits(conds) == pytest.approx(0.0)


class TestProfiles:
    def test_feature_profile_identifies_leaky_column(self):
        rng = np.random.default_rng(0)
        n = 400
        labels = rng.integers(0, 2, n)
        leaky = labels * 0.6 + rng.normal(0, 0.05, n)
        noise = rng.random(n)
        conds = np.zeros((n, 2))
        conds[np.arange(n), labels] = 1.0
        ds = FlowPairDataset(np.column_stack([leaky, noise]), conds)
        profile = feature_leakage_profile(ds)
        assert profile[0] > 5 * max(profile[1], 0.01)

