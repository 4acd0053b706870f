"""Tests for repro.flows.energy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.flows.energy import EnergyFlowData


def make(n=1000, sr=1000.0):
    return EnergyFlowData(np.ones(n), sr, name="test")


class TestBasics:
    def test_duration(self):
        assert make(500, 1000.0).duration == pytest.approx(0.5)

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ConfigurationError):
            EnergyFlowData(np.ones(10), 0.0)

    @pytest.mark.parametrize("sr", [float("nan"), float("inf")])
    def test_rejects_non_finite_sample_rate(self, sr):
        with pytest.raises(ConfigurationError, match="sample_rate must be finite"):
            EnergyFlowData(np.ones(10), sr)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            EnergyFlowData(np.array([]), 100.0)

    def test_rms_energy(self):
        data = EnergyFlowData(np.full(100, 2.0), 100.0)
        assert data.rms() == pytest.approx(2.0)
        assert data.energy() == pytest.approx(4.0)


class TestSlicing:
    def test_slice_time(self):
        data = make(1000, 1000.0)
        part = data.slice_time(0.2, 0.5)
        assert len(part) == 300

    def test_slice_rejects_inverted(self):
        with pytest.raises(ConfigurationError):
            make().slice_time(0.5, 0.2)

    def test_slice_outside_raises(self):
        with pytest.raises(DataError):
            make(100, 1000.0).slice_time(5.0, 6.0)

    def test_segments(self):
        data = make(1000, 1000.0)
        parts = data.segments([0.0, 0.25, 0.5, 1.0])
        assert [len(p) for p in parts] == [250, 250, 500]

    def test_segments_requires_increasing(self):
        with pytest.raises(ConfigurationError):
            make().segments([0.0, 0.5, 0.3])

    def test_segments_minimum_two(self):
        with pytest.raises(ConfigurationError):
            make().segments([0.0])


class TestFeatures:
    def test_fx_only(self):
        data = make(100, 100.0)
        out = data.features(lambda s: np.array([s.sum(), s.mean()]))
        np.testing.assert_allclose(out, [100.0, 1.0])

    def test_fx_fy_chain(self):
        data = make(100, 100.0)
        out = data.features(
            lambda s: np.array([1.0, 2.0, 3.0]), f_y=lambda x: x[:2]
        )
        np.testing.assert_allclose(out, [1.0, 2.0])
