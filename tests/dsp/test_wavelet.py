"""Behaviour of the Morlet CWT (:class:`repro.dsp.filterbank.MorletFilterBank`)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dsp.filterbank import MorletFilterBank


def _scalogram(x, sr, freqs):
    """``|CWT|`` of one segment: shape ``(n_freqs, n_samples)``."""
    return np.abs(MorletFilterBank(len(x), sr, freqs).transform(x[None, :])[0])


class TestMotherWavelet:
    def test_center_frequency_near_omega0_over_2pi(self):
        # The bank's scale for f is center * sr / f.
        bank = MorletFilterBank(64, 8000.0, [100.0])
        cf = bank.scales[0] * 100.0 / 8000.0
        assert abs(cf - 6.0 / (2 * np.pi)) < 0.02


class TestScaleMapping:
    def test_inverse_relation(self):
        s100, s200 = MorletFilterBank(64, 8000.0, [100.0, 200.0]).scales
        assert s100 == pytest.approx(2 * s200)

    def test_rejects_nonpositive_freq(self):
        with pytest.raises(ConfigurationError):
            MorletFilterBank(64, 8000.0, [0.0])

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ConfigurationError):
            MorletFilterBank(64, -1.0, [100.0])


class TestCWT:
    def test_localizes_tone_in_frequency(self):
        sr = 8000.0
        t = np.arange(int(sr * 0.3)) / sr
        x = np.sin(2 * np.pi * 500 * t)
        freqs = np.geomspace(100, 2000, 40)
        mags = _scalogram(x, sr, freqs)
        peak = freqs[mags.mean(axis=1).argmax()]
        assert abs(peak - 500) / 500 < 0.1

    def test_localizes_chirp_in_time(self):
        sr = 8000.0
        n = int(sr * 0.4)
        t = np.arange(n) / sr
        # First half 300 Hz, second half 1200 Hz.
        x = np.where(
            t < 0.2, np.sin(2 * np.pi * 300 * t), np.sin(2 * np.pi * 1200 * t)
        )
        freqs = np.array([300.0, 1200.0])
        mags = _scalogram(x, sr, freqs)
        half = n // 2
        # 300 Hz row dominates early, 1200 Hz row dominates late.
        assert mags[0, : half - 400].mean() > mags[1, : half - 400].mean()
        assert mags[1, half + 400 :].mean() > mags[0, half + 400 :].mean()

    def test_output_shape(self):
        x = np.random.default_rng(0).normal(size=1024)
        freqs = np.geomspace(50, 400, 7)
        out = MorletFilterBank(1024, 2000.0, freqs).transform(x[None, :])
        assert out.shape == (1, 7, 1024)
        assert np.iscomplexobj(out)

    def test_rejects_freq_above_nyquist(self):
        with pytest.raises(ConfigurationError, match="Nyquist"):
            MorletFilterBank(128, 1000.0, np.array([600.0]))

    def test_rejects_nonpositive_freq(self):
        with pytest.raises(ConfigurationError):
            MorletFilterBank(128, 1000.0, np.array([-5.0]))

    def test_linear_in_amplitude(self):
        sr = 4000.0
        t = np.arange(1024) / sr
        x = np.sin(2 * np.pi * 200 * t)
        bank = MorletFilterBank(1024, sr, np.array([200.0]))
        a, b = bank.band_energy(np.stack([x, 3.0 * x]))
        assert b[0] == pytest.approx(3.0 * a[0], rel=1e-6)
