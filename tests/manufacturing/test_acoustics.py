"""Tests for repro.manufacturing.acoustics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.manufacturing.acoustics import (
    AcousticSynthesizer,
    AnechoicChamber,
    ContactMicrophone,
    _band_noise,
    _fft_length,
)
from repro.manufacturing.gcode import GCodeProgram
from repro.manufacturing.kinematics import MotionPlanner
from repro.manufacturing.steppers import default_motors


def power_spectrum(x, sample_rate):
    """Periodic-Hann-windowed power spectrum ``|rfft|^2 / n`` of *x*."""
    n = len(x)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    power = np.abs(np.fft.rfft(x * win)) ** 2 / n
    return np.fft.rfftfreq(n, d=1.0 / sample_rate), power


def segments_for(text):
    return MotionPlanner().plan(GCodeProgram.from_text(text))


def make_synth(**kwargs):
    return AcousticSynthesizer(default_motors(), **kwargs)


class TestModels:
    def test_chamber_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            AnechoicChamber(ambient_noise_level=-1.0)

    def test_microphone_rejects_bad_band(self):
        with pytest.raises(ConfigurationError):
            ContactMicrophone(low_cut_hz=5000, high_cut_hz=100)

    def test_microphone_bandpass_attenuates_extremes(self):
        mic = ContactMicrophone(noise_level=0.0, low_cut_hz=100, high_cut_hz=2000)
        sr = 12000.0
        t = np.arange(int(sr)) / sr
        rng = np.random.default_rng(0)
        low_tone = np.sin(2 * np.pi * 10 * t)
        mid_tone = np.sin(2 * np.pi * 500 * t)
        high_tone = np.sin(2 * np.pi * 5500 * t)
        low_out = mic.apply(low_tone, sr, rng)
        mid_out = mic.apply(mid_tone, sr, rng)
        high_out = mic.apply(high_tone, sr, rng)
        assert np.std(low_out) < 0.2 * np.std(mid_out)
        assert np.std(high_out) < 0.9 * np.std(mid_out)

    def test_synth_rejects_bad_sample_rate(self):
        with pytest.raises(ConfigurationError):
            make_synth(sample_rate=0)

    @pytest.mark.parametrize("sr", [float("nan"), float("inf")])
    def test_synth_rejects_non_finite_sample_rate(self, sr):
        with pytest.raises(ConfigurationError, match="sample_rate must be finite"):
            make_synth(sample_rate=sr)


def smallest_5_smooth_at_least(n):
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


class TestPaddedFiltering:
    def test_fft_length_is_smallest_5_smooth(self):
        for n in range(1, 5001):
            assert _fft_length(n) == smallest_5_smooth_at_least(n), n

    @pytest.mark.parametrize(
        "n, m",
        [(1_366_255, 1_366_875), (198_082, 200_000), (321_091, 324_000)],
    )
    def test_fft_length_of_case_study_lengths(self, n, m):
        assert _fft_length(n) == m

    @pytest.mark.parametrize("n", [1, 997, 12_007])
    def test_band_noise_draws_n_normals(self, n):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        band = _band_noise(n, 12000.0, 700.0, 300.0, rng)
        ref.normal(size=n)
        assert len(band) == n
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.sqrt(np.mean(band**2)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 997, 12_007])
    def test_microphone_draws_n_normals(self, n):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        x = np.random.default_rng(5).normal(size=n)
        out = ContactMicrophone().apply(x, 12000.0, rng)
        ref.normal(size=n)
        assert len(out) == n
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSegmentSynthesis:
    def test_length_matches_duration(self):
        synth = make_synth(sample_rate=12000.0)
        (seg,) = segments_for("G90\nG1 F600 X10")  # 1 s
        wave = synth.synthesize_segment(seg, seed=0)
        assert len(wave) == 12000

    def test_tone_at_step_frequency(self):
        synth = make_synth(sample_rate=12000.0)
        (seg,) = segments_for("G90\nG1 F600 X10")  # X at 800 Hz
        wave = synth.synthesize_segment(seg, seed=0)
        freqs, power = power_spectrum(wave, 12000.0)
        band = power[(freqs > 700) & (freqs < 900)].sum()
        total = power.sum()
        assert band / total > 0.2  # Fundamental carries substantial energy.

    def test_dwell_is_quiet(self):
        synth = make_synth(sample_rate=12000.0)
        (dwell,) = segments_for("G4 P200")
        (move,) = segments_for("G90\nG1 F600 X10")
        quiet = synth.synthesize_segment(dwell, seed=0)
        loud = synth.synthesize_segment(move, seed=0)
        assert np.std(quiet) < 0.05 * np.std(loud)

    def test_deterministic_with_seed(self):
        synth = make_synth()
        (seg,) = segments_for("G90\nG1 F600 X10")
        a = synth.synthesize_segment(seg, seed=42)
        b = synth.synthesize_segment(seg, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_motors_different_spectra(self):
        synth = make_synth(sample_rate=12000.0)
        (seg_x,) = segments_for("G90\nG1 F600 X10")
        (seg_z,) = segments_for("G90\nG1 F72 Z2")
        wx = synth.synthesize_segment(seg_x, seed=0)
        wz = synth.synthesize_segment(seg_z, seed=0)
        n = min(len(wx), len(wz))
        fx, px = power_spectrum(wx[:n], 12000.0)
        _, pz = power_spectrum(wz[:n], 12000.0)
        # Correlation of normalized spectra should be far from 1.
        corr = np.corrcoef(px / px.sum(), pz / pz.sum())[0, 1]
        assert corr < 0.8


class TestRender:
    def test_boundaries_align(self):
        synth = make_synth(sample_rate=12000.0)
        segs = segments_for("G90\nG1 F600 X10\nG1 Y5")
        audio, bounds = synth.render(segs, seed=0)
        assert len(bounds) == len(segs) + 1
        assert bounds[0] == 0.0
        assert bounds[-1] == pytest.approx(len(audio) / 12000.0)

    def test_empty_plan(self):
        synth = make_synth()
        audio, bounds = synth.render([], seed=0)
        assert len(audio) == 0
        assert bounds == [0.0]

    def test_ambient_noise_present(self):
        synth = make_synth(chamber=AnechoicChamber(ambient_noise_level=0.01))
        segs = segments_for("G4 P100")
        audio, _ = synth.render(segs, seed=0)
        assert np.std(audio) > 0.0
