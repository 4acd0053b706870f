"""Tests for repro.dsp.filterbank (cached Morlet filter banks)."""

import numpy as np
import pytest

import repro.dsp.filterbank as fb
from repro.errors import ConfigurationError
from repro.dsp.features import FrequencyFeatureExtractor
from repro.dsp.filterbank import (
    DEFAULT_OMEGA0,
    MORLET_NORM,
    MorletFilterBank,
    clear_filter_bank_cache,
    get_filter_bank,
    morlet_kernel_ft,
    validate_frequencies,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_filter_bank_cache()
    yield
    clear_filter_bank_cache()


FREQS = np.geomspace(50.0, 5000.0, 16)
SR = 12000.0


def _reference_cwt(x, sample_rate, frequencies, omega0=DEFAULT_OMEGA0):
    """Inline transcription of the seed per-scale loop (full complex FFT)."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    center = (omega0 + np.sqrt(2.0 + omega0**2)) / (4.0 * np.pi)
    scales = center * sample_rate / np.asarray(frequencies, dtype=np.float64)
    w = 2.0 * np.pi * np.fft.fftfreq(n)
    xf = np.fft.fft(x)
    out = np.empty((len(frequencies), n), dtype=np.complex128)
    for i, s in enumerate(scales):
        psi_hat = np.zeros(n)
        pos = w > 0
        psi_hat[pos] = np.pi ** (-0.25) * np.exp(-0.5 * (s * w[pos] - omega0) ** 2)
        psi_hat *= np.sqrt(2.0 * np.pi * s)
        out[i] = np.fft.ifft(xf * psi_hat)
    return out


class TestValidateFrequencies:
    def test_accepts_valid_grid(self):
        out = validate_frequencies(FREQS, SR)
        np.testing.assert_array_equal(out, FREQS)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError, match="strictly positive"):
            validate_frequencies([0.0, 100.0], SR)
        with pytest.raises(ConfigurationError, match="strictly positive"):
            validate_frequencies([-5.0, 100.0], SR)

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError, match="sorted"):
            validate_frequencies([200.0, 100.0], SR)

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            validate_frequencies([100.0, 100.0, 200.0], SR)

    def test_rejects_above_nyquist(self):
        with pytest.raises(ConfigurationError, match="Nyquist"):
            validate_frequencies([100.0, 7000.0], SR)

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ConfigurationError, match="sample_rate"):
            validate_frequencies([100.0], 0.0)

    @pytest.mark.parametrize("sr", [float("nan"), float("inf")])
    def test_rejects_non_finite_sample_rate(self, sr):
        with pytest.raises(ConfigurationError, match="sample_rate must be finite"):
            MorletFilterBank(256, sr, [100.0, 200.0])

    def test_error_is_valueerror(self):
        # Callers using plain try/except ValueError must catch config
        # errors from the DSP layer.
        with pytest.raises(ValueError):
            validate_frequencies([100.0, 100.0], SR)

    def test_custom_name_in_message(self):
        with pytest.raises(ConfigurationError, match="grid"):
            validate_frequencies([-1.0], SR, name="grid")


class TestKernelHelper:
    def test_norm_constant(self):
        assert MORLET_NORM == pytest.approx(np.pi ** (-0.25))

    def test_peak_at_omega0(self):
        w = np.linspace(0.0, 12.0, 2001)
        k = morlet_kernel_ft(w)
        assert w[k.argmax()] == pytest.approx(6.0, abs=0.01)
        assert k.max() == pytest.approx(MORLET_NORM)


class TestBankConstruction:
    def test_kernel_shape_and_readonly(self):
        bank = MorletFilterBank(256, SR, FREQS)
        assert bank.kernels.shape == (len(FREQS), 256 // 2 + 1)
        assert not bank.kernels.flags.writeable
        assert not bank.frequencies.flags.writeable

    def test_dc_bin_zero(self):
        bank = MorletFilterBank(256, SR, FREQS)
        np.testing.assert_array_equal(bank.kernels[:, 0], 0.0)

    def test_even_n_nyquist_bin_zero(self):
        # fftfreq labels the even-n Nyquist bin negative, so the seed
        # loop left it zero; the bank must agree.
        bank = MorletFilterBank(256, SR, FREQS)
        np.testing.assert_array_equal(bank.kernels[:, -1], 0.0)

    def test_odd_n_last_bin_nonzero_support(self):
        bank = MorletFilterBank(255, SR, FREQS)
        assert bank.kernels.shape[1] == 128
        # Highest positive bin participates for odd n.
        assert np.any(bank.kernels[:, -1] != 0.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ConfigurationError):
            MorletFilterBank(0, SR, FREQS)

    def test_rejects_invalid_frequencies(self):
        with pytest.raises(ConfigurationError):
            MorletFilterBank(256, SR, [300.0, 100.0])


class TestNumericalContract:
    @pytest.mark.parametrize("n", [255, 256])
    def test_matches_seed_reference(self, n):
        # rfft vs full complex fft: same math, few-ULP agreement.
        rng = np.random.default_rng(0)
        x = rng.normal(size=n)
        bank = MorletFilterBank(n, SR, FREQS)
        got = bank.transform(x[None, :])[0]
        want = _reference_cwt(x, SR, FREQS)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [255, 256])
    def test_batched_equals_single_bitwise(self, n):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, n))
        bank = MorletFilterBank(n, SR, FREQS)
        batched = bank.transform(x)
        for i in range(x.shape[0]):
            single = bank.transform(x[i][None, :])[0]
            np.testing.assert_array_equal(batched[i], single)

    def test_band_energy_equals_transform_reduction_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 300))
        bank = MorletFilterBank(300, SR, FREQS)
        want = np.abs(bank.transform(x)).mean(axis=-1)
        np.testing.assert_array_equal(bank.band_energy(x), want)

    def test_band_energy_bitwise_across_block_boundaries(self, monkeypatch):
        # Force tiny blocks so a small batch spans several of them.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 256))
        bank = MorletFilterBank(256, SR, FREQS)
        whole = bank.band_energy(x)
        monkeypatch.setattr(fb, "_BLOCK_BYTES", 1)
        blocked = bank.band_energy(x)
        assert bank._block_rows(9) == 1
        np.testing.assert_array_equal(blocked, whole)

    def test_raw_features_route_through_bank(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=512)
        extractor = FrequencyFeatureExtractor(SR)
        bank = get_filter_bank(512, SR, extractor.frequencies)
        np.testing.assert_array_equal(
            extractor.raw_features(x), bank.band_energy(x[None, :])[0]
        )

    def test_rejects_wrong_length(self):
        bank = MorletFilterBank(256, SR, FREQS)
        with pytest.raises(ConfigurationError, match="length 256"):
            bank.transform(np.ones((2, 128)))


class TestBankCache:
    def test_same_key_returns_same_object(self):
        a = get_filter_bank(256, SR, FREQS)
        b = get_filter_bank(256, SR, FREQS)
        assert a is b
        assert len(fb._bank_cache) == 1

    def test_distinct_keys_distinct_banks(self):
        a = get_filter_bank(256, SR, FREQS)
        b = get_filter_bank(300, SR, FREQS)
        c = get_filter_bank(256, SR, FREQS * 0.5)
        assert a is not b and a is not c
        assert len(fb._bank_cache) == 3

    def test_clear_drops_entries(self):
        get_filter_bank(256, SR, FREQS)
        clear_filter_bank_cache()
        assert len(fb._bank_cache) == 0

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(fb, "_BANK_CACHE_SIZE", 2)
        first = get_filter_bank(128, SR, FREQS)
        get_filter_bank(129, SR, FREQS)
        get_filter_bank(130, SR, FREQS)  # evicts 128
        assert len(fb._bank_cache) == 2
        assert get_filter_bank(128, SR, FREQS) is not first
