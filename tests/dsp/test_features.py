"""Tests for repro.dsp.features."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError, DataError, NotFittedError, ShapeError
from repro.dsp.features import (
    FrequencyFeatureExtractor,
    MinMaxScaler,
    log_spaced_frequencies,
)


class TestFrequencyGrid:
    def test_paper_defaults(self):
        freqs = log_spaced_frequencies()
        assert len(freqs) == 100
        assert freqs[0] == pytest.approx(50.0)
        assert freqs[-1] == pytest.approx(5000.0)

    def test_non_uniform(self):
        freqs = log_spaced_frequencies(10, 50, 5000)
        gaps = np.diff(freqs)
        assert gaps[-1] > gaps[0] * 5  # Spacing grows with frequency.

    def test_monotonic(self):
        freqs = log_spaced_frequencies(100)
        assert np.all(np.diff(freqs) > 0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            log_spaced_frequencies(1)
        with pytest.raises(ConfigurationError):
            log_spaced_frequencies(10, 100, 50)


class TestMinMaxScaler:
    def test_transform_range(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5, 3, size=(50, 4))
        scaler = MinMaxScaler().fit(x)
        y = scaler.transform(x)
        np.testing.assert_allclose(y.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.max(axis=0), 1.0, atol=1e-12)

    def test_unseen_data_clipped(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [1.0]]))
        y = scaler.transform(np.array([[5.0], [-5.0]]))
        assert y.max() <= 1.0 and y.min() >= 0.0

    def test_constant_feature_maps_to_half(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        y = MinMaxScaler().fit(x).transform(x)
        np.testing.assert_allclose(y[:, 0], 0.5)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MinMaxScaler().transform(np.ones((2, 2)))

    def test_wrong_width_raises(self):
        scaler = MinMaxScaler().fit(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            scaler.transform(np.ones((2, 5)))

    def test_1d_transform(self):
        scaler = MinMaxScaler().fit(np.array([[0.0, 0.0], [2.0, 4.0]]))
        y = scaler.transform(np.array([1.0, 2.0]))
        np.testing.assert_allclose(y, [0.5, 0.5])

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        scaler = MinMaxScaler().fit(x)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(x)), x, atol=1e-12
        )

    @given(
        arrays(
            np.float64,
            (6, 3),
            elements=st.floats(min_value=-100, max_value=100),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_output_always_in_unit_interval(self, x):
        y = MinMaxScaler().fit(x).transform(x)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)


class TestExtractor:
    def test_separates_two_tones(self):
        sr = 12000.0
        t = np.arange(int(sr * 0.2)) / sr
        low = np.sin(2 * np.pi * 200 * t)
        high = np.sin(2 * np.pi * 3000 * t)
        ex = FrequencyFeatureExtractor(sr, n_bins=50)
        f_low = ex.raw_features(low)
        f_high = ex.raw_features(high)
        assert ex.frequencies[f_low.argmax()] < 400
        assert ex.frequencies[f_high.argmax()] > 2000

    def test_fit_transform_scaled(self):
        sr = 12000.0
        rng = np.random.default_rng(0)
        segs = [rng.normal(size=1200) for _ in range(5)]
        ex = FrequencyFeatureExtractor(sr, n_bins=20)
        feats = ex.fit_transform(segs)
        assert feats.shape == (5, 20)
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_stft_method(self):
        sr = 12000.0
        t = np.arange(2400) / sr
        x = np.sin(2 * np.pi * 1000 * t)
        ex = FrequencyFeatureExtractor(sr, n_bins=30, method="stft")
        f = ex.raw_features(x)
        assert abs(ex.frequencies[f.argmax()] - 1000) / 1000 < 0.25

    def test_rejects_fmax_above_nyquist(self):
        with pytest.raises(ConfigurationError, match="Nyquist"):
            FrequencyFeatureExtractor(8000.0, f_max=5000.0)

    @pytest.mark.parametrize("sr", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_sample_rate(self, sr):
        with pytest.raises(ConfigurationError, match="sample_rate must be"):
            FrequencyFeatureExtractor(sr)

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError):
            FrequencyFeatureExtractor(12000.0, method="mel")

    def test_transform_before_fit_raises(self):
        ex = FrequencyFeatureExtractor(12000.0, n_bins=10)
        with pytest.raises(NotFittedError):
            ex.transform([np.ones(600)])

    def test_default_no_stats(self):
        ex = FrequencyFeatureExtractor(12000.0, n_bins=10)
        assert ex.feature_dim == 10


class TestBatchedExtraction:
    SR = 12000.0

    def _extractor(self, **kw):
        return FrequencyFeatureExtractor(self.SR, n_bins=12, **kw)

    def test_stacked_matrix_input(self):
        rng = np.random.default_rng(0)
        segs = rng.normal(size=(6, 720))
        ex = self._extractor()
        feats = ex.fit_transform(segs)
        assert feats.shape == (6, 12)

    def test_batched_equals_looped_bitwise(self):
        rng = np.random.default_rng(1)
        segs = rng.normal(size=(5, 600))
        ex = self._extractor()
        batched = ex.raw_feature_matrix(segs)
        looped = np.vstack([ex.raw_features(segs[i]) for i in range(5)])
        np.testing.assert_array_equal(batched, looped)

    def test_ragged_segments_preserve_row_order(self):
        rng = np.random.default_rng(3)
        lengths = [600, 720, 600, 840, 720]
        segs = [rng.normal(size=n) for n in lengths]
        ex = self._extractor()
        batched = ex.raw_feature_matrix(segs)
        looped = np.vstack([ex.raw_features(s) for s in segs])
        np.testing.assert_array_equal(batched, looped)

    def test_empty_input_raises(self):
        with pytest.raises(ConfigurationError, match="no segments"):
            self._extractor().raw_feature_matrix([])

    def test_refuses_segment_shorter_than_lowest_band_period(self):
        # One period of the 50 Hz band is 240 samples at 12 kHz.
        ex = FrequencyFeatureExtractor(self.SR)
        assert ex.min_segment_length == 240
        ok = np.ones(240)
        assert ex.raw_features(ok).shape == (100,)
        for call in (
            lambda: ex.raw_features(np.ones(3)),
            lambda: ex.raw_feature_matrix(np.ones((2, 239))),
            lambda: ex.raw_feature_matrix([ok, np.ones(3), ok]),
        ):
            with pytest.raises(DataError, match=r"segment of (3|239) samples.*at least 240"):
                call()

    def test_short_segment_refused_before_cache_lookup(self, tmp_path):
        from repro.dsp.cache import FeatureCache

        ex = FrequencyFeatureExtractor(self.SR, n_bins=10, feature_cache=tmp_path)
        short = [np.ones(3)]
        ex.feature_cache.put(
            FeatureCache.key(ex.config_fingerprint(), short), np.zeros((1, 10))
        )
        with pytest.raises(DataError, match="at least 240"):
            ex.raw_feature_matrix(short)

    def test_fit_transform_extracts_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        segs = rng.normal(size=(3, 600))
        ex = self._extractor()
        calls = {"n": 0}
        orig = FrequencyFeatureExtractor.raw_feature_matrix

        def counting(self, segments):
            calls["n"] += 1
            return orig(self, segments)

        monkeypatch.setattr(
            FrequencyFeatureExtractor, "raw_feature_matrix", counting
        )
        ex.fit_transform(segs)
        assert calls["n"] == 1

    def test_config_fingerprint_sensitivity(self):
        base = self._extractor().config_fingerprint()
        assert self._extractor().config_fingerprint() == base
        assert self._extractor(method="stft").config_fingerprint() != base
        assert self._extractor(f_max=4000.0).config_fingerprint() != base
        assert (
            FrequencyFeatureExtractor(11025.0, n_bins=12).config_fingerprint()
            != base
        )

    def test_default_fingerprint_pinned(self):
        # The on-disk feature cache is keyed by this digest: a change here
        # silently orphans every cached matrix.
        assert FrequencyFeatureExtractor(12000.0).config_fingerprint() == (
            "80eef6e7ec07b6e9dbef6b388be29ee81cd5f90eee33b230a83f9dfa73630c00"
        )


class TestFeatureCacheWiring:
    SR = 12000.0

    def test_hit_returns_identical_matrix(self, tmp_path):
        from repro.dsp.cache import FeatureCache

        rng = np.random.default_rng(0)
        segs = rng.normal(size=(4, 600))
        cache = FeatureCache(tmp_path)
        ex = FrequencyFeatureExtractor(self.SR, n_bins=10, feature_cache=cache)
        first = ex.raw_feature_matrix(segs)
        assert cache.stats() == {"hits": 0, "misses": 1}
        second = ex.raw_feature_matrix(segs)
        assert cache.stats() == {"hits": 1, "misses": 1}
        np.testing.assert_array_equal(first, second)

    def test_path_accepted_directly(self, tmp_path):
        ex = FrequencyFeatureExtractor(
            self.SR, n_bins=10, feature_cache=tmp_path / "fc"
        )
        segs = np.random.default_rng(1).normal(size=(3, 600))
        ex.raw_feature_matrix(segs)
        assert len(ex.feature_cache) == 1

    def test_data_change_misses(self, tmp_path):
        rng = np.random.default_rng(2)
        segs = rng.normal(size=(3, 600))
        ex = FrequencyFeatureExtractor(
            self.SR, n_bins=10, feature_cache=tmp_path
        )
        ex.raw_feature_matrix(segs)
        other = segs.copy()
        other[0, 0] += 1e-12
        ex.raw_feature_matrix(other)
        assert ex.feature_cache.stats()["misses"] == 2
        assert len(ex.feature_cache) == 2

    def test_config_change_misses(self, tmp_path):
        rng = np.random.default_rng(3)
        segs = rng.normal(size=(3, 600))
        a = FrequencyFeatureExtractor(self.SR, n_bins=10, feature_cache=tmp_path)
        b = FrequencyFeatureExtractor(
            self.SR, n_bins=10, method="stft", feature_cache=tmp_path
        )
        a.raw_feature_matrix(segs)
        b.raw_feature_matrix(segs)
        assert b.feature_cache.stats()["misses"] == 1
        assert len(a.feature_cache) == 2

    def test_cached_matches_uncached(self, tmp_path):
        rng = np.random.default_rng(4)
        segs = rng.normal(size=(4, 600))
        plain = FrequencyFeatureExtractor(self.SR, n_bins=10)
        cached = FrequencyFeatureExtractor(
            self.SR, n_bins=10, feature_cache=tmp_path
        )
        cached.raw_feature_matrix(segs)  # warm
        np.testing.assert_array_equal(
            cached.fit_transform(segs), plain.fit_transform(segs)
        )

