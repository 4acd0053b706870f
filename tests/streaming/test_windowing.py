"""Tests for repro.streaming.windowing (offline + incremental framing)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, DataError
from repro.streaming.windowing import StreamWindower, frame_signal


class TestFrameSignal:
    def test_abutting_windows(self):
        x = np.arange(10.0)
        windows, starts = frame_signal(x, 4, 4)
        assert windows.shape == (2, 4)
        np.testing.assert_array_equal(starts, [0, 4])
        np.testing.assert_array_equal(windows[1], [4, 5, 6, 7])

    def test_overlapping_windows(self):
        x = np.arange(10.0)
        windows, starts = frame_signal(x, 4, 2)
        np.testing.assert_array_equal(starts, [0, 2, 4, 6])
        np.testing.assert_array_equal(windows[2], [4, 5, 6, 7])

    def test_trailing_partial_never_emitted(self):
        windows, _ = frame_signal(np.arange(11.0), 4, 4)
        assert windows.shape[0] == 2  # samples 8..10 are a partial window

    def test_short_trace_yields_nothing(self):
        windows, starts = frame_signal(np.arange(3.0), 4, 2)
        assert windows.shape == (0, 4)
        assert starts.size == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            frame_signal(np.arange(10.0), 0, 1)
        with pytest.raises(ConfigurationError):
            frame_signal(np.arange(10.0), 4, 0)
        with pytest.raises(ConfigurationError):
            frame_signal(np.arange(10.0), 4, 5)  # gaps would skip samples

    def test_rejects_2d(self):
        with pytest.raises(DataError):
            frame_signal(np.zeros((3, 3)), 2, 1)


class TestStreamWindower:
    def test_single_push_matches_offline(self):
        x = np.random.default_rng(0).normal(size=50)
        offline, starts = frame_signal(x, 8, 4)
        windower = StreamWindower(8, 4)
        windows, got_starts = windower.push(x)
        np.testing.assert_array_equal(windows, offline)
        np.testing.assert_array_equal(got_starts, starts)
        assert windower.windows_emitted == offline.shape[0]

    def test_one_sample_at_a_time_matches_offline(self):
        x = np.random.default_rng(1).normal(size=40)
        offline, starts = frame_signal(x, 8, 4)
        windower = StreamWindower(8, 4)
        out = [windower.push([s]) for s in x]
        np.testing.assert_array_equal(np.vstack([w for w, _ in out]), offline)
        np.testing.assert_array_equal(np.concatenate([s for _, s in out]), starts)

    def test_chunk_larger_than_ring_capacity(self):
        # A chunk holding many windows yields them all from one push.
        x = np.random.default_rng(2).normal(size=500)
        offline, _ = frame_signal(x, 16, 8)
        windows, _ = StreamWindower(16, 8).push(x)
        np.testing.assert_array_equal(windows, offline)

    def test_starts_are_absolute_across_pushes(self):
        x = np.arange(30.0)
        windower = StreamWindower(6, 4)
        windower.push(x[:9])  # windows at 0; samples 4..8 carried
        windows, starts = windower.push(x[9:21])
        np.testing.assert_array_equal(starts, [4, 8, 12])
        np.testing.assert_array_equal(windows[-1], x[12:18])

    def test_memory_stays_bounded(self):
        windower = StreamWindower(16, 4)
        for _ in range(100):
            windower.push(np.zeros(7))
        assert windower.pending_samples < 16
        windower.push(np.zeros(1000))  # one big chunk carries no more
        assert windower.pending_samples < 16

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            StreamWindower(0, 1)
        with pytest.raises(ConfigurationError):
            StreamWindower(4, 5)

    def test_skip_gap_realigns_and_counts_losses(self):
        x = np.arange(100.0)
        windower = StreamWindower(10, 5)
        _, emitted = windower.push(x[:32])  # windows at 0,5,...,20 emitted
        n_before = len(emitted)
        lost = windower.skip_gap(40)  # samples 32..71 never arrive
        assert lost > 0
        # Resume with the tail; new windows must start at/after sample 72
        # and contain only post-gap data.
        windows, starts = windower.push(x[72:])
        assert starts[0] == 72
        for w, start in zip(windows, starts):
            np.testing.assert_array_equal(w, x[start : start + 10])
        # The window count stays globally consistent: emitted + lost + new.
        assert windower.windows_emitted == n_before + lost + len(starts)

    def test_skip_gap_zero_is_noop(self):
        windower = StreamWindower(10, 5)
        windower.push(np.zeros(7))
        assert windower.skip_gap(0) == 0
        assert windower.pending_samples == 7

    def test_skip_gap_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamWindower(10, 5).skip_gap(-1)

    def test_rejects_2d_chunk(self):
        with pytest.raises(DataError):
            StreamWindower(4, 2).push(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_chunk_before_buffering(self, bad):
        x = np.arange(12, dtype=float)
        windower = StreamWindower(4, 2)
        first, _ = windower.push(x[:3])
        with pytest.raises(DataError, match="non-finite"):
            windower.push([x[3], bad, x[4]])
        assert windower.samples_consumed == 3
        assert windower.pending_samples == 3
        # The stream continues as if the bad chunk never arrived.
        rest, _ = windower.push(x[3:])
        offline, _ = frame_signal(x, 4, 2)
        np.testing.assert_array_equal(np.vstack([first, rest]), offline)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        window=st.integers(2, 24),
        n=st.integers(0, 200),
        seed=st.integers(0, 2**16),
    )
    def test_any_chunking_matches_offline(self, data, window, n, seed):
        """Core invariant: windows are chunking-independent, bitwise."""
        hop = data.draw(st.integers(1, window), label="hop")
        x = np.random.default_rng(seed).normal(size=n)
        offline, starts = frame_signal(x, window, hop)
        windower = StreamWindower(window, hop)
        out = [(np.empty((0, window)), np.empty(0, dtype=np.int64))]
        pos = 0
        while pos < n:
            size = data.draw(st.integers(1, n - pos), label="chunk")
            out.append(windower.push(x[pos : pos + size]))
            pos += size
        np.testing.assert_array_equal(np.vstack([w for w, _ in out]), offline)
        np.testing.assert_array_equal(np.concatenate([s for _, s in out]), starts)
        assert windower.pending_samples < window
