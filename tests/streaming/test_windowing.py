"""Tests for repro.streaming.windowing (ring buffer + incremental framing)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, DataError
from repro.streaming.windowing import (
    RingBuffer,
    StreamWindower,
    frame_signal,
)


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


class TestRingBuffer:
    def test_append_read_roundtrip(self):
        ring = RingBuffer(8)
        ring.append(np.arange(5.0))
        np.testing.assert_array_equal(ring.read(1, 3), [1, 2, 3])

    def test_wraparound_preserves_absolute_indexing(self):
        ring = RingBuffer(6)
        ring.append(np.arange(5.0))
        ring.discard_before(4)
        ring.append(np.arange(5.0, 10.0))  # wraps the physical buffer
        np.testing.assert_array_equal(ring.read(4, 6), [4, 5, 6, 7, 8, 9])

    def test_overflow_is_loud(self):
        ring = RingBuffer(4)
        ring.append(np.arange(3.0))
        with pytest.raises(DataError):
            ring.append(np.arange(2.0))

    def test_read_outside_range_is_loud(self):
        ring = RingBuffer(8)
        ring.append(np.arange(4.0))
        ring.discard_before(2)
        with pytest.raises(DataError):
            ring.read(1, 2)  # sample 1 was discarded
        with pytest.raises(DataError):
            ring.read(3, 4)  # past the end

    def test_clear_to_skips_ahead(self):
        ring = RingBuffer(4)
        ring.append(np.arange(3.0))
        ring.clear_to(10)
        assert len(ring) == 0
        assert ring.start_index == 10
        with pytest.raises(DataError):
            ring.clear_to(5)  # rewinding the stream is impossible

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            RingBuffer(0)


class TestStreamWindower:
    def test_single_push_matches_offline(self):
        x = np.random.default_rng(0).normal(size=50)
        offline, starts = frame_signal(x, 8, 4)
        out = StreamWindower(8, 4).push(x)
        assert len(out) == offline.shape[0]
        for i, w in enumerate(out):
            assert w.index == i
            assert w.start == starts[i]
            np.testing.assert_array_equal(w.samples, offline[i])

    def test_one_sample_at_a_time_matches_offline(self):
        x = np.random.default_rng(1).normal(size=40)
        offline, _ = frame_signal(x, 8, 4)
        windower = StreamWindower(8, 4)
        out = []
        for s in x:
            out.extend(windower.push([s]))
        np.testing.assert_array_equal(np.stack([w.samples for w in out]), offline)

    def test_chunk_larger_than_ring_capacity(self):
        # A chunk bigger than the ring is consumed in slices, windows
        # emitted as they complete; output must still match offline.
        x = np.random.default_rng(2).normal(size=500)
        offline, _ = frame_signal(x, 16, 8)
        out = StreamWindower(16, 8).push(x)
        np.testing.assert_array_equal(np.stack([w.samples for w in out]), offline)

    def test_memory_stays_bounded(self):
        windower = StreamWindower(16, 4)
        for _ in range(100):
            windower.push(np.zeros(7))
        assert len(windower._ring) <= windower._ring.capacity
        assert windower.pending_samples < 16 + 4

    def test_skip_gap_realigns_and_counts_losses(self):
        x = np.arange(100.0)
        windower = StreamWindower(10, 5)
        emitted = windower.push(x[:32])  # windows at 0,5,...,20 emitted
        n_before = len(emitted)
        lost = windower.skip_gap(40)  # samples 32..71 never arrive
        assert lost > 0
        # Resume with the tail; new windows must start at/after sample 72
        # and contain only post-gap data.
        tail = windower.push(x[72:])
        assert all(w.start >= 72 for w in tail)
        for w in tail:
            np.testing.assert_array_equal(w.samples, x[w.start : w.start + 10])
        # Window indices stay globally consistent: emitted + lost + new.
        assert tail[0].index == n_before + lost

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
        first = windower.push(x[:3])
        with pytest.raises(DataError, match="non-finite"):
            windower.push([x[3], bad, x[4]])
        assert windower.samples_consumed == 3
        # The stream continues as if the bad chunk never arrived.
        rest = windower.push(x[3:])
        offline, _ = frame_signal(x, 4, 2)
        np.testing.assert_array_equal(
            np.stack([w.samples for w in first + rest]), offline
        )

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
        out = []
        pos = 0
        while pos < n:
            size = data.draw(st.integers(1, n - pos), label="chunk")
            out.extend(windower.push(x[pos : pos + size]))
            pos += size
        assert len(out) == offline.shape[0]
        if out:
            np.testing.assert_array_equal(
                np.stack([w.samples for w in out]), offline
            )
            np.testing.assert_array_equal([w.start for w in out], starts)
