"""Streaming == offline, bitwise — the load-bearing guarantee.

For *any* partition of a trace into chunks and *any* window batching,
the streamed features, scores, and alarm times must be exactly
(``==``, not allclose) what one offline batch pass produces.  These
tests drive the real components end to end: hypothesis picks the
chunking, :func:`repro.streaming.calibration.offline_stream_scores` is
the oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime.events import EventBus, WindowBatchScored
from repro.security import parzen
from repro.streaming import (
    StreamSession,
    TraceReplay,
    frame_signal,
    offline_stream_scores,
)
from tests.streaming.conftest import HOP, SAMPLE_RATE, WINDOW


def cut_points(n, *, max_cuts=24):
    """Strategy: sorted interior cut positions partitioning ``range(n)``."""
    if n < 2:
        return st.just([])
    return st.lists(
        st.integers(1, n - 1), max_size=max_cuts, unique=True
    ).map(sorted)


def split_at(values, cuts):
    """Split an array (or row range) at the given sorted cut positions."""
    edges = [0, *cuts, len(values)]
    return [values[a:b] for a, b in zip(edges, edges[1:])]


def run_streamed(samples, claims, calibration, chunks, *, batch_windows=32):
    session = StreamSession(
        chunks,
        extractor=calibration.extractor,
        scorer=calibration.scorer,
        claims=claims,
        detector=calibration.make_detector(),
        window_size=WINDOW,
        hop_size=HOP,
        sample_rate=SAMPLE_RATE,
        batch_windows=batch_windows,
    )
    return session.run()


class TestStreamedScoresMatchOffline:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), batch_windows=st.integers(1, 64))
    def test_arbitrary_chunking_bitwise(self, noise_monitor, data, batch_windows):
        samples, claims, calibration = noise_monitor
        offline_scores, _, offline_alarms = offline_stream_scores(
            samples, claims, calibration, window_size=WINDOW, hop_size=HOP
        )
        cuts = data.draw(cut_points(len(samples)), label="cuts")
        metrics = run_streamed(
            samples,
            claims,
            calibration,
            split_at(samples, cuts),
            batch_windows=batch_windows,
        )
        assert metrics.ok
        assert metrics.windows_dropped == 0
        np.testing.assert_array_equal(metrics.scores, offline_scores)
        assert metrics.alarms == offline_alarms

    def test_whole_trace_as_one_chunk(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        offline_scores, _, offline_alarms = offline_stream_scores(
            samples, claims, calibration, window_size=WINDOW, hop_size=HOP
        )
        metrics = run_streamed(samples, claims, calibration, [samples])
        np.testing.assert_array_equal(metrics.scores, offline_scores)
        assert metrics.alarms == offline_alarms

    def test_one_sample_chunks(self, noise_monitor):
        """Degenerate chunking: the stream arrives one sample at a time."""
        samples, claims, calibration = noise_monitor
        short = samples[: WINDOW + 3 * HOP + 5]
        offline_scores, _, _ = offline_stream_scores(
            short, claims, calibration, window_size=WINDOW, hop_size=HOP
        )
        metrics = run_streamed(
            short, claims, calibration, [np.array([s]) for s in short]
        )
        np.testing.assert_array_equal(metrics.scores, offline_scores)

    def test_trailing_partial_window_is_never_scored(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        # Cut mid-window: the tail past the last full hop must vanish
        # identically from both paths.
        short = samples[: 5 * HOP + WINDOW + HOP // 2]
        offline_scores, starts, _ = offline_stream_scores(
            short, claims, calibration, window_size=WINDOW, hop_size=HOP
        )
        assert starts[-1] + WINDOW <= len(short)
        metrics = run_streamed(short, claims, calibration, [short[:301], short[301:]])
        assert metrics.windows_scored == len(offline_scores)
        np.testing.assert_array_equal(metrics.scores, offline_scores)

    def test_trace_replay_source_matches_offline(self, noise_monitor):
        """The real replay source (max rate) is just another chunking."""
        samples, claims, calibration = noise_monitor
        offline_scores, _, offline_alarms = offline_stream_scores(
            samples, claims, calibration, window_size=WINDOW, hop_size=HOP
        )
        replay = TraceReplay(samples, SAMPLE_RATE, chunk_size=997, rate="max")
        metrics = run_streamed(samples, claims, calibration, replay)
        np.testing.assert_array_equal(metrics.scores, offline_scores)
        assert metrics.alarms == offline_alarms


class TestStreamedFeaturesMatchOffline:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batched_extraction_bitwise(self, noise_monitor, data):
        """Feature rows are independent of how windows are batched."""
        samples, _, calibration = noise_monitor
        windows, _ = frame_signal(samples, WINDOW, HOP)
        offline = calibration.extractor.transform(windows)
        cuts = data.draw(cut_points(windows.shape[0]), label="cuts")
        pieces = [
            calibration.extractor.transform(part)
            for part in split_at(windows, cuts)
            if len(part)
        ]
        np.testing.assert_array_equal(np.vstack(pieces), offline)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batched_scoring_bitwise(self, noise_monitor, data):
        """Parzen scores are independent of batch composition."""
        samples, claims, calibration = noise_monitor
        windows, starts = frame_signal(samples, WINDOW, HOP)
        features = calibration.extractor.transform(windows)
        claim_idx = claims.window_claims(starts)
        offline = calibration.scorer.score_windows(features, claim_idx)
        cuts = data.draw(cut_points(features.shape[0]), label="cuts")
        edges = [0, *cuts, features.shape[0]]
        pieces = [
            calibration.scorer.score_windows(features[a:b], claim_idx[a:b])
            for a, b in zip(edges, edges[1:])
            if b > a
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), offline)

    def test_parzen_chunk_size_does_not_change_scores(
        self, noise_monitor, monkeypatch
    ):
        """The fused Parzen kernel's block size never changes a score."""
        samples, claims, calibration = noise_monitor
        windows, starts = frame_signal(samples, WINDOW, HOP)
        features = calibration.extractor.transform(windows)
        claim_idx = claims.window_claims(starts)
        base = calibration.scorer.score_windows(features, claim_idx)
        for block in (1, 7, 1000, 10**7):
            monkeypatch.setattr(parzen, "BLOCK_ELEMENTS", block)
            got = calibration.scorer.score_windows(features, claim_idx)
            np.testing.assert_array_equal(got, base)


class TestDecisionLayerIsSequential:
    def test_alarm_indices_independent_of_batching(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        scores, _, _ = offline_stream_scores(
            samples, claims, calibration, window_size=WINDOW, hop_size=HOP
        )
        one = calibration.make_detector()
        for s in scores:
            one.update(float(s))
        many = calibration.make_detector()
        many.update_many(scores)
        assert one.alarms == many.alarms
        assert one.statistic == many.statistic

    def test_batch_events_cover_every_window_once(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        bus = EventBus()
        seen = []
        bus.subscribe(
            lambda e: seen.append(e) if isinstance(e, WindowBatchScored) else None
        )
        session = StreamSession(
            TraceReplay(samples, SAMPLE_RATE, chunk_size=512),
            extractor=calibration.extractor,
            scorer=calibration.scorer,
            claims=claims,
            window_size=WINDOW,
            hop_size=HOP,
            sample_rate=SAMPLE_RATE,
            batch_windows=5,
            bus=bus,
        )
        metrics = session.run()
        covered = sorted(
            i for e in seen for i in range(e.first_window, e.first_window + e.n_windows)
        )
        assert covered == list(range(metrics.windows_scored))
