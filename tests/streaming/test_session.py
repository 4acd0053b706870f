"""Fault injection for StreamSession: the service must degrade loudly.

Three failure families from the issue: a producer that dies
mid-stream, a scorer that raises on one batch, and a full queue under
both backpressure policies.  In every case the session must come back
with a complete :class:`StreamMetrics` (no hang, no exception
escaping ``run()``) and any lost window must be visible — either in
``windows_failed``/``WindowBatchFailed`` or in
``windows_dropped``/``WindowsDropped`` — never silently missing.
"""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.events import (
    AttackDetected,
    EventBus,
    StreamFinished,
    WindowBatchFailed,
    WindowBatchScored,
    WindowsDropped,
)
from repro.streaming import (
    StreamSession,
    TraceReplay,
    frame_signal,
    offline_stream_scores,
)
from repro.streaming.session import _ChunkQueue
from tests.streaming.conftest import HOP, SAMPLE_RATE, WINDOW
from tests.streaming.golden import (
    GOLDEN_HOP,
    GOLDEN_WINDOW,
    golden_calibration,
    golden_scenario,
)

RUN_TIMEOUT = 30.0  # generous; a hang fails the test instead of CI


def collect(bus, cls):
    seen = []
    bus.subscribe(lambda e: seen.append(e) if isinstance(e, cls) else None)
    return seen


def run_with_timeout(session):
    """Run the session on a thread so a deadlock fails fast and loud."""
    result = {}
    thread = threading.Thread(target=lambda: result.update(m=session.run()))
    thread.start()
    thread.join(timeout=RUN_TIMEOUT)
    assert not thread.is_alive(), "StreamSession.run() hung"
    return result["m"]


def make_session(source, calibration, claims, bus=None, **kwargs):
    kwargs.setdefault("detector", calibration.make_detector())
    return StreamSession(
        source,
        extractor=calibration.extractor,
        scorer=calibration.scorer,
        claims=claims,
        window_size=WINDOW,
        hop_size=HOP,
        sample_rate=SAMPLE_RATE,
        bus=bus,
        **kwargs,
    )


class TestProducerDeath:
    def test_partial_stream_is_scored_and_error_recorded(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        delivered = 3 * 1024

        def dying_source():
            for start in range(0, delivered, 1024):
                yield samples[start : start + 1024]
            raise RuntimeError("microphone unplugged")

        bus = EventBus()
        finished = collect(bus, StreamFinished)
        metrics = run_with_timeout(
            make_session(dying_source(), calibration, claims, bus=bus)
        )
        # Everything delivered before death is still scored...
        expected, _ = frame_signal(samples[:delivered], WINDOW, HOP)
        assert metrics.windows_scored == expected.shape[0]
        assert metrics.samples_consumed == delivered
        # ...and the death is loud, not swallowed.
        assert not metrics.ok
        assert "microphone unplugged" in metrics.error
        assert len(finished) == 1 and finished[0].error is not None

    def test_immediate_death_still_finishes(self, noise_monitor):
        _, claims, calibration = noise_monitor

        def broken_source():
            raise OSError("no device")
            yield  # pragma: no cover

        metrics = run_with_timeout(
            make_session(broken_source(), calibration, claims)
        )
        assert metrics.windows_scored == 0
        assert "no device" in metrics.error


class FlakyScorer:
    """Delegates to the real scorer but raises on chosen call numbers."""

    def __init__(self, inner, fail_on=frozenset({1})):
        self.inner = inner
        self.fail_on = fail_on
        self.calls = 0

    def score_windows(self, features, claim_indices):
        self.calls += 1
        if self.calls in self.fail_on:
            raise FloatingPointError("scoring blew up")
        return self.inner.score_windows(features, claim_indices)


class TestScorerFailure:
    def test_failed_batch_is_isolated(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        offline, _ = frame_signal(samples, WINDOW, HOP)
        bus = EventBus()
        failures = collect(bus, WindowBatchFailed)
        session = make_session(
            [samples], calibration, claims, bus=bus, batch_windows=8
        )
        session.scorer = FlakyScorer(calibration.scorer, fail_on={2})
        metrics = run_with_timeout(session)
        # One batch of 8 lost, loudly; every other window scored.
        assert metrics.windows_failed == 8
        assert metrics.windows_scored == offline.shape[0] - 8
        assert len(failures) == 1
        assert failures[0].first_window == 8
        assert "scoring blew up" in failures[0].error
        # The session itself is healthy: the producer finished cleanly.
        assert metrics.ok

    def test_all_batches_failing_never_hangs(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        session = make_session([samples], calibration, claims, batch_windows=4)
        session.scorer = FlakyScorer(calibration.scorer, fail_on=range(1, 10_000))
        metrics = run_with_timeout(session)
        offline, _ = frame_signal(samples, WINDOW, HOP)
        assert metrics.windows_scored == 0
        assert metrics.windows_failed == offline.shape[0]


class TestSubscriberFailure:
    def test_handler_errors_counted_in_the_streams_record(self, noise_monitor):
        samples, claims, calibration = noise_monitor
        bus = EventBus()
        finished = collect(bus, StreamFinished)
        batches = collect(bus, WindowBatchScored)

        def broken_dashboard(event):
            if isinstance(event, WindowBatchScored):
                raise RuntimeError("dashboard down")

        bus.subscribe(broken_dashboard)
        metrics = run_with_timeout(
            make_session([samples], calibration, claims, bus=bus, batch_windows=8)
        )
        assert len(batches) > 1
        assert metrics.handler_errors == len(batches)
        assert metrics.to_dict()["handler_errors"] == len(batches)
        assert finished[0].handler_errors == len(batches)
        # The scoring itself is untouched by the failing subscriber.
        assert metrics.ok and metrics.windows_failed == 0


class GatedScorer:
    """Blocks the consumer until the producer has flooded the queue."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.gate = gate

    def score_windows(self, features, claim_indices):
        assert self.gate.wait(timeout=RUN_TIMEOUT), "producer never finished"
        return self.inner.score_windows(features, claim_indices)


class TestBackpressure:
    def test_block_policy_loses_nothing(self, noise_monitor):
        """A tiny queue with a fast producer: block must deliver 100%."""
        samples, claims, calibration = noise_monitor
        offline, _ = frame_signal(samples, WINDOW, HOP)
        chunks = [samples[i : i + 256] for i in range(0, len(samples), 256)]
        metrics = run_with_timeout(
            make_session(
                chunks, calibration, claims, queue_chunks=1, policy="block"
            )
        )
        assert metrics.windows_dropped == 0
        assert metrics.dropped_samples == 0
        assert metrics.windows_scored == offline.shape[0]

    def test_drop_oldest_drops_loudly_and_recovers(self, noise_monitor):
        """Stalled consumer + flooding producer: drops must be reported.

        The scorer is gated on the producer finishing, so the producer
        deterministically overruns the 2-chunk queue while the first
        batch is being scored — no timing races.
        """
        samples, claims, calibration = noise_monitor
        producer_done = threading.Event()

        def flooding_source():
            try:
                for start in range(0, len(samples), 256):
                    yield samples[start : start + 256]
            finally:
                producer_done.set()

        bus = EventBus()
        drops = collect(bus, WindowsDropped)
        session = make_session(
            flooding_source(),
            calibration,
            claims,
            bus=bus,
            queue_chunks=2,
            policy="drop_oldest",
            batch_windows=1,
        )
        session.scorer = GatedScorer(calibration.scorer, producer_done)
        metrics = run_with_timeout(session)
        offline, _ = frame_signal(samples, WINDOW, HOP)
        # The flood forced drops; every one is accounted for.
        assert metrics.dropped_samples > 0
        assert metrics.windows_dropped > 0
        assert drops, "drops happened but no WindowsDropped event"
        assert sum(e.samples for e in drops) == metrics.dropped_samples
        assert sum(e.est_windows for e in drops) == metrics.windows_dropped
        # No silent loss: every offline window is either scored, failed,
        # or counted dropped (skip_gap is a lower bound, so <=).
        accounted = (
            metrics.windows_scored
            + metrics.windows_failed
            + metrics.windows_dropped
        )
        assert metrics.windows_scored < offline.shape[0]
        assert accounted <= offline.shape[0]
        # The session recovered after the stall: post-drop windows scored.
        assert metrics.windows_scored > 0
        assert metrics.ok

    def test_scored_windows_after_drop_are_genuine(self, noise_monitor):
        """Windows scored after a gap contain only post-gap samples."""
        samples, claims, calibration = noise_monitor
        producer_done = threading.Event()

        def flooding_source():
            try:
                for start in range(0, len(samples), 256):
                    yield samples[start : start + 256]
            finally:
                producer_done.set()

        session = make_session(
            flooding_source(),
            calibration,
            claims,
            queue_chunks=2,
            policy="drop_oldest",
            batch_windows=1,
        )
        captured = []
        inner = calibration.scorer

        class CapturingScorer:
            def score_windows(self, features, claim_indices):
                assert producer_done.wait(timeout=RUN_TIMEOUT)
                captured.append(np.asarray(features).copy())
                return inner.score_windows(features, claim_indices)

        session.scorer = CapturingScorer()
        metrics = run_with_timeout(session)
        assert metrics.windows_dropped > 0
        # Recompute what each scored window *should* look like from the
        # original trace; a corrupt ring would feed stale samples.
        offline_windows, starts = frame_signal(samples, WINDOW, HOP)
        offline_feats = calibration.extractor.transform(offline_windows)
        start_to_row = {int(s): i for i, s in enumerate(starts)}
        scored_rows = np.vstack(captured)
        assert scored_rows.shape[0] == metrics.windows_scored
        # Every scored row must equal the offline row of *some* window.
        for row in scored_rows:
            assert any(
                np.array_equal(row, offline_feats[i])
                for i in start_to_row.values()
            )


@pytest.fixture(scope="module")
def attacked_monitor():
    """The golden printer trace with forged claims, and its monitor."""
    clean, attacked = golden_scenario()
    return attacked, golden_calibration(clean)


class TestAttackDetected:
    @pytest.mark.parametrize("batch_windows", [1, 32])
    def test_one_event_per_offline_alarm(self, attacked_monitor, batch_windows):
        attacked, calibration = attacked_monitor
        _, starts, alarms = offline_stream_scores(
            attacked.samples,
            attacked.claims,
            calibration,
            window_size=GOLDEN_WINDOW,
            hop_size=GOLDEN_HOP,
        )
        assert len(alarms) > 1
        bus = EventBus()
        events = collect(bus, AttackDetected)
        rate = attacked.sample_rate
        session = StreamSession(
            TraceReplay(attacked.samples, rate, chunk_size=1000),
            extractor=calibration.extractor,
            scorer=calibration.scorer,
            claims=attacked.claims,
            detector=calibration.make_detector(),
            window_size=GOLDEN_WINDOW,
            hop_size=GOLDEN_HOP,
            sample_rate=rate,
            batch_windows=batch_windows,
            bus=bus,
        )
        metrics = run_with_timeout(session)
        assert metrics.alarms == alarms
        claimed = attacked.claims.window_claims(starts)
        assert [e.window_index for e in events] == alarms
        for event, i in zip(events, alarms):
            assert event.time_seconds == starts[i] / rate
            assert event.claimed_condition == tuple(
                attacked.claims.conditions[claimed[i]]
            )
            assert event.detector == "CusumDetector"


class TestSessionConfig:
    @pytest.mark.parametrize("sr", [0.0, float("nan"), float("inf")])
    def test_rejects_bad_sample_rate(self, sr):
        with pytest.raises(ConfigurationError, match="sample_rate must be"):
            StreamSession(
                iter(()),
                extractor=None,
                scorer=None,
                claims=None,
                window_size=WINDOW,
                hop_size=HOP,
                sample_rate=sr,
            )


class TestChunkQueue:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            _ChunkQueue(0, "block")
        with pytest.raises(ConfigurationError):
            _ChunkQueue(4, "drop_newest")

    def test_drop_oldest_never_drops_control_items(self):
        q = _ChunkQueue(1, "drop_oldest")
        sentinel = object()
        q.put(sentinel)  # control item fills the queue
        q.put(np.zeros(4))  # must not evict the sentinel
        assert q.get() is sentinel
        assert q.dropped_chunks == 0

    def test_drop_oldest_counts_samples(self):
        q = _ChunkQueue(2, "drop_oldest")
        q.put(np.zeros(10))
        q.put(np.zeros(20))
        q.put(np.zeros(30))  # evicts the 10-sample chunk
        assert q.dropped_chunks == 1
        assert q.dropped_samples == 10

    def test_closed_queue_unblocks_blocked_producer(self):
        q = _ChunkQueue(1, "block")
        q.put(np.zeros(4))
        unblocked = threading.Event()

        def producer():
            q.put(np.zeros(4))  # blocks: queue is full
            unblocked.set()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        assert not unblocked.wait(timeout=0.2)
        q.close()
        assert unblocked.wait(timeout=RUN_TIMEOUT)
        t.join(timeout=RUN_TIMEOUT)


class TestGracefulStop:
    def test_stop_drains_and_finishes_on_infinite_source(self, noise_monitor):
        _, claims, calibration = noise_monitor
        rng = np.random.default_rng(3)

        def endless_source():
            while True:
                yield rng.normal(size=256)

        bus = EventBus()
        finished = collect(bus, StreamFinished)
        session = make_session(
            endless_source(), calibration, claims, bus=bus, queue_chunks=2
        )
        result = {}
        thread = threading.Thread(target=lambda: result.update(m=session.run()))
        thread.start()
        # Let it score something, then ask for shutdown.
        deadline = threading.Event()
        while session.metrics.windows_scored == 0 and thread.is_alive():
            deadline.wait(0.01)
        session.stop()
        thread.join(timeout=RUN_TIMEOUT)
        assert not thread.is_alive(), "stop() did not shut the session down"
        metrics = result["m"]
        assert metrics.windows_scored > 0
        assert len(finished) == 1
