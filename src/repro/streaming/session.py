"""Long-running streaming detection sessions.

:class:`StreamSession` wires the whole online pipeline together:

    chunk source → bounded queue (backpressure) → StreamWindower
        → batches of ``(windows, starts)`` arrays
        → FrequencyFeatureExtractor (cached filter bank, batched)
        → EmissionModel.score_windows (batched Parzen scoring under
          each window's claimed condition index)
        → sequential decision layer (CUSUM/EWMA)
        → typed events on the EventBus

A producer thread pulls chunks from the source into a bounded queue;
the caller's thread consumes, so all numerical work runs in one thread
in stream order — which is what keeps streaming output bitwise
identical to the offline oracle.  Backpressure policy decides what
happens when the producer outruns the scorer:

* ``"block"`` — the producer waits (a file replay slows down; nothing
  is ever lost);
* ``"drop_oldest"`` — the oldest queued chunk is discarded (a live
  microphone must not block); every drop is surfaced as a
  :class:`~repro.runtime.events.WindowsDropped` event and counted in
  the session metrics, never silent.

Failures are isolated: a batch whose scoring raises is reported
(:class:`~repro.runtime.events.WindowBatchFailed`) and the session
continues; a producer that dies mid-stream has its error recorded and
everything it delivered is still scored and drained.  ``run()``
returns a complete :class:`StreamMetrics`; only a non-finite chunk
stops it, with a :class:`~repro.errors.DataError`.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.events import (
    AttackDetected,
    EventBus,
    StreamFinished,
    StreamStarted,
    WindowBatchFailed,
    WindowBatchScored,
    WindowsDropped,
)
from repro.streaming.windowing import StreamWindower
from repro.utils.validation import check_positive

BACKPRESSURE_POLICIES = ("block", "drop_oldest")

_EOS = object()  # end-of-stream sentinel


class _ProducerError:
    """Sentinel carrying a dead producer's traceback through the queue."""

    __slots__ = ("error",)

    def __init__(self, error: str):
        self.error = error


class _ChunkQueue:
    """Bounded chunk queue implementing both backpressure policies."""

    def __init__(self, capacity: int, policy: str):
        if capacity < 1:
            raise ConfigurationError(f"queue capacity must be >= 1, got {capacity}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {BACKPRESSURE_POLICIES}, got {policy!r}"
            )
        self.capacity = int(capacity)
        self.policy = policy
        self._items: deque = deque()
        self._cond = threading.Condition()
        self.dropped_chunks = 0
        self.dropped_samples = 0
        self._closed = False

    def put(self, chunk) -> int:
        """Enqueue *chunk*; returns samples dropped to make room (0 or more).

        Control items (sentinels) are always accepted; sample chunks
        honor the policy.
        """
        with self._cond:
            is_samples = isinstance(chunk, np.ndarray)
            if is_samples:
                if self.policy == "block":
                    while len(self._items) >= self.capacity and not self._closed:
                        self._cond.wait(timeout=0.1)
                    if self._closed:
                        return 0
                dropped = 0
                while len(self._items) >= self.capacity:
                    victim = self._items.popleft()
                    if isinstance(victim, np.ndarray):
                        self.dropped_chunks += 1
                        self.dropped_samples += len(victim)
                        dropped += len(victim)
                    else:  # never drop control items; park them in front
                        self._items.appendleft(victim)
                        break
                self._items.append(chunk)
                self._cond.notify_all()
                return dropped
            self._items.append(chunk)
            self._cond.notify_all()
            return 0

    def get(self):
        with self._cond:
            while not self._items:
                self._cond.wait()
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def close(self) -> None:
        """Unblock any waiting producer (used on consumer-side shutdown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class StreamMetrics:
    """Everything a finished (or failed) session can report."""

    stream: str = "stream"
    sample_rate: float = 0.0
    windows_scored: int = 0
    windows_failed: int = 0
    windows_dropped: int = 0
    dropped_samples: int = 0
    samples_consumed: int = 0
    chunks_consumed: int = 0
    batches: int = 0
    alarms: list = field(default_factory=list)
    scores: list = field(default_factory=list)
    batch_seconds: list = field(default_factory=list)
    wall_seconds: float = 0.0
    error: str | None = None
    #: Subscriber exceptions on the session's bus when it finished.
    handler_errors: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def windows_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.windows_scored / self.wall_seconds

    @property
    def realtime_factor(self) -> float:
        """How many seconds of audio were processed per wall second."""
        if self.wall_seconds <= 0 or self.sample_rate <= 0:
            return 0.0
        return (self.samples_consumed / self.sample_rate) / self.wall_seconds

    def latency_percentiles(self) -> dict:
        return {
            "p50_ms": _percentile(self.batch_seconds, 50) * 1e3,
            "p95_ms": _percentile(self.batch_seconds, 95) * 1e3,
            "max_ms": _percentile(self.batch_seconds, 100) * 1e3,
        }

    def to_dict(self) -> dict:
        return {
            "stream": self.stream,
            "sample_rate": self.sample_rate,
            "windows_scored": self.windows_scored,
            "windows_failed": self.windows_failed,
            "windows_dropped": self.windows_dropped,
            "dropped_samples": self.dropped_samples,
            "samples_consumed": self.samples_consumed,
            "chunks_consumed": self.chunks_consumed,
            "batches": self.batches,
            "alarms": list(self.alarms),
            "n_alarms": len(self.alarms),
            "wall_seconds": self.wall_seconds,
            "windows_per_second": self.windows_per_second,
            "realtime_factor": self.realtime_factor,
            "scoring_latency": self.latency_percentiles(),
            "error": self.error,
            "handler_errors": self.handler_errors,
        }


class StreamSession:
    """One online detection run over a chunked sample source.

    Parameters
    ----------
    source:
        Iterable of 1-D sample chunks (e.g. a
        :class:`~repro.streaming.replay.TraceReplay`).
    extractor:
        Fitted :class:`~repro.dsp.features.FrequencyFeatureExtractor`.
    scorer:
        A :class:`~repro.security.emission.EmissionModel` (its
        :meth:`score_windows` is called on each batch).
    claims:
        :class:`~repro.streaming.replay.ClaimTrack` giving the claimed
        condition at every sample (window claim = claim at its start).
    detector:
        Optional sequential decision layer
        (:class:`~repro.security.sequence.CusumDetector` /
        :class:`~repro.security.sequence.EwmaDetector`); ``None``
        scores without alarming.
    window_size / hop_size:
        Analysis window geometry in samples.
    sample_rate:
        Stream sample rate (alarm timestamps, throughput metrics).
    batch_windows:
        Windows accumulated before one featureize+score call.
    queue_chunks / policy:
        Backpressure: bounded queue capacity and full-queue policy
        (``"block"`` or ``"drop_oldest"``).
    bus:
        Optional :class:`~repro.runtime.events.EventBus` receiving the
        stream events.
    name:
        Stream label used in events and metrics.
    """

    def __init__(
        self,
        source,
        *,
        extractor,
        scorer,
        claims,
        detector=None,
        window_size: int,
        hop_size: int,
        sample_rate: float,
        batch_windows: int = 32,
        queue_chunks: int = 16,
        policy: str = "block",
        bus: EventBus | None = None,
        name: str = "stream",
    ):
        if batch_windows < 1:
            raise ConfigurationError(f"batch_windows must be >= 1, got {batch_windows}")
        check_positive(sample_rate, "sample_rate")
        self.source = source
        self.extractor = extractor
        self.scorer = scorer
        self.claims = claims
        self.detector = detector
        self.windower = StreamWindower(window_size, hop_size)
        self.sample_rate = float(sample_rate)
        self.batch_windows = int(batch_windows)
        self.queue = _ChunkQueue(queue_chunks, policy)
        self.bus = bus if bus is not None else EventBus()
        self.name = str(name)
        self.metrics = StreamMetrics(stream=self.name, sample_rate=self.sample_rate)
        self._stop = threading.Event()
        # (windows, starts, indices) arrays awaiting a full batch.
        self._pending: list = []
        self._n_pending = 0
        self._started = False

    # -- producer side -------------------------------------------------------
    def _produce(self) -> None:
        try:
            for chunk in self.source:
                if self._stop.is_set():
                    break
                arr = np.asarray(chunk, dtype=np.float64)
                self.queue.put(arr)
        except Exception:  # noqa: BLE001 - producer death must be survivable
            self.queue.put(_ProducerError(traceback.format_exc()))
        finally:
            self.queue.put(_EOS)

    def stop(self) -> None:
        """Request a graceful shutdown: stop producing, drain, finish."""
        self._stop.set()
        self.queue.close()

    # -- consumer side -------------------------------------------------------
    def _flush_batch(self, final: bool = False) -> None:
        """Score every full batch of pending windows (and, when *final*,
        the partial one after them)."""
        n = self._n_pending
        if n < self.batch_windows and not (final and n):
            return
        windows, starts, indices = (np.concatenate(p) for p in zip(*self._pending))
        scored = n if final else n - n % self.batch_windows
        for a in range(0, scored, self.batch_windows):
            b = min(a + self.batch_windows, scored)
            self._score_batch(windows[a:b], starts[a:b], indices[a:b])
        self._pending = [(windows[scored:], starts[scored:], indices[scored:])]
        self._n_pending = n - scored

    def _score_batch(self, windows, starts, indices) -> None:
        first = int(indices[0])
        t0 = time.perf_counter()
        try:
            features = self.extractor.transform(windows)
            claim_idx = self.claims.window_claims(starts)
            scores = self.scorer.score_windows(features, claim_idx)
        except Exception:  # noqa: BLE001 - isolate the batch, keep streaming
            self.metrics.windows_failed += len(starts)
            self.bus.emit(
                WindowBatchFailed(
                    stream=self.name,
                    first_window=first,
                    n_windows=len(starts),
                    error=traceback.format_exc(),
                )
            )
            return
        seconds = time.perf_counter() - t0
        self.metrics.batches += 1
        self.metrics.batch_seconds.append(seconds)
        self.metrics.windows_scored += len(starts)
        self.metrics.scores.extend(float(s) for s in scores)
        self.bus.emit(
            WindowBatchScored(
                stream=self.name,
                first_window=first,
                n_windows=len(starts),
                seconds=seconds,
            )
        )
        if self.detector is None:
            return
        for i, score in enumerate(scores):
            if self.detector.update(float(score)):
                self.metrics.alarms.append(int(indices[i]))
                self.bus.emit(
                    AttackDetected(
                        stream=self.name,
                        window_index=int(indices[i]),
                        time_seconds=int(starts[i]) / self.sample_rate,
                        score=float(score),
                        statistic=float(self.detector.statistic),
                        threshold=float(self.detector.threshold),
                        detector=type(self.detector).__name__,
                        claimed_condition=tuple(
                            float(v) for v in self.claims.conditions[claim_idx[i]]
                        ),
                    )
                )

    def _account_drops(self) -> None:
        new_samples = self.queue.dropped_samples - self.metrics.dropped_samples
        if new_samples <= 0:
            return
        lost = self.windower.skip_gap(new_samples)
        self.metrics.dropped_samples = self.queue.dropped_samples
        self.metrics.windows_dropped += lost
        self.bus.emit(
            WindowsDropped(
                stream=self.name,
                samples=new_samples,
                est_windows=lost,
                policy=self.queue.policy,
            )
        )

    def run(self) -> StreamMetrics:
        """Consume the whole stream (or until :meth:`stop`).

        Blocks the calling thread; a daemon producer thread feeds the
        queue.  Returns the session metrics, with :attr:`StreamMetrics.error`
        set if the producer died mid-stream.  The one error raised is the
        windower's :class:`~repro.errors.DataError` for a chunk holding
        NaN or ±inf; ``StreamFinished`` is still emitted.
        """
        if self._started:
            raise ConfigurationError("StreamSession.run() already consumed")
        self._started = True
        self.bus.emit(
            StreamStarted(
                stream=self.name,
                sample_rate=self.sample_rate,
                window_size=self.windower.window_size,
                hop_size=self.windower.hop_size,
                policy=self.queue.policy,
            )
        )
        producer = threading.Thread(
            target=self._produce, name=f"{self.name}-producer", daemon=True
        )
        t0 = time.perf_counter()
        producer.start()
        try:
            while True:
                item = self.queue.get()
                if item is _EOS:
                    break
                if isinstance(item, _ProducerError):
                    self.metrics.error = item.error
                    continue  # keep draining what was delivered before death
                self._account_drops()
                self.metrics.chunks_consumed += 1
                self.metrics.samples_consumed += len(item)
                windows, starts = self.windower.push(item)
                if len(starts):
                    emitted = self.windower.windows_emitted
                    indices = np.arange(emitted - len(starts), emitted)
                    self._pending.append((windows, starts, indices))
                    self._n_pending += len(starts)
                    self._flush_batch()
            self._account_drops()
            self._flush_batch(final=True)  # drain the trailing partial batch
        finally:
            self._stop.set()
            self.queue.close()
            producer.join(timeout=5.0)
            self.metrics.wall_seconds = time.perf_counter() - t0
            self.metrics.handler_errors = len(self.bus.handler_errors)
            self.bus.emit(
                StreamFinished(
                    stream=self.name,
                    windows_scored=self.metrics.windows_scored,
                    windows_failed=self.metrics.windows_failed,
                    windows_dropped=self.metrics.windows_dropped,
                    alarms=len(self.metrics.alarms),
                    handler_errors=self.metrics.handler_errors,
                    seconds=self.metrics.wall_seconds,
                    windows_per_second=self.metrics.windows_per_second,
                    error=self.metrics.error,
                )
            )
        return self.metrics
