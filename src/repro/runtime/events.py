"""Structured training events and the in-process event bus.

The pair-training runtime is instrumented through a tiny pub/sub layer:
:class:`EventBus` fans each emitted event out to every subscriber.
Events are frozen dataclasses carrying timings and loss figures, so
consumers (the console progress reporter, the JSONL trace writer,
tests) get structured data rather than log strings.

Lifecycle of one :func:`repro.pipeline.gansec.train_pairs` batch::

    TrainingStarted                      (once, batch-level)
      PairTrained | PairFailed           (once per pair)
    TrainingFinished                     (once, batch-level)

Lifecycle of one :func:`repro.pipeline.gansec.analyze_pairs` batch
(Algorithm 3)::

    AnalysisStarted                      (once, batch-level)
      ConditionScored*                   (once per (pair, condition) job)
    AnalysisCompleted                    (once, batch-level)

Lifecycle of one :class:`repro.streaming.StreamSession` run::

    StreamStarted                        (once)
      WindowBatchScored*                 (per scored window batch)
      WindowBatchFailed*                 (per batch whose scoring raised)
      WindowsDropped*                    (per backpressure drop burst)
      AttackDetected*                    (per decision-layer alarm)
    StreamFinished                       (once, also after failures)

A staged pipeline run (:func:`repro.pipeline.experiment.run_experiment`)
wraps each of its five stages in ``StageStarted``/``StageCompleted`` —
or emits a single ``StageSkipped`` when the stage's fingerprint matched
a prior run and its recorded outputs verified on disk.

The bus is thread-safe: the streaming producer thread and user threads
may emit concurrently.  Per-iteration losses are not events: every
trained model's :class:`~repro.gan.history.TrainingHistory` records
them, and ``history.csv`` is their on-disk form.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field


def _now() -> float:
    return time.time()


@dataclass(frozen=True)
class RuntimeEvent:
    """Base class for all instrumentation events."""

    @property
    def kind(self) -> str:
        return type(self).__name__

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        data.update(asdict(self))
        return data


@dataclass(frozen=True)
class TrainingStarted(RuntimeEvent):
    """A train_pairs batch began."""

    total_pairs: int
    executor: str
    workers: int
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class PairTrained(RuntimeEvent):
    """One flow pair finished training successfully."""

    pair: str
    index: int
    total_pairs: int
    seconds: float
    train_size: int
    test_size: int
    final_d_loss: float
    final_g_loss: float
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class PairFailed(RuntimeEvent):
    """One flow pair raised during training (isolated, not fatal)."""

    pair: str
    index: int
    total_pairs: int
    seconds: float
    error: str
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class TrainingFinished(RuntimeEvent):
    """The batch completed (successfully or with isolated failures)."""

    trained: int
    failed: int
    seconds: float
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class AnalysisStarted(RuntimeEvent):
    """A security-analysis batch (Algorithm 3) began."""

    total_pairs: int
    total_conditions: int
    executor: str
    workers: int
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class ConditionScored(RuntimeEvent):
    """One (pair, condition) scoring job of Algorithm 3 finished."""

    pair: str
    condition: tuple
    index: int
    total: int
    n_features: int
    seconds: float
    cache_hit: bool
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class AnalysisCompleted(RuntimeEvent):
    """The security-analysis batch completed."""

    pairs: int
    conditions: int
    seconds: float
    cache_hits: int
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class StageStarted(RuntimeEvent):
    """An experiment stage began executing (its fingerprint missed)."""

    stage: str
    fingerprint: str
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class StageSkipped(RuntimeEvent):
    """An experiment stage was skipped: fingerprint matched and every
    recorded output artifact verified on disk."""

    stage: str
    fingerprint: str
    outputs: tuple
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class StageCompleted(RuntimeEvent):
    """An experiment stage finished executing and its outputs were
    recorded in the run manifest."""

    stage: str
    fingerprint: str
    seconds: float
    outputs: tuple
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class StreamStarted(RuntimeEvent):
    """A streaming detection session began consuming samples."""

    stream: str
    sample_rate: float
    window_size: int
    hop_size: int
    policy: str
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class WindowBatchScored(RuntimeEvent):
    """One batch of stream windows was featureized and scored."""

    stream: str
    first_window: int
    n_windows: int
    seconds: float
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class WindowBatchFailed(RuntimeEvent):
    """Scoring one batch of windows raised (isolated, not fatal)."""

    stream: str
    first_window: int
    n_windows: int
    error: str
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class WindowsDropped(RuntimeEvent):
    """Backpressure dropped stream samples before they were windowed.

    ``est_windows`` is a lower bound on complete windows lost — drops
    are never silent."""

    stream: str
    samples: int
    est_windows: int
    policy: str
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class AttackDetected(RuntimeEvent):
    """The sequential decision layer raised an integrity/availability alarm."""

    stream: str
    window_index: int
    time_seconds: float
    score: float
    statistic: float
    threshold: float
    detector: str
    claimed_condition: tuple
    timestamp: float = field(default_factory=_now)


@dataclass(frozen=True)
class StreamFinished(RuntimeEvent):
    """The streaming session drained and stopped (maybe with an error)."""

    stream: str
    windows_scored: int
    windows_failed: int
    windows_dropped: int
    alarms: int
    #: Subscriber exceptions the bus had captured by now.
    handler_errors: int
    seconds: float
    windows_per_second: float
    error: str | None = None
    timestamp: float = field(default_factory=_now)


class EventBus:
    """Synchronous, thread-safe pub/sub for :class:`RuntimeEvent`.

    Subscriber exceptions never abort training: they are captured on
    :attr:`handler_errors` and emission continues.
    """

    def __init__(self):
        self._handlers: list = []
        self._lock = threading.RLock()
        self.handler_errors: list = []

    def subscribe(self, handler) -> None:
        """Register ``handler(event)`` for every subsequent emission."""
        if not callable(handler):
            raise TypeError(f"event handler must be callable, got {handler!r}")
        with self._lock:
            self._handlers.append(handler)

    def unsubscribe(self, handler) -> None:
        with self._lock:
            try:
                self._handlers.remove(handler)
            except ValueError:
                pass

    def emit(self, event: RuntimeEvent) -> None:
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            try:
                handler(event)
            except Exception as exc:  # noqa: BLE001 - reporters must not kill training
                with self._lock:
                    self.handler_errors.append((event, exc))

    def __len__(self):
        with self._lock:
            return len(self._handlers)
