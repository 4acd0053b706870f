"""Event consumers: console progress lines and JSONL traces.

Both reporters are plain :class:`~repro.runtime.events.EventBus`
subscribers — subscribe their :meth:`handle` method (or the object
itself; both are callable) and every training event is rendered live.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.runtime.events import (
    AnalysisCompleted,
    AnalysisStarted,
    AttackDetected,
    ConditionScored,
    PairFailed,
    PairTrained,
    RuntimeEvent,
    StageCompleted,
    StageSkipped,
    StageStarted,
    StreamFinished,
    StreamStarted,
    TrainingFinished,
    TrainingStarted,
    WindowBatchFailed,
    WindowsDropped,
)


class ConsoleProgressReporter:
    """Render training events as human-readable progress lines.

    Parameters
    ----------
    stream:
        Output file object (default ``sys.stderr``, keeping stdout free
        for the actual report/table output).
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def handle(self, event: RuntimeEvent) -> None:
        line = self._format(event)
        if line:
            print(line, file=self.stream, flush=True)

    __call__ = handle

    def _format(self, event: RuntimeEvent) -> str | None:
        if isinstance(event, TrainingStarted):
            return (
                f"training {event.total_pairs} flow pair(s) "
                f"[{event.executor} executor, {event.workers} worker(s)]"
            )
        if isinstance(event, PairTrained):
            return (
                f"[{event.index + 1}/{event.total_pairs}] trained {event.pair} "
                f"in {event.seconds:.2f}s (train={event.train_size}, "
                f"test={event.test_size}, D={event.final_d_loss:.3f}, "
                f"G={event.final_g_loss:.3f})"
            )
        if isinstance(event, PairFailed):
            reason = event.error.strip().splitlines()[-1] if event.error else "?"
            return (
                f"[{event.index + 1}/{event.total_pairs}] FAILED {event.pair} "
                f"after {event.seconds:.2f}s: {reason}"
            )
        if isinstance(event, TrainingFinished):
            return (
                f"done: {event.trained} trained, {event.failed} failed "
                f"in {event.seconds:.2f}s"
            )
        if isinstance(event, AnalysisStarted):
            return (
                f"analyzing {event.total_pairs} pair(s), "
                f"{event.total_conditions} condition(s) "
                f"[{event.executor} executor, {event.workers} worker(s)]"
            )
        if isinstance(event, ConditionScored):
            cached = " (cached samples)" if event.cache_hit else ""
            return (
                f"  [{event.index + 1}/{event.total}] scored {event.pair} "
                f"condition {list(event.condition)} over {event.n_features} "
                f"feature(s) in {event.seconds:.2f}s{cached}"
            )
        if isinstance(event, AnalysisCompleted):
            return (
                f"analysis done: {event.pairs} pair(s), {event.conditions} "
                f"condition(s) in {event.seconds:.2f}s "
                f"({event.cache_hits} cache hit(s))"
            )
        if isinstance(event, StreamStarted):
            return (
                f"stream {event.stream}: online detection at "
                f"{event.sample_rate:g} Hz (window {event.window_size}, "
                f"hop {event.hop_size}, {event.policy} backpressure)"
            )
        if isinstance(event, AttackDetected):
            return (
                f"  !! {event.stream}: ATTACK at window {event.window_index} "
                f"(t={event.time_seconds:.2f}s, score={event.score:.3f}, "
                f"{event.detector} S={event.statistic:.2f}>"
                f"{event.threshold:g}, claim={list(event.claimed_condition)})"
            )
        if isinstance(event, WindowsDropped):
            return (
                f"  {event.stream}: dropped {event.samples} samples "
                f"(>= {event.est_windows} window(s), {event.policy} policy)"
            )
        if isinstance(event, WindowBatchFailed):
            reason = event.error.strip().splitlines()[-1] if event.error else "?"
            return (
                f"  {event.stream}: scoring FAILED for windows "
                f"{event.first_window}..{event.first_window + event.n_windows - 1}: "
                f"{reason}"
            )
        if isinstance(event, StreamFinished):
            tail = f" [producer error: {event.error.strip().splitlines()[-1]}]" if event.error else ""
            return (
                f"stream {event.stream}: {event.windows_scored} window(s) scored, "
                f"{event.windows_failed} failed, {event.windows_dropped} dropped, "
                f"{event.alarms} alarm(s) in {event.seconds:.2f}s "
                f"({event.windows_per_second:.0f} win/s){tail}"
            )
        if isinstance(event, StageStarted):
            return f"stage {event.stage}: running"
        if isinstance(event, StageSkipped):
            return f"stage {event.stage}: up to date, skipped"
        if isinstance(event, StageCompleted):
            return f"stage {event.stage}: completed in {event.seconds:.2f}s"
        return None


class JsonlTraceWriter:
    """Append every event as one JSON object per line (a JSONL trace).

    Usable as a context manager; the file is opened lazily on the first
    event so constructing the writer never touches the filesystem.

    With ``atomic=True`` the trace is streamed to a ``.partial`` sibling
    and renamed onto the final path on :meth:`close` — so the final path
    only ever holds a complete trace of a finished run (an interrupted
    run leaves its partial trace visible under the ``.partial`` name).
    """

    def __init__(self, path, *, atomic: bool = False):
        self.path = Path(path)
        self.atomic = bool(atomic)
        self._fh = None
        self.events_written = 0

    def _write_path(self) -> Path:
        if self.atomic:
            return self.path.with_name(self.path.name + ".partial")
        return self.path

    def handle(self, event: RuntimeEvent) -> None:
        if self._fh is None:
            target = self._write_path()
            target.parent.mkdir(parents=True, exist_ok=True)
            self._fh = target.open("a", encoding="utf-8")
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._fh.flush()
        self.events_written += 1

    __call__ = handle

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            if self.atomic:
                os.replace(self._write_path(), self.path)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def read_trace(path) -> list:
    """Load a JSONL trace back into a list of event dicts."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]
