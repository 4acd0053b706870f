"""Tests for the event bus, events, and reporters (repro.runtime)."""

import io
import json

import pytest

from repro.runtime import (
    ConsoleProgressReporter,
    EventBus,
    JsonlTraceWriter,
    PairFailed,
    PairTrained,
    TrainingFinished,
    TrainingStarted,
    read_trace,
)


def _sample_events():
    return [
        TrainingStarted(total_pairs=2, executor="process", workers=2),
        PairTrained(
            pair="F18|F1", index=0, total_pairs=2, seconds=1.5,
            train_size=40, test_size=12, final_d_loss=1.3, final_g_loss=0.7,
        ),
        PairFailed(
            pair="F2|F3", index=1, total_pairs=2, seconds=0.1,
            error="Traceback ...\nDataError: not enough rows",
        ),
        TrainingFinished(trained=1, failed=1, seconds=1.7),
    ]


class TestEventBus:
    def test_emit_reaches_all_subscribers(self):
        bus = EventBus()
        seen_a, seen_b = [], []
        bus.subscribe(seen_a.append)
        bus.subscribe(seen_b.append)
        event = TrainingStarted(total_pairs=1, executor="serial", workers=1)
        bus.emit(event)
        assert seen_a == [event]
        assert seen_b == [event]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit(TrainingFinished(trained=0, failed=0, seconds=0.0))
        assert seen == []
        assert len(bus) == 0

    def test_handler_errors_are_isolated(self):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("reporter bug")

        bus.subscribe(broken)
        bus.subscribe(seen.append)
        event = TrainingFinished(trained=1, failed=0, seconds=0.5)
        bus.emit(event)
        assert seen == [event]
        assert len(bus.handler_errors) == 1

    def test_non_callable_handler_rejected(self):
        with pytest.raises(TypeError):
            EventBus().subscribe("not-a-function")


class TestEvents:
    def test_kind_and_to_dict(self):
        event = PairFailed(
            pair="A|B", index=1, total_pairs=2, seconds=0.5, error="boom",
        )
        data = event.to_dict()
        assert data["kind"] == "PairFailed"
        assert data["pair"] == "A|B"
        assert data["index"] == 1
        assert "timestamp" in data

    def test_events_are_frozen(self):
        event = TrainingStarted(total_pairs=1, executor="serial", workers=1)
        with pytest.raises(AttributeError):
            event.total_pairs = 5


class TestJsonlTraceWriter:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            for event in _sample_events():
                writer.handle(event)
            assert writer.events_written == 4
        rows = read_trace(path)
        assert [r["kind"] for r in rows] == [
            "TrainingStarted", "PairTrained", "PairFailed",
            "TrainingFinished",
        ]
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        writer = JsonlTraceWriter(path)
        writer.close()
        assert not path.exists()

    def test_as_bus_subscriber(self, tmp_path):
        bus = EventBus()
        with JsonlTraceWriter(tmp_path / "t.jsonl") as writer:
            bus.subscribe(writer.handle)
            bus.emit(TrainingFinished(trained=3, failed=0, seconds=9.0))
        rows = read_trace(tmp_path / "t.jsonl")
        assert rows[0]["trained"] == 3


class TestConsoleProgressReporter:
    def test_renders_all_event_kinds(self):
        stream = io.StringIO()
        reporter = ConsoleProgressReporter(stream)
        for event in _sample_events():
            reporter.handle(event)
        text = stream.getvalue()
        assert "training 2 flow pair(s)" in text
        assert "trained F18|F1" in text
        assert "FAILED F2|F3" in text
        assert "DataError: not enough rows" in text
        assert "1 trained, 1 failed" in text
