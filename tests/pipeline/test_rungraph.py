"""Tests for repro.pipeline.rungraph (the staged, resumable run graph)."""

import pytest

from repro.artifacts.manifest import RunManifest
from repro.artifacts.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.pipeline.rungraph import RunGraph, Stage, stage_fingerprint
from repro.runtime.events import (
    EventBus,
    StageCompleted,
    StageSkipped,
    StageStarted,
)


def _collect(bus):
    events = []
    bus.subscribe(events.append)
    return events


def _names(events, kind):
    return [e.stage for e in events if isinstance(e, kind)]


def make_stages(counts, store_payloads=None):
    """Two-stage chain a -> b; each writes one artifact and bumps a counter."""
    payloads = store_payloads or {"a": b"alpha", "b": b"beta"}

    def run_a(ctx):
        counts["a"] += 1
        return {"out_a": ctx.store.put_bytes("a.bin", payloads["a"])}, {"n": 1}

    def run_b(ctx):
        counts["b"] += 1
        return {"out_b": ctx.store.put_bytes("b.bin", payloads["b"])}, {}

    return [
        Stage("a", run=run_a, config_slice={"k": 1}, outputs=("out_a",)),
        Stage("b", run=run_b, deps=("a",), config_slice={"k": 2}, outputs=("out_b",)),
    ]


class Ctx:
    def __init__(self, store):
        self.store = store


@pytest.fixture()
def rundir(tmp_path):
    return tmp_path / "run"


def build(rundir, stages, *, bus=None, resume=True):
    store = ArtifactStore(rundir)
    manifest = RunManifest.load(rundir)
    graph = RunGraph(stages, store, manifest, bus=bus, resume=resume)
    return graph, Ctx(store)


class TestExecution:
    def test_runs_in_order_and_records(self, rundir):
        counts = {"a": 0, "b": 0}
        bus = EventBus()
        events = _collect(bus)
        graph, ctx = build(rundir, make_stages(counts), bus=bus)
        outcomes = graph.execute(ctx)

        assert counts == {"a": 1, "b": 1}
        assert [o.status for o in outcomes.values()] == ["completed", "completed"]
        assert _names(events, StageStarted) == ["a", "b"]
        assert _names(events, StageCompleted) == ["a", "b"]
        loaded = RunManifest.load(rundir)
        assert set(loaded.names()) == {"a", "b"}

    def test_warm_rerun_skips_everything(self, rundir):
        counts = {"a": 0, "b": 0}
        graph, ctx = build(rundir, make_stages(counts))
        graph.execute(ctx)

        bus = EventBus()
        events = _collect(bus)
        graph2, ctx2 = build(rundir, make_stages(counts), bus=bus)
        outcomes = graph2.execute(ctx2)

        assert counts == {"a": 1, "b": 1}
        assert all(o.status == "skipped" for o in outcomes.values())
        assert _names(events, StageSkipped) == ["a", "b"]
        assert _names(events, StageStarted) == []

    def test_resume_false_reruns_everything(self, rundir):
        counts = {"a": 0, "b": 0}
        graph, ctx = build(rundir, make_stages(counts))
        graph.execute(ctx)
        graph2, ctx2 = build(rundir, make_stages(counts), resume=False)
        graph2.execute(ctx2)
        assert counts == {"a": 2, "b": 2}

    def test_missing_declared_output_is_an_error(self, rundir):
        stage = Stage("a", run=lambda ctx: ({}, {}), outputs=("out_a",))
        graph, ctx = build(rundir, [stage])
        with pytest.raises(ConfigurationError, match="out_a"):
            graph.execute(ctx)


class TestInvalidation:
    def test_config_change_reruns_stage_and_downstream(self, rundir):
        counts = {"a": 0, "b": 0}
        graph, ctx = build(rundir, make_stages(counts))
        graph.execute(ctx)

        changed = make_stages(counts)
        changed[0].config_slice = {"k": 99}
        graph2, ctx2 = build(rundir, changed)
        outcomes = graph2.execute(ctx2)
        # a re-runs for its new config; b re-runs because its input
        # fingerprint changed (cascade), even though b's config did not.
        assert counts == {"a": 2, "b": 2}
        assert all(o.executed for o in outcomes.values())

    def test_downstream_cascade_even_with_identical_bytes(self, rundir):
        counts = {"a": 0, "b": 0}
        graph, ctx = build(rundir, make_stages(counts))
        graph.execute(ctx)
        # Force a to re-run; it regenerates byte-identical output, but b
        # must still re-run: "a executed" is the invalidation signal,
        # not byte equality.
        manifest = RunManifest.load(rundir)
        manifest.remove("a")
        manifest.save()
        graph2, ctx2 = build(rundir, make_stages(counts))
        graph2.execute(ctx2)
        assert counts == {"a": 2, "b": 2}

    def test_deleted_output_reruns_stage(self, rundir):
        counts = {"a": 0, "b": 0}
        graph, ctx = build(rundir, make_stages(counts))
        graph.execute(ctx)
        (rundir / "a.bin").unlink()
        graph2, ctx2 = build(rundir, make_stages(counts))
        graph2.execute(ctx2)
        assert counts["a"] == 2

    def test_tampered_output_reruns_stage(self, rundir):
        counts = {"a": 0, "b": 0}
        graph, ctx = build(rundir, make_stages(counts))
        graph.execute(ctx)
        (rundir / "b.bin").write_bytes(b"evil")
        bus = EventBus()
        events = _collect(bus)
        graph2, ctx2 = build(rundir, make_stages(counts), bus=bus)
        graph2.execute(ctx2)
        # a untouched and verified -> skipped; b detected as tampered.
        assert counts == {"a": 1, "b": 2}
        assert _names(events, StageSkipped) == ["a"]
        assert _names(events, StageStarted) == ["b"]


class TestGraphValidation:
    def test_unknown_dep_rejected(self, rundir):
        with pytest.raises(ConfigurationError, match="nope"):
            build(rundir, [Stage("a", run=None, deps=("nope",))])

    def test_duplicate_names_rejected(self, rundir):
        with pytest.raises(ConfigurationError, match="duplicate"):
            build(rundir, [Stage("a", run=None), Stage("a", run=None)])

    def test_group_without_runner_rejected(self, rundir):
        with pytest.raises(ConfigurationError, match="group"):
            build(rundir, [Stage("a", run=None, group="g")])


class TestGroups:
    def _grouped(self, rundir, runner, *, bus=None):
        store = ArtifactStore(rundir)
        manifest = RunManifest.load(rundir)
        stages = [
            Stage("t1", run=None, group="g", outputs=("o",), config_slice={"p": 1}),
            Stage("t2", run=None, group="g", outputs=("o",), config_slice={"p": 2}),
        ]
        graph = RunGraph(
            stages, store, manifest, bus=bus, group_runners={"g": runner}
        )
        return graph, Ctx(store)

    def test_batch_runs_together_and_records_each(self, rundir):
        batches = []

        def runner(group, batch, ctx):
            batches.append([stage.name for stage, _fp in batch])
            results = {
                stage.name: (
                    {"o": ctx.store.put_bytes(f"{stage.name}.bin", b"x")},
                    {},
                )
                for stage, _fp in batch
            }
            return results, None

        graph, ctx = self._grouped(rundir, runner)
        outcomes = graph.execute(ctx)
        assert batches == [["t1", "t2"]]
        assert all(o.executed for o in outcomes.values())
        # Second run: both members skip individually, runner never called.
        graph2, ctx2 = self._grouped(rundir, runner)
        outcomes2 = graph2.execute(ctx2)
        assert batches == [["t1", "t2"]]
        assert all(o.status == "skipped" for o in outcomes2.values())

    def test_partial_failure_records_successes_then_raises(self, rundir):
        def runner(group, batch, ctx):
            results = {}
            for stage, _fp in batch:
                if stage.name == "t1":
                    results[stage.name] = (
                        {"o": ctx.store.put_bytes("t1.bin", b"x")},
                        {},
                    )
            return results, RuntimeError("t2 exploded")

        graph, ctx = self._grouped(rundir, runner)
        with pytest.raises(RuntimeError, match="t2 exploded"):
            graph.execute(ctx)
        manifest = RunManifest.load(rundir)
        assert "t1" in manifest
        assert "t2" not in manifest


class TestFingerprint:
    def test_sensitive_to_all_parts(self):
        base = stage_fingerprint("s", {"k": 1}, {"d": {"fingerprint": "f", "outputs": {}}})
        assert stage_fingerprint("s2", {"k": 1}, {"d": {"fingerprint": "f", "outputs": {}}}) != base
        assert stage_fingerprint("s", {"k": 2}, {"d": {"fingerprint": "f", "outputs": {}}}) != base
        assert stage_fingerprint("s", {"k": 1}, {"d": {"fingerprint": "g", "outputs": {}}}) != base
        assert stage_fingerprint(
            "s", {"k": 1}, {"d": {"fingerprint": "f", "outputs": {"o": "sha256:x"}}}
        ) != base

    def test_key_order_canonicalized(self):
        assert stage_fingerprint("s", {"a": 1, "b": 2}, {}) == stage_fingerprint(
            "s", {"b": 2, "a": 1}, {}
        )
