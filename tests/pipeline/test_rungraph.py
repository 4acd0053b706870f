"""Tests for the experiment's skip-or-run stage runner.

``_StageRunner`` in :mod:`repro.pipeline.experiment` runs or skips one
fingerprinted stage at a time; :func:`run_experiment` is five calls to
it.  The unit tests drive it on a two-stage chain ``a -> b``; the
``TestExperimentRun`` tests cover the real experiment at a tiny size.
"""

import json
import time

import pytest

from repro.artifacts.manifest import RunManifest
from repro.artifacts.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.pipeline import stage_fingerprint
from repro.pipeline.experiment import (
    ExperimentConfig,
    _StageRunner,
    experiment_status,
    run_experiment,
)
from repro.runtime.events import (
    EventBus,
    StageCompleted,
    StageSkipped,
    StageStarted,
)

ALL_STAGES = ["record", "graph", "train[F18|F1]", "analyze[F18|F1]", "report"]


def _collect(bus):
    events = []
    bus.subscribe(events.append)
    return events


def _names(events, kind):
    return [e.stage for e in events if isinstance(e, kind)]


def run_chain(rundir, counts, *, bus=None, resume=True, config_a=None):
    """Run the chain a -> b; each stage writes one artifact and bumps a counter."""
    store = ArtifactStore(rundir)
    stage = _StageRunner(store, RunManifest.load(rundir), bus or EventBus(), resume)

    def body_a(_fingerprint):
        counts["a"] += 1
        return {"out_a": store.put_bytes("a.bin", b"alpha")}, {"n": 1}

    def body_b(_fingerprint):
        counts["b"] += 1
        return {"out_b": store.put_bytes("b.bin", b"beta")}, {}

    stage("a", config_a or {"k": 1}, (), ("out_a",), body_a)
    stage("b", {"k": 2}, ("a",), ("out_b",), body_b)
    return stage


@pytest.fixture()
def rundir(tmp_path):
    return tmp_path / "run"


@pytest.fixture()
def counts():
    return {"a": 0, "b": 0}


class TestExecution:
    def test_runs_in_order_and_records(self, rundir, counts):
        bus = EventBus()
        events = _collect(bus)
        stage = run_chain(rundir, counts, bus=bus)

        assert counts == {"a": 1, "b": 1}
        assert stage.executed == {"a", "b"}
        assert _names(events, StageStarted) == ["a", "b"]
        assert _names(events, StageCompleted) == ["a", "b"]
        loaded = RunManifest.load(rundir)
        assert set(loaded.names()) == {"a", "b"}
        assert loaded.get("a").meta == {"n": 1}

    def test_warm_rerun_skips_everything(self, rundir, counts):
        run_chain(rundir, counts)

        bus = EventBus()
        events = _collect(bus)
        stage = run_chain(rundir, counts, bus=bus)

        assert counts == {"a": 1, "b": 1}
        assert stage.executed == set()
        assert _names(events, StageSkipped) == ["a", "b"]
        assert _names(events, StageStarted) == []

    def test_resume_false_reruns_everything(self, rundir, counts):
        run_chain(rundir, counts)
        run_chain(rundir, counts, resume=False)
        assert counts == {"a": 2, "b": 2}

    def test_missing_declared_output_is_an_error(self, rundir):
        stage = _StageRunner(
            ArtifactStore(rundir), RunManifest.load(rundir), EventBus(), True
        )
        with pytest.raises(ConfigurationError, match="out_a"):
            stage("a", {}, (), ("out_a",), lambda _fp: ({}, {}))
        assert "a" not in RunManifest.load(rundir)


class TestInvalidation:
    def test_config_change_reruns_stage_and_downstream(self, rundir, counts):
        run_chain(rundir, counts)
        stage = run_chain(rundir, counts, config_a={"k": 99})
        # a re-runs for its new config; b re-runs because its input
        # fingerprint changed (cascade), even though b's config did not.
        assert counts == {"a": 2, "b": 2}
        assert stage.executed == {"a", "b"}

    def test_downstream_cascade_even_with_identical_bytes(self, rundir, counts):
        run_chain(rundir, counts)
        # Force a to re-run; it regenerates byte-identical output, but b
        # must still re-run: "a executed" is the invalidation signal,
        # not byte equality.
        manifest = RunManifest.load(rundir)
        manifest.remove("a")
        manifest.save()
        run_chain(rundir, counts)
        assert counts == {"a": 2, "b": 2}

    def test_deleted_output_reruns_stage(self, rundir, counts):
        run_chain(rundir, counts)
        (rundir / "a.bin").unlink()
        run_chain(rundir, counts)
        assert counts["a"] == 2

    def test_tampered_output_reruns_stage(self, rundir, counts):
        run_chain(rundir, counts)
        (rundir / "b.bin").write_bytes(b"evil")
        bus = EventBus()
        events = _collect(bus)
        run_chain(rundir, counts, bus=bus)
        # a untouched and verified -> skipped; b detected as tampered.
        assert counts == {"a": 1, "b": 2}
        assert _names(events, StageSkipped) == ["a"]
        assert _names(events, StageStarted) == ["b"]


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

    def test_default_config_fingerprints_pinned(self, rundir, monkeypatch):
        """Run directories written by earlier versions keep resuming.

        The default config runs until training starts, on a one-move
        recording: the record and graph fingerprints depend only on
        their config slices, not on what the stages produce.
        """
        import repro.pipeline.experiment as experiment

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        real_record = experiment.record_case_study_dataset
        monkeypatch.setattr(
            experiment,
            "record_case_study_dataset",
            lambda **kw: real_record(**{**kw, "n_moves_per_axis": 1}),
        )
        monkeypatch.setattr(experiment, "train_pairs", stop)
        bus = EventBus()
        events = _collect(bus)
        with pytest.raises(Stop):
            run_experiment(ExperimentConfig(), rundir, bus=bus)

        started = {e.stage: e.fingerprint for e in events if isinstance(e, StageStarted)}
        assert started["record"] == (
            "f5d64ca099195fa0a04a8622b689deadcd6d24d929d757e7aa42e9dc88e2163d"
        )
        assert started["graph"] == (
            "e167a4a3e9eaacc432c56e3ba1d8125bbc02b16960ca1d811046f26738342951"
        )

    def test_default_config_slices_pinned(self, rundir, monkeypatch):
        """Every stage's config slice for the default config, as earlier
        versions wrote it, so their run directories keep resuming.

        The stage runner records each slice and runs nothing.
        """
        import repro.pipeline.experiment as experiment

        class Stop(Exception):
            pass

        slices = {}

        def record(self, name, config_slice, deps, outputs, body):
            slices[name] = config_slice
            if name == "report":
                raise Stop

        monkeypatch.setattr(experiment._StageRunner, "__call__", record)
        with pytest.raises(Stop):
            run_experiment(ExperimentConfig(), rundir)

        expected = {
            "record": {
                "n_moves_per_axis": 30,
                "sample_rate": 12000.0,
                "n_bins": 100,
                "seed": 0,
            },
            "graph": {"flows": ["F1", "F14", "F15", "F16", "F17", "F18"]},
            "train[F18|F1]": {
                "pair": "F18|F1",
                "seed": 0,
                "cgan": {
                    "noise_dim": 16,
                    "generator_hidden": (64, 64),
                    "discriminator_hidden": (64, 32),
                    "learning_rate": 0.002,
                    "iterations": 2000,
                    "batch_size": 32,
                    "k_disc": 1,
                    "label_smoothing": 0.0,
                    "generator_loss": "non_saturating",
                },
                "test_fraction": 0.25,
            },
            "analyze[F18|F1]": {
                "pair": "F18|F1",
                "seed": 0,
                "h": 0.2,
                "g_size": 200,
                "test_fraction": 0.25,
                "feature_indices": None,
            },
            "report": {"name": "case-study", "seed": 0},
        }
        assert slices == expected
        # What the fingerprint hashes: 0.0 and 0 differ there.
        for name, config_slice in expected.items():
            assert json.dumps(slices[name], sort_keys=True) == json.dumps(
                config_slice, sort_keys=True
            )


TINY = dict(
    name="tiny-resume",
    seed=7,
    n_moves_per_axis=4,
    n_bins=30,
    iterations=40,
    checkpoint_every=20,
)


def run_with_events(out_dir, **kwargs):
    bus = EventBus()
    events = _collect(bus)
    run_experiment(ExperimentConfig(**TINY), out_dir, bus=bus, **kwargs)
    return events


class TestExperimentRun:
    def test_second_run_skips_all_five_stages(self, rundir):
        first = run_with_events(rundir)
        assert _names(first, StageStarted) == ALL_STAGES

        second = run_with_events(rundir)
        assert _names(second, StageSkipped) == ALL_STAGES
        assert _names(second, StageStarted) == []

        fresh = run_with_events(rundir, resume=False)
        assert _names(fresh, StageStarted) == ALL_STAGES
        assert _names(fresh, StageSkipped) == []

    def test_durations_survive_a_wall_clock_step_back(self, rundir, monkeypatch):
        # Every wall-clock read is one second earlier than the last, as
        # if NTP kept stepping the clock back mid-stage.
        wall = [time.time()]

        def stepping_back():
            wall[0] -= 1.0
            return wall[0]

        monkeypatch.setattr(time, "time", stepping_back)
        events = run_with_events(rundir)

        completed = [e for e in events if isinstance(e, StageCompleted)]
        assert [e.stage for e in completed] == ALL_STAGES
        assert all(e.seconds >= 0 for e in completed)
        stages = json.loads((rundir / "manifest.json").read_text())["stages"]
        assert len(stages) == 5
        assert all(s["seconds"] >= 0 for s in stages)

    def test_manifest_counts_handler_errors_per_stage(self, rundir):
        current = {"stage": None}

        def fails_during_training(event):
            if isinstance(event, StageStarted):
                current["stage"] = event.stage
            elif isinstance(event, StageCompleted):
                current["stage"] = None
            if (current["stage"] or "").startswith("train["):
                raise RuntimeError("subscriber failed")

        bus = EventBus()
        bus.subscribe(fails_during_training)
        run_experiment(ExperimentConfig(**TINY), rundir, bus=bus)

        manifest = RunManifest.load(rundir)
        counts = {stage: manifest.get(stage).handler_errors for stage in ALL_STAGES}
        assert counts["train[F18|F1]"] > 0
        assert counts["train[F18|F1]"] == len(bus.handler_errors)
        assert all(n == 0 for stage, n in counts.items() if stage != "train[F18|F1]")
        rows = {r["stage"]: r["handler_errors"] for r in experiment_status(rundir)}
        assert rows == counts
