"""Resume / interruption / corruption tests for the staged experiment.

The contract under test: whatever happens to a run directory —
interrupted training, truncated manifest, deleted or tampered artifacts
— a re-run never crashes, never silently reuses bad state, and always
converges to artifacts byte-identical to a single uninterrupted run.
"""

import json
import shutil

import pytest

import repro.gan.serialization as gan_serialization
from repro.pipeline.experiment import (
    ExperimentConfig,
    experiment_status,
    invalidate_stage,
    run_experiment,
)
from repro.runtime.events import EventBus, StageSkipped, StageStarted

# End-to-end interrupt/resume runs the full staged pipeline repeatedly;
# excluded from the default tier (see pyproject addopts), CI runs them
# in a dedicated `-m slow` job.
pytestmark = pytest.mark.slow

CFG_KWARGS = dict(
    name="resume-test",
    seed=5,
    n_moves_per_axis=6,
    n_bins=30,
    iterations=60,
    checkpoint_every=20,
)

ALL_STAGES = {"record", "graph", "train[F18|F1]", "analyze[F18|F1]", "report"}


def make_config(**overrides):
    return ExperimentConfig(**{**CFG_KWARGS, **overrides})


def run_with_events(config, out_dir, **kwargs):
    bus = EventBus()
    events = []
    bus.subscribe(events.append)
    result = run_experiment(config, out_dir, bus=bus, **kwargs)
    started = {e.stage for e in events if isinstance(e, StageStarted)}
    skipped = {e.stage for e in events if isinstance(e, StageSkipped)}
    return result, started, skipped


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted reference run; tests copy it, never mutate it."""
    out = tmp_path_factory.mktemp("baseline")
    result = run_experiment(make_config(), out)
    return out, result


def clone(baseline_dir, tmp_path):
    target = tmp_path / "run"
    shutil.copytree(baseline_dir, target)
    return target


class TestInterruptedTraining:
    def test_resume_is_byte_identical(self, baseline, tmp_path, monkeypatch):
        baseline_dir, _ = baseline
        out = tmp_path / "interrupted"
        config = make_config()

        # Interrupt training right after the first periodic checkpoint
        # (iteration 20 of 60) — the in-process stand-in for SIGTERM.
        real_save = gan_serialization.save_training_checkpoint

        def save_then_die(*args, **kwargs):
            result = real_save(*args, **kwargs)
            raise KeyboardInterrupt("simulated kill mid-training")

        monkeypatch.setattr(
            gan_serialization, "save_training_checkpoint", save_then_die
        )
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, out)
        monkeypatch.setattr(
            gan_serialization, "save_training_checkpoint", real_save
        )

        # The interrupted run kept its completed provenance and the
        # transient checkpoint, but no trained model.
        assert {r["stage"] for r in experiment_status(out)} == {"record", "graph"}
        ckpt_dir = out / "checkpoints" / "F18__F1"
        assert (ckpt_dir / "checkpoint.json").is_file()
        assert not (out / "summary.json").exists()

        # Resume: record/graph skip, training restores the checkpoint.
        restored = []
        real_restore = gan_serialization.restore_training_checkpoint

        def spy_restore(*args, **kwargs):
            state = real_restore(*args, **kwargs)
            restored.append(state.iteration)
            return state

        monkeypatch.setattr(
            gan_serialization, "restore_training_checkpoint", spy_restore
        )
        result, started, skipped = run_with_events(config, out)
        assert restored == [20]
        assert skipped == {"record", "graph"}
        assert started == ALL_STAGES - skipped

        # Byte-for-byte what the uninterrupted baseline produced.
        for artifact in ("summary.json", "history.csv", "report.txt",
                        "analysis.json", "graph.dot"):
            assert (out / artifact).read_bytes() == (
                baseline_dir / artifact
            ).read_bytes(), artifact
        # The final model supersedes its checkpoints.
        assert not ckpt_dir.exists()


class TestWarmResume:
    def test_unchanged_rerun_skips_every_stage(self, baseline, tmp_path):
        baseline_dir, first = baseline
        out = clone(baseline_dir, tmp_path)
        result, started, skipped = run_with_events(make_config(), out)
        assert started == set()
        assert skipped == ALL_STAGES
        assert result.summary == first.summary

    def test_fresh_reruns_every_stage(self, baseline, tmp_path):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        before = (out / "summary.json").read_bytes()
        result, started, skipped = run_with_events(
            make_config(), out, resume=False
        )
        assert skipped == set()
        assert started == ALL_STAGES
        assert (out / "summary.json").read_bytes() == before

    def test_scheduling_knobs_do_not_invalidate(self, baseline, tmp_path):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        config = make_config(analysis_workers=2, checkpoint_every=7, trace=True)
        _result, started, skipped = run_with_events(config, out)
        assert started == set()
        assert skipped == ALL_STAGES

    def test_semantic_change_cascades_from_analyze(self, baseline, tmp_path):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        _result, started, skipped = run_with_events(make_config(h=0.4), out)
        # h only enters the analyze slice: training survives, analysis
        # and the report re-run.
        assert skipped == {"record", "graph", "train[F18|F1]"}
        assert started == {"analyze[F18|F1]", "report"}


class TestCorruptRunDirs:
    def test_truncated_manifest_reruns_everything(self, baseline, tmp_path):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        text = (out / "manifest.json").read_text()
        (out / "manifest.json").write_text(text[: len(text) // 3])

        result, started, skipped = run_with_events(make_config(), out)
        assert skipped == set()
        assert started == ALL_STAGES
        assert (out / "summary.json").read_bytes() == (
            baseline_dir / "summary.json"
        ).read_bytes()

    def test_missing_output_reruns_stage_and_downstream(
        self, baseline, tmp_path
    ):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        (out / "dataset.npz").unlink()

        _result, started, skipped = run_with_events(make_config(), out)
        assert "record" in started
        # Everything downstream of the dataset re-runs too.
        assert {"train[F18|F1]", "analyze[F18|F1]", "report"} <= started
        assert skipped == {"graph"}

    def test_tampered_output_is_never_silently_reused(self, baseline, tmp_path):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        # Same size, different bytes: only the digest can catch this.
        original = (out / "analysis.json").read_bytes()
        (out / "analysis.json").write_bytes(
            original.replace(b":", b";", 1)
        )

        _result, started, skipped = run_with_events(make_config(), out)
        assert started == {"analyze[F18|F1]", "report"}
        assert skipped == {"record", "graph", "train[F18|F1]"}
        assert (out / "analysis.json").read_bytes() == original

    def test_stale_checkpoint_from_other_config_is_ignored(
        self, baseline, tmp_path
    ):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        # Invalidate training, then plant a checkpoint written under a
        # different fingerprint: training must ignore it and still
        # reproduce the baseline exactly.
        invalidate_stage(out, "train[F18|F1]")
        ckpt = out / "checkpoints" / "F18__F1"
        ckpt.mkdir(parents=True)
        (ckpt / "checkpoint.json").write_text(
            json.dumps({"schema": "gansec-train-checkpoint/v1",
                        "fingerprint": "someone-else", "files": {}})
        )
        _result, started, _skipped = run_with_events(make_config(), out)
        assert "train[F18|F1]" in started
        assert (out / "history.csv").read_bytes() == (
            baseline_dir / "history.csv"
        ).read_bytes()


class TestStatusAndInvalidate:
    def test_status_lists_all_verified_stages(self, baseline):
        baseline_dir, _ = baseline
        rows = experiment_status(baseline_dir)
        assert {r["stage"] for r in rows} == ALL_STAGES
        assert all(r["verified"] for r in rows)
        assert all(len(r["fingerprint"]) == 12 for r in rows)

    def test_status_flags_tampered_outputs(self, baseline, tmp_path):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        (out / "report.txt").write_text("not the report")
        rows = {r["stage"]: r for r in experiment_status(out)}
        assert not rows["analyze[F18|F1]"]["verified"]
        assert rows["record"]["verified"]

    def test_invalidate_forces_rerun(self, baseline, tmp_path):
        baseline_dir, _ = baseline
        out = clone(baseline_dir, tmp_path)
        assert invalidate_stage(out, "analyze[F18|F1]")
        assert not invalidate_stage(out, "analyze[F18|F1]")
        assert not invalidate_stage(out, "no-such-stage")

        _result, started, skipped = run_with_events(make_config(), out)
        assert started == {"analyze[F18|F1]", "report"}
        assert skipped == {"record", "graph", "train[F18|F1]"}


class TestConfigRoundTrip:
    def test_written_config_reloads_identically(self, baseline):
        baseline_dir, result = baseline
        from dataclasses import asdict

        loaded = ExperimentConfig.from_json(baseline_dir / "config.json")
        assert asdict(loaded) == asdict(result.config)

    def test_unknown_keys_rejected_by_name(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"seed": 1, "iterationz": 5, "wokers": 2})
        )
        with pytest.raises(ConfigurationError) as excinfo:
            ExperimentConfig.from_json(path)
        message = str(excinfo.value)
        assert "iterationz" in message
        assert "wokers" in message

    def test_non_object_json_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            ExperimentConfig.from_json(path)

    def test_negative_checkpoint_every_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            make_config(checkpoint_every=-1)

    @pytest.mark.parametrize("every", [True, 2.5, -1])
    def test_checkpoint_every_must_be_int_ge_0(self, every):
        from repro.errors import ConfigurationError

        with pytest.raises(
            ConfigurationError, match="checkpoint_every must be an int >= 0"
        ):
            make_config(checkpoint_every=every)
