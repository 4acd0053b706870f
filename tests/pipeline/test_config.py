"""Tests for repro.pipeline.config."""

import json
from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.gan.cgan import ConditionalGAN
from repro.pipeline.config import ExperimentConfig


def _algorithm2(**setting):
    """Build what takes one Algorithm 2 setting: the training schedule
    is the experiment config's, the network ConditionalGAN's own."""
    if set(setting) <= {f.name for f in fields(ExperimentConfig)}:
        return ExperimentConfig(**setting)
    return ConditionalGAN(4, 2, **setting)


class TestCGANConfig:
    """Algorithm 2's settings, wherever they are taken."""

    def test_defaults_valid(self):
        assert _algorithm2().iterations > 0
        assert _algorithm2(noise_dim=16).noise_dim == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise_dim": 0},
            {"iterations": 0},
            {"batch_size": 0},
            {"k_disc": 0},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            _algorithm2(**kwargs)


class TestAnalysisConfig:
    """Algorithm 3's settings in the experiment config."""

    def test_defaults_are_paper_values(self):
        cfg = ExperimentConfig()
        assert cfg.h == 0.2
        assert cfg.g_size == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0},
            {"g_size": 0},
            {"test_fraction": 0.0},
            {"test_fraction": 1.0},
            {"h": float("nan")},
            {"h": float("inf")},
            {"g_size": 2.5},
            {"g_size": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)


class TestTopLevel:
    def test_composes(self):
        # One config holds both algorithms' settings.
        cfg = ExperimentConfig(seed=42)
        assert cfg.iterations == 2000
        assert cfg.h == 0.2


class TestCountFields:
    """Worker counts and the checkpoint cadence are checked when the
    config is built, by field name, before any stage runs."""

    @pytest.mark.parametrize("value", [2.5, "2", True])
    @pytest.mark.parametrize(
        "cls, field",
        [
            (ExperimentConfig, "analysis_workers"),
            (ExperimentConfig, "checkpoint_every"),
        ],
    )
    def test_rejects_non_int(self, cls, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be an int"):
            cls(**{field: value})

    @pytest.mark.parametrize("value", [True, 2.5, 0])
    @pytest.mark.parametrize("field", ["noise_dim", "iterations", "batch_size", "k_disc"])
    def test_cgan_config_integer_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be an int >= 1"):
            _algorithm2(**{field: value})

    @pytest.mark.parametrize("value", [True, 2.5, 0])
    @pytest.mark.parametrize(
        "field",
        ["n_moves_per_axis", "n_bins", "iterations", "batch_size", "k_disc", "g_size"],
    )
    def test_experiment_config_integer_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be an int >= 1"):
            ExperimentConfig(**{field: value})

    def test_fractional_iterations_rejected_before_any_stage(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_moves_per_axis": 2, "iterations": 40.5}))
        with pytest.raises(ConfigurationError, match="^iterations must be an int"):
            main(["experiment", "--out", str(tmp_path / "run"), "--config", str(path)])
        assert not (tmp_path / "run" / "dataset.npz").exists()

    @pytest.mark.parametrize("h", [float("nan"), -0.2], ids=["nan", "negative"])
    def test_bad_h_rejected_before_any_stage(self, tmp_path, h):
        # A NaN h used to record and train, and fail only in analyze.
        from repro.cli import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_moves_per_axis": 2, "iterations": 40, "h": h}))
        with pytest.raises(ConfigurationError, match="^h must be"):
            main(["experiment", "--out", str(tmp_path / "run"), "--config", str(path)])
        assert not (tmp_path / "run" / "dataset.npz").exists()

    @pytest.mark.parametrize("value", [1.5, float("nan")], ids=["1.5", "nan"])
    def test_bad_test_fraction_rejected_before_any_stage(self, tmp_path, value):
        # Read-outs take the split from config.json, so it must not be
        # written with a bad one (the sample rate is checked alike, in
        # tests/test_cli.py::TestRecordCommand).
        from repro.cli import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_moves_per_axis": 2, "test_fraction": value}))
        with pytest.raises(ConfigurationError, match="^test_fraction must be"):
            main(["experiment", "--out", str(tmp_path / "run"), "--config", str(path)])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [1.5, "3", -1, None, True])
    def test_bad_seed_rejected_before_any_stage(self, tmp_path, value):
        # The seed roots every derived stream: a None seed used to record
        # an unreproducible dataset, and True ran as seed 1.
        from repro.cli import main

        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"n_moves_per_axis": 2, "iterations": 40, "seed": value})
        )
        with pytest.raises(ConfigurationError, match="^seed must be an int >= 0"):
            main(["experiment", "--out", str(tmp_path / "run"), "--config", str(path)])
        assert not (tmp_path / "run").exists()

    def test_from_json_rejects_string_workers(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"analysis_workers": "2"}))
        with pytest.raises(ConfigurationError, match="analysis_workers"):
            ExperimentConfig.from_json(path)
