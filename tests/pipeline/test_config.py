"""Tests for repro.pipeline.config."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.pipeline.config import AnalysisConfig, CGANConfig, GANSecConfig
from repro.pipeline.experiment import ExperimentConfig


class TestCGANConfig:
    def test_defaults_valid(self):
        cfg = CGANConfig()
        assert cfg.iterations > 0

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
            CGANConfig(**kwargs)


class TestAnalysisConfig:
    def test_defaults_are_paper_values(self):
        cfg = AnalysisConfig()
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
            AnalysisConfig(**kwargs)


class TestTopLevel:
    def test_composes(self):
        cfg = GANSecConfig(seed=42)
        assert cfg.cgan.iterations == 2000
        assert cfg.analysis.h == 0.2


class TestCountFields:
    """Worker counts and the checkpoint cadence are checked when the
    config is built, by field name, before any stage runs."""

    @pytest.mark.parametrize("value", [2.5, "2", True])
    @pytest.mark.parametrize(
        "cls, field",
        [
            (GANSecConfig, "workers"),
            (GANSecConfig, "analysis_workers"),
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
            CGANConfig(**{field: value})

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

    def test_from_json_rejects_string_workers(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"analysis_workers": "2"}))
        with pytest.raises(ConfigurationError, match="analysis_workers"):
            ExperimentConfig.from_json(path)
