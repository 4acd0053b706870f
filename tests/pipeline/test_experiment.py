"""Tests for repro.pipeline.experiment."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.flows.io import load_dataset
from repro.gan.serialization import load_cgan
from repro.gan.history import TrainingHistory
from repro.pipeline.experiment import (
    ExperimentConfig,
    run_experiment,
)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.emission_flow == "F18"

    def test_rejects_unknown_emission(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(emission_flow="F99")

    def test_rejects_the_gcode_flow_as_emission(self, tmp_path):
        # F1 is a monitored flow but not an emission: it must fail here,
        # not after the whole dataset has been recorded.
        with pytest.raises(ConfigurationError, match="emission_flow"):
            ExperimentConfig(emission_flow="F1")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"emission_flow": "F1"}))
        with pytest.raises(ConfigurationError, match="emission_flow"):
            ExperimentConfig.from_json(path)

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(name="")

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", "seed": 7, "iterations": 10}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.name == "x"
        assert cfg.seed == 7

    def test_removed_scheduling_keys_rejected_by_name(self, tmp_path):
        # A config.json written while the fan-out still had an executor
        # choice holds both keys; loading it names them.
        from dataclasses import asdict

        old = asdict(ExperimentConfig())
        old.update(workers=1, executor=None)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(old))
        with pytest.raises(ConfigurationError) as excinfo:
            ExperimentConfig.from_json(path)
        assert "executor, workers" in str(excinfo.value)


class TestRun:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("exp")
        cfg = ExperimentConfig(
            name="tiny",
            seed=3,
            n_moves_per_axis=8,
            n_bins=40,
            iterations=150,
        )
        return run_experiment(cfg, out)

    def test_all_artifacts_written(self, result):
        for artifact in (
            "config.json",
            "dataset.npz",
            "graph.dot",
            "model/cgan.json",
            "history.csv",
            "report.txt",
            "summary.json",
        ):
            assert (result.directory / artifact).exists(), artifact

    def test_summary_contents(self, result):
        summary = json.loads((result.directory / "summary.json").read_text())
        assert summary["experiment"] == "tiny"
        assert summary["iterations"] == 150
        assert 0.0 <= summary["attack_accuracy"] <= 1.0
        assert "leakage" in summary["verdict"]

    def test_artifacts_reloadable(self, result):
        dataset = load_dataset(result.directory / "dataset.npz")
        assert dataset.feature_dim == 40
        cgan = load_cgan(result.directory / "model")
        assert cgan.trained_iterations == 150
        hist = TrainingHistory.from_csv(result.directory / "history.csv")
        assert len(hist) == 150

    def test_report_text(self, result):
        text = result.report_text()
        assert "VERDICT" in text
        assert "Cond3 (Z)" in text

    def test_graph_dot_valid(self, result):
        dot = (result.directory / "graph.dot").read_text()
        assert dot.startswith("digraph")
        assert '"C4"' in dot
