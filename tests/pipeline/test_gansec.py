"""Tests for repro.pipeline.gansec (the Figure 4 end-to-end driver)."""

import pytest

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import CGANConfig, FlowPairKey, GANSec, GANSecConfig


@pytest.fixture(scope="module")
def fast_config():
    return GANSecConfig(cgan=CGANConfig(iterations=150), seed=0)


@pytest.fixture(scope="module")
def pipeline_run(case_dataset, fast_config):
    pipe = GANSec(printer_architecture(), fast_config)
    data = {FlowPairKey("F18", GCODE_FLOW): case_dataset}
    reports = pipe.run(data)
    return pipe, reports


class TestGraphStep:
    def test_graph_generated_from_data_keys(self, case_dataset, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        res = pipe.generate_graph({FlowPairKey("F18", GCODE_FLOW): case_dataset})
        assert res.graph.number_of_nodes() == 13
        trainable = {fp.names for fp in res.trainable_pairs}
        assert (GCODE_FLOW, "F18") in trainable


class TestTrainStep:
    def test_rejects_unknown_pair_dataset(self, case_dataset, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        with pytest.raises(DataError):
            pipe.train_models(
                {FlowPairKey("F18", GCODE_FLOW): case_dataset},
                pairs=[FlowPairKey("F2", "F3")],
            )

    def test_rejects_pruned_pair(self, case_dataset, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        # Graph generated when only F18/F1 have data: the thermal pair
        # (F19, F20) is pruned, so a later attempt to train it must fail.
        pipe.generate_graph({FlowPairKey("F18", GCODE_FLOW): case_dataset})
        with pytest.raises(ConfigurationError, match="pruned"):
            pipe.train_models({FlowPairKey("F19", "F20"): case_dataset})

    def test_split_sizes(self, pipeline_run, case_dataset):
        pipe, _ = pipeline_run
        model = pipe.models[FlowPairKey("F18", GCODE_FLOW)]
        assert len(model.train_set) + len(model.test_set) == len(case_dataset)
        assert model.cgan.is_trained


class TestRunStageEvents:
    def test_run_emits_stage_lifecycle(self, case_dataset, fast_config):
        from repro.runtime.events import EventBus, StageCompleted, StageStarted

        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        pipe = GANSec(printer_architecture(), fast_config)
        reports = pipe.run({FlowPairKey("F18", GCODE_FLOW): case_dataset}, bus=bus)
        started = [e.stage for e in events if isinstance(e, StageStarted)]
        completed = [e.stage for e in events if isinstance(e, StageCompleted)]
        assert started == ["graph", "train", "analyze"]
        assert completed == started
        assert FlowPairKey("F18", GCODE_FLOW) in reports


class TestAnalyzeStep:
    def test_reports_produced(self, pipeline_run):
        _pipe, reports = pipeline_run
        report = reports[FlowPairKey("F18", GCODE_FLOW)]
        assert report.leakage.accuracy >= 0.0
        assert "VERDICT" in report.to_text()

    def test_analyze_before_train_raises(self, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        with pytest.raises(NotFittedError):
            pipe.analyze()

    def test_analyze_unknown_pair_raises(self, pipeline_run):
        pipe, _ = pipeline_run
        with pytest.raises(DataError):
            pipe.analyze(FlowPairKey("F14", GCODE_FLOW))

    def test_summary_text(self, pipeline_run):
        pipe, _ = pipeline_run
        text = pipe.summary()
        assert "trainable" in text
        assert "analyzed" in text
