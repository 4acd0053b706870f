"""Tests for repro.pipeline.gansec (the Figure 4 end-to-end driver)."""

import numpy as np
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
        assert len(res.dag) == 13
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
        """run() emits the whole training envelope, then the analysis one."""
        from repro.runtime.events import EventBus

        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        pipe = GANSec(printer_architecture(), fast_config)
        reports = pipe.run({FlowPairKey("F18", GCODE_FLOW): case_dataset}, bus=bus)
        kinds = [e.kind for e in events]
        assert kinds[0] == "TrainingStarted"
        assert kinds[-1] == "AnalysisCompleted"
        assert kinds.count("TrainingFinished") == 1
        assert kinds.count("AnalysisStarted") == 1
        assert kinds.index("TrainingFinished") < kinds.index("AnalysisStarted")
        assert FlowPairKey("F18", GCODE_FLOW) in reports


class TestAnalyzeStep:
    def test_reports_produced(self, pipeline_run):
        _pipe, reports = pipeline_run
        report = reports[FlowPairKey("F18", GCODE_FLOW)]
        assert report.leakage.accuracy >= 0.0
        assert "VERDICT" in report.to_text()

    def test_generator_runs_once_per_condition(self, pipeline_run, monkeypatch):
        # Algorithm 3 and the report's attacker fit the same draws: the
        # attacker's come from the sample cache Algorithm 3 filled.
        from repro.gan.cgan import ConditionalGAN

        pipe, _ = pipeline_run
        drawn = []
        generate = ConditionalGAN.generate_for_condition

        def counting(cgan, condition, n, *, seed=None):
            drawn.append(tuple(np.asarray(condition, dtype=float)))
            return generate(cgan, condition, n, seed=seed)

        monkeypatch.setattr(ConditionalGAN, "generate_for_condition", counting)
        pipe._sample_cache.clear()
        hits = pipe._sample_cache.hits
        (report,) = pipe.analyze(workers=1).values()
        conditions = {tuple(c) for c in report.likelihood.conditions}
        assert sorted(drawn) == sorted(conditions)
        assert pipe._sample_cache.hits - hits == len(conditions)

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
