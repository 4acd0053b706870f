"""Tests for repro.pipeline.gansec (the Figure 4 steps: train_pairs, analyze_pairs)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.graph.builder import generate
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import ExperimentConfig, FlowPairKey, analyze_pairs, train_pairs

KEY = FlowPairKey("F18", GCODE_FLOW)


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(iterations=150, seed=0)


@pytest.fixture(scope="module")
def pipeline_run(case_dataset, fast_config):
    models = train_pairs(printer_architecture(), {KEY: case_dataset}, fast_config)
    return models, analyze_pairs(models, fast_config)


class TestGraphStep:
    def test_graph_generated_from_data_keys(self):
        # train_pairs runs Algorithm 1 on the flows its data keys name.
        res = generate(printer_architecture(), {KEY.first, KEY.second})
        assert len(res.dag) == 13
        trainable = {fp.names for fp in res.trainable_pairs}
        assert (GCODE_FLOW, "F18") in trainable


class TestTrainStep:
    def test_rejects_unknown_pair_dataset(self, case_dataset, fast_config):
        with pytest.raises(DataError):
            train_pairs(
                printer_architecture(),
                {KEY: case_dataset},
                fast_config,
                pairs=[FlowPairKey("F2", "F3")],
            )

    def test_rejects_pruned_pair(self, case_dataset, fast_config):
        # F99 is no flow of the printer, so Algorithm 1 prunes every
        # pair that names it: training it must fail before any job runs.
        with pytest.raises(ConfigurationError, match="pruned"):
            train_pairs(
                printer_architecture(),
                {KEY: case_dataset, FlowPairKey("F18", "F99"): case_dataset},
                fast_config,
            )

    def test_split_sizes(self, pipeline_run, case_dataset):
        models, _ = pipeline_run
        model = models[KEY]
        assert len(model.train_set) + len(model.test_set) == len(case_dataset)
        assert model.cgan.is_trained


class TestRunStageEvents:
    def test_run_emits_stage_lifecycle(self, case_dataset, fast_config):
        """Training then analysis on one bus: the whole training
        envelope, then the analysis one."""
        from repro.runtime.events import EventBus

        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        models = train_pairs(
            printer_architecture(), {KEY: case_dataset}, fast_config, bus=bus
        )
        reports = analyze_pairs(models, fast_config, bus=bus)
        kinds = [e.kind for e in events]
        assert kinds[0] == "TrainingStarted"
        assert kinds[-1] == "AnalysisCompleted"
        assert kinds.count("TrainingFinished") == 1
        assert kinds.count("AnalysisStarted") == 1
        assert kinds.index("TrainingFinished") < kinds.index("AnalysisStarted")
        assert KEY in reports


class TestAnalyzeStep:
    def test_reports_produced(self, pipeline_run):
        _models, reports = pipeline_run
        report = reports[KEY]
        assert report.leakage.accuracy >= 0.0
        assert "VERDICT" in report.to_text()

    def test_generator_runs_once_per_condition(
        self, pipeline_run, fast_config, monkeypatch
    ):
        # Algorithm 3 and the report's attacker read the same draws:
        # each condition is drawn once.
        from repro.gan.cgan import ConditionalGAN

        models, _ = pipeline_run
        drawn = []
        generate_for_condition = ConditionalGAN.generate_for_condition

        def counting(cgan, condition, n, *, seed=None):
            drawn.append(tuple(np.asarray(condition, dtype=float)))
            return generate_for_condition(cgan, condition, n, seed=seed)

        monkeypatch.setattr(ConditionalGAN, "generate_for_condition", counting)
        (report,) = analyze_pairs(models, fast_config).values()
        conditions = {tuple(c) for c in report.likelihood.conditions}
        assert sorted(drawn) == sorted(conditions)

    def test_each_condition_scored_once(self, pipeline_run, fast_config, monkeypatch):
        # One Parzen fit and one log_densities pass per (pair, condition)
        # serve both the Cor/Inc table and the attacker.
        from repro.security.parzen import ConditionalParzen

        models, _ = pipeline_run
        fits, passes = [], []
        init = ConditionalParzen.__init__
        log_densities = ConditionalParzen.log_densities

        def counting_init(self, h, draws, **kwargs):
            fits.append(len(draws))
            init(self, h, draws, **kwargs)

        def counting_pass(self, features, claim_idx, bandwidths):
            passes.append(np.unique(claim_idx).tolist())
            return log_densities(self, features, claim_idx, bandwidths)

        monkeypatch.setattr(ConditionalParzen, "__init__", counting_init)
        monkeypatch.setattr(ConditionalParzen, "log_densities", counting_pass)
        (report,) = analyze_pairs(models, fast_config).values()
        n_conditions = len(report.likelihood.conditions)
        assert fits == [1] * n_conditions
        assert passes == [[0]] * n_conditions

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_attacker_matches_the_emission_model(self, pipeline_run, workers):
        # The report's LeakageReport is the one an EmissionModel fitted to
        # the analysis draws computes, whatever the worker count.
        from repro.security.emission import EmissionModel

        models, _ = pipeline_run
        config = ExperimentConfig(iterations=150, seed=0, analysis_workers=workers)
        (report,) = analyze_pairs(models, config).values()
        model = models[KEY]
        test = model.test_set
        reference = EmissionModel(
            model.cgan,
            test.unique_conditions(),
            h=config.h,
            g_size=config.g_size,
            root_entropy=config.seed,
            pair=str(KEY),
        ).leakage(test)
        assert report.leakage.accuracy == reference.accuracy
        np.testing.assert_array_equal(report.leakage.confusion, reference.confusion)
        np.testing.assert_array_equal(
            report.leakage.per_condition_recall, reference.per_condition_recall
        )
        np.testing.assert_array_equal(report.leakage.conditions, reference.conditions)

    def test_analyze_before_train_raises(self, fast_config):
        with pytest.raises(NotFittedError):
            analyze_pairs({}, fast_config)
