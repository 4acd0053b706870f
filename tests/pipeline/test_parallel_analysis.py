"""Parallel security analysis through analyze_pairs: determinism, pair keys, events.

The analysis counterpart of test_parallel.py: analyze_pairs fans out
per-(pair, condition) jobs over ``config.analysis_workers``, and with a
fixed seed every schedule must produce likelihood tables
bitwise-identical to the serial path.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.flows.dataset import FlowPairDataset
from repro.graph.builder import generate
from repro.graph.generators import random_factory
from repro.pipeline import (
    ExperimentConfig,
    FlowPairKey,
    analyze_pairs,
    run_experiment,
    train_pairs,
)
from repro.runtime import EventBus
from repro.security.engine import (
    AnalysisTarget,
    run_security_analysis,
    security_analysis,
    security_analysis_h_sweep,
)

SEED = 123
ITERATIONS = 30


def _factory_and_pairs(n_pairs):
    arch = random_factory(4, seed=SEED)
    observed = {
        f.name
        for f in arch.flows.values()
        if f.is_signal or (f.is_energy and not f.intentional)
    }
    result = generate(arch, observed)
    keys = [FlowPairKey(*fp.names) for fp in result.trainable_pairs[:n_pairs]]
    assert len(keys) == n_pairs
    return arch, keys


def _dataset(rng, n=32, feature_dim=4):
    features = rng.uniform(size=(n, feature_dim))
    conditions = np.tile(np.eye(2), (n // 2, 1))
    return FlowPairDataset(features, conditions, name="synthetic")


def _config(**kwargs):
    return ExperimentConfig(iterations=ITERATIONS, seed=SEED, **kwargs)


@pytest.fixture(scope="module")
def trained_pipe():
    """``(architecture, trained models, keys)`` of a two-pair factory."""
    arch, keys = _factory_and_pairs(2)
    rng = np.random.default_rng(7)
    data = {key: _dataset(rng) for key in keys}
    return arch, train_pairs(arch, data, _config()), keys


def _tables(reports):
    return {
        str(key): (r.likelihood.avg_correct, r.likelihood.avg_incorrect)
        for key, r in reports.items()
    }


class TestAnalyzeDeterminism:
    @pytest.mark.parametrize("workers", [2], ids=["process"])
    def test_parallel_matches_serial_bitwise(self, trained_pipe, workers):
        _arch, models, _keys = trained_pipe
        serial = _tables(analyze_pairs(models, _config(analysis_workers=1)))
        parallel = _tables(analyze_pairs(models, _config(analysis_workers=workers)))
        assert serial.keys() == parallel.keys()
        for pair in serial:
            np.testing.assert_array_equal(serial[pair][0], parallel[pair][0])
            np.testing.assert_array_equal(serial[pair][1], parallel[pair][1])

    def test_config_worker_count_does_not_change_numbers(self, trained_pipe):
        _arch, models, _keys = trained_pipe
        config = _config()
        base = _tables(analyze_pairs(models, config))
        multi = _tables(analyze_pairs(models, replace(config, analysis_workers=2)))
        for pair in base:
            np.testing.assert_array_equal(base[pair][0], multi[pair][0])


class TestTupleShim:
    """Tuples are not pair keys: there is no shim that converts them."""

    def test_tuple_rejected_at_every_entry_point(self, trained_pipe):
        arch, models, keys = trained_pipe
        key = keys[0]
        as_tuple = (key.first, key.second)
        dataset = models[key].train_set
        with pytest.raises(ConfigurationError, match="FlowPairKey"):
            analyze_pairs({as_tuple: models[key]}, _config())
        with pytest.raises(ConfigurationError, match="FlowPairKey"):
            train_pairs(arch, {key: dataset}, _config(), pairs=[as_tuple])
        with pytest.raises(ConfigurationError, match="FlowPairKey"):
            train_pairs(arch, {as_tuple: dataset}, _config())

    def test_flowpairkey_does_not_warn(self, trained_pipe):
        _arch, models, keys = trained_pipe
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            reports = analyze_pairs({keys[0]: models[keys[0]]}, _config())
        assert set(reports) == {keys[0]}


class TestAnalysisEvents:
    def test_event_stream_through_gansec(self, trained_pipe):
        _arch, models, _keys = trained_pipe
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        analyze_pairs(models, _config(analysis_workers=2), bus=bus)
        kinds = [e.kind for e in events]
        assert kinds[0] == "AnalysisStarted"
        assert kinds[-1] == "AnalysisCompleted"
        # 2 pairs x 2 conditions.
        assert kinds.count("ConditionScored") == 4
        assert events[0].total_pairs == 2
        assert events[0].total_conditions == 4
        assert not bus.handler_errors

    def test_scored_events_name_the_pairs(self, trained_pipe):
        _arch, models, keys = trained_pipe
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        analyze_pairs(models, _config(), bus=bus)
        scored = [e for e in events if e.kind == "ConditionScored"]
        assert {e.pair for e in scored} == {str(k) for k in keys}

    def test_console_and_jsonl_reporters_accept_events(
        self, trained_pipe, tmp_path, capsys
    ):
        from repro.runtime.reporters import (
            ConsoleProgressReporter,
            JsonlTraceWriter,
        )

        _arch, models, _keys = trained_pipe
        bus = EventBus()
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        bus.subscribe(ConsoleProgressReporter().handle)
        bus.subscribe(writer.handle)
        analyze_pairs(models, _config(), bus=bus)
        writer.close()
        assert not bus.handler_errors
        err = capsys.readouterr().err
        assert "analysis done" in err
        lines = (tmp_path / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 + 1  # started + scored + completed


def _train_data(models):
    return {key: model.train_set for key, model in models.items()}


#: Every fan-out entry point, by the pipeline step it runs, called with
#: a given ``workers`` value.  The analyze step and the run read it from
#: their config, which refuses it when built.
FAN_OUT_ENTRY_POINTS = {
    "train_models": lambda arch, models, keys, w, tmp: train_pairs(
        arch, _train_data(models), _config(), workers=w
    ),
    "analyze": lambda arch, models, keys, w, tmp: analyze_pairs(
        models, _config(analysis_workers=w)
    ),
    "run": lambda arch, models, keys, w, tmp: run_experiment(
        ExperimentConfig(analysis_workers=w), tmp / "run"
    ),
    "run_security_analysis": lambda arch, models, keys, w, tmp: run_security_analysis(
        [AnalysisTarget(keys[0], models[keys[0]].cgan, models[keys[0]].test_set)],
        workers=w,
    ),
    "security_analysis": lambda arch, models, keys, w, tmp: security_analysis(
        models[keys[0]].cgan, models[keys[0]].test_set, workers=w
    ),
    "security_analysis_h_sweep": lambda arch, models, keys, w, tmp: (
        security_analysis_h_sweep(
            models[keys[0]].cgan,
            models[keys[0]].test_set,
            h_values=(0.2,),
            workers=w,
        )
    ),
}


class TestWorkerCounts:
    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("entry", sorted(FAN_OUT_ENTRY_POINTS))
    def test_bad_worker_count_rejected(self, trained_pipe, tmp_path, entry, workers):
        arch, models, keys = trained_pipe
        with pytest.raises(ConfigurationError, match="workers"):
            FAN_OUT_ENTRY_POINTS[entry](arch, models, keys, workers, tmp_path)
        assert not (tmp_path / "run").exists()
