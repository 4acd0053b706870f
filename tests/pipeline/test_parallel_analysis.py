"""Parallel security analysis through GANSec: determinism, shim, events.

The analysis counterpart of test_parallel.py: GANSec.analyze fans out
per-(pair, condition) jobs over the executors, and with a fixed
pipeline seed every schedule must produce likelihood tables
bitwise-identical to the serial path — even though reports were already
cached, regenerated, or computed with a different worker count.
"""

import warnings

import numpy as np
import pytest

from repro.flows.dataset import FlowPairDataset
from repro.graph.builder import generate
from repro.graph.generators import random_factory
from repro.pipeline import CGANConfig, FlowPairKey, GANSec, GANSecConfig
from repro.runtime import EventBus

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
    return GANSecConfig(
        cgan=CGANConfig(iterations=ITERATIONS), seed=SEED, **kwargs
    )


@pytest.fixture(scope="module")
def trained_pipe():
    arch, keys = _factory_and_pairs(2)
    rng = np.random.default_rng(7)
    data = {key: _dataset(rng) for key in keys}
    pipe = GANSec(arch, _config())
    pipe.train_models(data)
    return pipe, keys


def _tables(reports):
    return {
        str(key): (r.likelihood.avg_correct, r.likelihood.avg_incorrect)
        for key, r in reports.items()
    }


class TestAnalyzeDeterminism:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_matches_serial_bitwise(self, trained_pipe, executor):
        pipe, _keys = trained_pipe
        serial = _tables(pipe.analyze(workers=1, executor="serial"))
        parallel = _tables(pipe.analyze(workers=2, executor=executor))
        assert serial.keys() == parallel.keys()
        for pair in serial:
            np.testing.assert_array_equal(serial[pair][0], parallel[pair][0])
            np.testing.assert_array_equal(serial[pair][1], parallel[pair][1])

    def test_config_worker_count_does_not_change_numbers(self, trained_pipe):
        pipe, _keys = trained_pipe
        base = _tables(pipe.analyze())
        pipe.config.analysis_workers = 2
        try:
            multi = _tables(pipe.analyze())
        finally:
            pipe.config.analysis_workers = 1
        for pair in base:
            np.testing.assert_array_equal(base[pair][0], multi[pair][0])

    def test_reports_cached_on_models(self, trained_pipe):
        pipe, keys = trained_pipe
        reports = pipe.analyze()
        for key in keys:
            assert pipe.models[key].report is reports[key]


class TestTupleShim:
    def test_tuple_pair_warns_in_analyze(self, trained_pipe):
        pipe, keys = trained_pipe
        key = keys[0]
        with pytest.warns(DeprecationWarning, match="FlowPairKey"):
            reports = pipe.analyze((key.first, key.second))
        assert set(reports) == {key}

    def test_flowpairkey_does_not_warn(self, trained_pipe):
        pipe, keys = trained_pipe
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            reports = pipe.analyze(keys[0])
        assert set(reports) == {keys[0]}

    def test_tuple_and_key_give_identical_report(self, trained_pipe):
        pipe, keys = trained_pipe
        key = keys[0]
        with pytest.warns(DeprecationWarning):
            via_tuple = pipe.analyze((key.first, key.second))[key]
        via_key = pipe.analyze(key)[key]
        np.testing.assert_array_equal(
            via_tuple.likelihood.avg_correct, via_key.likelihood.avg_correct
        )


class TestAnalysisEvents:
    def test_event_stream_through_gansec(self, trained_pipe):
        pipe, keys = trained_pipe
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        pipe.analyze(workers=2, executor="thread", bus=bus)
        kinds = [e.kind for e in events]
        assert kinds[0] == "AnalysisStarted"
        assert kinds[-1] == "AnalysisCompleted"
        # 2 pairs x 2 conditions.
        assert kinds.count("ConditionScored") == 4
        assert events[0].total_pairs == 2
        assert events[0].total_conditions == 4
        assert not bus.handler_errors

    def test_scored_events_name_the_pairs(self, trained_pipe):
        pipe, keys = trained_pipe
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        pipe.analyze(bus=bus)
        scored = [e for e in events if e.kind == "ConditionScored"]
        assert {e.pair for e in scored} == {str(k) for k in keys}

    def test_console_and_jsonl_reporters_accept_events(
        self, trained_pipe, tmp_path, capsys
    ):
        from repro.runtime.reporters import (
            ConsoleProgressReporter,
            JsonlTraceWriter,
        )

        pipe, _keys = trained_pipe
        bus = EventBus()
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        bus.subscribe(ConsoleProgressReporter().handle)
        bus.subscribe(writer.handle)
        pipe.analyze(bus=bus)
        writer.close()
        assert not bus.handler_errors
        err = capsys.readouterr().err
        assert "analysis done" in err
        lines = (tmp_path / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 + 1  # started + scored + completed


class TestSampleCacheReuse:
    def test_repeated_analyze_hits_cache(self, trained_pipe):
        pipe, _keys = trained_pipe
        pipe._sample_cache.clear()
        pipe.analyze()
        misses = pipe._sample_cache.stats()["misses"]
        before_hits = pipe._sample_cache.stats()["hits"]
        pipe.analyze()
        stats = pipe._sample_cache.stats()
        assert stats["hits"] >= before_hits + 4  # 2 pairs x 2 conditions
        assert stats["misses"] == misses
