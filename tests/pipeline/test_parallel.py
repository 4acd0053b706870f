"""Parallel pair-training: determinism, failure isolation, events.

These tests exercise train_pairs in-process and on a process pool over
a multi-pair synthetic factory.  The key property is the acceptance
criterion of the runtime redesign: with a fixed seed, parallel
schedules produce generator/discriminator weights bitwise-identical to
the serial path.
"""

import numpy as np
import pytest

from repro.errors import PairTrainingError
from repro.flows.dataset import FlowPairDataset
from repro.graph.builder import generate
from repro.graph.generators import random_factory
from repro.pipeline import ExperimentConfig, FlowPairKey, train_pairs
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


@pytest.fixture(scope="module")
def workload():
    arch, keys = _factory_and_pairs(3)
    rng = np.random.default_rng(7)
    data = {key: _dataset(rng) for key in keys}
    return arch, data


def _config():
    return ExperimentConfig(iterations=ITERATIONS, seed=SEED)


def _all_weights(models):
    out = {}
    for key, model in models.items():
        nets = {}
        nets.update({f"g_{k}": v for k, v in model.cgan.generator.get_weights().items()})
        nets.update({f"d_{k}": v for k, v in model.cgan.discriminator.get_weights().items()})
        out[str(key)] = nets
    return out


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2], ids=["process"])
    def test_parallel_matches_serial_bitwise(self, workload, workers):
        arch, data = workload
        serial = train_pairs(arch, data, _config(), workers=1)
        parallel = train_pairs(arch, data, _config(), workers=workers)

        serial_w, parallel_w = _all_weights(serial), _all_weights(parallel)
        assert serial_w.keys() == parallel_w.keys()
        for pair in serial_w:
            for name in serial_w[pair]:
                np.testing.assert_array_equal(
                    serial_w[pair][name], parallel_w[pair][name]
                )

    def test_result_independent_of_pair_order(self, workload):
        arch, data = workload
        forward = train_pairs(arch, data, _config())
        backward = train_pairs(
            arch, data, _config(), pairs=list(reversed(list(data)))
        )

        forward_w, backward_w = _all_weights(forward), _all_weights(backward)
        assert forward_w.keys() == backward_w.keys()
        for pair in forward_w:
            for name in forward_w[pair]:
                np.testing.assert_array_equal(
                    forward_w[pair][name], backward_w[pair][name]
                )


class TestFailureIsolation:
    def _poisoned_workload(self):
        arch, keys = _factory_and_pairs(3)
        rng = np.random.default_rng(7)
        data = {key: _dataset(rng) for key in keys}
        # One condition with a single row cannot be stratified-split:
        # this pair passes up-front validation but fails inside its job.
        bad_features = rng.uniform(size=(3, 4))
        bad_conditions = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        data[keys[1]] = FlowPairDataset(
            bad_features, bad_conditions, name="poisoned"
        )
        return arch, data, keys

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_one_bad_pair_does_not_abort_batch(self, workers):
        arch, data, keys = self._poisoned_workload()
        with pytest.raises(PairTrainingError) as excinfo:
            train_pairs(arch, data, _config(), workers=workers)

        error = excinfo.value
        assert list(error.failures) == [keys[1]]
        assert "not enough to split" in error.failures[keys[1]]
        assert sorted(error.completed, key=str) == sorted(
            [keys[0], keys[2]], key=str
        )
        # The good pairs were trained and travel with the error.
        assert keys[1] not in error.completed
        assert error.completed[keys[0]].cgan.is_trained
        assert error.completed[keys[2]].cgan.is_trained

    def test_failed_batch_still_emits_events(self):
        arch, data, keys = self._poisoned_workload()
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        with pytest.raises(PairTrainingError):
            train_pairs(arch, data, _config(), bus=bus)
        kinds = [e.kind for e in events]
        assert kinds[0] == "TrainingStarted"
        assert kinds[-1] == "TrainingFinished"
        assert kinds.count("PairTrained") == 2
        assert kinds.count("PairFailed") == 1


class TestEventStream:
    def test_started_event_reports_executor(self, workload):
        arch, data = workload
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        train_pairs(arch, data, _config(), workers=2, bus=bus)
        started = events[0]
        assert started.kind == "TrainingStarted"
        assert started.executor == "process"
        assert started.workers == 2
        assert started.total_pairs == len(data)

    def test_single_pair_trains_in_process(self, workload):
        # One job never starts a pool, whatever the worker count.
        arch, data = workload
        key = next(iter(data))
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        train_pairs(arch, data, _config(), pairs=[key], workers=4, bus=bus)
        started = events[0]
        assert started.kind == "TrainingStarted"
        assert (started.executor, started.workers) == ("serial", 1)
        assert [e.kind for e in events[1:]] == ["PairTrained", "TrainingFinished"]
