"""Tests for the typed flow-pair key (repro.pipeline.pairs) and the
pair-key check at train_pairs' entry."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.graph.generators import random_factory
from repro.pipeline import ExperimentConfig, FlowPairKey, train_pairs


class TestFlowPairKey:
    def test_fields_and_reversed(self):
        key = FlowPairKey("F18", "F1")
        assert key.first == "F18"
        assert key.second == "F1"
        reversed_key = FlowPairKey(key.second, key.first)
        assert reversed_key != key
        assert hash(reversed_key) != hash(key)

    def test_tuple_equality_and_hash(self):
        key = FlowPairKey("A", "B")
        assert key != ("A", "B")
        assert ("A", "B") != key
        assert key == FlowPairKey("A", "B")
        assert hash(key) == hash(FlowPairKey("A", "B"))

    def test_interchangeable_as_dict_key(self):
        """Equal keys find each other's entries; tuples and strings don't."""
        store = {FlowPairKey("A", "B"): 1}
        assert store[FlowPairKey("A", "B")] == 1
        assert ("A", "B") not in store
        assert "A|B" not in store

    def test_str_parse_roundtrip(self):
        key = FlowPairKey("F18", "F1")
        assert str(key) == "F18|F1"
        assert FlowPairKey(*str(key).split("|")) == key
        assert key.label() == "(F18 | F1)"

    @pytest.mark.parametrize("first,second", [("", "B"), ("A", ""), (1, "B")])
    def test_rejects_non_string_names(self, first, second):
        with pytest.raises(ConfigurationError):
            FlowPairKey(first, second)

    def test_frozen(self):
        key = FlowPairKey("A", "B")
        with pytest.raises(AttributeError):
            key.first = "C"

    def test_picklable(self):
        key = FlowPairKey("F18", "F1")
        assert pickle.loads(pickle.dumps(key)) == key


def _dataset():
    return FlowPairDataset(np.zeros((4, 2)), np.tile(np.eye(2), (2, 1)), name="toy")


def _train(data):
    return train_pairs(random_factory(4, seed=0), data, ExperimentConfig())


class TestAsPairKey:
    """What train_pairs accepts as a pair key in its data."""

    def test_key_passthrough(self):
        # The key passes; Algorithm 1 then prunes the pair, whose flows
        # the factory does not declare.
        with pytest.raises(ConfigurationError, match="pruned"):
            _train({FlowPairKey("A", "B"): _dataset()})

    @pytest.mark.parametrize(
        "bad", [42, ("A",), ("A", "B", "C"), None, ("A", "B"), "A|B"]
    )
    def test_rejects_non_pairs(self, bad):
        with pytest.raises(ConfigurationError, match=r"FlowPairKey\(first, second\)"):
            _train({bad: _dataset()})

    @pytest.mark.parametrize("data", [None, {}])
    def test_missing_data_rejected(self, data):
        with pytest.raises(DataError, match="no pair data"):
            _train(data)
