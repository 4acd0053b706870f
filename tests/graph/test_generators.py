"""Tests for repro.graph.generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.graph.builder import generate
from repro.graph.generators import random_factory


class TestRandomFactory:
    def test_validates(self):
        random_factory(3, seed=0).validate()

    def test_component_count(self):
        arch = random_factory(3, cyber_per_subsystem=2,
                              physical_per_subsystem=3, seed=0)
        # 3 * (2 + 3) + ENV.
        assert len(arch.component_names()) == 16

    def test_deterministic(self):
        a = random_factory(4, seed=9)
        b = random_factory(4, seed=9)
        assert set(a.flows) == set(b.flows)
        assert {(f.source, f.target) for f in a.flows.values()} == {
            (f.source, f.target) for f in b.flows.values()
        }

    def test_algorithm1_runs(self):
        arch = random_factory(4, seed=1)
        result = generate(arch, set(arch.flows))
        assert len(result.dag) == len(arch.component_names())
        assert result.trainable_pairs

    def test_has_unintentional_emissions(self):
        arch = random_factory(3, emission_probability=1.0, seed=2)
        emissions = [
            f for f in arch.flows.values()
            if f.is_energy and not f.intentional
        ]
        assert len(emissions) == 9  # Every physical component emits.

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            random_factory(0)
        with pytest.raises(ConfigurationError):
            random_factory(2, cyber_per_subsystem=0)
        with pytest.raises(ConfigurationError):
            random_factory(2, emission_probability=1.5)

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
        emit=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_always_valid_and_analyzable(self, n, seed, emit):
        arch = random_factory(n, emission_probability=emit, seed=seed)
        arch.validate()  # Never raises: generator guarantees connectivity.
        result = generate(arch, set(arch.flows))
        assert result.candidate_pairs  # A layered factory always has pairs.
