"""Capacity of the generated-sample cache is config, never semantics.

Satellite of the staged-pipeline work: ``GANSecConfig.sample_cache_entries``
bounds the LRU of generated condition samples that repeated ``analyze()``
calls share.  An over-capacity sweep (capacity 1, three conditions —
every access evicts) must produce bitwise-identical likelihood tables to
a sweep that fits entirely in cache.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import CGANConfig, FlowPairKey, GANSec, GANSecConfig
from repro.runtime.events import AnalysisCompleted, EventBus

H_SWEEP = (0.2, 0.4, 0.8)


def _make_pipeline(entries):
    return GANSec(
        printer_architecture(),
        GANSecConfig(
            cgan=CGANConfig(iterations=150), seed=0, sample_cache_entries=entries
        ),
    )


def _sweep(pipe, case_dataset):
    """Train once, then analyze across H_SWEEP; returns tables + hits."""
    pipe.train_models({FlowPairKey("F18", GCODE_FLOW): case_dataset})
    tables = []
    hits = 0
    for h in H_SWEEP:
        pipe.config.analysis.h = h
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        (report,) = pipe.analyze(bus=bus).values()
        tables.append(
            (report.likelihood.avg_correct.copy(),
             report.likelihood.avg_incorrect.copy())
        )
        hits += sum(
            e.cache_hits for e in events if isinstance(e, AnalysisCompleted)
        )
    return tables, hits


class TestCapacityConfig:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="sample_cache_entries"):
            GANSecConfig(sample_cache_entries=0)

    def test_over_capacity_sweep_is_bitwise_identical(self, case_dataset):
        cached, cached_hits = _sweep(_make_pipeline(64), case_dataset)
        thrashed, thrashed_hits = _sweep(_make_pipeline(1), case_dataset)

        # Ample capacity reuses every condition's draw after the first
        # h (3 conditions x 2 later sweeps); capacity 1 with 3
        # conditions keeps evicting, so most accesses miss.
        assert cached_hits == 6
        assert thrashed_hits < cached_hits

        for (c_cor, c_inc), (t_cor, t_inc) in zip(cached, thrashed):
            np.testing.assert_array_equal(c_cor, t_cor)
            np.testing.assert_array_equal(c_inc, t_inc)
