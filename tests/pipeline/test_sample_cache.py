"""Capacity of the generated-sample cache is a resource bound, never semantics.

A Table I sweep is one engine pass that draws each condition once, so
the LRU of generated condition samples serves the *next* sweep with the
same root.  Repeated sweeps through an over-capacity cache (capacity 1,
three conditions — most accesses evict) must produce bitwise-identical
likelihood tables to repeated sweeps through a cache that holds them all.
"""

import numpy as np

from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import ExperimentConfig, FlowPairKey, train_pairs
from repro.runtime.analysis import ConditionSampleCache
from repro.security import security_analysis_h_sweep

H_SWEEP = (0.2, 0.4, 0.8)
KEY = FlowPairKey("F18", GCODE_FLOW)


def _sweeps(model, cache):
    """Two Table I sweeps over H_SWEEP through *cache*; returns both
    sweeps' tables + the cache hits."""
    tables = []
    for _ in range(2):
        sweep = security_analysis_h_sweep(
            model.cgan,
            model.test_set,
            h_values=H_SWEEP,
            cache=cache,
            g_size=200,
            root_entropy=0,
            pair=str(KEY),
        )
        tables += [(sweep[h].avg_correct, sweep[h].avg_incorrect) for h in H_SWEEP]
    return tables, cache.hits


class TestCapacityConfig:
    def test_over_capacity_sweep_is_bitwise_identical(self, case_dataset):
        model = train_pairs(
            printer_architecture(),
            {KEY: case_dataset},
            ExperimentConfig(iterations=150, seed=0),
        )[KEY]
        cached, cached_hits = _sweeps(model, ConditionSampleCache(max_entries=64))
        thrashed, thrashed_hits = _sweeps(model, ConditionSampleCache(max_entries=1))

        # Ample capacity serves the second sweep every condition's draw
        # (3 hits); capacity 1 with 3 conditions keeps evicting, so most
        # accesses miss.
        assert cached_hits == 3
        assert thrashed_hits < cached_hits

        for (c_cor, c_inc), (t_cor, t_inc) in zip(cached, thrashed):
            np.testing.assert_array_equal(c_cor, t_cor)
            np.testing.assert_array_equal(c_inc, t_inc)
