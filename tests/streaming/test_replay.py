"""Tests for repro.streaming.replay (claim tracks, replay, scenarios)."""

import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.streaming import (
    ClaimTrack,
    TraceReplay,
    inject_claim_attack,
    synthetic_printer_stream,
)


def two_span_track():
    return ClaimTrack(
        np.array([0, 100]), np.array([0, 1]), np.eye(2)
    )


class TestClaimTrack:
    def test_window_claims_follow_span_of_start(self):
        track = two_span_track()
        # Claims switch exactly at sample 100; the *start* sample decides.
        np.testing.assert_array_equal(
            track.window_claims([0, 99, 100, 150]), [0, 0, 1, 1]
        )

    def test_rejects_nonzero_first_boundary(self):
        with pytest.raises(DataError):
            ClaimTrack(np.array([5]), np.array([0]), np.eye(2))

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(DataError):
            ClaimTrack(np.array([0, 50, 50]), np.array([0, 1, 0]), np.eye(2))

    def test_rejects_out_of_range_condition(self):
        with pytest.raises(DataError):
            ClaimTrack(np.array([0]), np.array([2]), np.eye(2))

    def test_rejects_negative_window_start(self):
        with pytest.raises(DataError):
            two_span_track().window_claims([-1])

    def test_with_span_conditions_forges_claims_only(self):
        track = two_span_track()
        forged = track.with_span_conditions([1, 0])
        np.testing.assert_array_equal(forged.window_claims([0, 150]), [1, 0])
        np.testing.assert_array_equal(track.window_claims([0, 150]), [0, 1])
        np.testing.assert_array_equal(forged.boundaries, track.boundaries)


class TestTraceReplay:
    def test_chunks_reassemble_to_trace(self):
        x = np.arange(10.0)
        chunks = list(TraceReplay(x, 100.0, chunk_size=3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        np.testing.assert_array_equal(np.concatenate(chunks), x)

    def test_realtime_pacing_takes_wall_time(self):
        x = np.zeros(500)
        replay = TraceReplay(x, 1000.0, chunk_size=100, rate="realtime")
        t0 = time.perf_counter()
        list(replay)
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.4  # 500 samples at 1 kHz = 0.5 s of audio

    def test_speedup_shortens_wall_time(self):
        x = np.zeros(500)
        replay = TraceReplay(
            x, 1000.0, chunk_size=100, rate="realtime", speedup=10.0
        )
        t0 = time.perf_counter()
        list(replay)
        assert time.perf_counter() - t0 < 0.4

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            TraceReplay(np.zeros(4), 0.0)
        with pytest.raises(ConfigurationError):
            TraceReplay(np.zeros(4), 100.0, chunk_size=0)
        with pytest.raises(ConfigurationError):
            TraceReplay(np.zeros(4), 100.0, rate="warp")
        with pytest.raises(ConfigurationError):
            TraceReplay(np.zeros(4), 100.0, speedup=0.0)
        with pytest.raises(DataError):
            TraceReplay(np.zeros((2, 2)), 100.0)

    @pytest.mark.parametrize("sr", [float("nan"), float("inf")])
    def test_rejects_non_finite_sample_rate(self, sr):
        with pytest.raises(ConfigurationError, match="sample_rate must be finite"):
            TraceReplay(np.zeros(4), sr)


@pytest.fixture(scope="module")
def scenario():
    return synthetic_printer_stream(n_moves_per_axis=2, seed=123)


class TestSyntheticScenario:
    def test_trace_covers_every_span(self, scenario):
        # The last span starts inside the trace; no span is empty.
        assert scenario.claims.boundaries[-1] < len(scenario.samples)
        assert scenario.claims.n_spans >= 3  # one per encodable segment
        assert scenario.duration > 0

    def test_claims_match_calibration_conditions(self, scenario):
        # Every condition a span claims exists in the calibration set.
        cal_conditions = {tuple(c) for c in scenario.calibration.unique_conditions()}
        for idx in scenario.claims.span_conditions:
            assert tuple(scenario.claims.conditions[idx]) in cal_conditions

    def test_seeded_scenarios_are_reproducible(self):
        a = synthetic_printer_stream(n_moves_per_axis=2, seed=5)
        b = synthetic_printer_stream(n_moves_per_axis=2, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(
            a.claims.span_conditions, b.claims.span_conditions
        )


class TestInjectClaimAttack:
    def test_attack_forges_claims_but_not_audio(self, scenario):
        attacked = inject_claim_attack(scenario, n_spans=2, seed=1)
        assert attacked.samples is scenario.samples
        assert len(attacked.attacked_spans) == 2
        for span in attacked.attacked_spans:
            assert (
                attacked.claims.span_conditions[span]
                != scenario.claims.span_conditions[span]
            )
        # Untouched spans keep their claims.
        untouched = set(range(scenario.claims.n_spans)) - set(
            attacked.attacked_spans
        )
        for span in untouched:
            assert (
                attacked.claims.span_conditions[span]
                == scenario.claims.span_conditions[span]
            )

    def test_attack_is_seeded(self, scenario):
        a = inject_claim_attack(scenario, n_spans=2, seed=9)
        b = inject_claim_attack(scenario, n_spans=2, seed=9)
        assert a.attacked_spans == b.attacked_spans
        np.testing.assert_array_equal(
            a.claims.span_conditions, b.claims.span_conditions
        )

    def test_rejects_zero_spans(self, scenario):
        with pytest.raises(ConfigurationError):
            inject_claim_attack(scenario, n_spans=0)
