"""Tests for repro.security.sequence (CUSUM/EWMA decision layer)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.security.sequence import CusumDetector, EwmaDetector


class TestCusumDetector:
    def test_sustained_deficit_alarms_single_dip_does_not(self):
        det = CusumDetector(reference=0.0, scale=1.0, drift=0.5, threshold=3.0)
        # One bad window: z=2, S=1.5 — below threshold, no alarm.
        assert det.update(-2.0) is False
        # Sustained deficit: z=1.5 per window accumulates 1.0/step.
        det = CusumDetector(reference=0.0, scale=1.0, drift=0.5, threshold=3.0)
        flags = det.update_many([-1.5] * 5)
        assert flags.tolist() == [False, False, False, True, False]
        assert det.alarms == [3]

    def test_drift_absorbs_calibration_noise(self):
        det = CusumDetector(reference=0.0, scale=1.0, drift=0.5, threshold=3.0)
        # Deviations at exactly the allowance never accumulate.
        det.update_many([-0.5] * 100)
        assert det.statistic == 0.0
        assert det.alarms == []

    def test_normal_scores_clamp_at_zero(self):
        det = CusumDetector(reference=0.0, scale=1.0, drift=0.5, threshold=3.0)
        det.update_many([5.0] * 10)  # very normal: z is negative
        assert det.statistic == 0.0

    def test_reset_on_alarm_yields_episodes(self):
        det = CusumDetector(drift=0.0, threshold=2.0)
        det.update_many([-1.0] * 9)  # z=1 per window
        # The statistic restarts after each alarm, so a sustained deficit
        # alarms once per episode (2, 5, 8), not on every window from 2 on.
        assert det.alarms == [2, 5, 8]
        assert det.statistic == 0.0

    def test_from_calibration_normalizes(self):
        rng = np.random.default_rng(0)
        clean = rng.normal(10.0, 2.0, size=500)
        det = CusumDetector.from_calibration(clean, drift=0.5, threshold=5.0)
        assert det.reference == pytest.approx(clean.mean())
        assert det.scale == pytest.approx(clean.std())
        # Clean-like scores should not alarm.
        det.update_many(rng.normal(10.0, 2.0, size=200))
        assert det.alarms == []
        # A sustained 3-sigma drop must.
        det.update_many(np.full(20, 10.0 - 6.0))
        assert det.alarms

    def test_constant_calibration_scores_get_floor_scale(self):
        det = CusumDetector.from_calibration([3.0, 3.0, 3.0])
        assert det.scale > 0

    def test_batching_never_changes_alarms(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(0.0, 2.0, size=200)
        one = CusumDetector(drift=0.2, threshold=2.0)
        for s in scores:
            one.update(float(s))
        many = CusumDetector(drift=0.2, threshold=2.0)
        many.update_many(scores)
        assert one.alarms == many.alarms
        assert one.statistic == many.statistic

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            CusumDetector(scale=0.0)
        with pytest.raises(ConfigurationError):
            CusumDetector(threshold=0.0)
        with pytest.raises(ConfigurationError):
            CusumDetector(drift=-0.1)
        with pytest.raises(DataError):
            CusumDetector.from_calibration([1.0])

    @pytest.mark.parametrize("cls", [CusumDetector, EwmaDetector])
    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_non_finite_calibration_score_rejected(self, cls, bad):
        # A -inf clean score would make the reference -inf, after which
        # not even fifty scores of -1e6 raise an alarm.
        with pytest.raises(DataError, match="1 non-finite"):
            cls.from_calibration([-1.0, -1.2, -0.9, bad])


class TestEwmaDetector:
    def test_sustained_shift_alarms(self):
        det = EwmaDetector(reference=0.0, scale=1.0, alpha=0.3, threshold=2.0)
        flags = det.update_many([-3.0] * 20)
        assert flags.any()
        # EWMA of z=3 converges to 3 > 2, so the alarm is inevitable.
        assert det.alarms[0] < 10

    def test_single_outlier_is_smoothed_away(self):
        det = EwmaDetector(reference=0.0, scale=1.0, alpha=0.2, threshold=2.0)
        assert det.update(-5.0) is False  # E = 0.2 * 5 = 1.0 < 2
        det.update_many([0.0] * 20)
        assert det.alarms == []

    def test_alpha_one_is_memoryless(self):
        det = EwmaDetector(alpha=1.0, threshold=2.0)
        assert det.update(-3.0) is True
        assert det.update(0.0) is False

    def test_from_calibration_and_batching_equivalence(self):
        rng = np.random.default_rng(5)
        clean = rng.normal(2.0, 0.5, size=300)
        test = rng.normal(1.0, 0.5, size=100)
        one = EwmaDetector.from_calibration(clean, alpha=0.3, threshold=1.5)
        many = EwmaDetector.from_calibration(clean, alpha=0.3, threshold=1.5)
        for s in test:
            one.update(float(s))
        many.update_many(test)
        assert one.alarms == many.alarms
        assert one.statistic == many.statistic

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            EwmaDetector(alpha=0.0)
        with pytest.raises(ConfigurationError):
            EwmaDetector(alpha=1.5)
