"""Tests for repro.security.sequence (Viterbi sequence attacker)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.flows.signal import SignalFlowData
from repro.security.confidentiality import SideChannelAttacker
from repro.security.sequence import (
    CusumDetector,
    EwmaDetector,
    SequenceAttacker,
    TransitionModel,
    viterbi_decode,
)


class TestTransitionModel:
    def test_counts_normalize(self):
        model = TransitionModel(2, smoothing=0.0)
        model.update([0, 0, 1, 0, 1, 1])
        tm = model.transition_matrix
        np.testing.assert_allclose(tm.sum(axis=1), 1.0)
        # Observed transitions: 0->0, 0->1 twice, 1->0, 1->1.
        assert tm[0, 1] == pytest.approx(2 / 3)

    def test_smoothing_keeps_unseen_possible(self):
        model = TransitionModel(3, smoothing=1.0)
        model.update([0, 0, 0])
        assert np.all(model.transition_matrix > 0)

    def test_from_sequences(self):
        model = TransitionModel.from_sequences([[0, 1], [1, 0]], 2)
        assert model.transition_matrix.shape == (2, 2)

    def test_from_signal_flow(self):
        data = SignalFlowData(["x", "y", "x", "y"])
        model = TransitionModel.from_signal_flow(
            data, {"x": 0, "y": 1}, smoothing=0.0
        )
        assert model.transition_matrix[0, 1] == pytest.approx(1.0)

    def test_from_signal_flow_unknown_symbol(self):
        data = SignalFlowData(["x", "q"])
        with pytest.raises(DataError):
            TransitionModel.from_signal_flow(data, {"x": 0, "y": 1})

    def test_rejects_bad_state(self):
        with pytest.raises(DataError):
            TransitionModel(2).update([0, 5])

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            TransitionModel(1)
        with pytest.raises(ConfigurationError):
            TransitionModel(2, smoothing=-1.0)


class TestViterbi:
    def test_follows_strong_emissions(self):
        model = TransitionModel(2, smoothing=1.0)
        ll = np.log(
            np.array([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]])
        )
        path = viterbi_decode(ll, model)
        np.testing.assert_array_equal(path, [0, 1, 0])

    def test_transition_prior_overrides_weak_emissions(self):
        # Sticky chain: staying is 99x likelier than switching.
        model = TransitionModel(2, smoothing=0.0)
        for _ in range(99):
            model.update([0, 0])
            model.update([1, 1])
        model.update([0, 1])
        model.update([1, 0])
        # Emissions mildly prefer state 1 at t=1 only.
        ll = np.log(np.array([[0.9, 0.1], [0.45, 0.55], [0.9, 0.1]]))
        path = viterbi_decode(ll, model)
        np.testing.assert_array_equal(path, [0, 0, 0])

    def test_single_step(self):
        model = TransitionModel(3)
        ll = np.log(np.array([[0.2, 0.5, 0.3]]))
        assert viterbi_decode(ll, model)[0] == 1

    def test_shape_errors(self):
        model = TransitionModel(2)
        with pytest.raises(ShapeError):
            viterbi_decode(np.zeros(3), model)
        with pytest.raises(ShapeError):
            viterbi_decode(np.zeros((3, 4)), model)
        with pytest.raises(DataError):
            viterbi_decode(np.zeros((0, 2)), model)


class TestSequenceAttacker:
    CONDS = np.array([[1.0, 0.0], [0.0, 1.0]])

    @staticmethod
    def oracle(cond, n, rng):
        center = 0.2 if cond[0] == 1.0 else 0.8
        return np.clip(rng.normal(center, 0.08, size=(n, 4)), 0, 1)

    def _noisy_sequence(self, seed=0, n=40, flip=0.0):
        """A sticky true sequence and matching (noisy) observations."""
        rng = np.random.default_rng(seed)
        states = [0]
        for _ in range(n - 1):
            if rng.random() < 0.1:
                states.append(1 - states[-1])
            else:
                states.append(states[-1])
        centers = np.where(np.array(states) == 0, 0.2, 0.8)
        feats = np.clip(
            rng.normal(centers[:, None], 0.25, size=(n, 4)), 0, 1
        )
        return np.array(states), feats

    def test_smoothing_beats_independent(self):
        true, feats = self._noisy_sequence(seed=3)
        base = SideChannelAttacker(
            self.oracle, self.CONDS, h=0.15, root_entropy=0
        ).fit()
        independent_acc = float((base.infer(feats) == true).mean())

        transition = TransitionModel(2, smoothing=1.0)
        for seed in range(5):
            seq, _ = self._noisy_sequence(seed=100 + seed)
            transition.update(seq)
        seq_attacker = SequenceAttacker(base, transition)
        smoothed_acc = seq_attacker.sequence_accuracy(feats, true)
        assert smoothed_acc >= independent_acc

    def test_state_count_mismatch(self):
        base = SideChannelAttacker(self.oracle, self.CONDS, h=0.15, root_entropy=0)
        with pytest.raises(ConfigurationError):
            SequenceAttacker(base, TransitionModel(3))

    def test_autofits_base(self):
        base = SideChannelAttacker(self.oracle, self.CONDS, h=0.15, root_entropy=0)
        attacker = SequenceAttacker(base, TransitionModel(2))
        _true, feats = self._noisy_sequence(seed=1, n=5)
        path = attacker.infer_sequence(feats)
        assert path.shape == (5,)


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
        resetting = CusumDetector(drift=0.0, threshold=2.0, reset_on_alarm=True)
        saturated = CusumDetector(drift=0.0, threshold=2.0, reset_on_alarm=False)
        bad = [-1.0] * 9  # z=1 per window
        resetting.update_many(bad)
        saturated.update_many(bad)
        # Resetting: alarms at 2, 5, 8 (recount after each); saturated:
        # stays above threshold from window 2 on.
        assert resetting.alarms == [2, 5, 8]
        assert saturated.alarms == [2, 3, 4, 5, 6, 7, 8]

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
