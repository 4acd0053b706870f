"""Tests for repro.security.detection."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.security.detection import EmissionAttackDetector, roc_auc

CONDS = np.array([[1.0, 0.0], [0.0, 1.0]])


def oracle(cond, n, rng):
    center = 0.2 if cond[0] == 1.0 else 0.8
    return np.clip(rng.normal(center, 0.05, size=(n, 4)), 0, 1)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 1.0

    def test_inverted(self):
        assert roc_auc(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 0.0

    def test_identical_half(self):
        auc = roc_auc(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert auc == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(DataError):
            roc_auc(np.array([]), np.array([1.0]))


class TestDetector:
    def test_detects_swapped_conditions(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        detector.calibrate(toy_dataset, false_positive_rate=0.05)
        # Attack: claim the *other* condition for each sample.
        swapped = toy_dataset.conditions[:, ::-1]
        report = detector.evaluate(
            toy_dataset, toy_dataset.features, swapped
        )
        assert report.auc > 0.95
        assert report.true_positive_rate > 0.8
        assert report.false_positive_rate < 0.15

    def test_clean_data_scores_high(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        clean = detector.score(toy_dataset.features, toy_dataset.conditions)
        swapped = detector.score(
            toy_dataset.features, toy_dataset.conditions[:, ::-1]
        )
        assert clean.mean() > swapped.mean()

    def test_calibrate_threshold_quantile(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        thr = detector.calibrate(toy_dataset, false_positive_rate=0.1)
        scores = detector.score(toy_dataset.features, toy_dataset.conditions)
        fpr = (scores < thr).mean()
        assert fpr <= 0.15

    def test_detect_requires_calibration(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        with pytest.raises(NotFittedError):
            detector.detect(toy_dataset.features, toy_dataset.conditions)

    def test_score_requires_fit(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0)
        with pytest.raises(NotFittedError):
            detector.score(toy_dataset.features, toy_dataset.conditions)

    def test_unknown_claim_raises(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        with pytest.raises(DataError):
            detector.score(toy_dataset.features[:1], np.array([[0.5, 0.5]]))

    def test_broadcast_single_claim(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        scores = detector.score(toy_dataset.features[:5], np.array([1.0, 0.0]))
        assert scores.shape == (5,)

    def test_calibrate_rejects_bad_fpr(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        with pytest.raises(ConfigurationError):
            detector.calibrate(toy_dataset, false_positive_rate=1.0)

    def test_evaluate_autocalibrates(self, toy_dataset):
        detector = EmissionAttackDetector(oracle, CONDS, h=0.1, root_entropy=0).fit()
        report = detector.evaluate(
            toy_dataset, toy_dataset.features, toy_dataset.conditions[:, ::-1]
        )
        assert report.threshold is not None
        assert "AUC" in report.summary()
