"""Tests for the detector read-out of repro.security.emission and for
roc_auc."""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.security.emission import EmissionModel
from repro.security.roc import roc_auc

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
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        thr = detector.calibrate(toy_dataset, false_positive_rate=0.05)
        # Attack: claim the *other* condition for each sample.
        swapped = toy_dataset.conditions[:, ::-1]
        report = detector.detection(
            toy_dataset, toy_dataset.features, swapped, threshold=thr
        )
        assert report.auc > 0.95
        assert report.true_positive_rate > 0.8
        assert report.false_positive_rate < 0.15

    def test_clean_data_scores_high(self, toy_dataset):
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        clean = detector.score(toy_dataset.features, toy_dataset.conditions)
        swapped = detector.score(
            toy_dataset.features, toy_dataset.conditions[:, ::-1]
        )
        assert clean.mean() > swapped.mean()

    def test_calibrate_threshold_quantile(self, toy_dataset):
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        thr = detector.calibrate(toy_dataset, false_positive_rate=0.1)
        scores = detector.score(toy_dataset.features, toy_dataset.conditions)
        fpr = (scores < thr).mean()
        assert fpr <= 0.15

    def test_unknown_claim_raises(self, toy_dataset):
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        with pytest.raises(DataError):
            detector.score(toy_dataset.features[:1], np.array([[0.5, 0.5]]))

    def test_broadcast_single_claim(self, toy_dataset):
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        scores = detector.score(toy_dataset.features[:5], np.array([1.0, 0.0]))
        assert scores.shape == (5,)

    def test_calibrate_rejects_non_finite_scores(self):
        # A clean row whose squared kernel distance overflows scores
        # -inf; its quantile would be nan, and a nan threshold flags
        # nothing.
        features = np.vstack([np.full((5, 4), 0.2), np.full((1, 4), 1e200)])
        clean = FlowPairDataset(features, np.tile([1.0, 0.0], (6, 1)))
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        assert np.isneginf(detector.score(features[5:], [1.0, 0.0])).all()
        with pytest.raises(DataError, match="1 non-finite"):
            detector.calibrate(clean, false_positive_rate=0.05)

    def test_calibrate_rejects_bad_fpr(self, toy_dataset):
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        with pytest.raises(ConfigurationError):
            detector.calibrate(toy_dataset, false_positive_rate=1.0)

    def test_evaluate_autocalibrates(self, toy_dataset):
        # The threshold is an argument: calibrating on the clean set and
        # passing it in is what the report records and applies.
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        thr = detector.calibrate(toy_dataset)
        report = detector.detection(
            toy_dataset,
            toy_dataset.features,
            toy_dataset.conditions[:, ::-1],
            threshold=thr,
        )
        assert report.threshold == thr
        assert report.false_positive_rate == (report.clean_scores < thr).mean()
        assert "AUC" in report.summary()

    def test_empty_attack_set_raises_before_any_warning(self, toy_dataset):
        detector = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="attack scores"):
                detector.detection(
                    toy_dataset, np.empty((0, 4)), np.empty((0, 2)), threshold=0.0
                )
