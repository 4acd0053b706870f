"""Tests for the attacker read-out of repro.security.emission."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.gan.cgan import ConditionalGAN
from repro.security.emission import EmissionModel, leakage_vs_training_data

CONDS = np.array([[1.0, 0.0], [0.0, 1.0]])


def oracle(cond, n, rng):
    center = 0.2 if cond[0] == 1.0 else 0.8
    return np.clip(rng.normal(center, 0.05, size=(n, 4)), 0, 1)


def blind(cond, n, rng):
    return rng.random((n, 4))


class TestAttacker:
    def test_oracle_attacker_near_perfect(self, toy_dataset):
        attacker = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        report = attacker.leakage(toy_dataset)
        assert report.accuracy > 0.95
        assert report.leakage_ratio > 1.9

    def test_blind_attacker_near_chance(self, toy_dataset):
        # Each class of the toy set sits in one tight cluster, so a single
        # blind fit scores near 0, 0.5 or 1 by luck; chance shows in the
        # mean over roots.
        accuracies = [
            EmissionModel(blind, CONDS, h=0.1, root_entropy=root)
            .leakage(toy_dataset)
            .accuracy
            for root in range(20)
        ]
        assert 0.3 <= np.mean(accuracies) <= 0.7

    def test_confusion_matrix_totals(self, toy_dataset):
        attacker = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        report = attacker.leakage(toy_dataset)
        assert report.confusion.sum() == len(toy_dataset)

    def test_feature_subset(self, toy_dataset):
        attacker = EmissionModel(
            oracle, CONDS, h=0.1, feature_indices=[0, 1], root_entropy=0
        )
        report = attacker.leakage(toy_dataset)
        assert report.accuracy > 0.9

    def test_infer_shapes(self, toy_dataset):
        attacker = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        preds = attacker.infer(toy_dataset.features[:10])
        assert preds.shape == (10,)
        assert set(preds) <= {0, 1}

    def test_evaluate_autofits(self, toy_dataset):
        attacker = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0)
        report = attacker.leakage(toy_dataset)  # Fitted when built.
        assert report.accuracy > 0.9

    def test_unknown_test_label_raises(self, toy_dataset):
        attacker = EmissionModel(
            oracle, np.array([[1.0, 0.0], [0.5, 0.5]]), h=0.1, root_entropy=0
        )
        with pytest.raises(DataError):
            attacker.leakage(toy_dataset)

    def test_needs_two_conditions(self, toy_dataset):
        # The check guards inference only: one condition still scores claims.
        model = EmissionModel(oracle, np.array([[1.0, 0.0]]), h=0.1, root_entropy=0)
        with pytest.raises(ConfigurationError, match="at least 2"):
            model.infer(toy_dataset.features)
        scores = model.score(toy_dataset.features, [1.0, 0.0])
        assert scores.shape == (len(toy_dataset),)

    def test_rejects_repeated_condition(self, toy_dataset):
        # A repeated row would draw the same stream twice: inference would
        # always pick the first copy while the true label maps to the last.
        with pytest.raises(ConfigurationError, match="repeat"):
            EmissionModel(oracle, np.vstack([CONDS, CONDS[:1]]), h=0.1)

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 1)], ids=["1-D", "3-D"])
    def test_rejects_conditions_that_are_not_2d(self, shape):
        with pytest.raises(ConfigurationError, match="2-D"):
            EmissionModel(oracle, np.ones(shape), h=0.1)

    def test_rejects_bad_h(self):
        with pytest.raises(ConfigurationError):
            EmissionModel(oracle, CONDS, h=0.0)

    def test_report_table(self, toy_dataset):
        report = EmissionModel(oracle, CONDS, h=0.1, root_entropy=0).leakage(
            toy_dataset
        )
        table = report.to_table()
        assert "accuracy" in table
        assert "Cond1" in table


class TestRealPipeline:
    def test_trained_cgan_beats_chance(self, trained_cgan, case_split):
        _train, test = case_split
        attacker = EmissionModel(
            trained_cgan, test.unique_conditions(), h=0.2, root_entropy=0
        )
        report = attacker.leakage(test)
        # Even a briefly trained CGAN leaks well above chance on the
        # simulated printer (paper's core confidentiality finding).
        assert report.accuracy > 1.2 / report.n_conditions


class TestCapabilityStudy:
    def test_fractions_and_monotone_sizes(self, toy_dataset):
        def make():
            return ConditionalGAN(4, 2, noise_dim=4, seed=3)

        results = leakage_vs_training_data(
            make,
            toy_dataset,
            fractions=(0.3, 1.0),
            iterations=150,
            h=0.15,
            seed=0,
        )
        assert len(results) == 2
        (f1, n1, a1), (f2, n2, a2) = results
        assert f1 == 0.3 and f2 == 1.0
        assert n1 < n2
        assert 0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0

    def test_rejects_bad_fraction(self, toy_dataset):
        def make():
            return ConditionalGAN(4, 2, noise_dim=4, seed=3)

        with pytest.raises(ConfigurationError):
            leakage_vs_training_data(
                make, toy_dataset, fractions=(1.5,), iterations=10
            )

    def test_bad_fraction_rejected_before_any_training(self, toy_dataset):
        made = []

        def make():
            made.append(1)
            return ConditionalGAN(4, 2, noise_dim=4, seed=3)

        with pytest.raises(ConfigurationError):
            leakage_vs_training_data(
                make, toy_dataset, fractions=(0.5, 2.0), iterations=10
            )
        assert made == []
