"""Misuse-resistance of the public security entry points.

Every public function/class in likelihood.py, emission.py, roc.py and
engine.py must fail loudly and specifically —
NotFittedError for untrained models, ShapeError/DataError for
misaligned inputs — rather than producing silently wrong tables.
"""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    ShapeError,
)
from repro.gan import ConditionalGAN
from repro.security import (
    AnalysisTarget,
    EmissionModel,
    choose_analysis_feature,
    repeated_likelihood_analysis,
    roc_auc,
    roc_curve,
    run_security_analysis,
    security_analysis,
    security_analysis_h_sweep,
)

CONDS = np.array([[1.0, 0.0], [0.0, 1.0]])


def dummy_sampler(condition, n, rng):
    return rng.normal(size=(n, 4))


@pytest.fixture()
def untrained_cgan():
    return ConditionalGAN(4, 2, seed=0)


class TestLikelihoodEntryPoints:
    def test_untrained_cgan_raises(self, untrained_cgan, toy_dataset):
        with pytest.raises(NotFittedError):
            repeated_likelihood_analysis(untrained_cgan, toy_dataset, n_repeats=2)

    def test_h_sweep_untrained_cgan_raises(self, untrained_cgan, toy_dataset):
        with pytest.raises(NotFittedError):
            security_analysis_h_sweep(untrained_cgan, toy_dataset)

    def test_choose_feature_untrained_cgan_raises(
        self, untrained_cgan, toy_dataset
    ):
        with pytest.raises(NotFittedError):
            choose_analysis_feature(untrained_cgan, toy_dataset)

    def test_engine_untrained_cgan_raises(self, untrained_cgan, toy_dataset):
        with pytest.raises(NotFittedError):
            security_analysis(untrained_cgan, toy_dataset)

    def test_condition_shape_mismatch_raises(self, toy_dataset):
        target = AnalysisTarget(
            "pair", dummy_sampler, toy_dataset, conditions=[[1.0, 0.0, 0.0]]
        )
        with pytest.raises(ShapeError):
            run_security_analysis([target])

    def test_engine_condition_shape_mismatch_raises(self, toy_dataset):
        with pytest.raises(ShapeError):
            security_analysis(
                dummy_sampler, toy_dataset, conditions=[[1.0, 0.0, 0.0]]
            )


class TestDetectionEntryPoints:
    def test_untrained_cgan_in_constructor_raises(self, untrained_cgan):
        with pytest.raises(NotFittedError):
            EmissionModel(untrained_cgan, CONDS)

    def test_misaligned_claims_raise(self):
        detector = EmissionModel(
            dummy_sampler, CONDS, g_size=20, root_entropy=0
        )
        with pytest.raises(DataError):
            detector.score(np.zeros((3, 4)), CONDS)  # 3 samples, 2 claims

    def test_unknown_claimed_condition_raises(self):
        detector = EmissionModel(
            dummy_sampler, CONDS, g_size=20, root_entropy=0
        )
        with pytest.raises(DataError):
            detector.score(np.zeros((1, 4)), [[0.5, 0.5]])

    def test_roc_auc_empty_raises(self):
        with pytest.raises(DataError):
            roc_auc([], [1.0])
        with pytest.raises(DataError):
            roc_auc([1.0], [])


class TestRocEntryPoints:
    def test_empty_scores_raise(self):
        with pytest.raises(DataError):
            roc_curve([], [0.0])
        with pytest.raises(DataError):
            roc_curve([0.0], [])

    def test_threshold_for_fpr_out_of_range(self):
        curve = roc_curve([1.0, 2.0, 3.0], [0.0, 0.5])
        with pytest.raises(ConfigurationError):
            curve.threshold_for_fpr(1.5)

    def test_negative_fpr_budget_rejected(self):
        curve = roc_curve([1.0, 1.0], [0.0])
        with pytest.raises(ConfigurationError):
            curve.threshold_for_fpr(-0.1)


class TestConfidentialityEntryPoints:
    def test_untrained_cgan_in_constructor_raises(self, untrained_cgan):
        with pytest.raises(NotFittedError):
            EmissionModel(untrained_cgan, CONDS)

    def test_single_condition_rejected(self):
        attacker = EmissionModel(dummy_sampler, [[1.0, 0.0]], g_size=20)
        with pytest.raises(ConfigurationError):
            attacker.infer(np.zeros((2, 4)))

    def test_feature_width_mismatch_raises(self):
        attacker = EmissionModel(
            dummy_sampler, CONDS, g_size=20, root_entropy=0
        )
        with pytest.raises(DataError):
            attacker.log_likelihoods(np.zeros((2, 7)))

    def test_evaluate_with_foreign_condition_raises(self, toy_dataset):
        attacker = EmissionModel(
            dummy_sampler,
            [[1.0, 0.0], [0.5, 0.5]],  # does not cover toy's [0,1]
            g_size=20,
            root_entropy=0,
        )
        with pytest.raises(DataError):
            attacker.leakage(toy_dataset)
