"""Determinism: identical seeds must reproduce every stage bit-for-bit."""

import numpy as np

from repro.gan import ConditionalGAN
from repro.manufacturing import record_case_study_dataset
from repro.security import EmissionModel, security_analysis


def run_once(seed=2024):
    ds, _ex, _enc, _runs = record_case_study_dataset(
        n_moves_per_axis=6, seed=seed, n_bins=24
    )
    train, test = ds.split(0.3, seed=seed)
    cgan = ConditionalGAN(ds.feature_dim, ds.condition_dim, seed=seed)
    cgan.train(train, iterations=120, batch_size=16)
    res = security_analysis(
        cgan, test, feature_indices=[5], h=0.3, g_size=40, root_entropy=seed
    )
    attacker = EmissionModel(
        cgan, test.unique_conditions(), h=0.3, g_size=40, root_entropy=seed
    )
    report = attacker.leakage(test)
    return ds, cgan, res, report


class TestDeterminism:
    def test_entire_pipeline_reproducible(self):
        ds1, cgan1, res1, rep1 = run_once()
        ds2, cgan2, res2, rep2 = run_once()
        np.testing.assert_allclose(ds1.features, ds2.features)
        np.testing.assert_allclose(
            cgan1.history.d_loss, cgan2.history.d_loss
        )
        np.testing.assert_array_equal(res1.avg_correct, res2.avg_correct)
        np.testing.assert_array_equal(res1.avg_incorrect, res2.avg_incorrect)
        assert rep1.accuracy == rep2.accuracy

    def test_different_seeds_differ(self):
        ds1, *_ = record_case_study_dataset(n_moves_per_axis=4, seed=1, n_bins=16)
        ds2, *_ = record_case_study_dataset(n_moves_per_axis=4, seed=2, n_bins=16)
        differs = ds1.features.shape != ds2.features.shape or not np.allclose(
            ds1.features, ds2.features
        )
        assert differs
