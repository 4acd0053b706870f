"""Tests for Algorithm 3 (repro.security.engine entry points) and
repro.security.likelihood."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.security.engine import security_analysis, security_analysis_h_sweep
from repro.security.likelihood import choose_analysis_feature


def perfect_sampler(cond, n, rng):
    """An oracle generator: condition [1,0] -> features near 0.2,
    condition [0,1] -> features near 0.8 (matches toy_dataset)."""
    center = 0.2 if cond[0] == 1.0 else 0.8
    return np.clip(rng.normal(center, 0.05, size=(n, 4)), 0, 1)


def useless_sampler(cond, n, rng):
    """Condition-blind generator: uniform noise regardless of cond."""
    return rng.random((n, 4))


class TestAlgorithm3:
    def test_oracle_generator_high_margin(self, toy_dataset):
        res = security_analysis(
            perfect_sampler, toy_dataset, h=0.1, g_size=150, root_entropy=0
        )
        assert res.avg_correct.shape == (2, 4)
        # With a perfect conditional model, Cor >> Inc for both conditions.
        margins = res.margin()
        assert np.all(margins.mean(axis=1) > 0.1)

    def test_condition_blind_generator_no_margin(self, toy_dataset):
        res = security_analysis(
            useless_sampler, toy_dataset, h=0.1, g_size=150, root_entropy=0
        )
        margins = res.margin().mean(axis=1)
        assert np.all(np.abs(margins) < 0.05)

    def test_feature_indices_subset(self, toy_dataset):
        res = security_analysis(
            perfect_sampler, toy_dataset, feature_indices=[0, 2], h=0.2, root_entropy=0
        )
        assert res.avg_correct.shape == (2, 2)
        np.testing.assert_array_equal(res.feature_indices, [0, 2])

    def test_explicit_conditions(self, toy_dataset):
        conds = np.array([[1.0, 0.0]])
        res = security_analysis(
            perfect_sampler, toy_dataset, conditions=conds, h=0.2, root_entropy=0
        )
        assert res.avg_correct.shape[0] == 1

    def test_missing_test_condition_raises(self, toy_dataset):
        conds = np.array([[0.5, 0.5]])
        with pytest.raises(DataError):
            security_analysis(
                perfect_sampler, toy_dataset, conditions=conds, h=0.2
            )

    def test_rejects_bad_h_and_gsize(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            security_analysis(perfect_sampler, toy_dataset, h=0.0)
        with pytest.raises(ConfigurationError):
            security_analysis(perfect_sampler, toy_dataset, g_size=0)

    def test_rejects_bad_feature_indices(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            security_analysis(
                perfect_sampler, toy_dataset, feature_indices=[99]
            )

    def test_rejects_non_sampler(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            security_analysis("not a sampler", toy_dataset)

    def test_trained_cgan_accepted(self, trained_cgan, case_split):
        _train, test = case_split
        res = security_analysis(
            trained_cgan, test, feature_indices=[10], h=0.3, g_size=50, root_entropy=0
        )
        assert np.all(np.isfinite(res.avg_correct))


class TestResultObject:
    def test_summary_and_table(self, toy_dataset):
        res = security_analysis(
            perfect_sampler, toy_dataset, h=0.2, g_size=100, root_entropy=0
        )
        summaries = res.per_condition_summary()
        assert len(summaries) == 2
        table = res.to_table(condition_names=["low", "high"])
        assert "low" in table and "high" in table
        assert "h=0.2" in table


class TestHSweep:
    def test_sweep_keys(self, toy_dataset):
        sweep = security_analysis_h_sweep(
            perfect_sampler,
            toy_dataset,
            h_values=(0.2, 0.5),
            g_size=80,
            root_entropy=0,
        )
        assert set(sweep) == {0.2, 0.5}

    def test_incorrect_likelihood_rises_with_h(self, toy_dataset):
        # The paper's Table I trend: larger windows over-smooth, so the
        # incorrect-condition likelihood creeps up toward the correct one.
        sweep = security_analysis_h_sweep(
            perfect_sampler,
            toy_dataset,
            h_values=(0.1, 1.0),
            g_size=120,
            root_entropy=0,
        )
        inc_small = sweep[0.1].avg_incorrect.mean()
        inc_large = sweep[1.0].avg_incorrect.mean()
        cor_large = sweep[1.0].avg_correct.mean()
        assert inc_large > inc_small
        assert cor_large - inc_large < sweep[0.1].avg_correct.mean() - inc_small


class TestFeatureChoice:
    def test_picks_discriminative_feature(self):
        # Feature 0 discriminates the conditions; features 1-2 are noise.
        rng = np.random.default_rng(0)
        n = 60
        conds = np.vstack(
            [np.tile([1.0, 0.0], (n, 1)), np.tile([0.0, 1.0], (n, 1))]
        )
        f0 = np.concatenate([rng.normal(0.2, 0.03, n), rng.normal(0.8, 0.03, n)])
        noise = rng.random((2 * n, 2))
        ds = FlowPairDataset(np.column_stack([f0, noise]), conds)

        def sampler(cond, k, rg):
            center = 0.2 if cond[0] == 1.0 else 0.8
            return np.column_stack(
                [rg.normal(center, 0.03, k), rg.random((k, 2))]
            )

        choice = choose_analysis_feature(
            sampler, ds, candidates=[0, 1, 2], h=0.1, root_entropy=0
        )
        assert choice == 0

    def test_rejects_empty_candidates(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            choose_analysis_feature(
                perfect_sampler, toy_dataset, candidates=[], h=0.2
            )


class TestRepeatedAnalysis:
    def test_mean_and_std_shapes(self, toy_dataset):
        from repro.security.likelihood import repeated_likelihood_analysis

        res = repeated_likelihood_analysis(
            perfect_sampler,
            toy_dataset,
            n_repeats=3,
            h=0.1,
            g_size=80,
            root_entropy=0,
        )
        assert res.mean_correct.shape == (2, 4)
        assert res.std_correct.shape == (2, 4)
        assert res.n_repeats == 3

    def test_uncertainty_is_finite_and_small_for_oracle(self, toy_dataset):
        from repro.security.likelihood import repeated_likelihood_analysis

        res = repeated_likelihood_analysis(
            perfect_sampler,
            toy_dataset,
            n_repeats=4,
            h=0.1,
            g_size=150,
            root_entropy=0,
        )
        # Monte-Carlo error well below the oracle's Cor/Inc margin.
        assert res.std_correct.mean() < res.margin().mean()

    def test_deterministic_given_seed(self, toy_dataset):
        from repro.security.likelihood import repeated_likelihood_analysis

        a = repeated_likelihood_analysis(
            perfect_sampler, toy_dataset, n_repeats=2, h=0.1, g_size=50, root_entropy=5
        )
        b = repeated_likelihood_analysis(
            perfect_sampler, toy_dataset, n_repeats=2, h=0.1, g_size=50, root_entropy=5
        )
        np.testing.assert_allclose(a.mean_correct, b.mean_correct)

    def test_table_rendering(self, toy_dataset):
        from repro.security.likelihood import repeated_likelihood_analysis

        res = repeated_likelihood_analysis(
            perfect_sampler, toy_dataset, n_repeats=2, h=0.1, g_size=50, root_entropy=1
        )
        table = res.to_table()
        assert "±" in table
        assert "2 repeats" in table

    def test_rejects_single_repeat(self, toy_dataset):
        from repro.errors import ConfigurationError
        from repro.security.likelihood import repeated_likelihood_analysis

        with pytest.raises(ConfigurationError):
            repeated_likelihood_analysis(
                perfect_sampler, toy_dataset, n_repeats=1, h=0.1
            )
