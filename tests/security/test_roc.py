"""Tests for repro.security.roc."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, DataError
from repro.security.roc import roc_auc, roc_curve


def separable():
    clean = np.array([5.0, 6.0, 7.0, 8.0])
    attack = np.array([1.0, 2.0, 3.0])
    return clean, attack


class TestRocCurve:
    def test_perfect_separation_auc_one(self):
        curve = roc_curve(*separable())
        assert curve.auc == pytest.approx(1.0)

    def test_spans_corners(self):
        curve = roc_curve(*separable())
        assert curve.fpr.min() == 0.0 and curve.fpr.max() == 1.0
        assert curve.tpr.min() == 0.0 and curve.tpr.max() == 1.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        curve = roc_curve(rng.normal(1, 1, 100), rng.normal(-1, 1, 100))
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_auc_matches_mann_whitney(self):
        rng = np.random.default_rng(1)
        clean = rng.normal(0.5, 1.0, 200)
        attack = rng.normal(-0.5, 1.0, 150)
        curve = roc_curve(clean, attack)
        assert curve.auc == pytest.approx(roc_auc(clean, attack), abs=0.01)

    def test_random_scores_auc_half(self):
        rng = np.random.default_rng(2)
        curve = roc_curve(rng.normal(size=500), rng.normal(size=500))
        assert abs(curve.auc - 0.5) < 0.05

    def test_empty_raises(self):
        with pytest.raises(DataError):
            roc_curve([], [1.0])


class TestRocAucTies:
    def test_heavy_ties_match_brute_force(self):
        # Four distinct values shared by 300 scores: nearly every pair ties.
        rng = np.random.default_rng(3)
        clean = rng.integers(0, 4, size=170).astype(float)
        attack = rng.integers(0, 3, size=130).astype(float)
        diff = clean[:, None] - attack[None, :]
        brute = np.mean(diff > 0) + 0.5 * np.mean(diff == 0)
        assert roc_auc(clean, attack) == pytest.approx(brute, rel=1e-12)

    def test_all_tied_is_half(self):
        assert roc_auc(np.full(5, 2.0), np.full(7, 2.0)) == 0.5

    # Few distinct values (heavy ties) plus the Parzen floor -inf and +inf.
    _tied_scores = st.lists(
        st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf]), min_size=1, max_size=40
    )

    @given(clean=_tied_scores, attack=_tied_scores)
    @settings(max_examples=200, deadline=None)
    def test_ties_and_infinities_match_mann_whitney_count(self, clean, attack):
        c = np.array(clean)[:, None]
        a = np.array(attack)[None, :]
        wins = np.sum(c > a) + 0.5 * np.sum(c == a)
        assert roc_auc(clean, attack) == wins / (c.size * a.size)

    @pytest.mark.parametrize("side", ["clean", "attack"])
    def test_nan_raises(self, side):
        scores = {"clean": np.array([1.0, 2.0]), "attack": np.array([0.0, -np.inf])}
        scores[side][1] = np.nan
        with pytest.raises(DataError, match="NaN"):
            roc_auc(scores["clean"], scores["attack"])


class TestOperatingPoints:
    def test_threshold_for_fpr(self):
        clean, attack = separable()
        curve = roc_curve(clean, attack)
        thr = curve.threshold_for_fpr(0.0)
        fpr, tpr = curve.operating_point(thr)
        assert fpr == 0.0
        assert tpr == 1.0  # Perfectly separable data.

    def test_budget_validation(self):
        curve = roc_curve(*separable())
        with pytest.raises(ConfigurationError):
            curve.threshold_for_fpr(1.5)

    def test_table_and_ascii(self):
        rng = np.random.default_rng(3)
        curve = roc_curve(rng.normal(1, 1, 100), rng.normal(-1, 1, 100))
        table = curve.to_table()
        assert "FPR budget" in table
        assert "AUC" in table
        plot = curve.to_ascii(width=40, height=8)
        assert "ROC" in plot
