"""Tests for repro.security.report."""

import pytest

from repro.security.engine import security_analysis
from repro.security.report import build_security_report


@pytest.fixture(scope="module")
def likelihood(trained_cgan, case_split):
    _train, test = case_split
    return security_analysis(trained_cgan, test, h=0.2, g_size=80, root_entropy=0)


class TestSecurityReport:
    def test_full_report_structure(self, likelihood, case_split):
        _train, test = case_split
        report = build_security_report(test, likelihood, pair_name="(F18 | F1)")
        assert report.pair_name == "(F18 | F1)"
        assert report.condition_entropy > 1.0  # 3 roughly-uniform conditions.
        assert report.mi_profile.shape == (test.feature_dim,)
        assert 0.0 <= report.leakage.accuracy <= 1.0

    def test_text_rendering(self, likelihood, case_split):
        _train, test = case_split
        report = build_security_report(test, likelihood)
        text = report.to_text(condition_names=["X", "Y", "Z"])
        assert "GAN-Sec security report" in text
        assert "VERDICT" in text
        assert "Confidentiality" in text

    def test_verdict_levels(self, likelihood, case_split):
        _train, test = case_split
        report = build_security_report(test, likelihood)
        assert report.verdict() in {
            "SEVERE leakage: emissions reveal the cyber signal",
            "MODERATE leakage: emissions partially reveal the cyber signal",
            "LOW leakage: emissions are close to uninformative",
        }

    def test_leaked_bits_bound(self, likelihood, case_split):
        _train, test = case_split
        report = build_security_report(test, likelihood)
        assert report.leaked_bits_upper_bound <= report.condition_entropy + 0.3
