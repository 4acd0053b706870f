"""Human-readable security reports combining all analyses.

:func:`build_security_report` reads the confidentiality and likelihood
analyses off one Algorithm 3 result, adds the mutual-information
analysis of the test set, and assembles a plain-text report a CPPS
designer can read — the artifact GAN-Sec's methodology ultimately
produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.dataset import FlowPairDataset
from repro.security.emission import LeakageReport, leakage_report
from repro.security.likelihood import LikelihoodResult
from repro.security.mutual_information import (
    condition_entropy_bits,
    feature_leakage_profile,
)
from repro.utils.tables import format_table


@dataclass
class SecurityReport:
    """Structured result bundle for one flow pair."""

    pair_name: str
    likelihood: LikelihoodResult
    leakage: LeakageReport
    mi_profile: np.ndarray
    condition_entropy: float

    @property
    def leaked_bits_upper_bound(self) -> float:
        """The strongest single-feature MI — a lower bound on what the
        full spectrum leaks, an upper bound for a one-feature attacker."""
        return float(self.mi_profile.max())

    def verdict(self) -> str:
        """Coarse qualitative verdict for the designer."""
        ratio = self.leakage.leakage_ratio
        if ratio >= 2.0:
            return "SEVERE leakage: emissions reveal the cyber signal"
        if ratio >= 1.3:
            return "MODERATE leakage: emissions partially reveal the cyber signal"
        return "LOW leakage: emissions are close to uninformative"

    def to_text(self, *, condition_names=None) -> str:
        lines = [
            f"=== GAN-Sec security report: {self.pair_name} ===",
            "",
            "-- Confidentiality (side-channel attack) --",
            self.leakage.to_table(condition_names=condition_names),
            "",
            "-- Algorithm 3 likelihood analysis --",
            self.likelihood.to_table(condition_names=condition_names),
            "",
            "-- Information leakage --",
            format_table(
                [
                    ["condition entropy (bits)", self.condition_entropy],
                    ["max single-feature MI (bits)", self.leaked_bits_upper_bound],
                    ["mean feature MI (bits)", float(self.mi_profile.mean())],
                ],
                ["metric", "value"],
            ),
            "",
            f"VERDICT: {self.verdict()}",
        ]
        return "\n".join(lines)


def build_security_report(
    test_set: FlowPairDataset,
    likelihood: LikelihoodResult,
    *,
    pair_name: str = "F_energy | F_signal",
) -> SecurityReport:
    """The security report of one flow pair from its Algorithm 3 result
    on *test_set* (:func:`~repro.security.engine.run_security_analysis`).

    Nothing is drawn or scored here: the Cor/Inc table is *likelihood*'s,
    and the side-channel attacker takes, for every test row, the
    condition of highest joint log density in
    :meth:`~repro.security.likelihood.LikelihoodResult.joint_log_likelihoods`
    — what an :class:`~repro.security.emission.EmissionModel` fitted to
    the same draws would compute.
    """
    return SecurityReport(
        pair_name=pair_name,
        likelihood=likelihood,
        leakage=leakage_report(
            likelihood.conditions, likelihood.joint_log_likelihoods(), test_set
        ),
        mi_profile=feature_leakage_profile(test_set),
        condition_entropy=condition_entropy_bits(test_set.conditions),
    )
