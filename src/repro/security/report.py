"""Human-readable security reports combining all analyses.

:func:`build_security_report` runs the confidentiality, likelihood, and
mutual-information analyses against one trained CGAN and assembles a
plain-text report a CPPS designer can read — the artifact GAN-Sec's
methodology ultimately produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.dataset import FlowPairDataset
from repro.runtime.analysis import (
    DEFAULT_PAIR,
    ConditionSampleCache,
    resolve_root_entropy,
)
from repro.security.emission import EmissionModel, LeakageReport
from repro.security.engine import security_analysis
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
    cgan,
    test_set: FlowPairDataset,
    *,
    pair_name: str = "F_energy | F_signal",
    h: float = 0.2,
    g_size: int = 200,
    feature_indices=None,
    root_entropy: int | None = None,
    pair: str = DEFAULT_PAIR,
    cache: ConditionSampleCache | None = None,
    likelihood: LikelihoodResult | None = None,
) -> SecurityReport:
    """Run the full analysis suite for one trained CGAN + test set.

    Algorithm 3 and the attacker's
    :class:`~repro.security.emission.EmissionModel` fit the same draws:
    one per condition from the ``(root_entropy, pair, condition)``
    stream, served from *cache* when one is given.
    *likelihood* injects a precomputed Algorithm 3 result — the parallel
    engine (:mod:`repro.security.engine`) computes the likelihood tables
    for a whole batch of pairs in one fan-out and hands each pair's
    table in here, so the report builder does not redo the scoring.
    """
    root_entropy = resolve_root_entropy(root_entropy)
    fit_args = dict(
        h=h,
        g_size=g_size,
        feature_indices=feature_indices,
        root_entropy=root_entropy,
        pair=pair,
        cache=cache,
    )
    conditions = test_set.unique_conditions()
    if likelihood is None:
        likelihood = security_analysis(
            cgan, test_set, conditions=conditions, **fit_args
        )
    leakage = EmissionModel(cgan, conditions, **fit_args).leakage(test_set)
    return SecurityReport(
        pair_name=pair_name,
        likelihood=likelihood,
        leakage=leakage,
        mi_profile=feature_leakage_profile(test_set),
        condition_entropy=condition_entropy_bits(test_set.conditions),
    )
