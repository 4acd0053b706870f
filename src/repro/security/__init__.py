"""Security analyses: Parzen likelihood (Algorithm 3), the CGAN's
emission model with its side-channel attacker and integrity/availability
detector read-outs, and mutual-information leakage metrics.
"""

from repro.security.parzen import ConditionalParzen
from repro.security.engine import (
    AnalysisTarget,
    run_security_analysis,
    security_analysis,
    security_analysis_h_sweep,
)
from repro.security.likelihood import (
    choose_analysis_feature,
    LikelihoodResult,
    RepeatedLikelihoodResult,
    repeated_likelihood_analysis,
)
from repro.security.emission import (
    DetectionReport,
    EmissionModel,
    LeakageReport,
    leakage_vs_training_data,
)
from repro.security.attacks import (
    axis_swap_attack,
    feed_rate_attack,
    motor_stall_attack,
)
from repro.security.mutual_information import (
    condition_entropy_bits,
    feature_leakage_profile,
    histogram_mutual_information,
)
from repro.security.baselines import (
    EmpiricalConditionalSampler,
    GaussianConditionalSampler,
    NearestCentroidAttacker,
)
from repro.security.roc import RocCurve, roc_auc, roc_curve
from repro.security.report import SecurityReport, build_security_report

__all__ = [
    "AnalysisTarget",
    "repeated_likelihood_analysis",
    "EmpiricalConditionalSampler",
    "GaussianConditionalSampler",
    "NearestCentroidAttacker",
    "DetectionReport",
    "EmissionModel",
    "LeakageReport",
    "LikelihoodResult",
    "RepeatedLikelihoodResult",
    "ConditionalParzen",
    "RocCurve",
    "SecurityReport",
    "axis_swap_attack",
    "build_security_report",
    "choose_analysis_feature",
    "condition_entropy_bits",
    "feature_leakage_profile",
    "feed_rate_attack",
    "histogram_mutual_information",
    "leakage_vs_training_data",
    "motor_stall_attack",
    "roc_auc",
    "roc_curve",
    "run_security_analysis",
    "security_analysis",
    "security_analysis_h_sweep",
]
