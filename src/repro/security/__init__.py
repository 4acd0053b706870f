"""Security analyses: Parzen likelihood (Algorithm 3), side-channel
confidentiality attacks, integrity/availability attack detection, and
mutual-information leakage metrics.
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
from repro.security.confidentiality import (
    LeakageReport,
    SideChannelAttacker,
    leakage_vs_training_data,
)
from repro.security.detection import (
    DetectionReport,
    EmissionAttackDetector,
    roc_auc,
)
from repro.security.attacks import (
    axis_swap_attack,
    feed_rate_attack,
    motor_stall_attack,
)
from repro.security.mutual_information import (
    condition_entropy_bits,
    feature_leakage_profile,
    generator_leakage_profile,
    histogram_mutual_information,
)
from repro.security.baselines import (
    EmpiricalConditionalSampler,
    GaussianConditionalSampler,
    NearestCentroidAttacker,
)
from repro.security.defenses import (
    AcousticMasking,
    CombinedDefense,
    Defense,
    DefenseReport,
    FeedRateDithering,
    evaluate_defense,
    record_defended_dataset,
)
from repro.security.sequence import (
    SequenceAttacker,
    TransitionModel,
    viterbi_decode,
)
from repro.security.roc import RocCurve, roc_curve
from repro.security.report import SecurityReport, build_security_report

__all__ = [
    "AcousticMasking",
    "AnalysisTarget",
    "CombinedDefense",
    "Defense",
    "DefenseReport",
    "FeedRateDithering",
    "evaluate_defense",
    "record_defended_dataset",
    "repeated_likelihood_analysis",
    "EmpiricalConditionalSampler",
    "GaussianConditionalSampler",
    "NearestCentroidAttacker",
    "DetectionReport",
    "EmissionAttackDetector",
    "LeakageReport",
    "LikelihoodResult",
    "RepeatedLikelihoodResult",
    "ConditionalParzen",
    "RocCurve",
    "SecurityReport",
    "SequenceAttacker",
    "TransitionModel",
    "SideChannelAttacker",
    "axis_swap_attack",
    "build_security_report",
    "choose_analysis_feature",
    "condition_entropy_bits",
    "feature_leakage_profile",
    "feed_rate_attack",
    "generator_leakage_profile",
    "histogram_mutual_information",
    "leakage_vs_training_data",
    "motor_stall_attack",
    "roc_auc",
    "roc_curve",
    "run_security_analysis",
    "security_analysis",
    "security_analysis_h_sweep",
    "viterbi_decode",
]
