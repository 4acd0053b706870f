"""End-to-end GAN-Sec pipeline (the Figure 4 automatic model-generation
method): Algorithm 1 → Algorithm 2 per flow pair → Algorithm 3 reports.

Training fans out over the :mod:`repro.runtime` executors; every pair
is identified by a :class:`~repro.pipeline.pairs.FlowPairKey`.

:class:`GANSec` calls the three steps directly.  Experiments execute as
a :class:`~repro.pipeline.rungraph.RunGraph` of fingerprinted stages
over a content-addressed artifact store, which is what makes
:func:`run_experiment` resumable (see :func:`experiment_status` /
:func:`invalidate_stage`).
"""

from repro.pipeline.config import AnalysisConfig, CGANConfig, GANSecConfig
from repro.pipeline.pairs import FlowPairKey
from repro.pipeline.gansec import GANSec, PairModel
from repro.pipeline.rungraph import (
    RunGraph,
    Stage,
    StageOutcome,
    stage_fingerprint,
)
from repro.pipeline.stages import ExperimentRunContext, build_experiment_stages
from repro.pipeline.experiment import (
    ExperimentConfig,
    ExperimentResult,
    experiment_status,
    invalidate_stage,
    run_experiment,
)

__all__ = [
    "AnalysisConfig",
    "CGANConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunContext",
    "FlowPairKey",
    "GANSec",
    "GANSecConfig",
    "PairModel",
    "RunGraph",
    "Stage",
    "StageOutcome",
    "build_experiment_stages",
    "experiment_status",
    "invalidate_stage",
    "run_experiment",
    "stage_fingerprint",
]
