"""End-to-end GAN-Sec pipeline (the Figure 4 automatic model-generation
method): Algorithm 1 → Algorithm 2 per flow pair → Algorithm 3 reports.

Training fans out by :func:`repro.runtime.executors.fan_out`; every pair
is identified by a :class:`~repro.pipeline.pairs.FlowPairKey`.

:class:`GANSec` calls the three steps directly.  :func:`run_experiment`
runs them as five fingerprinted stages (record, graph, train, analyze,
report) over a content-addressed artifact store, each skipped when it
is up to date, which is what makes it resumable (see
:func:`experiment_status` / :func:`invalidate_stage`).
"""

from repro.pipeline.config import AnalysisConfig, CGANConfig, GANSecConfig
from repro.pipeline.pairs import FlowPairKey
from repro.pipeline.gansec import GANSec, PairModel
from repro.pipeline.experiment import (
    ExperimentConfig,
    ExperimentResult,
    experiment_status,
    invalidate_stage,
    run_experiment,
    stage_fingerprint,
)

__all__ = [
    "AnalysisConfig",
    "CGANConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "FlowPairKey",
    "GANSec",
    "GANSecConfig",
    "PairModel",
    "experiment_status",
    "invalidate_stage",
    "run_experiment",
    "stage_fingerprint",
]
