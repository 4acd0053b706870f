"""End-to-end GAN-Sec pipeline (the Figure 4 automatic model-generation
method): Algorithm 1 → Algorithm 2 per flow pair → Algorithm 3 reports.

:func:`train_pairs` runs Algorithms 1 and 2 and :func:`analyze_pairs`
runs Algorithm 3, both from one :class:`ExperimentConfig`.  Training
fans out by :func:`repro.runtime.executors.fan_out`; every pair is
identified by a :class:`~repro.pipeline.pairs.FlowPairKey`.

:func:`run_experiment` runs the case study as five fingerprinted stages
(record, graph, train, analyze, report) over a content-addressed
artifact store, each skipped when it is up to date, which is what makes
it resumable (see :func:`experiment_status` / :func:`invalidate_stage`).
"""

from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pairs import FlowPairKey
from repro.pipeline.gansec import PairModel, analyze_pairs, train_pairs
from repro.pipeline.experiment import (
    ExperimentResult,
    experiment_status,
    invalidate_stage,
    run_experiment,
    stage_fingerprint,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "FlowPairKey",
    "PairModel",
    "analyze_pairs",
    "experiment_status",
    "invalidate_stage",
    "run_experiment",
    "stage_fingerprint",
    "train_pairs",
]
