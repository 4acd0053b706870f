"""Parallel runtime for pair training and security analysis.

Algorithm 2 trains one independent CGAN per flow pair and Algorithm 3
scores one independent Parzen table per (pair, condition); this package
supplies the machinery to fan both out (:func:`fan_out`: the worker
count alone picks an in-process loop or a process pool), keep them
deterministic (per-work-item RNG streams derived from the pipeline seed
and work-item identity, independent of worker scheduling), and observe
them (a thread-safe event bus with console and JSONL consumers).
"""

from repro.runtime.analysis import (
    AnalysisJob,
    AnalysisOutcome,
    ConditionSampleCache,
    analysis_rng,
    condition_tokens,
    run_analysis_job,
)
from repro.runtime.events import (
    AnalysisCompleted,
    AnalysisStarted,
    ConditionScored,
    EventBus,
    PairFailed,
    PairTrained,
    RuntimeEvent,
    StageCompleted,
    StageSkipped,
    StageStarted,
    TrainingFinished,
    TrainingStarted,
)
from repro.runtime.executors import fan_out, pool_size
from repro.runtime.reporters import (
    ConsoleProgressReporter,
    JsonlTraceWriter,
    read_trace,
)
from repro.runtime.training import (
    CheckpointSpec,
    PairTrainingJob,
    PairTrainingOutcome,
    pair_rng_streams,
    pair_split,
    run_training_job,
)

__all__ = [
    "AnalysisCompleted",
    "AnalysisJob",
    "AnalysisOutcome",
    "AnalysisStarted",
    "CheckpointSpec",
    "ConditionSampleCache",
    "ConditionScored",
    "ConsoleProgressReporter",
    "EventBus",
    "JsonlTraceWriter",
    "PairFailed",
    "PairTrained",
    "PairTrainingJob",
    "PairTrainingOutcome",
    "RuntimeEvent",
    "StageCompleted",
    "StageSkipped",
    "StageStarted",
    "TrainingFinished",
    "TrainingStarted",
    "analysis_rng",
    "condition_tokens",
    "fan_out",
    "pair_rng_streams",
    "pair_split",
    "pool_size",
    "read_trace",
    "run_analysis_job",
    "run_training_job",
]
