"""The GAN-Sec methodology end to end (paper Figure 4).

Two functions run the method's steps on historical data, a ``dict``
mapping :class:`~repro.pipeline.pairs.FlowPairKey` to
:class:`~repro.flows.dataset.FlowPairDataset` (in the case study, the
single (acoustic features | G-code condition) dataset recorded from the
simulated printer):

1. :func:`train_pairs` runs **graph generation** (Algorithm 1): the
   design-time architecture is turned into ``G_CPPS``, candidate flow
   pairs are extracted by DFS reachability and pruned to the pairs
   covered by the data.  It then runs **CGAN model generation**
   (Algorithm 2): one conditional GAN per requested pair.  Pairs are
   independent, so training fans out over ``workers`` processes
   (:func:`repro.runtime.executors.fan_out`) with per-pair RNG streams
   derived from the seed and pair key alone — parallel runs are
   bitwise-identical to serial ones.  Per-pair failures are isolated:
   every pair is attempted, and a single
   :class:`~repro.errors.PairTrainingError` aggregates the failures and
   carries the pairs that did train.
2. :func:`analyze_pairs` runs the **security analysis** (Algorithm 3 +
   attack models): likelihood metrics and side-channel leakage, both
   read off one scoring of each (pair, condition), and a
   designer-facing report per pair.

Both read their settings from
:class:`~repro.pipeline.config.ExperimentConfig`.  The persistent,
resumable run of the case study is
:func:`repro.pipeline.experiment.run_experiment`, whose train and
analyze stages call these two functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    PairTrainingError,
)
from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import ConditionalGAN
from repro.graph.architecture import CPPSArchitecture
from repro.graph.builder import generate
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pairs import FlowPairKey
from repro.runtime.events import (
    EventBus,
    PairFailed,
    PairTrained,
    TrainingFinished,
    TrainingStarted,
)
from repro.runtime.executors import fan_out, pool_size
from repro.runtime.training import PairTrainingJob, run_training_job
from repro.security.report import SecurityReport, build_security_report


def _require_pair_key(value) -> FlowPairKey:
    """Reject anything but a :class:`FlowPairKey` at the public entry points."""
    if not isinstance(value, FlowPairKey):
        raise ConfigurationError(
            f"flow pairs must be given as FlowPairKey(first, second), got {value!r}"
        )
    return value


def _require_pair_data(data) -> dict:
    if not data:
        raise DataError("no pair data supplied")
    for key in data:
        _require_pair_key(key)
    return data


@dataclass
class PairModel:
    """A trained model + split data for one flow pair."""

    key: FlowPairKey
    cgan: ConditionalGAN
    train_set: FlowPairDataset
    test_set: FlowPairDataset


def _trainable_keys(architecture: CPPSArchitecture, data: dict) -> set:
    """Algorithm 1 on the flows *data* covers: the keys it may train.

    The paper: "Each pair is then supplied to the CGAN to model
    Pr(F_i|F_j) or Pr(F_j|F_i)" — Algorithm 1 orders pairs causally,
    but either conditioning direction may be trained.
    """
    flow_names = {name for key in data for name in (key.first, key.second)}
    trainable = set()
    for fp in generate(architecture, flow_names).trainable_pairs:
        first, second = fp.names
        trainable.add(FlowPairKey(first, second))
        trainable.add(FlowPairKey(second, first))
    return trainable


def train_pairs(
    architecture: CPPSArchitecture,
    data: dict,
    config: ExperimentConfig,
    *,
    pairs=None,
    workers: int = 1,
    bus: EventBus | None = None,
    checkpoint_plan: dict | None = None,
) -> dict[FlowPairKey, PairModel]:
    """Train one CGAN per covered flow pair (Algorithms 1 and 2).

    Parameters
    ----------
    architecture:
        The design-time CPPS description Algorithm 1 walks.
    data:
        ``FlowPairKey -> FlowPairDataset`` dict; its keys define which
        flows have historical observations.
    config:
        Supplies the seed, ``test_fraction`` and the training schedule
        (``iterations``, ``batch_size``, ``k_disc``).
    pairs:
        Optional subset of *data*'s keys to train; defaults to all of
        them.
    workers:
        Worker count for the pair fan-out.  ``min(workers, pairs)``
        processes train the pairs; one trains them in this thread.
        Results are identical for any value.
    bus:
        Optional :class:`~repro.runtime.events.EventBus` receiving the
        structured training events.
    checkpoint_plan:
        Optional ``pair key ->``
        :class:`~repro.runtime.training.CheckpointSpec` mapping enabling
        periodic crash-recovery checkpoints for those pairs: a valid
        existing checkpoint is resumed from, and the continued run is
        bitwise-identical to an uninterrupted one.

    Returns the mapping of pair keys to :class:`PairModel`.

    Raises
    ------
    PairTrainingError
        If one or more pairs failed during training.  Raised only after
        every pair was attempted; its ``completed`` holds the models of
        the pairs that trained.
    """
    _require_pair_data(data)
    trainable = _trainable_keys(architecture, data)
    if pairs is not None:
        selected = [_require_pair_key(p) for p in pairs]
    else:
        selected = list(data)
    for key in selected:
        if key not in data:
            raise DataError(f"no dataset supplied for pair {key}")
        if key not in trainable:
            raise ConfigurationError(
                f"pair {key} was pruned by Algorithm 1 (not "
                "reachable or not covered by data); cannot train"
            )

    bus = bus if bus is not None else EventBus()
    checkpoint_plan = checkpoint_plan or {}
    jobs = [
        PairTrainingJob(
            key=key,
            dataset=data[key],
            iterations=config.iterations,
            batch_size=config.batch_size,
            k_disc=config.k_disc,
            test_fraction=config.test_fraction,
            root_entropy=config.seed,
            index=i,
            total=len(selected),
            checkpoint=checkpoint_plan.get(key),
        )
        for i, key in enumerate(selected)
    ]

    pool = pool_size(workers, len(jobs))
    start = time.perf_counter()
    bus.emit(
        TrainingStarted(
            total_pairs=len(jobs),
            executor="serial" if pool == 1 else "process",
            workers=pool,
        )
    )
    outcomes = fan_out(run_training_job, jobs, workers)

    failures: dict = {}
    models: dict[FlowPairKey, PairModel] = {}
    for job, outcome in zip(jobs, outcomes):
        if outcome.ok:
            models[job.key] = PairModel(
                key=job.key,
                cgan=outcome.cgan,
                train_set=outcome.train_set,
                test_set=outcome.test_set,
            )
            final = outcome.cgan.history.final()
            bus.emit(
                PairTrained(
                    pair=str(job.key),
                    index=job.index,
                    total_pairs=job.total,
                    seconds=outcome.seconds,
                    train_size=len(outcome.train_set),
                    test_size=len(outcome.test_set),
                    final_d_loss=float(final["d_loss"]),
                    final_g_loss=float(final["g_loss"]),
                )
            )
        else:
            failures[job.key] = outcome.error
            bus.emit(
                PairFailed(
                    pair=str(job.key),
                    index=job.index,
                    total_pairs=job.total,
                    seconds=outcome.seconds,
                    error=outcome.error,
                )
            )
    bus.emit(
        TrainingFinished(
            trained=len(models),
            failed=len(failures),
            seconds=time.perf_counter() - start,
        )
    )
    if failures:
        raise PairTrainingError(failures, completed=models)
    return models


def analyze_pairs(
    models: dict, config: ExperimentConfig, *, bus: EventBus | None = None
) -> dict[FlowPairKey, SecurityReport]:
    """Run the security analysis for trained pairs (Algorithm 3).

    The likelihood tables for every pair in *models* are computed by
    the parallel engine
    (:func:`repro.security.engine.run_security_analysis`): one job per
    (pair, condition), fanned out over ``config.analysis_workers``.
    The per-job RNG streams derive from ``config.seed`` and the (pair,
    condition) identity alone, so any worker count yields
    bitwise-identical reports.  Each pair's side-channel attacker reads
    the log densities Algorithm 3 computed
    (:func:`~repro.security.report.build_security_report`), so each
    (pair, condition) is drawn and scored once.

    Parameters
    ----------
    models:
        ``FlowPairKey -> PairModel``, as :func:`train_pairs` returns.
    config:
        Supplies the seed, ``h``, ``g_size`` and ``analysis_workers``.
    bus:
        Optional :class:`~repro.runtime.events.EventBus` receiving
        ``AnalysisStarted`` / ``ConditionScored`` /
        ``AnalysisCompleted`` events.

    Returns ``pair key -> SecurityReport``.
    """
    from repro.security.engine import AnalysisTarget, run_security_analysis

    if not models:
        raise NotFittedError("train_pairs() must train a pair before analyze_pairs()")
    for key in models:
        _require_pair_key(key)
    likelihoods = run_security_analysis(
        [
            AnalysisTarget(key=key, sampler=model.cgan, test_set=model.test_set)
            for key, model in models.items()
        ],
        h=config.h,
        g_size=config.g_size,
        root_entropy=config.seed,
        workers=config.analysis_workers,
        bus=bus,
    )
    return {
        key: build_security_report(
            model.test_set, likelihoods[key], pair_name=key.label()
        )
        for key, model in models.items()
    }
