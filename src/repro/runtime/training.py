"""Per-pair training jobs: the unit of work Algorithm 2 fans out.

A :class:`PairTrainingJob` is a self-contained, picklable description
of "train one CGAN for one flow pair": the pair key, its dataset, the
training schedule, and the root entropy (the experiment seed).
:func:`run_training_job` executes it — in this interpreter or a worker
process — and always returns a :class:`PairTrainingOutcome` instead of
raising, so a single bad pair cannot abort the batch (failure isolation
happens here, and :class:`~repro.errors.PairTrainingError` is assembled
by the caller).

Determinism: the job's three RNG streams (data split, training, weight
init) are derived from ``(root_entropy, pair key)`` only — never from a
shared sequential stream — so results are bitwise-identical no matter
whether the job ran in this interpreter or a worker process, or in
what order.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import ConditionalGAN
from repro.utils.rng import derive_rngs

if TYPE_CHECKING:  # avoid a runtime ↔ pipeline import cycle
    from repro.pipeline.pairs import FlowPairKey


def pair_rng_streams(root_entropy: int, key: "FlowPairKey"):
    """``(split_rng, train_rng, model_rng)`` for one pair, schedule-free."""
    return derive_rngs(root_entropy, ("pair", key.first, key.second), 3)


def pair_split(
    dataset: FlowPairDataset, test_fraction: float, root_entropy: int, key: "FlowPairKey"
):
    """``(train_set, test_set)`` of *key*'s dataset.

    The split draws from the pair's own stream, so training and every
    later reload of a saved model see the same held-out rows.
    """
    split_rng = pair_rng_streams(root_entropy, key)[0]
    return dataset.split(test_fraction, seed=split_rng)


@dataclass(frozen=True)
class CheckpointSpec:
    """Where (and how often) one pair's training checkpoints live.

    ``fingerprint`` is an opaque configuration token (typically the
    training stage's fingerprint): a checkpoint written under one
    fingerprint is never resumed under another.
    """

    directory: str
    every: int
    fingerprint: str = ""


@dataclass
class PairTrainingJob:
    """Everything needed to train one flow pair, picklable.

    The model is :class:`~repro.gan.cgan.ConditionalGAN` with its
    default networks; ``iterations``, ``batch_size`` and ``k_disc`` are
    its Algorithm 2 training schedule.
    """

    key: "FlowPairKey"
    dataset: FlowPairDataset
    iterations: int
    batch_size: int
    k_disc: int
    test_fraction: float
    root_entropy: int
    index: int = 0
    total: int = 1
    #: Optional crash-recovery checkpointing (see :class:`CheckpointSpec`).
    #: When set, a valid existing checkpoint is resumed from and fresh
    #: checkpoints are written every ``checkpoint.every`` iterations;
    #: results are bitwise-identical either way.
    checkpoint: CheckpointSpec | None = None


@dataclass
class PairTrainingOutcome:
    """Result of one job: a trained model *or* a captured failure."""

    key: "FlowPairKey"
    seconds: float
    cgan: ConditionalGAN | None = None
    train_set: FlowPairDataset | None = None
    test_set: FlowPairDataset | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_training_job(job: PairTrainingJob) -> PairTrainingOutcome:
    """Execute *job*; never raises."""
    start = time.perf_counter()
    try:
        def build():
            train_rng, model_rng = pair_rng_streams(job.root_entropy, job.key)[1:]
            train_set, test_set = pair_split(
                job.dataset, job.test_fraction, job.root_entropy, job.key
            )
            cgan = ConditionalGAN(
                job.dataset.feature_dim, job.dataset.condition_dim, seed=model_rng
            )
            return train_set, test_set, cgan, train_rng

        train_set, test_set, cgan, train_rng = build()

        resume_state = None
        on_checkpoint = None
        if job.checkpoint is not None:
            from repro.errors import SerializationError
            from repro.gan.serialization import (
                restore_training_checkpoint,
                save_training_checkpoint,
            )

            spec = job.checkpoint
            try:
                resume_state = restore_training_checkpoint(
                    cgan, spec.directory, expected_fingerprint=spec.fingerprint
                )
            except SerializationError:
                # No usable checkpoint (absent, corrupt, or from another
                # configuration).  A failed restore may have partially
                # mutated the model, so rebuild everything from the
                # deterministic streams and train from scratch.
                resume_state = None
                train_set, test_set, cgan, train_rng = build()
            if spec.every > 0:
                def on_checkpoint(state, _cgan=cgan, _spec=spec):
                    save_training_checkpoint(
                        _cgan, state, _spec.directory,
                        fingerprint=_spec.fingerprint,
                    )

        cgan.train(
            train_set,
            iterations=job.iterations,
            batch_size=job.batch_size,
            k_disc=job.k_disc,
            seed=None if resume_state is not None else train_rng,
            checkpoint_every=job.checkpoint.every if on_checkpoint else 0,
            on_checkpoint=on_checkpoint,
            resume=resume_state,
        )
        return PairTrainingOutcome(
            key=job.key,
            seconds=time.perf_counter() - start,
            cgan=cgan,
            train_set=train_set,
            test_set=test_set,
        )
    except Exception:  # noqa: BLE001 - failure isolation is the contract
        return PairTrainingOutcome(
            key=job.key,
            seconds=time.perf_counter() - start,
            error=traceback.format_exc(),
        )
