"""Per-pair training jobs: the unit of work Algorithm 2 fans out.

A :class:`PairTrainingJob` is a self-contained, picklable description
of "train one CGAN for one flow pair": the pair key, its dataset, the
hyperparameters, and the pipeline's root entropy.  :func:`run_training_job`
executes it — in this interpreter or a worker process — and always
returns a :class:`PairTrainingOutcome` instead of raising, so a single
bad pair cannot abort the batch (failure isolation happens here, and
:class:`~repro.errors.PairTrainingError` is assembled by the caller).

Determinism: the job's three RNG streams (data split, training, weight
init) are derived from ``(root_entropy, pair key)`` only — never from a
shared sequential stream — so results are bitwise-identical no matter
whether the job ran in this interpreter or a worker process, or in
what order.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import (
    ConditionalGAN,
    default_discriminator,
    default_generator,
)
from repro.utils.rng import derive_rngs

if TYPE_CHECKING:  # avoid a runtime ↔ pipeline import cycle
    from repro.pipeline.config import CGANConfig
    from repro.pipeline.pairs import FlowPairKey


def build_pair_cgan(
    cfg: "CGANConfig", feature_dim: int, condition_dim: int, seed
) -> ConditionalGAN:
    """Construct the per-pair CGAN described by *cfg* (Algorithm 2 model)."""
    gen_layers = default_generator(feature_dim, hidden=cfg.generator_hidden)
    disc_layers = default_discriminator(hidden=cfg.discriminator_hidden)
    return ConditionalGAN(
        feature_dim,
        condition_dim,
        noise_dim=cfg.noise_dim,
        generator_layers=gen_layers,
        discriminator_layers=disc_layers,
        generator_loss=cfg.generator_loss,
        learning_rate=cfg.learning_rate,
        seed=seed,
    )


def pair_rng_streams(root_entropy: int, key: "FlowPairKey"):
    """``(split_rng, train_rng, model_rng)`` for one pair, schedule-free."""
    return derive_rngs(root_entropy, ("pair", key.first, key.second), 3)


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
    """Everything needed to train one flow pair, picklable."""

    key: "FlowPairKey"
    dataset: FlowPairDataset
    cgan: "CGANConfig"
    test_fraction: float
    root_entropy: int
    index: int = 0
    total: int = 1
    progress_every: int | None = None
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
    #: ``(iteration, total_iterations, d_loss, g_loss)`` rows collected
    #: for deferred EpochProgress replay (process-pool runs).
    progress: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_training_job(job: PairTrainingJob, emit=None) -> PairTrainingOutcome:
    """Execute *job*; never raises.

    *emit*, when given, is called as ``emit(iteration, total, d_loss,
    g_loss)`` every ``job.progress_every`` iterations (live progress for
    in-process runs).  The same rows are always recorded on the
    outcome for after-the-fact replay.
    """
    start = time.perf_counter()
    progress_rows: list = []

    def record(iteration, total, d_loss, g_loss):
        row = (int(iteration), int(total), float(d_loss), float(g_loss))
        progress_rows.append(row)
        if emit is not None:
            emit(*row)

    try:
        def build():
            split_rng, train_rng, model_rng = pair_rng_streams(
                job.root_entropy, job.key
            )
            train_set, test_set = job.dataset.split(
                job.test_fraction, seed=split_rng
            )
            cgan = build_pair_cgan(
                job.cgan,
                job.dataset.feature_dim,
                job.dataset.condition_dim,
                model_rng,
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
            iterations=job.cgan.iterations,
            batch_size=job.cgan.batch_size,
            k_disc=job.cgan.k_disc,
            label_smoothing=job.cgan.label_smoothing,
            seed=None if resume_state is not None else train_rng,
            progress=record if job.progress_every else None,
            progress_every=job.progress_every or 0,
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
            progress=progress_rows,
        )
    except Exception:  # noqa: BLE001 - failure isolation is the contract
        return PairTrainingOutcome(
            key=job.key,
            seconds=time.perf_counter() - start,
            progress=progress_rows,
            error=traceback.format_exc(),
        )
