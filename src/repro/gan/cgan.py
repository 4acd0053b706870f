"""Conditional GAN and the paper's Algorithm 2 training loop.

The generator ``G(z | c)`` maps concatenated ``[noise, condition]`` to a
feature vector; the discriminator ``D(x | c)`` maps ``[features,
condition]`` to the probability that *x* came from the data rather than
from G.  Training alternates ``k`` discriminator ascent steps with one
generator descent step per iteration, exactly as Algorithm 2
(Goodfellow et al. 2014 / Mirza & Osindero 2014) prescribes.

Two generator objectives are supported:

* ``"minimax"`` — descend ``mean log(1 - D(G(z|c)))``, the literal
  Line 10 of Algorithm 2;
* ``"non_saturating"`` — descend ``-mean log D(G(z|c))``, Goodfellow's
  practical recommendation with identical fixed points but stronger
  early gradients.  This is the library default; the ablation benchmark
  ``bench_ablation_gloss`` compares the two.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.flows.dataset import FlowPairDataset
from repro.gan.history import TrainingHistory
from repro.gan.noise import GaussianNoise
from repro.nn.layers import Dense
from repro.nn.losses import (
    BinaryCrossEntropy,
    GeneratorLossMinimax,
    GeneratorLossNonSaturating,
    discriminator_loss,
)
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import check_positive_int


def default_generator(feature_dim: int, hidden=(64, 64)) -> list:
    """Default generator layer stack: ReLU hiddens, sigmoid output.

    A sigmoid head matches the case study's features, which are min-max
    scaled into [0, 1] (Section IV-C / Figure 8).
    """
    layers = [Dense(h, "relu", kernel_init="he_uniform") for h in hidden]
    layers.append(Dense(feature_dim, "sigmoid"))
    return layers


@dataclass
class TrainingCheckpointState:
    """Position of a paused Algorithm 2 run inside one ``train()`` call.

    Together with the network weights, optimizer state, and loss
    history (serialized by
    :func:`repro.gan.serialization.save_training_checkpoint`), this is
    everything needed to continue training bitwise-identically to a run
    that was never interrupted:

    ``iteration``
        Completed iterations of the current ``train()`` call.
    ``total_iterations``
        The ``iterations`` argument the interrupted call was made with.
    ``rng_state_start``
        Bit-generator state of the training RNG *before* the initial
        dataset shuffle — replayed on resume so the shuffled base
        ordering is reconstructed exactly.
    ``rng_state_now``
        Bit-generator state after ``iteration`` completed iterations —
        the position the noise/mini-batch stream continues from.
    """

    iteration: int
    total_iterations: int
    rng_state_start: dict
    rng_state_now: dict


def default_discriminator(hidden=(64, 32)) -> list:
    """Default discriminator stack: LeakyReLU hiddens, sigmoid head."""
    layers = [
        Dense(h, "leaky_relu", kernel_init="he_uniform") for h in hidden
    ]
    layers.append(Dense(1, "sigmoid"))
    return layers


class ConditionalGAN:
    """A CGAN modeling ``Pr(F_1 | F_2)`` for one flow pair.

    Parameters
    ----------
    feature_dim:
        Dimension of the modeled flow's feature vectors (``F_1``).
    condition_dim:
        Dimension of the conditioning vectors (``F_2``), e.g. 3 for the
        one-hot motor encoding.
    noise_dim:
        Dimension of the standard-normal noise prior Z.
    generator_layers / discriminator_layers:
        Optional custom layer stacks (uninitialized
        :class:`~repro.nn.layers.Layer` lists); defaults follow
        :func:`default_generator` / :func:`default_discriminator`.
    generator_loss:
        ``"non_saturating"`` (default) or ``"minimax"`` (paper-literal).
    learning_rate:
        Step size of the two ``Adam`` optimizers.
    seed:
        Seed for weight init and training randomness.
    """

    def __init__(
        self,
        feature_dim: int,
        condition_dim: int,
        *,
        noise_dim: int = 16,
        generator_layers=None,
        discriminator_layers=None,
        generator_loss: str = "non_saturating",
        learning_rate: float = 2e-3,
        seed=None,
    ):
        self.feature_dim = check_positive_int(feature_dim, "feature_dim")
        self.condition_dim = check_positive_int(condition_dim, "condition_dim")
        self.noise = GaussianNoise(noise_dim)
        self.noise_dim = self.noise.dim

        init_rng, self._train_rng = spawn_rngs(seed, 2)
        g_layers = generator_layers or default_generator(feature_dim)
        d_layers = discriminator_layers or default_discriminator()
        self.generator = Sequential(
            g_layers, input_dim=self.noise_dim + condition_dim, seed=init_rng
        )
        if self.generator.output_dim != feature_dim:
            raise ConfigurationError(
                f"generator outputs {self.generator.output_dim} features, "
                f"expected {feature_dim}"
            )
        self.discriminator = Sequential(
            d_layers, input_dim=feature_dim + condition_dim, seed=init_rng
        )
        if self.discriminator.output_dim != 1:
            raise ConfigurationError(
                f"discriminator must output 1 value, got {self.discriminator.output_dim}"
            )

        # Every step reports both objectives; the chosen one is descended.
        self._g_losses = {
            "minimax": GeneratorLossMinimax(),
            "non_saturating": GeneratorLossNonSaturating(),
        }
        if generator_loss not in self._g_losses:
            raise ConfigurationError(
                f"generator_loss must be 'minimax' or 'non_saturating', "
                f"got {generator_loss!r}"
            )
        self._g_loss = self._g_losses[generator_loss]
        self.generator_loss_name = generator_loss
        self._bce = BinaryCrossEntropy()
        self._g_opt = Adam(learning_rate)
        self._d_opt = Adam(learning_rate)

        self.history = TrainingHistory()
        self.snapshots: list = []
        self.trained_iterations = 0
        # Per-batch-size training buffers (noise, network inputs,
        # targets), reused every step so the inner loop allocates
        # nothing; values written through them are identical to the
        # hstack/vstack construction they replace.
        self._train_buffers: dict = {}

    def _step_buffers(self, n: int) -> dict:
        bufs = self._train_buffers.get(n)
        if bufs is None:
            fd, cd, nd = self.feature_dim, self.condition_dim, self.noise_dim
            bufs = {
                "z": np.empty((n, nd), dtype=np.float64),
                "g_in": np.empty((n, nd + cd), dtype=np.float64),
                "d_in_g": np.empty((n, fd + cd), dtype=np.float64),
                "d_in_d": np.empty((2 * n, fd + cd), dtype=np.float64),
                # Bottom half (fake labels) is zero forever; only the
                # real-label top half is refilled per step.
                "targets": np.zeros((2 * n, 1), dtype=np.float64),
                "real_x": np.empty((n, fd), dtype=np.float64),
                "real_c": np.empty((n, cd), dtype=np.float64),
            }
            self._train_buffers[n] = bufs
        return bufs

    # -- sampling ----------------------------------------------------------------
    def sample_noise(self, n: int, *, seed=None) -> np.ndarray:
        rng = as_rng(seed) if seed is not None else self._train_rng
        return self.noise.sample(n, rng)

    def generate(self, conditions, *, seed=None) -> np.ndarray:
        """Generate one sample per condition row: ``G(Z | conditions)``."""
        conditions = np.asarray(conditions, dtype=np.float64)
        if conditions.ndim == 1:
            conditions = conditions[None, :]
        if conditions.shape[1] != self.condition_dim:
            raise ConfigurationError(
                f"conditions must have width {self.condition_dim}, "
                f"got {conditions.shape[1]}"
            )
        z = self.sample_noise(conditions.shape[0], seed=seed)
        return self.generator.predict(np.hstack([z, conditions]))

    def generate_for_condition(self, condition, n: int, *, seed=None) -> np.ndarray:
        """Generate *n* samples under a single fixed condition (Algorithm 3
        Line 6: ``X_G = GSize samples from G(Z|C_i)``)."""
        condition = np.asarray(condition, dtype=np.float64).ravel()
        conds = np.tile(condition, (n, 1))
        return self.generate(conds, seed=seed)

    # -- training -----------------------------------------------------------------
    def _d_step(self, real_x, real_c, *, label_smoothing: float):
        """One discriminator ascent step (Algorithm 2, Lines 5–8).

        Network inputs are assembled in preallocated per-batch-size
        buffers (same values the seed ``hstack``/``vstack`` produced,
        without the per-step allocations); the noise draw consumes the
        training RNG stream exactly as ``sample_noise`` does.
        """
        n = real_x.shape[0]
        bufs = self._step_buffers(n)
        z = self.noise.sample_into(bufs["z"], self._train_rng)
        g_in = bufs["g_in"]
        g_in[:, : self.noise_dim] = z
        g_in[:, self.noise_dim :] = real_c
        fake_x = self.generator.forward(g_in, training=True)
        fd = self.feature_dim
        d_in = bufs["d_in_d"]
        d_in[:n, :fd] = real_x
        d_in[:n, fd:] = real_c
        d_in[n:, :fd] = fake_x
        d_in[n:, fd:] = real_c
        targets = bufs["targets"]
        targets[:n].fill(1.0 - label_smoothing)
        preds = self.discriminator.forward(d_in, training=True)
        self.discriminator._backward(self._bce.gradient(preds, targets))
        self._d_opt.step(self.discriminator)
        return discriminator_loss(preds[:n], preds[n:])

    def _g_step(self, cond_batch):
        """One generator descent step (Algorithm 2, Lines 9–10).

        The generator gradient flows through the (frozen) discriminator:
        we backprop the generator loss to the discriminator's *input*,
        slice off the feature columns, and continue into the generator.
        The discriminator optimizer is not stepped, so that backward
        skips D's parameter gradients (the next D step overwrites them).
        """
        n = cond_batch.shape[0]
        bufs = self._step_buffers(n)
        z = self.noise.sample_into(bufs["z"], self._train_rng)
        g_in = bufs["g_in"]
        g_in[:, : self.noise_dim] = z
        g_in[:, self.noise_dim :] = cond_batch
        fake_x = self.generator.forward(g_in, training=True)
        d_in = bufs["d_in_g"]
        d_in[:, : self.feature_dim] = fake_x
        d_in[:, self.feature_dim :] = cond_batch
        d_pred = self.discriminator.forward(d_in, training=True)
        grad_d_in = self.discriminator._backward(
            self._g_loss.gradient(d_pred), input_grad=True, param_grads=False
        )
        self.generator._backward(grad_d_in[:, : self.feature_dim])
        self._g_opt.step(self.generator)
        g_objective = self._g_losses["minimax"].value(d_pred)
        g_loss = self._g_losses["non_saturating"].value(d_pred)
        return g_loss, g_objective

    def train(
        self,
        dataset: FlowPairDataset,
        *,
        iterations: int = 500,
        batch_size: int = 32,
        k_disc: int = 1,
        label_smoothing: float = 0.0,
        data_fraction=None,
        snapshot_every: int | None = None,
        seed=None,
        checkpoint_every: int = 0,
        on_checkpoint=None,
        resume: TrainingCheckpointState | None = None,
    ) -> TrainingHistory:
        """Run Algorithm 2.

        Parameters
        ----------
        dataset:
            Aligned (features, conditions) training data.
        iterations:
            Outer-loop count (``Iter``).
        batch_size:
            Mini-batch size (``n``).
        k_disc:
            Discriminator steps per iteration (``k``).
        label_smoothing:
            One-sided smoothing of real labels (0 = off).
        data_fraction:
            Optional callable ``iteration -> fraction in (0, 1]``
            restricting how much of the dataset is visible — models the
            paper's growing-data training (Figure 7) and
            attacker-capability limits.
        snapshot_every:
            If set, a deep copy of the generator is stored in
            :attr:`snapshots` every that-many iterations (drives the
            Figure 9 likelihood-vs-iteration analysis).
        seed:
            Optional override for the training RNG stream.
        checkpoint_every:
            Cadence (in iterations) of the *on_checkpoint* callback;
            0 disables checkpointing.  The final iteration never emits
            a checkpoint (the finished model supersedes it).
        on_checkpoint:
            Optional callback ``on_checkpoint(state)`` receiving a
            :class:`TrainingCheckpointState`; callers persist it (plus
            weights/optimizers/history) to support crash recovery.
        resume:
            A :class:`TrainingCheckpointState` continuing an earlier,
            interrupted call.  The caller must have restored weights,
            optimizer state, and history first (see
            :func:`repro.gan.serialization.restore_training_checkpoint`);
            mutually exclusive with *seed*.  The continued run is
            bitwise identical to one that was never interrupted.
        """
        if dataset.feature_dim != self.feature_dim:
            raise ConfigurationError(
                f"dataset feature_dim {dataset.feature_dim} != model {self.feature_dim}"
            )
        if dataset.condition_dim != self.condition_dim:
            raise ConfigurationError(
                f"dataset condition_dim {dataset.condition_dim} != model "
                f"{self.condition_dim}"
            )
        check_positive_int(iterations, "iterations")
        check_positive_int(batch_size, "batch_size")
        check_positive_int(k_disc, "k_disc")
        check_positive_int(checkpoint_every, "checkpoint_every", minimum=0)
        if not 0.0 <= label_smoothing < 0.5:
            raise ConfigurationError(
                f"label_smoothing must be in [0, 0.5), got {label_smoothing}"
            )
        if resume is not None:
            if seed is not None:
                raise ConfigurationError(
                    "pass either seed or resume to train(), not both"
                )
            if not 0 <= resume.iteration < iterations:
                raise ConfigurationError(
                    f"cannot resume at iteration {resume.iteration} of a "
                    f"{iterations}-iteration run"
                )
            restored = np.random.default_rng()
            restored.bit_generator.state = resume.rng_state_start
            self._train_rng = restored
        elif seed is not None:
            self._train_rng = as_rng(seed)
        rng = self._train_rng
        rng_state_start = rng.bit_generator.state

        base = dataset.shuffled(seed=rng)
        start_iteration = 0
        if resume is not None:
            # The shuffle above replayed the original permutation draw;
            # now jump the stream to where the interrupted run stopped.
            rng.bit_generator.state = resume.rng_state_now
            start_iteration = resume.iteration
        # Mini-batches are gathered into fixed buffers (np.take) instead
        # of fancy-indexed copies — same RNG draw, same rows, no per-step
        # allocation.
        batch_bufs = self._step_buffers(batch_size)
        batch_out = (batch_bufs["real_x"], batch_bufs["real_c"])
        for it in range(start_iteration, iterations):
            if data_fraction is not None:
                frac = float(data_fraction(it))
                if not 0.0 < frac <= 1.0:
                    raise ConfigurationError(
                        f"data_fraction must return values in (0,1], got {frac}"
                    )
                visible = base.take(
                    max(1, int(round(frac * len(base)))), seed=rng
                ) if frac < 1.0 else base
            else:
                visible = base

            d_loss = np.nan
            for _ in range(k_disc):
                real_x, real_c = visible.sample_batch(
                    batch_size, seed=rng, out=batch_out
                )
                d_loss = self._d_step(
                    real_x, real_c, label_smoothing=label_smoothing
                )
            _, cond_batch = visible.sample_batch(
                batch_size, seed=rng, out=batch_out
            )
            g_loss, g_objective = self._g_step(cond_batch)

            self.trained_iterations += 1
            self.history.record(
                self.trained_iterations, d_loss, g_loss, g_objective, len(visible)
            )
            if snapshot_every and (it + 1) % snapshot_every == 0:
                self.snapshots.append(
                    (self.trained_iterations, self.generator.clone())
                )
            if (
                on_checkpoint is not None
                and checkpoint_every
                and (it + 1) % checkpoint_every == 0
                and it + 1 < iterations
            ):
                on_checkpoint(
                    TrainingCheckpointState(
                        iteration=it + 1,
                        total_iterations=iterations,
                        rng_state_start=copy.deepcopy(rng_state_start),
                        rng_state_now=rng.bit_generator.state,
                    )
                )
        return self.history

    # -- introspection ---------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        return self.trained_iterations > 0

    def require_trained(self):
        if not self.is_trained:
            raise NotFittedError(
                "ConditionalGAN used before train(); call train(dataset) first"
            )

    def discriminator_score(self, features, conditions) -> np.ndarray:
        """``D(x | c)`` for aligned feature/condition rows."""
        features = np.asarray(features, dtype=np.float64)
        conditions = np.asarray(conditions, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        if conditions.ndim == 1:
            conditions = np.tile(conditions, (features.shape[0], 1))
        if features.shape[0] != conditions.shape[0]:
            raise DataError("features and conditions row counts differ")
        return self.discriminator.predict(
            np.hstack([features, conditions])
        ).ravel()

    def __repr__(self):
        return (
            f"ConditionalGAN(feature_dim={self.feature_dim}, "
            f"condition_dim={self.condition_dim}, noise_dim={self.noise_dim}, "
            f"loss={self.generator_loss_name!r}, "
            f"iterations={self.trained_iterations})"
        )
