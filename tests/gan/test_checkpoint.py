"""Tests for mid-training checkpoints (save/restore + bitwise resume)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.gan.cgan import ConditionalGAN, TrainingCheckpointState
from repro.gan.serialization import (
    CHECKPOINT_MARKER,
    restore_training_checkpoint,
    save_training_checkpoint,
)

ITERATIONS = 40
CHECKPOINT_EVERY = 15  # fires at 15 and 30; never on the final iteration


def _fresh_cgan(dataset):
    return ConditionalGAN(dataset.feature_dim, dataset.condition_dim, seed=7)


def assert_same_model(a, b):
    for net_a, net_b in (
        (a.generator, b.generator),
        (a.discriminator, b.discriminator),
    ):
        wa, wb = net_a.get_weights(), net_b.get_weights()
        assert wa.keys() == wb.keys()
        for name in wa:
            np.testing.assert_array_equal(wa[name], wb[name], err_msg=name)
    assert a.history.d_loss == b.history.d_loss
    assert a.history.g_loss == b.history.g_loss
    assert a.history.iterations == b.history.iterations
    assert a.trained_iterations == b.trained_iterations


class TestBitwiseResume:
    def test_resumed_training_matches_uninterrupted(self, toy_dataset, tmp_path):
        # Reference: one uninterrupted run.
        reference = _fresh_cgan(toy_dataset)
        reference.train(
            toy_dataset, iterations=ITERATIONS, batch_size=16, seed=11
        )

        # Checkpointing run: same seeds, writing periodic checkpoints.
        ckpt_dir = tmp_path / "ckpt"
        checkpointed = _fresh_cgan(toy_dataset)
        checkpointed.train(
            toy_dataset,
            iterations=ITERATIONS,
            batch_size=16,
            seed=11,
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=lambda s: save_training_checkpoint(
                checkpointed, s, ckpt_dir, fingerprint="fp"
            ),
        )
        # Checkpoint callbacks never perturb the training stream.
        assert_same_model(checkpointed, reference)

        # "Crashed" run: a fresh model restores the last checkpoint
        # (iteration 30) and finishes the remaining iterations.
        resumed = _fresh_cgan(toy_dataset)
        state = restore_training_checkpoint(
            resumed, ckpt_dir, expected_fingerprint="fp"
        )
        assert state.iteration == 30
        assert state.total_iterations == ITERATIONS
        assert resumed.trained_iterations == 30
        resumed.train(
            toy_dataset, iterations=ITERATIONS, batch_size=16, resume=state
        )
        assert_same_model(resumed, reference)

    def test_final_iteration_never_checkpoints(self, toy_dataset, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        iterations_seen = []
        cgan = _fresh_cgan(toy_dataset)
        cgan.train(
            toy_dataset,
            iterations=30,
            batch_size=16,
            seed=1,
            checkpoint_every=15,
            on_checkpoint=lambda s: iterations_seen.append(s.iteration),
        )
        assert iterations_seen == [15]  # 30 is the final iteration


class TestRestoreRejection:
    """A defective checkpoint is 'no checkpoint', never a wrong resume."""

    def _checkpointed_dir(self, toy_dataset, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        cgan = _fresh_cgan(toy_dataset)
        cgan.train(
            toy_dataset,
            iterations=ITERATIONS,
            batch_size=16,
            seed=11,
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=lambda s: save_training_checkpoint(
                cgan, s, ckpt_dir, fingerprint="fp"
            ),
        )
        return ckpt_dir

    def test_missing_marker(self, toy_dataset, tmp_path):
        with pytest.raises(SerializationError, match="marker"):
            restore_training_checkpoint(_fresh_cgan(toy_dataset), tmp_path / "none")

    def test_fingerprint_mismatch(self, toy_dataset, tmp_path):
        ckpt_dir = self._checkpointed_dir(toy_dataset, tmp_path)
        with pytest.raises(SerializationError, match="different"):
            restore_training_checkpoint(
                _fresh_cgan(toy_dataset), ckpt_dir, expected_fingerprint="other"
            )

    def test_tampered_component(self, toy_dataset, tmp_path):
        ckpt_dir = self._checkpointed_dir(toy_dataset, tmp_path)
        with open(ckpt_dir / "generator.npz", "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(SerializationError, match="generator.npz"):
            restore_training_checkpoint(
                _fresh_cgan(toy_dataset), ckpt_dir, expected_fingerprint="fp"
            )

    def test_corrupt_marker(self, toy_dataset, tmp_path):
        ckpt_dir = self._checkpointed_dir(toy_dataset, tmp_path)
        (ckpt_dir / CHECKPOINT_MARKER).write_text("{broken")
        with pytest.raises(SerializationError, match="corrupt"):
            restore_training_checkpoint(_fresh_cgan(toy_dataset), ckpt_dir)

    @pytest.mark.parametrize(
        "marker",
        ["[1, 2]", '{"schema": "gansec-train-checkpoint/v1", "files": [1]}'],
        ids=["list-marker", "list-files"],
    )
    def test_non_object_marker(self, tmp_path, toy_dataset, marker):
        # Both shapes used to raise a raw AttributeError, which the
        # fall-back to training from scratch does not catch.
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        (ckpt_dir / CHECKPOINT_MARKER).write_text(marker)
        with pytest.raises(SerializationError, match="not an object"):
            restore_training_checkpoint(_fresh_cgan(toy_dataset), ckpt_dir)

    def test_missing_component(self, toy_dataset, tmp_path):
        ckpt_dir = self._checkpointed_dir(toy_dataset, tmp_path)
        (ckpt_dir / "history.csv").unlink()
        with pytest.raises(SerializationError, match="history.csv"):
            restore_training_checkpoint(
                _fresh_cgan(toy_dataset), ckpt_dir, expected_fingerprint="fp"
            )


class TestTrainValidation:
    def test_resume_and_seed_mutually_exclusive(self, toy_dataset):
        cgan = _fresh_cgan(toy_dataset)
        state = TrainingCheckpointState(
            iteration=1,
            total_iterations=10,
            rng_state_start={},
            rng_state_now={},
        )
        with pytest.raises(ConfigurationError, match="not both"):
            cgan.train(toy_dataset, iterations=10, seed=3, resume=state)

    def test_resume_iteration_out_of_range(self, toy_dataset):
        cgan = _fresh_cgan(toy_dataset)
        state = TrainingCheckpointState(
            iteration=50,
            total_iterations=10,
            rng_state_start={},
            rng_state_now={},
        )
        with pytest.raises(ConfigurationError, match="resume"):
            cgan.train(toy_dataset, iterations=10, resume=state)

    def test_negative_checkpoint_every_rejected(self, toy_dataset):
        cgan = _fresh_cgan(toy_dataset)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            cgan.train(toy_dataset, iterations=5, checkpoint_every=-1)
