"""Tests for repro.gan.serialization."""

import json

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.gan.cgan import ConditionalGAN
from repro.gan.serialization import load_cgan, save_cgan


def trained(toy_dataset, **kwargs):
    cgan = ConditionalGAN(4, 2, noise_dim=4, seed=0, **kwargs)
    cgan.train(toy_dataset, iterations=40)
    return cgan


class TestRoundTrip:
    def test_generator_outputs_preserved(self, toy_dataset, tmp_path):
        cgan = trained(toy_dataset)
        save_cgan(cgan, tmp_path / "model")
        loaded = load_cgan(tmp_path / "model")
        cond = np.array([1.0, 0.0])
        a = cgan.generate_for_condition(cond, 8, seed=5)
        b = loaded.generate_for_condition(cond, 8, seed=5)
        np.testing.assert_allclose(a, b)

    def test_discriminator_preserved(self, toy_dataset, tmp_path):
        cgan = trained(toy_dataset)
        save_cgan(cgan, tmp_path / "model")
        loaded = load_cgan(tmp_path / "model")
        scores_a = cgan.discriminator_score(
            toy_dataset.features[:5], toy_dataset.conditions[:5]
        )
        scores_b = loaded.discriminator_score(
            toy_dataset.features[:5], toy_dataset.conditions[:5]
        )
        np.testing.assert_allclose(scores_a, scores_b)

    def test_metadata_restored(self, toy_dataset, tmp_path):
        cgan = trained(toy_dataset, generator_loss="minimax")
        save_cgan(cgan, tmp_path / "model")
        loaded = load_cgan(tmp_path / "model")
        assert loaded.generator_loss_name == "minimax"
        assert loaded.trained_iterations == 40
        assert loaded.is_trained

    def test_noise_dim_preserved(self, toy_dataset, tmp_path):
        cgan = ConditionalGAN(4, 2, noise_dim=6, seed=0)
        cgan.train(toy_dataset, iterations=10)
        save_cgan(cgan, tmp_path / "model")
        meta = json.loads((tmp_path / "model" / "cgan.json").read_text())
        assert meta["noise"] == {"kind": "gaussian", "dim": 6, "std": 1.0}
        loaded = load_cgan(tmp_path / "model")
        assert loaded.noise_dim == loaded.noise.dim == 6


class TestFailures:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(SerializationError, match="no CGAN metadata"):
            load_cgan(tmp_path / "absent")

    def test_corrupt_metadata(self, toy_dataset, tmp_path):
        cgan = trained(toy_dataset)
        save_cgan(cgan, tmp_path / "model")
        (tmp_path / "model" / "cgan.json").write_text("{broken")
        with pytest.raises(SerializationError, match="corrupt"):
            load_cgan(tmp_path / "model")

    @pytest.mark.parametrize(
        "noise",
        [
            {"kind": "uniform", "dim": 4, "low": -1.0, "high": 1.0},
            {"kind": "gaussian", "dim": 4, "std": 0.5},
            {"kind": "gaussian", "dim": 4},
        ],
        ids=["uniform", "scaled-gauss", "no-std"],
    )
    def test_non_standard_noise_rejected(self, toy_dataset, tmp_path, noise):
        # Only a standard-normal Z is ever written; anything else in
        # cgan.json cannot have come from save_cgan.
        save_cgan(trained(toy_dataset), tmp_path / "model")
        meta_path = tmp_path / "model" / "cgan.json"
        meta = json.loads(meta_path.read_text())
        meta["noise"] = noise
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SerializationError, match="unsupported noise prior"):
            load_cgan(tmp_path / "model")
